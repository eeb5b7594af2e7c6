"""Smoke test for the benchmark itself, on tiny inputs.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import speed  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_declared_metric_is_emitted(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0


@pytest.mark.parametrize("size", ["clinical-tiny", "wide-tiny"])
def test_generator_is_byte_deterministic(tmp_path, size):
    gen.generate(size, 5, tmp_path / "a")
    gen.generate(size, 5, tmp_path / "b")
    gen.generate(size, 6, tmp_path / "c")
    for name in ("dataset.jsonl", "masks.jsonl", "expected.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert ((tmp_path / "a" / "masks.jsonl").read_bytes()
            != (tmp_path / "c" / "masks.jsonl").read_bytes())


def test_rle_encode_round_trips():
    rng = np.random.default_rng(0)
    for first in (False, True):
        mask = rng.random((9, 7)) < 0.4
        mask[0, 0] = first
        runs = gen.rle_encode(mask)
        values = np.arange(len(runs)) % 2
        assert (np.repeat(values, runs).reshape(mask.shape) == mask).all()


def test_reference_seconds_drop_probes_and_scale_by_mean_speed():
    n = speed.NOMINAL_S
    probe = speed.SpeedProbe()
    # speeds 1 and 0.5 inside the first region, none inside the second
    probe.probes = [(1.0, 1.0 + n), (1.5, 1.5 + 2 * n), (9.0, 9.0 + n)]
    got = probe.reference_seconds([(1.0, 2.0), (3.0, 3.004)])
    assert got == pytest.approx([(1.0 - 3 * n) * 0.75, 0.004 * 0.75])
    # a region with no probe inside takes the nearest one
    assert probe.reference_seconds([(8.0, 8.004)]) == pytest.approx([0.004])
