"""End-to-end checks for the command line front end.

Every test drives ``cli.main(argv)`` in-process and asserts on exit codes,
the one-line JSON summary on stdout, and the files written.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from corpus_utils import tiny_corpus
from cotforge import cli, fixture_path, jsonl
from cotforge.jsonl import TRACE_CSV_COLUMNS, read_corpus, read_trace, write_corpus


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def summary_of(out: str) -> dict:
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 1, f"expected one summary line, got {lines!r}"
    return json.loads(lines[0])


def write_jsonl(path: Path, rows) -> Path:
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return path


def half_mask(side: str, height=16, width=16) -> list:
    mask = np.zeros((height, width), dtype=bool)
    if side == "left":
        mask[:, : width // 2] = True
    else:
        mask[:, width // 2 :] = True
    return jsonl.rle_encode(mask)


@pytest.fixture
def forge_inputs(tmp_path):
    dataset = write_jsonl(
        tmp_path / "dataset.jsonl",
        [
            {
                "image_id": "ct_001",
                "width": 16,
                "height": 16,
                "modality": "CT",
                "annotations": [
                    {"box": [0.1, 0.1, 0.4, 0.9], "lesion_class": "mass"},
                    {"box": [0.6, 0.1, 0.9, 0.9], "lesion_class": "cyst"},
                ],
            }
        ],
    )
    masks = write_jsonl(
        tmp_path / "masks.jsonl",
        [
            {
                "image_id": "ct_001",
                "organ_label": "liver",
                "height": 16,
                "width": 16,
                "rle": half_mask("left"),
            },
            {
                "image_id": "ct_001",
                "organ_label": "kidney",
                "height": 16,
                "width": 16,
                "rle": half_mask("right"),
            },
        ],
    )
    return dataset, masks


# ---------------------------------------------------------------------------
# forge


def test_forge_happy_path(tmp_path, capsys, forge_inputs):
    dataset, masks = forge_inputs
    out = tmp_path / "corpus.jsonl"
    code, stdout, _ = run_cli(
        capsys, "forge", "--dataset", str(dataset), "--masks", str(masks), "--out", str(out)
    )
    assert code == 0
    summary = summary_of(stdout)
    assert summary["command"] == "forge"
    assert summary["records"] == 2
    assert summary["skipped_unassigned"] == 0
    assert summary["truncated_cot"] == 0
    assert summary["failures"] == 0
    assert summary["out"] == str(out)

    records = read_corpus(out)
    assert [r.answer for r in records] == ["liver", "kidney"]
    assert all(r.generator_id == "template-v1" for r in records)


def test_forge_rerun_is_byte_identical(tmp_path, capsys, forge_inputs):
    dataset, masks = forge_inputs
    out = tmp_path / "corpus.jsonl"
    argv = ("forge", "--dataset", str(dataset), "--masks", str(masks), "--out", str(out))
    assert run_cli(capsys, *argv)[0] == 0
    first = out.read_bytes()
    assert run_cli(capsys, *argv)[0] == 0
    assert out.read_bytes() == first


def test_forge_bad_dataset_exits_1(tmp_path, capsys, forge_inputs):
    _, masks = forge_inputs
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"image_id": "x", "width": 16}\n')
    code, _, stderr = run_cli(
        capsys, "forge", "--dataset", str(bad), "--masks", str(masks),
        "--out", str(tmp_path / "c.jsonl"),
    )
    assert code == 1
    assert stderr.startswith("error:")
    assert "line 1" in stderr


def test_forge_json_boolean_run_exits_1(tmp_path, capsys, forge_inputs):
    # [0, true, ...] would otherwise read as a first run of 0 and a run of 1
    dataset, _ = forge_inputs
    rle = half_mask("left")
    masks = tmp_path / "bool-masks.jsonl"
    masks.write_text(json.dumps({"image_id": "ct_001", "organ_label": "liver",
                                 "height": 16, "width": 16, "rle": rle}) + "\n"
                     + json.dumps({"image_id": "ct_001", "organ_label": "kidney",
                                   "height": 16, "width": 16,
                                   "rle": [0, True, 255]}) + "\n")
    out = tmp_path / "c.jsonl"
    code, stdout, stderr = run_cli(capsys, "forge", "--dataset", str(dataset),
                                   "--masks", str(masks), "--out", str(out))
    assert code == 1
    assert stdout == "" and not out.exists()
    assert stderr.splitlines() == [
        f"error: {masks}: line 2: RLE runs must be non-negative integers"]

def test_forge_missing_paths_exit_2(tmp_path, capsys):
    code, _, stderr = run_cli(capsys, "forge", "--out", str(tmp_path / "c.jsonl"))
    assert code == 2
    assert "dataset" in stderr


def test_forge_paths_from_config_io_section(tmp_path, capsys, forge_inputs):
    dataset, masks = forge_inputs
    out = tmp_path / "corpus.jsonl"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"io": {"dataset": str(dataset), "masks": str(masks), "out": str(out)}}
    ))
    code, stdout, _ = run_cli(capsys, "forge", "--config", str(config))
    assert code == 0
    assert summary_of(stdout)["records"] == 2
    assert out.exists()


def test_env_var_overrides_config_flag(tmp_path, capsys, monkeypatch, forge_inputs):
    dataset, masks = forge_inputs
    out = tmp_path / "corpus.jsonl"
    good = tmp_path / "good.json"
    good.write_text(json.dumps(
        {"io": {"dataset": str(dataset), "masks": str(masks), "out": str(out)}}
    ))
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({"no_such_section": {}}))
    monkeypatch.setenv("COTFORGE_CONFIG", str(good))
    code, stdout, _ = run_cli(capsys, "forge", "--config", str(broken))
    assert code == 0
    assert summary_of(stdout)["records"] == 2


def test_forge_backend_failure_exits_3(tmp_path, capsys, forge_inputs):
    dataset, masks = forge_inputs
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"forge": {
        "backend": "remote",
        "remote_endpoint": "http://127.0.0.1:9/qa",  # nothing listens here
        "remote_attempts": 1,
        "remote_backoff_base": 0.0,
        "remote_timeout": 0.2,
    }}))
    code, _, stderr = run_cli(
        capsys, "forge", "--config", str(config), "--dataset", str(dataset),
        "--masks", str(masks), "--out", str(tmp_path / "c.jsonl"),
    )
    assert code == 3
    assert stderr.startswith("error:")


def test_forge_skip_failed_records_failures(tmp_path, capsys, forge_inputs):
    dataset, masks = forge_inputs
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"forge": {
        "backend": "remote",
        "remote_endpoint": "http://127.0.0.1:9/qa",
        "remote_attempts": 1,
        "remote_backoff_base": 0.0,
        "remote_timeout": 0.2,
    }}))
    out = tmp_path / "c.jsonl"
    code, stdout, _ = run_cli(
        capsys, "forge", "--config", str(config), "--dataset", str(dataset),
        "--masks", str(masks), "--out", str(out), "--skip-failed",
    )
    assert code == 0
    summary = summary_of(stdout)
    assert summary["failures"] == 2
    assert summary["records"] == 0
    assert out.exists()


# ---------------------------------------------------------------------------
# simulate


def test_simulate_builtin_scenario(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    code, stdout, _ = run_cli(capsys, "simulate", "--scenario", "plateau", "--out", str(out))
    assert code == 0

    header, rows = read_trace(out)
    assert header["kind"] == "header"
    assert header["mode"] == "dynamics-sim"
    assert len(rows) == 30

    summary = summary_of(stdout)
    assert summary["command"] == "simulate"
    assert summary["scenario"] == "plateau"
    assert summary["epochs"] == 30
    assert summary["final_lambda_hard"] == rows[-1]["lambda_hard_after"]
    expected = {"hold": 0, "increase_hard": 0, "reduce_hard": 0}
    for row in rows:
        expected[row["decision"]] += 1
    assert summary["decisions"] == expected
    assert expected["increase_hard"] >= 1


def test_simulate_scenario_from_explicit_path(tmp_path, capsys):
    from cotforge.dynamics import builtin_scenario_path

    scenario = tmp_path / "my_scenario.json"
    scenario.write_text(builtin_scenario_path("rise").read_text())
    out = tmp_path / "trace.jsonl"
    code, stdout, _ = run_cli(capsys, "simulate", "--scenario", str(scenario), "--out", str(out))
    assert code == 0
    assert summary_of(stdout)["decisions"]["reduce_hard"] == 1


def test_simulate_zero_epochs_writes_header_only(tmp_path, capsys):
    from cotforge.dynamics import builtin_scenario_path

    spec = json.loads(builtin_scenario_path("plateau").read_text())
    spec["epochs"] = 0
    scenario = tmp_path / "empty.json"
    scenario.write_text(json.dumps(spec))
    out = tmp_path / "trace.jsonl"
    code, stdout, _ = run_cli(capsys, "simulate", "--scenario", str(scenario), "--out", str(out))
    assert code == 0
    header, rows = read_trace(out)
    assert header["kind"] == "header"
    assert rows == []
    summary = summary_of(stdout)
    assert summary["final_lambda_hard"] == 0.0
    assert summary["decisions"] == {"hold": 0, "increase_hard": 0, "reduce_hard": 0}


def test_simulate_zero_epochs_reports_the_initial_budget(tmp_path, capsys):
    # rise starts its budget at 0.2, so a default of 0.0 cannot pass for it
    from cotforge.dynamics import builtin_scenario_path

    spec = json.loads(builtin_scenario_path("rise").read_text())
    spec["epochs"] = 0
    scenario = tmp_path / "empty.json"
    scenario.write_text(json.dumps(spec))
    out = tmp_path / "trace.jsonl"
    code, stdout, _ = run_cli(capsys, "simulate", "--scenario", str(scenario), "--out", str(out))
    assert code == 0
    assert read_trace(out)[1] == []
    assert summary_of(stdout)["final_lambda_hard"] == 0.2


def test_simulate_csv_sidecar(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    csv_path = tmp_path / "trace.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "--scenario", "mixed", "--out", str(out), "--csv", str(csv_path)
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ",".join(TRACE_CSV_COLUMNS)
    assert len(lines) == 31


def test_simulate_unknown_scenario_exits_1(tmp_path, capsys):
    code, _, stderr = run_cli(
        capsys, "simulate", "--scenario", "no-such-scenario",
        "--out", str(tmp_path / "t.jsonl"),
    )
    assert code == 1
    assert stderr.startswith("error:")


# ---------------------------------------------------------------------------
# train-toy


def small_train_config(tmp_path, **harness_overrides):
    harness = {
        "epochs": 3,
        "batch_size": 4,
        "batches_per_epoch": 2,
        "lr": 0.01,
        "image_dims": [16, 16],
        "grid_dims": [2, 2],
        "feature_dim": 3,
        "sigma": 2.0,
    }
    harness.update(harness_overrides)
    config = tmp_path / "train.json"
    config.write_text(json.dumps({"harness": harness}))
    return config


@pytest.fixture
def toy_corpus_file(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, tiny_corpus())
    return path


def test_train_toy_runs_and_writes_trace(tmp_path, capsys, toy_corpus_file):
    config = small_train_config(tmp_path)
    out = tmp_path / "trace.jsonl"
    code, stdout, _ = run_cli(
        capsys, "train-toy", "--config", str(config),
        "--corpus", str(toy_corpus_file), "--out", str(out),
    )
    assert code == 0
    header, rows = read_trace(out)
    assert header["mode"] == "toy-training"
    assert [row["epoch"] for row in rows] == [1, 2, 3]
    summary = summary_of(stdout)
    assert summary["command"] == "train-toy"
    assert summary["epochs"] == 3
    assert summary["final_lambda_hard"] == rows[-1]["lambda_hard_after"]


def test_train_toy_same_seed_reruns_identical(tmp_path, capsys, toy_corpus_file):
    config = small_train_config(tmp_path)
    out_a = tmp_path / "a.jsonl"
    out_b = tmp_path / "b.jsonl"
    for out in (out_a, out_b):
        code, _, _ = run_cli(
            capsys, "train-toy", "--config", str(config),
            "--corpus", str(toy_corpus_file), "--out", str(out),
        )
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_train_toy_seed_changes_trace(tmp_path, capsys, toy_corpus_file):
    out_a = tmp_path / "a.jsonl"
    out_b = tmp_path / "b.jsonl"
    run_cli(capsys, "train-toy", "--config", str(small_train_config(tmp_path)),
            "--corpus", str(toy_corpus_file), "--out", str(out_a))
    run_cli(capsys, "train-toy", "--config", str(small_train_config(tmp_path, seed=7)),
            "--corpus", str(toy_corpus_file), "--out", str(out_b))
    assert out_a.read_bytes() != out_b.read_bytes()


def test_train_toy_zero_epochs_is_config_error(tmp_path, capsys, toy_corpus_file):
    config = small_train_config(tmp_path, epochs=0)
    code, _, stderr = run_cli(
        capsys, "train-toy", "--config", str(config),
        "--corpus", str(toy_corpus_file), "--out", str(tmp_path / "t.jsonl"),
    )
    assert code == 2
    assert stderr.startswith("error:")


def test_train_toy_degenerate_box_names_its_record(tmp_path, capsys):
    rows = [json.loads(line) for line in
            fixture_path("toy_corpus.jsonl").read_text().splitlines()]
    rows[57]["box"] = [0.5, 0.5, 0.505, 0.505]  # covers no pixel center
    bad = write_jsonl(tmp_path / "bad.jsonl", rows)
    assert run_cli(capsys, "validate", "--corpus", str(bad))[0] == 0
    code, stdout, stderr = run_cli(capsys, "train-toy", "--corpus", str(bad),
                                   "--out", str(tmp_path / "trace.jsonl"))
    assert code == 1 and stdout == ""
    assert stderr.splitlines() == [
        "error: record 58 (image 'ct_cyst_007'): "
        "box is degenerate after denormalization"]
    assert not (tmp_path / "trace.jsonl").exists()


def test_train_toy_missing_corpus_flag_exits_2(tmp_path, capsys):
    code, _, stderr = run_cli(
        capsys, "train-toy", "--config", str(small_train_config(tmp_path)),
        "--out", str(tmp_path / "t.jsonl"),
    )
    assert code == 2
    assert "corpus" in stderr


# ---------------------------------------------------------------------------
# validate


def test_validate_ok(tmp_path, capsys, toy_corpus_file):
    code, stdout, _ = run_cli(capsys, "validate", "--corpus", str(toy_corpus_file))
    assert code == 0
    summary = summary_of(stdout)
    assert summary["records"] == len(tiny_corpus())


def test_validate_empty_answer_exits_1(tmp_path, capsys, toy_corpus_file):
    rows = [json.loads(line) for line in toy_corpus_file.read_text().splitlines()]
    rows[1]["answer"] = ""
    bad = write_jsonl(tmp_path / "bad.jsonl", rows)
    code, _, stderr = run_cli(capsys, "validate", "--corpus", str(bad))
    assert code == 1
    assert "line 2" in stderr


def test_validate_truncated_json_exits_1(tmp_path, capsys, toy_corpus_file):
    text = toy_corpus_file.read_text() + '{"image_id": "broken"'
    bad = tmp_path / "truncated.jsonl"
    bad.write_text(text)
    code, _, stderr = run_cli(capsys, "validate", "--corpus", str(bad))
    assert code == 1
    assert "line 5" in stderr


def test_validate_allow_empty_cot_flag(tmp_path, capsys, toy_corpus_file):
    rows = [json.loads(line) for line in toy_corpus_file.read_text().splitlines()]
    rows[0]["cot"] = ""
    pool = write_jsonl(tmp_path / "pool.jsonl", rows)
    assert run_cli(capsys, "validate", "--corpus", str(pool))[0] == 1
    code, stdout, _ = run_cli(capsys, "validate", "--corpus", str(pool), "--allow-empty-cot")
    assert code == 0
    assert summary_of(stdout)["records"] == len(rows)


def test_whitespace_cot_is_reported_with_its_line(tmp_path, capsys, toy_corpus_file):
    rows = [json.loads(line) for line in toy_corpus_file.read_text().splitlines()]
    rows[2]["cot"] = "   "
    bad = write_jsonl(tmp_path / "bad.jsonl", rows)
    for argv in (["validate", "--corpus", str(bad)],
                 ["train-toy", "--corpus", str(bad),
                  "--out", str(tmp_path / "trace.jsonl")]):
        code, _, stderr = run_cli(capsys, *argv)
        assert code == 1
        assert f"{bad}: line 3: empty cot" in stderr


# ---------------------------------------------------------------------------
# argument handling


def test_unknown_command_exits_2(capsys):
    assert cli.main(["no-such-command"]) == 2
    capsys.readouterr()


def test_missing_subcommand_exits_2(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()


def test_bad_config_file_exits_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("{not json")
    code, _, stderr = run_cli(
        capsys, "simulate", "--config", str(config), "--scenario", "plateau",
        "--out", str(tmp_path / "t.jsonl"),
    )
    assert code == 2
    assert stderr.startswith("error:")


# ---------------------------------------------------------------------------
# an output never replaces an input


def assert_refused(capsys, protected, *argv) -> str:
    """Run argv; it must exit 2 with one error line, leaving `protected` as it was."""
    before = [path.read_bytes() for path in protected]
    code, stdout, stderr = run_cli(capsys, *argv)
    assert (code, stdout) == (2, "")
    [line] = stderr.splitlines()
    assert line.startswith("error: ") and "would overwrite" in line
    assert [path.read_bytes() for path in protected] == before
    return line


def test_train_toy_out_over_corpus_exits_2(tmp_path, capsys, toy_corpus_file):
    line = assert_refused(capsys, [toy_corpus_file], "train-toy",
                          "--corpus", str(toy_corpus_file), "--out", str(toy_corpus_file))
    assert line == f"error: out path {toy_corpus_file} would overwrite the corpus file"


def test_forge_out_over_dataset_exits_2(tmp_path, capsys, forge_inputs):
    dataset, masks = forge_inputs
    line = assert_refused(capsys, [dataset, masks], "forge", "--dataset", str(dataset),
                          "--masks", str(masks), "--out", str(dataset))
    assert line == f"error: out path {dataset} would overwrite the dataset file"


def test_simulate_csv_over_out_exits_2(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    trace.write_text("an earlier trace\n")
    line = assert_refused(capsys, [trace], "simulate", "--scenario", "plateau",
                          "--out", str(trace), "--csv", str(trace))
    assert line == f"error: csv path {trace} would overwrite the out file"


@pytest.mark.parametrize("linked", ["file", "directory"])
def test_out_through_a_symlink_to_an_input_exits_2(tmp_path, capsys, toy_corpus_file,
                                                   linked):
    if linked == "file":
        out = tmp_path / "link.jsonl"
        out.symlink_to(toy_corpus_file)
    else:  # a write through a linked directory replaces the input itself
        (tmp_path / "alias").symlink_to(tmp_path, target_is_directory=True)
        out = tmp_path / "alias" / toy_corpus_file.name
    line = assert_refused(capsys, [toy_corpus_file], "train-toy",
                          "--corpus", str(toy_corpus_file), "--out", str(out))
    assert line == f"error: out path {out} would overwrite the corpus file"


def test_io_paths_are_checked_too(tmp_path, capsys, toy_corpus_file):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"io": {"corpus": str(toy_corpus_file),
                                         "out": str(tmp_path / "t.jsonl"),
                                         "csv": str(toy_corpus_file)}}))
    line = assert_refused(capsys, [toy_corpus_file, config],
                          "train-toy", "--config", str(config))
    assert line == f"error: csv path {toy_corpus_file} would overwrite the corpus file"


@pytest.mark.parametrize("command,key", [
    ("simulate", "out"), ("simulate", "csv"), ("train-toy", "corpus"), ("forge", "masks")])
def test_io_path_with_a_nul_byte_exits_2(tmp_path, capsys, forge_inputs, command, key):
    dataset, masks = forge_inputs
    io = {"dataset": str(dataset), "masks": str(masks), "corpus": str(dataset),
          "scenario": "plateau", "out": str(tmp_path / "t.jsonl"), key: "a\0b"}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"io": io}))
    code, stdout, stderr = run_cli(capsys, command, "--config", str(config))
    assert (code, stdout) == (2, "")
    assert stderr == f"error: {key} path 'a\\x00b' is not a usable path\n"


def test_out_over_the_env_var_config_exits_2(tmp_path, capsys, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text("{}")
    monkeypatch.setenv("COTFORGE_CONFIG", str(config))
    line = assert_refused(capsys, [config], "simulate", "--scenario", "plateau",
                          "--out", str(config))
    assert line == f"error: out path {config} would overwrite the config file"


# ---------------------------------------------------------------------------
# bundled fixtures against committed goldens

GOLDEN = Path(__file__).parent / "golden"


def test_forge_bundled_fixture_matches_golden(tmp_path, capsys):
    from cotforge import fixture_path

    out = tmp_path / "corpus.jsonl"
    code, stdout, _ = run_cli(
        capsys, "forge",
        "--dataset", str(fixture_path("forge_dataset.jsonl")),
        "--masks", str(fixture_path("forge_masks.jsonl")),
        "--out", str(out),
    )
    assert code == 0
    assert summary_of(stdout)["records"] == 5
    assert out.read_bytes() == (GOLDEN / "forge_corpus.jsonl").read_bytes()


def test_forge_seed_template_with_escaped_braces(tmp_path, capsys):
    from cotforge import fixture_path

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"forge": {
        "seed_templates": ["A {{note}} {lesion_class} in the {organ_label}."]}}))
    out = tmp_path / "corpus.jsonl"
    code, stdout, stderr = run_cli(
        capsys, "forge", "--config", str(config),
        "--dataset", str(fixture_path("forge_dataset.jsonl")),
        "--masks", str(fixture_path("forge_masks.jsonl")),
        "--out", str(out),
    )
    assert code == 0, stderr
    assert summary_of(stdout)["records"] == 5
    seeds = [record.seed for record in read_corpus(out)]
    assert "A {note} cyst in the kidney." in seeds


def test_train_toy_ten_epochs_matches_golden(tmp_path, capsys):
    from cotforge import fixture_path

    config = tmp_path / "train10.json"
    config.write_text(json.dumps({"harness": {"epochs": 10}}))
    out = tmp_path / "trace.jsonl"
    code, _, _ = run_cli(
        capsys, "train-toy", "--config", str(config),
        "--corpus", str(fixture_path("toy_corpus.jsonl")), "--out", str(out),
    )
    assert code == 0
    assert out.read_bytes() == (GOLDEN / "trace_toy_10ep.jsonl").read_bytes()


@pytest.mark.parametrize("scenario", ["plateau", "rise", "mixed"])
def test_simulate_builtin_scenario_matches_golden(tmp_path, capsys, scenario):
    out = tmp_path / "trace.jsonl"
    csv_path = tmp_path / "trace.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "--scenario", scenario,
        "--out", str(out), "--csv", str(csv_path),
    )
    assert code == 0
    assert out.read_bytes() == (GOLDEN / f"trace_sim_{scenario}.jsonl").read_bytes()
    assert csv_path.read_bytes() == (GOLDEN / f"trace_sim_{scenario}.csv").read_bytes()
