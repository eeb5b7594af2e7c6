"""The names the benchmark's tracer wraps still exist where it looks them up.

perfbench/tracer.py replaces each (owner, attribute) of its TARGETS with a
timing wrapper, and fails when one is missing. Checking the names here makes
a refactor that drops or moves one fail in the tests, not only when the
benchmark runs. The tracer's source is compiled and run in a fresh
namespace, so nothing is written next to it.
"""

from pathlib import Path

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def tracer_targets():
    namespace = {"__name__": "perfbench_tracer", "__file__": str(TRACER)}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    return namespace["TARGETS"]


def test_every_traced_name_is_defined_on_its_owner():
    targets = tracer_targets()
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in targets if attr not in vars(owner)]
    assert not missing, f"traced names missing: {missing}"
