"""Every function, method and class in src/ has a caller outside the tests.

Code that only the tests call belongs in tests/oracles.py or the tests. The
check lists each name defined in src/cotforge/ (dunders aside) and fails on
one that is never read in src/ or scripts/ other than at its own
definition, and is not a quoted attribute in perfbench/tracer.py (which
wraps names where their callers look them up). The tracer is read as
text, as test_traced_names.py reads it, so nothing under perfbench/ is
imported.

This is a name heuristic, not a call graph: a read of any name counts for
every definition of that name, so two definitions with the same name hide
each other, and a read that never runs still counts.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).parents[1]
SRC = ROOT / "src" / "cotforge"
TRACER = ROOT / "perfbench" / "tracer.py"

# the trace format's reader: the format keeps both halves, writer and reader
ALLOWED = {"jsonl.read_trace"}


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def src_definitions():
    """(module.name) of every function, method and class in src/, dunders aside."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(parse(path)):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                yield f"{path.stem}.{node.name}"


def names_read():
    """Every name or attribute read in src/ and scripts/, and every quoted
    identifier in the tracer."""
    read = set()
    for path in [*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py")]:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    read.update(re.findall(r"""["'](\w+)["']""", TRACER.read_text(encoding="utf-8")))
    return read


def test_every_src_name_has_a_caller_outside_the_tests():
    read = names_read()
    unread = [name for name in src_definitions()
              if name.split(".")[1] not in read and name not in ALLOWED]
    assert not unread, f"defined in src/ but only the tests use: {unread}"


def test_the_scan_sees_definitions_and_reads():
    defined = set(src_definitions())
    assert {"forge.OrganMask", "geometry.check_runs", "jsonl.read_trace"} <= defined
    read = names_read()
    assert {"OrganMask", "check_runs", "rle_decode", "item_loss_and_grads"} <= read
    assert "read_trace" not in read  # the allowance is still needed
