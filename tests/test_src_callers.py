"""Every function, method and class in src/ has a caller outside the tests.

Code that only the tests call belongs in tests/oracles.py or the tests. The
check lists each name defined in src/cotforge/ (dunders aside) and fails on
one that is never read in src/ or scripts/ other than at its own
definition, and is not a quoted attribute in perfbench/tracer.py (which
wraps names where their callers look them up). The tracer is read as
text, as test_traced_names.py reads it, so nothing under perfbench/ is
imported.

Module-level imports get the same check within their module: an imported
name that its module never reads fails, unless it is quoted in the tracer
(``forge.mask_iou`` is imported only for the tracer to wrap).

The same scan checks that only geometry.py reads the forge's chunk
budget, FORGE_CHUNK: its numpy passes split their inputs themselves; and
that only errors.py decodes JSON (json.load or json.loads), and no module
calls a ``.json()`` method such as requests' response decoder, so every
JSON input meets the same checks.

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


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def src_definitions():
    """(module.name) of every function, method and class in src/, dunders aside."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(parse(path)):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                yield f"{path.stem}.{node.name}"


def tracer_names():
    return set(re.findall(r"""["'](\w+)["']""", TRACER.read_text(encoding="utf-8")))


def unread_imports(path):
    """(module.name) of each module-level import in ``path`` that it never reads."""
    tree = parse(path)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                node, "module", None) != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    yield f"{path.stem}.{name}"


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
    read.update(tracer_names())
    return read


def test_every_src_name_has_a_caller_outside_the_tests():
    read = names_read()
    unread = [name for name in src_definitions()
              if name.split(".")[1] not in read]
    assert not unread, f"defined in src/ but only the tests use: {unread}"


def test_the_scan_sees_definitions_and_reads():
    defined = set(src_definitions())
    assert {"forge.OrganMask", "geometry.check_runs", "jsonl.rle_decode"} <= defined
    read = names_read()
    assert {"OrganMask", "check_runs", "rle_decode", "item_loss_and_grads"} <= read


def test_every_src_import_is_read_by_its_module():
    exempt = tracer_names()
    unread = [name for path in sorted(SRC.glob("*.py")) for name in unread_imports(path)
              if name.split(".")[1] not in exempt]
    assert not unread, f"imported in src/ but never read: {unread}"


def modules_reading(name, paths):
    """Stems of the modules among ``paths`` that read or import ``name``."""
    readers = set()
    for path in paths:
        for node in ast.walk(parse(path)):
            if (isinstance(node, ast.Name) and node.id == name
                    or isinstance(node, ast.Attribute) and node.attr == name
                    or isinstance(node, ast.ImportFrom)
                    and any(alias.name == name for alias in node.names)):
                readers.add(path.stem)
    return readers


def test_only_geometry_reads_the_forge_chunk_budget():
    assert modules_reading("FORGE_CHUNK", sorted(SRC.glob("*.py"))) == {"geometry"}


def test_the_budget_scan_sees_an_import_and_a_read(tmp_path):
    paths = []
    for stem, text in [("imports", "from .geometry import FORGE_CHUNK as budget\n"),
                       ("reads", "from . import geometry\nx = geometry.FORGE_CHUNK\n"),
                       ("neither", "FORGE = 1\n")]:
        paths.append(tmp_path / f"{stem}.py")
        paths[-1].write_text(text)
    assert modules_reading("FORGE_CHUNK", paths) == {"imports", "reads"}


def test_the_import_scan_sees_an_unread_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("from __future__ import annotations\n"
                      "import os.path\nfrom typing import List, Optional as Opt\n"
                      "def f(x: Opt[int]):\n    return os.path.join('a', 'b')\n")
    assert list(unread_imports(module)) == ["mod.List"]
    assert "mask_iou" in tracer_names()  # forge's tracer-only import stays exempt


def json_decoders(paths):
    """(module stem, decoder) for each JSON decode among ``paths``: a call of
    json.load or json.loads, also through ``import json as`` another name,
    an import of either from json, or a call of any ``.json()`` method."""
    found = set()
    for path in paths:
        tree = parse(path)
        json_names = {alias.asname or alias.name for node in ast.walk(tree)
                      if isinstance(node, ast.Import)
                      for alias in node.names if alias.name == "json"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                attr, owner = node.func.attr, node.func.value
                if attr == "json":
                    found.add((path.stem, ".json()"))
                elif (attr in ("load", "loads") and isinstance(owner, ast.Name)
                      and owner.id in json_names):
                    found.add((path.stem, f"json.{attr}"))
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                found.update((path.stem, f"json.{alias.name}") for alias in node.names
                             if alias.name in ("load", "loads"))
    return found


def test_only_errors_decodes_json():
    found = json_decoders(sorted(SRC.glob("*.py")))
    assert {stem for stem, _ in found} == {"errors"}, found
    assert ".json()" not in {decoder for _, decoder in found}, found


def test_the_json_scan_sees_calls_imports_and_methods(tmp_path):
    paths = []
    for stem, text in [("calls", "import json\njson.loads('1')\n"),
                       ("renamed", "import json as j\nj.load(open('x'))\n"),
                       ("imports", "from json import loads as decode\n"),
                       ("method", "def f(response):\n    return response.json()\n"),
                       ("neither", "import json\njson.dumps(1)\nloads = 1\n")]:
        paths.append(tmp_path / f"{stem}.py")
        paths[-1].write_text(text)
    assert json_decoders(paths) == {("calls", "json.loads"), ("renamed", "json.load"),
                                    ("imports", "json.loads"), ("method", ".json()")}
