"""The benchmark pins the same goldens as the tests.

perfbench/run.py holds the sha256 of the golden forge corpus and of the toy
traces it checks each run against. Reading those literals here makes a
golden change fail in the tests, not only when the benchmark runs. The
script is parsed as text, not imported, so nothing of it runs.
"""

import ast
import hashlib
from pathlib import Path

ROOT = Path(__file__).parents[1]
RUN = ROOT / "perfbench" / "run.py"
GOLDEN = ROOT / "tests" / "golden"


def pinned(name):
    """The literal value that run.py assigns to a module-level name."""
    for node in ast.parse(RUN.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == name):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{RUN} assigns no {name}")


def sha256(name):
    return hashlib.sha256((GOLDEN / name).read_bytes()).hexdigest()


def test_the_forge_corpus_hash_matches_its_golden():
    assert pinned("GOLDEN_FORGE_SHA") == sha256("forge_corpus.jsonl")


def test_the_toy_trace_hashes_match_their_goldens():
    assert pinned("GOLDEN_TRACE_SHA") == {40: sha256("trace_toy_40ep.jsonl"),
                                          10: sha256("trace_toy_10ep.jsonl")}
