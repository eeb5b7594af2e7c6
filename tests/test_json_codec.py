"""The JSON codec's fast paths against the json module's own calls.

``errors.parse_json`` reads a document with one raw decode and reads
anything else again with ``json.loads``; it must agree with the reference
reader (``oracles.oracle_parse_json``, one ``json.loads`` call) on every
document: the same value, types and signs of zero included, or the same
message. ``jsonl._write_jsonl`` encodes with one shared encoder and must
write exactly what ``json.dumps(obj, ensure_ascii=False)`` gives per line.
``jsonl._iter_jsonl`` strips a line of JSON whitespace alone, so any other
space around a document is a fault, as it is to ``json.loads``.
"""

import json
import math
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cotforge import cli, fixture_path
from cotforge.errors import ValidationError, parse_json
from cotforge.jsonl import _iter_jsonl, _write_jsonl
from oracles import oracle_parse_json

SETTINGS = settings(max_examples=300, derandomize=True, deadline=None)
JSON_SPACE = st.text(alphabet=" \t\n\r", max_size=3)
# past any recursion limit: the C scanner's and Python's alike
DEEP = 100_000


def where():
    return "doc"


def same(a, b) -> bool:
    """Equal JSON values of the same types: -0.0 is not 0.0, NaN is NaN, and
    an object's keys come in the same order."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return (math.isnan(a) and math.isnan(b)
                or a == b and math.copysign(1, a) == math.copysign(1, b))
    if type(a) is list:
        return len(a) == len(b) and all(map(same, a, b))
    if type(a) is dict:
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    return a == b


def outcome(read, text):
    try:
        return "value", read(text, where, ValidationError)
    except ValidationError as exc:
        return "fault", str(exc)


def assert_agrees(text):
    want, got = outcome(oracle_parse_json, text), outcome(parse_json, text)
    assert want[0] == got[0], (text[:80], want, got)
    assert same(want[1], got[1]) if want[0] == "value" else want == got, (text[:80], want, got)


# escapes, control characters, non-ASCII and a lone surrogate
STRINGS = st.text(alphabet=st.sampled_from(
    ['a', 'é', '"', '\\', '/', '\n', '\t', '\x00', '\x1f', ' ', '\U0001f600',
     '\ud800', '\udfff', 'u']), max_size=6)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=2**63 - 2, max_value=2**70), st.integers(max_value=-(2**63)),
    st.floats(allow_nan=True, allow_infinity=True), st.sampled_from([0.0, -0.0, 1e308, 5e-324]),
    STRINGS)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(STRINGS, inner, max_size=4)),
    max_leaves=12)


@st.composite
def documents(draw):
    """A JSON document as text: a value dumped with random separators and
    escaping, wrapped in random JSON whitespace, then perhaps mutated: data
    after it, a BOM before it, cut short, nested past any recursion limit,
    or beside an integer past the 4300-digit limit."""
    value = draw(VALUES)
    text = json.dumps(value, ensure_ascii=draw(st.booleans()),
                      indent=draw(st.sampled_from([None, 0, 2, "\t"])),
                      separators=draw(st.sampled_from([None, (",", ":"), (" , ", " : ")])))
    text = draw(JSON_SPACE) + text + draw(JSON_SPACE)
    mutation = draw(st.sampled_from(
        ["none", "none", "trailing", "bom", "truncate", "deep", "long int"]))
    if mutation == "trailing":
        text += draw(st.sampled_from(["x", " x", "\n{}", ",", "\x0b"]))
    elif mutation == "bom":
        text = "\ufeff" + text
    elif mutation == "truncate" and text:
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif mutation == "deep":
        opener = draw(st.sampled_from(["[", '{"a": ', '[{"a": ']))
        closer = {"[": "]", '{"a": ': "}", '[{"a": ': "}]"}[opener]
        text = opener * DEEP + text + closer * DEEP
    elif mutation == "long int":
        text = f"[{text}, {draw(st.sampled_from(['', '-']))}{'1' * 4301}]"
    return text


@SETTINGS
@given(text=documents())
def test_parse_json_agrees_with_json_loads(text):
    assert_agrees(text)


@SETTINGS
@given(text=documents())
def test_parse_json_agrees_on_bytes(text):
    assert_agrees(text.encode("utf-8", "surrogatepass"))


@pytest.mark.parametrize("text", [
    "[" * DEEP + "]" * DEEP,
    '{"a": ' * DEEP + "1" + "}" * DEEP,
    '[{"a": ' * DEEP + "1" + "}]" * DEEP,
    "[" * DEEP,
    "1" * 4301,  # past the int digit limit
    "[" + "9" * 4301 + "]",
    "-" + "1" * 4301,
    "1" * 4300,
    "\ufeff[1]",
    "[1] x",
    "[1]\x0b",
    " [1] ",
    "",
    "   ",
    '"\\ud800"',
    '["\\udc00", 1]',
    '"\\ud83d\\ude00"',
    "NaN", "-Infinity", "-0", "-0.0", "1e400",
], ids=lambda text: repr(text[:12]))
def test_parse_json_agrees_on_edge_documents(text):
    assert_agrees(text)
    assert_agrees(text.encode("utf-8"))


def test_fast_path_and_fallback_outcomes():
    # a fast-path value, a fallback value, and faults from the fallback
    assert outcome(parse_json, "[1] \n") == ("value", [1])
    assert outcome(parse_json, " [1]") == ("value", [1])
    assert outcome(parse_json, "\ufeff[1]") == (
        "fault", "doc: bad JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
                 "line 1 column 1 (char 0)")
    assert outcome(parse_json, "[1] x")[1].startswith("doc: bad JSON: Extra data")
    assert "recursion" in outcome(parse_json, "[" * DEEP)[1]
    if hasattr(sys, "set_int_max_str_digits"):  # the digit limit came with 3.10.7 / 3.11
        assert "4301 digits" in outcome(parse_json, "1" * 4301)[1]


# no lone surrogate: a UTF-8 file cannot hold one
TEXT = st.text(alphabet=st.characters(exclude_categories=["Cs"]), max_size=8) | st.sampled_from(
    ["\x00\x1f\x7f", "é \U0001f600", '"\\/', "\r\n\t"])
ROW_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.integers(min_value=2**63, max_value=2**80), st.integers(max_value=-(2**63) - 1),
              st.floats(allow_nan=True, allow_infinity=True), TEXT),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=10)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(rows=st.lists(st.one_of(st.dictionaries(TEXT, ROW_VALUES, max_size=4),
                               st.lists(ROW_VALUES, max_size=4)), max_size=5))
def test_write_jsonl_writes_json_dumps_lines(rows):
    want = "".join(json.dumps(o, ensure_ascii=False) + "\n" for o in rows).encode("utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.jsonl"
        _write_jsonl(path, rows)
        assert path.read_bytes() == want


@pytest.mark.parametrize("text,message", [
    ('{"a": 1}\u00a0\n', "line 4: bad JSON: Extra data: line 1 column 9 (char 8)"),
    ("\u3000\n", "line 4: bad JSON: Expecting value: line 1 column 1 (char 0)"),
    ("\u2028\n", "line 4: bad JSON: Expecting value: line 1 column 1 (char 0)"),
    ('\x0c{"a": 1}\n', "line 4: bad JSON: Expecting value: line 1 column 1 (char 0)"),
], ids=["nbsp-after", "ideographic-space", "line-separator", "form-feed-before"])
def test_a_jsonl_line_is_stripped_of_json_whitespace_only(tmp_path, text, message):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(('{"a": 0}\r\n \t\r\n\n' + text).encode("utf-8"))
    with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}: {message}')}$"):
        list(_iter_jsonl(path))
    path.write_bytes(b'{"a": 0}\r\n \t\r\n\n\t{"a": 1} \r\n')  # blank and CRLF lines
    assert [(at(), line, value) for at, line, value in _iter_jsonl(path)] == [
        (f"{path}: line 1", '{"a": 0}', {"a": 0}), (f"{path}: line 4", '{"a": 1}', {"a": 1})]


def test_forge_refuses_a_dataset_line_ending_in_a_unicode_space(tmp_path, capsys):
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text(
        fixture_path("forge_dataset.jsonl").read_text(encoding="utf-8").rstrip("\n")
        + "\u00a0\n", encoding="utf-8")
    code = cli.main(["forge", "--dataset", str(dataset),
                     "--masks", str(fixture_path("forge_masks.jsonl")),
                     "--out", str(tmp_path / "corpus.jsonl")])
    err = capsys.readouterr().err
    assert code == 1 and err.count("\n") == 1, err
    assert err.startswith(f"error: {dataset}: line 3: bad JSON: Extra data")
