"""Each input record checks its fields' declared types and rules when it is
built, from JSON or from Python, with one message shape.

The guard test finds the records itself, by walking the annotations from
the reader's roots, so a new record or field is covered as soon as one of
them holds it. It builds each record from arbitrary Python values: nothing
may raise but ValidationError, and a record that builds holds its declared
types. The declared-type oracle here is independent of ``errors``'s
checker; it reads only the annotations and each ``Annotated`` rule's
predicate.
"""

import contextlib
import copy
import dataclasses
import functools
import json
import math
import operator
import re
import typing
from dataclasses import asdict
from typing import Annotated
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cotforge import errors, fixture_path, jsonl, remote
from cotforge.config import AppConfig, ForgeConfig, load_config
from cotforge.dynamics import (BUILTIN_SCENARIOS, CurveSpec, DynamicsSpec, StageDynamics,
                               builtin_scenario_path)
from cotforge.errors import ConfigError, Record, Rule, ValidationError, in_range, read_object
from cotforge.forge import DomainKey, ImageRecord, OrganMask, VqaCotRecord
from cotforge.geometry import BBox
from cotforge.harness import HarnessParams
from cotforge.scheduler import CurriculumScheduler, SchedulerHyperparams
from cotforge.toymodel import StageLossWeights, ToyModel

from corpus_utils import tiny_corpus
from oracles import check_fields, object_reader

ROOTS = (AppConfig, DynamicsSpec, ImageRecord, VqaCotRecord, jsonl._MaskLine, remote._Reply)


def records_under(tp, found):
    """Append to ``found`` every dataclass that annotation ``tp`` holds, at
    any depth, each once."""
    if dataclasses.is_dataclass(tp):
        if tp not in found:
            found.append(tp)
            for hint in typing.get_type_hints(tp, include_extras=True).values():
                records_under(hint, found)
        return
    for arg in typing.get_args(tp):  # an Annotated rule holds no type, and adds none
        records_under(arg, found)


RECORDS = []
for _root in ROOTS:
    records_under(_root, RECORDS)


def instances(obj):
    """Every dataclass instance that ``obj`` holds, itself first."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        yield obj
        obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        for item in obj:
            yield from instances(item)


def _samples():
    """One good instance per record class, taken from the defaults and the
    bundled inputs."""
    masks = [json.loads(line) for line in
             fixture_path("forge_masks.jsonl").read_text().splitlines()[:1]]
    roots = [AppConfig(), jsonl.read_dataset(fixture_path("forge_dataset.jsonl")),
             jsonl.read_corpus(fixture_path("toy_corpus.jsonl"))[:2],
             [DynamicsSpec.from_path(builtin_scenario_path(name))
              for name in BUILTIN_SCENARIOS],
             [read_object(jsonl._MaskLine, line, lambda: "mask", ValidationError)
              for line in masks],
             read_object(remote._Reply, {"question": "Q?", "answer": "A", "cot": "C."},
                         lambda: "reply", ValidationError)]
    found = {}
    for record in instances(roots):
        found.setdefault(type(record), record)
    return found


SAMPLES = _samples()


def test_the_walk_finds_every_input_record():
    assert {AppConfig, ForgeConfig, SchedulerHyperparams, HarnessParams, StageLossWeights,
            DynamicsSpec, StageDynamics, CurveSpec, ImageRecord, BBox, VqaCotRecord,
            DomainKey, jsonl._MaskLine, remote._Reply} <= set(RECORDS)
    assert set(RECORDS) <= set(SAMPLES)
    assert all(issubclass(cls, Record) for cls in RECORDS)


def holds_declared(tp, value) -> bool:
    """Whether ``value`` is of annotation ``tp`` exactly, with every
    ``Annotated`` rule holding."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is Annotated:
        return holds_declared(args[0], value) and all(
            rule.holds(value) for rule in tp.__metadata__)
    if tp is float:
        return type(value) is float and math.isfinite(value)
    if tp is int:
        return type(value) is int and -2**63 <= value < 2**63
    if tp in (str, list) or dataclasses.is_dataclass(tp):
        return type(value) is tp
    if origin is typing.Union:
        return value is None or holds_declared(args[0], value)
    if origin is list:
        return type(value) is list and all(holds_declared(args[0], v) for v in value)
    if origin is tuple and args[-1] is Ellipsis:
        return type(value) is tuple and all(holds_declared(args[0], v) for v in value)
    if origin is tuple:
        return (type(value) is tuple and len(value) == len(args)
                and all(map(holds_declared, args, value)))
    if origin is dict:
        return type(value) is dict and all(
            type(k) is str and holds_declared(args[1], v) for k, v in value.items())
    raise AssertionError(f"no oracle for annotation {tp!r}")


HOSTILE = st.sampled_from([
    math.nan, math.inf, -math.inf, True, False, 2.5, -0.0, 0, -1, 2**63, -2**63 - 1,
    2**70, "", "x", None, [], {}, (), [1, 2], (1, 2), [1.5, 2], {"a": 1}, b"x",
    np.float64(1.0), np.int64(1),
])


def values_for(tp):
    """Values of annotation ``tp``'s shape, often outside its rules."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is Annotated:
        return values_for(args[0])
    if tp is int:
        return st.integers(-3, 10) | st.integers(2**62, 2**70) | st.floats(-3, 10)
    if tp is float:
        return st.floats() | st.integers(-3, 10)
    if tp is str:
        return st.text(max_size=4)
    if tp is list:
        return st.lists(st.integers(0, 5), max_size=3)
    if dataclasses.is_dataclass(tp):
        return st.just(SAMPLES[tp])
    if origin is typing.Union:
        return st.none() | values_for(args[0])
    if origin in (list, tuple):
        items = st.lists(values_for(args[0]), max_size=3)
        return items | items.map(tuple)
    if origin is dict:
        keys = st.sampled_from(["easy", "medium", "hard", "mass|CT", ""])
        return st.dictionaries(keys, values_for(args[1]), max_size=3)
    raise AssertionError(f"no strategy for annotation {tp!r}")


def draw_fields(cls, data) -> dict:
    """``cls``'s sample fields, one to three of them replaced by drawn values."""
    hints = typing.get_type_hints(cls, include_extras=True)
    names = [f.name for f in dataclasses.fields(cls)]
    changed = data.draw(st.sets(st.sampled_from(names), min_size=1, max_size=3))
    kwargs = {name: getattr(SAMPLES[cls], name) for name in names}
    for name in changed:
        kwargs[name] = data.draw(HOSTILE | values_for(hints[name]), label=name)
    return kwargs


FUZZ = settings(max_examples=120, derandomize=True, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
@FUZZ
@given(data=st.data())
def test_any_python_values_build_a_well_typed_record_or_raise_validation_error(cls, data):
    hints = typing.get_type_hints(cls, include_extras=True)
    try:
        record = cls(**draw_fields(cls, data))
    except ValidationError:
        return
    for name in hints:
        assert holds_declared(hints[name], getattr(record, name)), name


# Each record class's checks and reader run as built code: a value of its
# field's exact type passes on calls of the field's rules' own predicates,
# and any other value goes to the field's checker. Built that way and by the
# reference loop over the field checkers alone
# (`oracles.check_fields`), a record must come out the same, or fail with the
# same message.

@contextlib.contextmanager
def generic_path():
    """Records built inside run only the reference loop over the field checkers."""
    with mock.patch.object(errors, "_built_post_init", lambda cls: check_fields):
        yield


def outcome(build):
    """The record ``build()`` gives, with its repr and its fields' types, or
    the message of the ValidationError it raises."""
    try:
        record = build()
    except ValidationError as exc:
        return str(exc)
    return record, repr(record), [type(getattr(record, f.name))
                                  for f in dataclasses.fields(record)]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
@FUZZ
@given(data=st.data())
def test_the_built_checks_and_the_generic_path_agree(cls, data):
    kwargs = draw_fields(cls, data)
    built = outcome(lambda: cls(**kwargs))
    with generic_path():
        assert outcome(lambda: cls(**kwargs)) == built


def test_a_rule_is_judged_by_its_own_predicate():
    # the built code calls the predicate; no attribute of it stands in for it
    def holds(value):
        return value == 0.5

    holds.bounds = (0, 1, False)

    @dataclasses.dataclass
    class Half(Record):
        x: Annotated[float, Rule(holds, "be one half")]

    assert outcome(lambda: Half(0.25)) == "field 'x' must be one half, got 0.25"
    with generic_path():
        assert outcome(lambda: Half(0.25)) == "field 'x' must be one half, got 0.25"


def in_range_bounds(rule):
    """(lo, hi, lo_open) of an ``in_range`` rule, read from its predicate's
    closure, or None for any other rule."""
    holds = rule.holds
    if getattr(holds, "__qualname__", None) != "in_range.<locals>.holds":
        return None
    cells = [cell.cell_contents for cell in holds.__closure__]
    bound = dict(zip(holds.__code__.co_freevars, cells))
    return bound["lo"], bound["hi"], bound["lo_open"]


def boundary_values(kind, lo, hi, lo_open):
    """The values of type ``kind`` at and next to each finite bound of an
    ``in_range`` rule, and -0.0 at a float's lower bound of 0."""
    if kind is int:
        return [lo - 1, lo, lo + 1] + ([hi - 1, hi, hi + 1] if hi < math.inf else [])
    bounds = [float(lo)] + ([float(hi)] if hi < math.inf else [])
    values = [math.nextafter(b, step) for b in bounds for step in (-math.inf, b, math.inf)]
    return values + ([-0.0] if lo == 0 else [])


def in_range_fields():
    """(class, field, values) for each int or float field of the records in
    ``RECORDS``, with the boundary values of each of its ``in_range`` rules,
    the 64-bit rule of an int among them. A rule on a tuple's items is left
    out: the built code hands a tuple to its checker on either path."""
    cases = []
    for cls in RECORDS:
        for name, tp in typing.get_type_hints(cls, include_extras=True).items():
            kind, rules = tp, ()
            if typing.get_origin(tp) is Annotated:
                kind, rules = typing.get_args(tp)[0], tp.__metadata__
            if kind not in (int, float):
                continue
            bounds = [b for rule in errors._TYPE_RULES[kind] + rules
                      if (b := in_range_bounds(rule)) is not None]
            values = [v for b in bounds for v in boundary_values(kind, *b)]
            if values:
                cases.append((cls, name, values))
    return cases


IN_RANGE_FIELDS = in_range_fields()


def test_the_boundary_walk_finds_the_64_bit_rule():
    [(_, _, values)] = [case for case in IN_RANGE_FIELDS
                        if case[:2] == (SchedulerHyperparams, "q")]
    assert {-2**63 - 1, -2**63, 2**63 - 1, 2**63} <= set(values)


@pytest.mark.parametrize("cls,name,values", IN_RANGE_FIELDS,
                         ids=[f"{case[0].__name__}.{case[1]}" for case in IN_RANGE_FIELDS])
def test_the_built_checks_and_the_generic_path_agree_at_each_bound(cls, name, values):
    # HOSTILE and the drawn values reach some of these values, not all
    sample = {f.name: getattr(SAMPLES[cls], f.name) for f in dataclasses.fields(cls)}
    rejected = []
    for value in values:
        kwargs = {**sample, name: value}
        built = outcome(lambda: cls(**kwargs))
        with generic_path():
            assert outcome(lambda: cls(**kwargs)) == built, value
        rejected.append(isinstance(built, str))
    assert any(rejected) and not all(rejected)  # the values straddle a bound


def as_json(value):
    """``value`` as the readers read it: a record as an object of its
    fields, or as an array of them if it sets ``JSON_ARRAY``."""
    if dataclasses.is_dataclass(value):
        fields = [as_json(getattr(value, f.name)) for f in dataclasses.fields(value)]
        if getattr(value, "JSON_ARRAY", False):
            return fields
        return dict(zip([f.name for f in dataclasses.fields(value)], fields))
    if isinstance(value, (list, tuple)):
        return [as_json(item) for item in value]
    if isinstance(value, dict):
        return {key: as_json(item) for key, item in value.items()}
    return value


def nodes(value, path=()):
    """(path, value) of ``value`` and of everything it holds."""
    yield path, value
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from nodes(item, path + (key,))


def edited(obj, path, edit):
    """A deep copy of ``obj`` with ``edit`` applied to the value at ``path``."""
    obj = copy.deepcopy(obj)
    if not path:
        return edit(obj)
    parent = functools.reduce(operator.getitem, path[:-1], obj)
    parent[path[-1]] = edit(parent[path[-1]])
    return obj


def key_dropped(obj, data):
    key = data.draw(st.sampled_from(sorted(obj)))
    return {k: v for k, v in obj.items() if k != key}


def key_renamed(obj, data):
    """``obj`` with a key the record does not know in place of one of its
    own: the key count is unchanged."""
    key = data.draw(st.sampled_from(sorted(obj)))
    return {("unknown" if k == key else k): v for k, v in obj.items()}


# (edit, the values it applies to, what it does to one)
JSON_EDITS = {
    "exact-keys": (lambda value: True, lambda value, data: value),
    "missing-key": (lambda value: isinstance(value, dict) and value, key_dropped),
    "unknown-key": (lambda value: isinstance(value, dict) and value, key_renamed),
    # a box's coordinate, among others: an int for a float
    "int-for-float": (lambda value: type(value) is float,
                      lambda value, data: data.draw(st.sampled_from(
                          [math.floor(value), math.ceil(value)]))),
    "true-for-int": (lambda value: type(value) is int, lambda value, data: True),
    "nan": (lambda value: type(value) in (int, float), lambda value, data: math.nan),
    "2**63": (lambda value: type(value) in (int, float), lambda value, data: 2**63),
    "-0.0": (lambda value: type(value) in (int, float), lambda value, data: -0.0),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
@FUZZ
@given(data=st.data())
def test_the_built_reader_and_the_generic_reader_agree(cls, data):
    # the generic reader still reads nested records with their built
    # readers; each of those classes is checked here on its own
    obj = as_json(SAMPLES[cls])
    targets = {edit: [path for path, value in nodes(obj) if applies(value)]
               for edit, (applies, _) in JSON_EDITS.items()}
    edit = data.draw(st.sampled_from([edit for edit in JSON_EDITS if targets[edit]]))
    obj = edited(obj, data.draw(st.sampled_from(targets[edit])),
                 lambda value: JSON_EDITS[edit][1](value, data))

    def generic_read():
        try:
            return object_reader(cls)(obj)
        except errors.FieldError as exc:
            raise ValidationError(f"in: {exc}") from None

    built = outcome(lambda: read_object(cls, obj, lambda: "in", ValidationError))
    with generic_path():
        assert outcome(generic_read) == built


TINY = tiny_corpus()
HP = SchedulerHyperparams()
CURVE = CurveSpec(1.0)

# every value the record or object was once built from, and the fault it
# now raises when built
BUILD_CASES = [
    ("harness-epochs-float", lambda: HarnessParams(epochs=2.5),
     "field 'epochs' must be an integer, got a number"),
    ("harness-batch-size-bool", lambda: HarnessParams(batch_size=True),
     "field 'batch_size' must be an integer, got true or false"),
    ("harness-lr-nan", lambda: HarnessParams(lr=math.nan),
     "field 'lr' must be a finite number, got nan"),
    ("scheduler-q-float", lambda: SchedulerHyperparams(q=2.5),
     "field 'q' must be an integer, got a number"),
    ("scheduler-kappa-nan", lambda: SchedulerHyperparams(kappa=math.nan),
     "field 'kappa' must be a finite number, got nan"),
    ("scheduler-eps-plateau-nan", lambda: SchedulerHyperparams(eps_plateau=math.nan),
     "field 'eps_plateau' must be a finite number, got nan"),
    ("weights-w-ans-nan", lambda: StageLossWeights(w_ans=math.nan),
     "field 'w_ans' must be a finite number, got nan"),
    ("curve-base-nan", lambda: CurveSpec(base=math.nan),
     "field 'base' must be a finite number, got nan"),
    ("curve-base-inf", lambda: CurveSpec(base=math.inf),
     "field 'base' must be a finite number, got inf"),
    ("stage-count-float", lambda: StageDynamics(count=2.5, total=CURVE),
     "field 'count' must be an integer, got a number"),
    ("bbox-bool", lambda: BBox(0, 0, 1, True),
     "field 'y2' must be a number, got true or false"),
    ("domain-key-int", lambda: DomainKey(1, "CT"),
     "field 'lesion_class' must be a string, got an integer"),
    ("image-width-float", lambda: ImageRecord("a", 2.5, 3, "CT", []),
     "field 'width' must be an integer, got a number"),
    ("forge-concurrency-float", lambda: ForgeConfig(concurrency=1.5),
     "field 'concurrency' must be an integer, got a number"),
    ("forge-remote-attempts-float", lambda: ForgeConfig(remote_attempts=1.5),
     "field 'remote_attempts' must be an integer, got a number"),
    ("remote-attempts-float", lambda: remote.RemoteQaGenerator("http://h", attempts=1.5),
     "field 'attempts' must be an integer, got a number"),
    ("remote-endpoint-ftp", lambda: remote.RemoteQaGenerator("ftp://h"),
     "field 'endpoint' must be an http:// or https:// URL with a host, got 'ftp://h'"),
    ("toy-feature-dim-zero", lambda: ToyModel(TINY, feature_dim=0),
     "field 'feature_dim' must lie in [1, 4096], got 0"),
    ("toy-feature-dim-float", lambda: ToyModel(TINY, feature_dim=2.7),
     "field 'feature_dim' must be an integer, got a number"),
    ("toy-seed-negative", lambda: ToyModel(TINY, seed=-1),
     "field 'seed' must be non-negative, got -1"),
    ("toy-grid-dims-float", lambda: ToyModel(TINY, grid_dims=(2.5, 2)),
     "field 'grid_dims[0]' must be an integer, got a number"),
    ("scheduler-seed-float", lambda: CurriculumScheduler(HP, seed=2.5),
     "field 'seed' must be an integer, got a number"),
    ("mask-height-float", lambda: OrganMask("liver", [0, 2], 2.0, 1),
     "field 'height' must be an integer, got a number"),
    ("mask-height-bool", lambda: OrganMask("liver", [0, 1], True, 1),
     "field 'height' must be an integer, got true or false"),
]


STAGE = StageDynamics(1, CURVE)

# a value of the right type that breaks a rule no other test reaches
RULE_CASES = [
    ("scenario-name-empty", lambda: DynamicsSpec("", 1, {"d": {"easy": STAGE}}),
     "field 'name' must be non-empty, got ''"),
    ("scenario-domains-empty", lambda: DynamicsSpec("s", 1, {}),
     "field 'domains' must be non-empty, got {}"),
    ("domain-key-modality-empty", lambda: DomainKey("mass", ""),
     "field 'modality' must be non-empty, got ''"),
    ("image-height-above-side", lambda: ImageRecord("a", 64, 8193, "CT", []),
     "field 'height' must lie in [1, 8192], got 8193"),
    ("record-image-id-empty", lambda: dataclasses.replace(TINY[0], image_id=""),
     "field 'image_id' must be non-empty, got ''"),
    ("record-seed-empty", lambda: dataclasses.replace(TINY[0], seed=""),
     "field 'seed' must be non-empty, got ''"),
    ("record-generator-id-empty", lambda: dataclasses.replace(TINY[0], generator_id=""),
     "field 'generator_id' must be non-empty, got ''"),
    ("reply-question-empty", lambda: remote._Reply("", "A", "C."),
     "field 'question' must be non-empty, got ''"),
    ("reply-answer-empty", lambda: remote._Reply("Q?", "", "C."),
     "field 'answer' must be non-empty, got ''"),
    ("harness-image-height-above-side", lambda: HarnessParams(image_dims=(8193, 64)),
     "field 'image_dims[0]' must lie in [1, 8192], got 8193"),
    ("harness-batch-size-zero", lambda: HarnessParams(batch_size=0),
     "field 'batch_size' must be at least 1, got 0"),
    ("harness-batches-per-epoch-zero", lambda: HarnessParams(batches_per_epoch=0),
     "field 'batches_per_epoch' must be at least 1, got 0"),
    ("scheduler-eps-plateau-negative", lambda: SchedulerHyperparams(eps_plateau=-0.5),
     "field 'eps_plateau' must be non-negative, got -0.5"),
    ("scheduler-delta-rise-zero", lambda: SchedulerHyperparams(delta_rise=0),
     "field 'delta_rise' must be positive, got 0.0"),
    ("scheduler-lambda-hard-init-negative",
     lambda: SchedulerHyperparams(lambda_hard_init=-0.1),
     "field 'lambda_hard_init' must be non-negative, got -0.1"),
    ("scheduler-lambda-hard-init-above-max",
     lambda: SchedulerHyperparams(lambda_hard_init=0.5),
     "lambda_hard_init must be at most lambda_hard_max 0.3, got 0.5"),
    ("scheduler-seed-negative", lambda: CurriculumScheduler(HP, seed=-1),
     "field 'seed' must be non-negative, got -1"),
    *[(f"weights-{name}-negative", lambda name=name: StageLossWeights(**{name: -1}),
       f"field '{name}' must be non-negative, got -1.0")
      for name in ("w_ans", "w_cot", "w_ground", "w_attn")],
]


@pytest.mark.parametrize("build,message", [case[1:] for case in BUILD_CASES + RULE_CASES],
                         ids=[case[0] for case in BUILD_CASES + RULE_CASES])
def test_a_bad_value_raises_validation_error_when_built(build, message):
    with pytest.raises(ValidationError) as info:
        build()
    assert str(info.value) == message


# (section, key, value, the record built directly, the message after the path)
SAME_MESSAGE_CASES = [
    ("harness", "lr", 0, lambda: HarnessParams(lr=0), " must be positive, got 0.0"),
    ("scheduler", "rho", 1.5, lambda: SchedulerHyperparams(rho=1.5),
     " must lie in (0, 1], got 1.5"),
    ("forge", "unassigned_policy", "keep", lambda: ForgeConfig(unassigned_policy="keep"),
     " must be one of ['skip', 'organ_free'], got 'keep'"),
]


@pytest.mark.parametrize("section,key,value,build,rest", SAME_MESSAGE_CASES,
                         ids=[case[0] + "." + case[1] for case in SAME_MESSAGE_CASES])
def test_the_reader_and_the_constructor_give_one_message(tmp_path, section, key, value,
                                                         build, rest):
    with pytest.raises(ValidationError, match="^" + re.escape(f"field '{key}'{rest}") + "$"):
        build()
    path = tmp_path / "c.json"
    path.write_text(json.dumps({section: {key: value}}), encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        load_config(str(path), env={})
    assert str(info.value) == f"config {path}: field '{section}.{key}'{rest}"


def test_an_int_for_a_float_is_stored_as_a_float():
    # trace headers echo asdict(params): their bytes must not depend on how
    # the caller wrote a value
    by_int, by_float = HarnessParams(lr=1, sigma=2), HarnessParams(lr=1.0, sigma=2.0)
    assert json.dumps(asdict(by_int)) == json.dumps(asdict(by_float))
    assert type(SchedulerHyperparams(kappa=3).kappa) is float
    # a list for a tuple is stored as a tuple
    assert HarnessParams(image_dims=[32, 32]).image_dims == (32, 32)


def test_a_fault_checks_each_field_once():
    # the built code raises a field's fault itself; nothing checks the
    # fields before it a second time
    calls = []

    def counted(value):
        calls.append(value)
        return True

    @dataclasses.dataclass
    class Pair(Record):
        a: Annotated[float, Rule(counted, "be counted")]
        b: Annotated[int, in_range(1)]

    with pytest.raises(ValidationError) as info:
        Pair(1, 0)
    assert str(info.value) == "field 'b' must be at least 1, got 0"
    assert calls == [1.0]


def with_box(box, edit):
    """A dataset line whose one annotation has ``box``, then ``edit``ed."""
    line = {"image_id": "a", "width": 64, "height": 64, "modality": "CT",
            "annotations": [{"box": box, "lesion_class": "mass"}]}
    edit(line)
    return line


def with_base(base, edit):
    """A full scenario, every default given, whose one curve has ``base``,
    then ``edit``ed."""
    spec = {"name": "s", "epochs": 1, "seed": 0, "hyperparams": {},
            "domains": {"mass|CT": {"easy": {"count": 2, "total": {"base": base}}}}}
    edit(spec)
    return spec


def renamed(key):
    return lambda obj: obj.update(unknown=obj.pop(key))


UNKNOWN_KEYS = "unknown keys ['unknown']; allowed: "
BAD_BOX = "field 'annotations[0].box' must be an array of 4 items, got 3"
BAD_BASE = "field 'domains[\"mass|CT\"][\"easy\"].total.base' must be non-negative, got -1.0"

# two faults in one input: the reader reports the first in its order (type;
# item count or unknown keys; a nested record's fault; a missing field),
# whichever path the input's length sends it down
FAULT_ORDER_CASES = [
    ("unknown-added-and-bad-box", ImageRecord,
     with_box([0.1, 0.1, 0.5], lambda line: line.update(unknown=1)),
     UNKNOWN_KEYS + "['annotations', 'height', 'image_id', 'modality', 'width']"),
    ("unknown-for-required-and-bad-box", ImageRecord,
     with_box([0.1, 0.1, 0.5], renamed("modality")),
     UNKNOWN_KEYS + "['annotations', 'height', 'image_id', 'modality', 'width']"),
    ("missing-and-bad-box", ImageRecord,
     with_box([0.1, 0.1, 0.5], lambda line: line.pop("modality")), BAD_BOX),
    ("unknown-for-defaulted-and-bad-base", DynamicsSpec, with_base(-1.0, renamed("seed")),
     UNKNOWN_KEYS + "['domains', 'epochs', 'hyperparams', 'name', 'seed']"),
    ("missing-and-bad-base", DynamicsSpec,
     with_base(-1.0, lambda spec: spec.pop("epochs")), BAD_BASE),
    ("defaults-absent-and-bad-base", DynamicsSpec,
     with_base(-1.0, lambda spec: spec.pop("hyperparams")), BAD_BASE),
]


@pytest.mark.parametrize("cls,obj,message", [case[1:] for case in FAULT_ORDER_CASES],
                         ids=[case[0] for case in FAULT_ORDER_CASES])
def test_the_reader_reports_the_first_of_two_faults(cls, obj, message):
    with pytest.raises(ValidationError) as info:
        read_object(cls, obj, lambda: "in", ValidationError)
    assert str(info.value) == "in: " + message


def test_a_faulty_read_runs_a_rule_as_often_as_one_python_build():
    # the reader builds each record it holds once, also on a fault
    calls = []

    def counted(value):
        calls.append(value)
        return False

    @dataclasses.dataclass
    class Leaf(Record):
        a: Annotated[float, Rule(counted, "be counted")]

    @dataclasses.dataclass
    class Outer(Record):
        leaf: Leaf

    with pytest.raises(ValidationError):
        Leaf(2.0)
    per_build = len(calls)
    for cls, obj, path in [(Leaf, {"a": 2.0}, "a"), (Outer, {"leaf": {"a": 2.0}}, "leaf.a")]:
        calls.clear()
        with pytest.raises(ValidationError) as info:
            read_object(cls, obj, lambda: "in", ValidationError)
        assert str(info.value) == f"in: field '{path}' must be counted, got 2.0"
        assert len(calls) == per_build, cls.__name__
