"""Exception types shared across the package, the one JSON reader, and the schema.

The CLI maps these onto process exit codes: ValidationError -> 1,
ConfigError -> 2, BackendError (and subclasses) -> 3. A record's constructor
raises ValidationError, never ConfigError; the reader of an input raises
each fault as that input's error type, so a broken rule exits 2 in the
config and 1 in a scenario or data file. Only the CLI constructs a
ConfigError by name. Every JSON input, files and remote replies alike,
goes through ``parse_json`` and ``read_object``. ``parse_json`` reads each
document (each JSONL line) with one raw decode of the C scanner, and
``json.loads`` words the faults: a document the raw decode does not take
whole is read again by it.
Both take ``where``, a zero-argument callable naming the input (a file, a
line, an endpoint), called only to report a fault. A record is a JSON object;
a box, whose class sets ``JSON_ARRAY``, is an array of its fields in order.

The reader owns structure and the schema owns values: ``read_object``
checks shapes and keys and builds nested records; a `Record` field's
annotation declares its type, and ``typing.Annotated`` its rules, checked
whenever the record is built, from JSON or from Python (``checked`` applies
them to an argument). A broken rule raises FieldError with one message on
either path, ``field 'lr' must be positive, got 0.0``, which the reader
prefixes with its input and the field's full path.

The reader and the checks run as code built for each record class at its
first build, as ``dataclasses`` builds ``__init__``. A field whose value has
the field's exact type passes on a call of each of its rules' own predicates;
any other value, or one that breaks a rule, goes through its field's checker,
the one source of conversions and of messages. The reader builds each record
at most once and words a fault where it finds it: an object with exactly the
record's keys, or a box's array of all its fields, is read in line, anything
else after a shape check.
"""

import contextlib
import dataclasses
import functools
import itertools
import json
import math
import operator
import typing
from typing import Annotated, Callable, NamedTuple


class ValidationError(ValueError):
    """Input data violates a documented contract (bad schema, bad geometry)."""


class ConfigError(ValueError):
    """Configuration file or section is missing, malformed, or out of range."""


class BackendError(RuntimeError):
    """A QA backend failed (transport error, bad status, retries exhausted)."""


class MalformedResponseError(BackendError):
    """A QA backend answered, but not with a well-formed reply."""


class FieldError(ValidationError):
    """A value that breaks its field's declared type or rule, or its record's
    shape. ``detail`` starts with its own separator; ``path`` grows as the
    reader unwinds, innermost segment first."""

    def __init__(self, detail: str, path=None):
        super().__init__(detail)
        self.detail, self.path = detail, path or []

    def __str__(self):
        field = "".join(reversed(self.path)).lstrip(".")
        return f"field '{field}'{self.detail}" if field else self.detail.lstrip(": ")


class Rule(NamedTuple):
    """A value rule for ``typing.Annotated``: ``holds(value)`` is true for a
    good value, and a bad one is reported as "must {need}, got {shown(value)}"."""

    holds: Callable
    need: str
    shown: Callable = repr


NON_EMPTY = Rule(bool, "be non-empty")


def one_of(*values) -> Rule:
    return Rule(frozenset(values).__contains__, f"be one of {list(values)}")


def in_range(lo, hi=math.inf, lo_open=False) -> Rule:
    """A number in [lo, hi], or in (lo, hi] if ``lo_open``. NaN breaks it."""

    def holds(value):
        return (lo < value if lo_open else lo <= value) and value <= hi

    if hi < math.inf:
        need = f"lie in {'(' if lo_open else '['}{lo}, {hi}]"
    elif lo == 0:
        need = "be positive" if lo_open else "be non-negative"
    else:
        need = f"be {'above' if lo_open else 'at least'} {lo}"
    return Rule(holds, need)


# rules that several records and functions share
NonEmptyStr = Annotated[str, NON_EMPTY]
PositiveInt = Annotated[int, in_range(1)]
NonNegativeInt = Annotated[int, in_range(0)]
Positive = Annotated[float, in_range(0, lo_open=True)]
NonNegative = Annotated[float, in_range(0)]
UnitInterval = Annotated[float, in_range(0, 1)]


@contextlib.contextmanager
def open_text(path, error: type):
    """Open ``path`` as UTF-8 text; a failure to open or read it raises ``error``."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise error(f"cannot read {path}: {reason}") from None


def load_json(path, cls, context: str, error: type):
    """Read dataclass ``cls`` from the JSON file at ``path``; any fault raises ``error``."""
    where = lambda: f"{context} {path}"
    with open_text(path, error) as fh:
        obj = parse_json(fh.read(), where, error)
    return read_object(cls, obj, where, error)


_raw_decode = json.JSONDecoder().raw_decode
JSON_SPACE = " \t\n\r"  # what json.loads skips around a document


def parse_json(text, where, error: type):
    """Parse one JSON document: a str, or bytes read as strict UTF-8 (RFC 8259).

    Bad syntax, too deep a nest, too long an integer, or a string holding a
    lone UTF-16 surrogate raises ``error`` as ``"{where()}: bad JSON: ..."``.
    The document is read by one raw decode, kept when only JSON whitespace
    follows it; any other outcome (a fault, leading whitespace, a BOM) is
    read again by ``json.loads``, which accepts what it accepts and words
    every fault, so both paths give the same value or the same message.
    """
    try:
        if type(text) is bytes:
            text = text.decode("utf-8")  # json.loads would let surrogates pass
        try:
            value, end = _raw_decode(text)
            whole = end == len(text) or not text[end:].strip(JSON_SPACE)
        except (ValueError, RecursionError, TypeError):
            whole = False
        if not whole:
            value = json.loads(text)
        # a one-character search first: it runs many times faster than one for "\\u"
        if "\\" in text and "\\u" in text:  # only a \u escape spells a lone surrogate
            json.dumps(value, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        raise error(f"{where()}: bad JSON: a string holds a lone UTF-16 surrogate") from None
    except (ValueError, RecursionError) as exc:  # ValueError: also bad UTF-8
        raise error(f"{where()}: bad JSON: {exc}") from None
    return value


def read_object(cls, obj, where, error: type):
    """Build dataclass ``cls`` from a parsed JSON object.

    The dataclass's fields are the structure: unknown keys and missing
    required fields are errors; a dataclass comes from an object, or, if it
    sets ``JSON_ARRAY``, from an array of all its fields in order, and from
    nothing else; lists, tuples and dicts of records come from arrays and
    objects. Every other value goes to the record's constructor as it is,
    which checks it (see `Record`). The first fault (see `_check_shape`), or
    else the constructor's ValidationError, is raised as ``error`` with
    ``where()`` and the field's path in front.
    """
    try:
        return _checker(cls, True)(obj)
    except FieldError as exc:
        raise error(f"{where()}: {exc}") from None


class Record:
    """A dataclass whose fields' types and rules are checked when it is built.

    Types compare exactly, so a bool never passes for a number; a float must
    be finite and an integer fit in 64 bits; an int given for a float is
    stored as a float, a list for a tuple as a tuple. Then each ``Annotated``
    rule applies in order. A rule across fields goes in a subclass's
    ``__post_init__``. The checks run as the class's built code
    (`_built_post_init`)."""

    def __post_init__(self):
        _built_post_init(type(self))(self)


def checked(name: str, value, tp):
    """``value`` checked, and stored, as a record's field of annotation
    ``tp`` would be; a fault raises FieldError naming ``name``."""
    return _check_item(_checker(tp), value, f".{name}")


# the rules every int and float obeys; wider integers cannot become the
# fixed-width sizes they feed
_TYPE_RULES = {int: (Rule(in_range(-2**63, 2**63 - 1).holds, "fit in 64 bits"),),
               float: (Rule(math.isfinite, "be a finite number"),)}
_JSON_NAMES = {dict: "an object", list: "an array", str: "a string",
               int: "an integer", float: "a number", bool: "true or false",
               type(None): "null"}


def _wrong_type(expected: str, value) -> FieldError:
    got = _JSON_NAMES.get(type(value), type(value).__name__)
    return FieldError(f" must be {expected}, got {got}")


def _check_item(check, value, segment):
    try:
        return check(value)
    except FieldError as exc:
        exc.path.append(segment)
        raise


def _is_leaf(tp) -> bool:
    return tp in _JSON_NAMES or dataclasses.is_dataclass(tp)


def _has_record(tp) -> bool:
    return dataclasses.is_dataclass(tp) or any(map(_has_record, typing.get_args(tp)))


@functools.lru_cache(maxsize=None)
def _checker(tp, reading=False):
    """The checker for annotation ``tp``: value -> the value as stored, or
    raises FieldError. When ``reading``, the reader's builder instead, which
    builds the records that ``tp`` holds from JSON, checking only their
    structure, or None if it holds none. Built once and cached."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if reading and not _has_record(tp):
        return None  # the value goes to its record's constructor as it is
    if origin is Annotated:
        if reading:
            return _checker(args[0], True)
        if _is_leaf(args[0]):
            return _leaf_checker(args[0], tp.__metadata__)
        inner, rules = _checker(args[0]), tp.__metadata__
        return lambda value: _apply(rules, inner(value))
    if _is_leaf(tp):
        return _built_reader(tp) if reading else _leaf_checker(tp, ())
    if origin is typing.Union and type(None) in args:  # Optional[X]
        inner = _checker(next(a for a in args if a is not type(None)), reading)
        return lambda value: None if value is None else inner(value)
    if origin is list or origin is tuple:
        fixed = origin is tuple and args[-1] is not Ellipsis
        return _sequence_checker(origin, [_checker(a, reading) for a in args
                                          if a is not Ellipsis], len(args) if fixed else None)
    if origin is dict:
        return _dict_checker(_checker(args[1], reading))
    raise TypeError(f"no checker for annotation {tp!r}")


def _apply(rules, value):
    for holds, need, shown in rules:
        if not holds(value):
            raise FieldError(f" must {need}, got {shown(value)}")
    return value


def _leaf_checker(tp, rules):
    """A scalar or a record of type ``tp``, then its rules."""
    expected = _JSON_NAMES.get(tp) or f"a {tp.__name__}"
    rules = _TYPE_RULES.get(tp, ()) + rules

    def check(value):
        kind = type(value)
        if kind is not tp:  # an int, or a numpy float64, for a float
            if not (tp is float and (kind is int or isinstance(value, float))):
                raise _wrong_type(expected, value)
            value = float(_apply(_TYPE_RULES.get(kind, ()), value))
        return _apply(rules, value)

    return check


def _sequence_checker(build, checks, length):
    """Lists and tuples of ``length`` items checked slot by slot, or of any
    length (None) checked by ``checks[0]``; either is stored as ``build``."""

    def check(value):
        if type(value) is not list and type(value) is not tuple:
            raise _wrong_type("an array", value)
        if length is not None and len(value) != length:
            raise FieldError(f" must be an array of {length} items, got {len(value)}")
        items = []
        try:
            for check_item, item in zip(
                    checks if length is not None else itertools.repeat(checks[0]), value):
                items.append(check_item(item))
        except FieldError as exc:
            exc.path.append(f"[{len(items)}]")  # the items before it passed
            raise
        if type(value) is build and all(map(operator.is_, items, value)):
            return value  # the caller's own list or tuple, unchanged
        return build(items)

    return check


def _dict_checker(check_value):
    def check(value):
        if type(value) is not dict:
            raise _wrong_type("an object", value)
        for key in value:
            if type(key) is not str:
                raise _wrong_type("an object with string keys", key)
        return {key: _check_item(check_value, item, f"[{json.dumps(key)}]")
                for key, item in value.items()}

    return check


def _built_reader(cls):
    """The reader of record ``cls``, built at its first read: its fields
    looked up, its nested records built in field order, then one constructor
    call. A value that is not an object with exactly its keys, or a box's
    array of all its fields, first has its shape checked (`_check_shape`)."""
    env = {"cls": cls, "check_shape": _check_shape, "FieldError": FieldError,
           "ValidationError": ValidationError}
    hints = typing.get_type_hints(cls, include_extras=True)
    fields = dataclasses.fields(cls)
    array = getattr(cls, "JSON_ARRAY", False)  # an array holds every field
    required = [array or f.default is f.default_factory is dataclasses.MISSING for f in fields]
    gate = f"type(value) is {'list' if array else 'dict'} and len(value) == {len(fields)}"
    if not all(required):  # an unknown key may stand in for a defaulted one
        gate += f" and value.keys() <= {_bind(env, frozenset(f.name for f in fields))}"
    lookups, builds = [], []
    for k, f in enumerate(fields):
        build, item = _checker(hints[f.name], True), f"value[{k if array else repr(f.name)}]"
        fill = "" if required[k] else f" if {f.name!r} in value else " + (  # absent: its default
            _bind(env, f.default) if f.default is not dataclasses.MISSING
            else f"{_bind(env, f.default_factory)}()")
        if required[k]:
            lookups.append(f"v{k} = {item}")
            item = f"v{k}"
        if build is not None or fill:
            call = "" if build is None else _bind(env, build)
            builds += [f"field = {'.' + f.name!r}", f"v{k} = {call}({item}){fill}"]
    return _compile(f"read_{cls.__name__}", "value", env, [
        f"if not ({gate}):",
        "    check_shape(cls, value)",
        "try:",
        *("    " + line for line in lookups + builds),
        "    field = ''",  # the constructor's FieldError has its path already
        f"    return cls({', '.join(f'v{k}' for k in range(len(fields)))})",
        "except KeyError:",  # a full-length object that lacks a key has an unknown one
        "    check_shape(cls, value)",
        "    raise",
        "except ValidationError as exc:",  # a field's fault, or the constructor's
        "    exc = exc if isinstance(exc, FieldError) else FieldError(': ' + str(exc))",
        "    exc.path.append(field)",
        "    raise exc from None"])


def _check_shape(cls, value):
    """Raise the first fault of ``value`` read as record ``cls``: its type;
    its item count, or unknown keys; a nested record's fault; a missing
    field. Pass an object that lacks only fields with defaults."""
    fields = dataclasses.fields(cls)
    shape = list if getattr(cls, "JSON_ARRAY", False) else dict
    if type(value) is not shape:
        raise _wrong_type(_JSON_NAMES[shape], value)
    if shape is list:  # only a wrong length fails the built reader's gate
        raise FieldError(f" must be an array of {len(fields)} items, got {len(value)}")
    names = {f.name for f in fields}
    if not value.keys() <= names:
        raise FieldError(f": unknown keys {sorted(value.keys() - names)}; "
                         f"allowed: {sorted(names)}")
    missing = [f.name for f in fields if f.name not in value
               and f.default is f.default_factory is dataclasses.MISSING]
    if missing:
        hints = typing.get_type_hints(cls, include_extras=True)
        for f in fields:
            if f.name in value and (build := _checker(hints[f.name], True)) is not None:
                _check_item(build, value[f.name], f".{f.name}")
        raise FieldError(" is missing", [f".{missing[0]}"])


@functools.lru_cache(maxsize=None)
def _built_post_init(cls):
    """``cls``'s field checks, built at its first build, in field order: per
    field, a test that the value is of the field's exact type and keeps its
    rules (`_fast_test`); a value that fails it goes through the field's
    checker, whose fault gets the field's name on its path."""
    env = {"object_setattr": object.__setattr__, "FieldError": FieldError}
    hints = typing.get_type_hints(cls, include_extras=True)
    body = []
    for name in [f.name for f in dataclasses.fields(cls)]:
        check = ["try:",
                 f"    good = {_bind(env, _checker(hints[name]))}(value)",
                 "except FieldError as exc:",
                 f"    exc.path.append({'.' + name!r})",
                 "    raise",
                 "if good is not value:",
                 f"    object_setattr(self, {name!r}, good)"]
        test = _fast_test(hints[name], "value", env)
        body.append(f"value = self.{name}")
        body += check if test is None else [f"if not ({test}):",
                                            *("    " + line for line in check)]
    return _compile(f"check_{cls.__name__}", "self", env, body or ["pass"])


def _fast_test(tp, value, env):
    """Source of a test that holds only if ``value`` passes annotation ``tp``
    unchanged: a scalar or record of its exact type on which each of its
    rules' predicates holds, each called as the field's checker calls it.
    None where ``tp`` has no such test, as for a list, tuple, dict or
    Optional, whose checker the built code calls."""
    rules = ()
    if typing.get_origin(tp) is Annotated:
        tp, rules = typing.get_args(tp)[0], tp.__metadata__
    if not _is_leaf(tp):
        return None
    return " and ".join([f"type({value}) is {_bind(env, tp)}", *(
        f"{_bind(env, rule.holds)}({value})" for rule in _TYPE_RULES.get(tp, ()) + rules)])


def _bind(env, obj) -> str:
    """A name for ``obj`` in the built code."""
    name = f"c{len(env)}"
    env[name] = obj
    return name


def _compile(name, params, env, body):
    """The function ``name(params)`` whose body is the source lines ``body``;
    ``env``'s names are bound as closure variables."""
    source = "\n".join([f"def make({', '.join(env)}):", f"    def {name}({params}):",
                        *(" " * 8 + line for line in body), f"    return {name}"])
    namespace = {}
    exec(source, namespace)
    return namespace["make"](**env)
