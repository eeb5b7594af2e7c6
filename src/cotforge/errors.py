"""Exception types shared across the package, and the one reader of JSON input.

The CLI maps these onto process exit codes: ValidationError -> 1,
ConfigError -> 2, BackendError (and subclasses) -> 3. A record's constructor
raises ValidationError, never ConfigError; the reader of an input raises
each fault as that input's error type, so a broken rule exits 2 in the
config and 1 in a scenario or data file. Only the CLI constructs a
ConfigError by name. Every JSON input, files and remote replies alike,
goes through ``parse_json`` and ``read_object``.
Both take ``where``, a zero-argument callable naming the input (a file, a
line, an endpoint), called only to report a fault. A record is a JSON object;
a box, whose class sets ``JSON_ARRAY``, is an array of its fields in order.
"""

import contextlib
import dataclasses
import functools
import itertools
import json
import math
import typing


class ValidationError(ValueError):
    """Input data violates a documented contract (bad schema, bad geometry)."""


class ConfigError(ValueError):
    """Configuration file or section is missing, malformed, or out of range."""


class BackendError(RuntimeError):
    """A QA backend failed (transport error, bad status, retries exhausted)."""


class MalformedResponseError(BackendError):
    """A QA backend answered, but not with a well-formed reply."""


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


def parse_json(text, where, error: type):
    """Parse one JSON document: a str, or bytes read as strict UTF-8 (RFC 8259).

    Bad syntax, too deep a nest, too long an integer, or a string holding a
    lone UTF-16 surrogate raises ``error`` as ``"{where()}: bad JSON: ..."``.
    """
    try:
        if type(text) is bytes:
            text = text.decode("utf-8")  # json.loads would let surrogates pass
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
    """Build dataclass ``cls`` from a parsed JSON object, checking every value.

    The dataclass's fields and annotations are the schema. Unknown keys and
    missing required fields are errors; true/false is never a number; an
    integer is accepted where a float is annotated, and integers must fit
    in 64 bits; tuples and lists come from arrays; a dataclass comes from an
    object, or, if it sets ``JSON_ARRAY``, from an array of all its fields
    in order, and from nothing else. Errors, including the ValidationError
    a constructor raises for a broken rule, are raised as ``error`` with
    ``where()`` and the field's path in front.
    """
    try:
        return _reader(cls)(obj)
    except _Mismatch as exc:
        field = "".join(reversed(exc.path)).lstrip(".")
        message = f"field '{field}'{exc.args[0]}" if field else exc.args[0]
        raise error(f"{where()}: {message.lstrip(': ')}") from None


class _Mismatch(Exception):
    """A value that does not fit its annotation. Its message starts with its
    own separator; ``path`` grows as it unwinds, innermost segment first."""

    def __init__(self, message: str, path=None):
        super().__init__(message)
        self.path = path or []


_JSON_NAMES = {dict: "an object", list: "an array", str: "a string",
               int: "an integer", float: "a number", bool: "true or false",
               type(None): "null"}


def _wrong_type(tp, value) -> _Mismatch:
    got = _JSON_NAMES.get(type(value), type(value).__name__)
    return _Mismatch(f" must be {_JSON_NAMES[tp]}, got {got}")


@functools.lru_cache(maxsize=None)
def _reader(tp):
    """The checker for annotation ``tp``: value -> value, or raises _Mismatch.

    Built once per annotation and cached. Types compare exactly, so a bool
    never passes for an int.
    """
    if dataclasses.is_dataclass(tp):
        return _object_reader(tp)
    if tp in _JSON_NAMES:
        return _scalar_reader(tp)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union and type(None) in args:  # Optional[X]
        inner = _reader(next(a for a in args if a is not type(None)))
        return lambda value: None if value is None else inner(value)
    if origin is list or origin is tuple and args[-1] is Ellipsis:
        return _array_reader(itertools.repeat(_reader(args[0])), None, origin)
    if origin is tuple:
        return _array_reader([_reader(a) for a in args], len(args), tuple)
    if origin is dict:
        return _dict_reader(_reader(args[1]))
    raise TypeError(f"no JSON reader for annotation {tp!r}")


def _scalar_reader(tp):
    def read(value):
        if type(value) is tp and tp is not int:
            if tp is not float or math.isfinite(value):
                return value
            raise _Mismatch(f" must be a finite number, got {value}")
        if type(value) is int and tp in (int, float):
            # wider integers cannot become the fixed-width sizes they feed
            if -2**63 <= value < 2**63:
                return float(value) if tp is float else value
            raise _Mismatch(" is outside the 64-bit integer range")
        raise _wrong_type(tp, value)

    return read


def _array_reader(item_readers, length, build):
    """Arrays of ``length`` items read slot by slot, or of any length (None)."""

    def read(value):
        if type(value) is not list:
            raise _wrong_type(list, value)
        if length is not None and len(value) != length:
            raise _Mismatch(f" must be an array of {length} items, got {len(value)}")
        out = []
        for i, (reader, item) in enumerate(zip(item_readers, value)):
            try:
                out.append(reader(item))
            except _Mismatch as exc:
                exc.path.append(f"[{i}]")
                raise
        return build(out)

    return read


def _dict_reader(value_reader):
    def read(value):
        if type(value) is not dict:
            raise _wrong_type(dict, value)
        out = {}
        for key, item in value.items():
            try:
                out[key] = value_reader(item)
            except _Mismatch as exc:
                exc.path.append(f"[{json.dumps(key)}]")
                raise
        return out

    return read


def _object_reader(cls):
    hints = typing.get_type_hints(cls)
    readers = {f.name: _reader(hints[f.name])
               for f in dataclasses.fields(cls) if f.init}
    required = [f.name for f in dataclasses.fields(cls) if f.init
                and f.default is f.default_factory is dataclasses.MISSING]
    # fields whose JSON value is kept as it is (a float if finite), without a call
    exact = {name: hints[name] for name in readers if hints[name] in (float, str, bool)}
    shape = list if getattr(cls, "JSON_ARRAY", False) else dict

    def read(value):
        if type(value) is not shape:
            raise _wrong_type(shape, value)
        if shape is list and len(value) != len(readers):
            raise _Mismatch(f" must be an array of {len(readers)} items, got {len(value)}")
        # an array holds every field, in declaration order
        items = value.items() if shape is dict else zip(readers, value)
        kwargs = {}
        for name, item in items:
            kind = exact.get(name)
            if type(item) is kind and (kind is not float or math.isfinite(item)):
                kwargs[name] = item
                continue
            if name not in readers:
                raise _Mismatch(f": unknown keys {sorted(set(value) - set(readers))}; "
                                f"allowed: {sorted(readers)}")
            try:
                kwargs[name] = readers[name](item)
            except _Mismatch as exc:
                exc.path.append(f".{name}")
                raise
        if len(kwargs) < len(readers):
            for name in required:
                if name not in kwargs:
                    raise _Mismatch(" is missing", [f".{name}"])
        try:
            return cls(**kwargs)
        except ValidationError as exc:
            raise _Mismatch(f": {exc}") from None

    return read
