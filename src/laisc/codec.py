"""The JSON codec: a domain dataclass's field annotations are its schema.

``to_node`` writes a dataclass as a JSON object with one key per field,
and ``from_node`` reads one back, checking each value against its field's
annotation.  One table, ``_shape``, maps an annotation to the pair of
functions that read and write it:

* ``str``, ``int``, ``bool`` and ``str | None`` are written as they are;
  ``float`` goes through ``float()``, so a threshold of ``1`` and one of
  ``1.0`` give the same bytes;
* an ``Enum`` is its value, a ``datetime`` ISO-8601 normalized to UTC;
* a tuple of strings or of dataclasses is a list;
* a tuple of ``(id, element)`` pairs (``Landscape.datasets``) is an object
  keyed by id, and so is a tuple of ``(name, float)`` pairs
  (``Verdict.measured``);
* a field typed as a union of dataclasses (a VR's or an evidence record's
  ``payload``) is an object with a sibling ``kind`` key naming its class.

``dump_canonical`` sorts the keys and a ``Landscape`` keeps its
collections sorted by id, so ``serialize(parse(serialize(x)))`` equals
``serialize(x)`` byte for byte; ``load_json`` rejects a repeated key.
``dump_canonical`` writes its node with one recursive writer that appends
to a list: strings go through ``json``'s C ``encode_basestring``, numbers
through ``int.__repr__`` and ``float.__repr__``.  Its output equals
``json.dumps(node, sort_keys=True, indent=2, ensure_ascii=False) + "\\n"``
encoded as UTF-8, byte for byte, without the pure-Python encoder that
``indent`` selects in ``json``.

One number rule holds for files read and for dataclasses built in code:
an ``int`` field holds an ``int``, a ``float`` field an ``int`` or
``float`` in the float range, and a ``bool`` is neither.  ``from_node``
names the JSON path of a number that breaks it; ``number_fault`` also
checks the inclusive ``min`` and ``max`` bounds a field declares in its
``field(metadata=...)``.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields, is_dataclass
from datetime import datetime, timezone
from enum import Enum
from functools import cache, partial
from operator import attrgetter
from sys import float_info
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from laisc.errors import InputSyntaxError, InvalidTimestamp, SchemaError

# --- timestamps --------------------------------------------------------------


def format_timestamp(value: datetime) -> str:
    return value.astimezone(timezone.utc).isoformat()


def check_aware(value: datetime, text: str | None = None) -> datetime:
    """``value``, if it has a UTC offset; a naive datetime is an
    ``InvalidTimestamp`` (``text`` names it, default its ISO form), for it
    would be read in the host's local time."""
    if value.utcoffset() is None:
        raise InvalidTimestamp(value.isoformat() if text is None else text, "missing UTC offset")
    return value


def parse_timestamp(value: str) -> datetime:
    """Parse an ISO-8601 timestamp; must be timezone-aware, normalized to UTC."""
    if not isinstance(value, str):
        raise InvalidTimestamp(repr(value), "not a string")
    try:
        parsed = datetime.fromisoformat(value.replace("Z", "+00:00"))
    except ValueError as exc:
        raise InvalidTimestamp(value, str(exc)) from None
    return check_aware(parsed, value).astimezone(timezone.utc)


# --- documents ---------------------------------------------------------------


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    node = dict(pairs)
    if len(node) != len(pairs):
        keys = [key for key, _ in pairs]
        raise InputSyntaxError(f"duplicate key {next(key for key in keys if keys.count(key) > 1)!r}")
    return node


def decode_utf8(data: bytes | str) -> str:
    """``data`` as text; bytes that are not UTF-8 are a syntax error at
    the byte offset of the first bad one."""
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputSyntaxError(f"not UTF-8 text: {exc.reason}", offset=exc.start) from None


def load_json(data: bytes | str) -> object:
    """Parse JSON text; ``NaN``, ``Infinity`` and a key repeated in one
    object are syntax errors."""
    text = decode_utf8(data)

    def _reject_constant(token: str) -> float:
        raise ValueError(f"non-finite constant {token}")

    try:
        return json.loads(text, parse_constant=_reject_constant, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise InputSyntaxError(exc.msg, offset=exc.pos) from None
    except ValueError as exc:
        raise InputSyntaxError(str(exc)) from None


def dump_canonical(node: object) -> bytes:
    """Sorted keys, two-space indent, UTF-8 and one trailing newline: the
    bytes of ``json.dumps(node, sort_keys=True, indent=2,
    ensure_ascii=False) + "\\n"`` encoded as UTF-8."""
    out: list[str] = []
    _write(node, out.append, "\n")
    out.append("\n")
    return "".join(out).encode("utf-8")


_encode_str = json.encoder.encode_basestring


def _float_text(value: float) -> str:
    """A float as ``json`` spells it, NaN and the infinities included."""
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _write(node: object, append, newline: str) -> None:
    """``append`` the JSON text of ``node``; ``newline`` is a line break
    plus the indent of the line ``node`` starts on.  Object keys are
    strings.  The type tests are those of ``json``'s encoder, in its order,
    so a ``str``, ``int`` or ``float`` subclass (a str-valued ``Enum``) is
    written as its base value.  A ``str`` item or value, the most common,
    is written without a call."""
    if isinstance(node, str):
        append(_encode_str(node))
    elif node is None:
        append("null")
    elif node is True:
        append("true")
    elif node is False:
        append("false")
    elif isinstance(node, int):
        append(int.__repr__(node))
    elif isinstance(node, float):
        append(_float_text(node))
    elif isinstance(node, (list, tuple)):
        if not node:
            append("[]")
            return
        inner = newline + "  "
        lead = "[" + inner
        for item in node:
            if type(item) is str:
                append(lead + _encode_str(item))
            else:
                append(lead)
                _write(item, append, inner)
            lead = "," + inner
        append(newline + "]")
    elif isinstance(node, dict):
        if not node:
            append("{}")
            return
        inner = newline + "  "
        lead = "{" + inner
        for key, value in sorted(node.items()):
            if type(value) is str:
                append(f"{lead}{_encode_str(key)}: {_encode_str(value)}")
            else:
                append(f"{lead}{_encode_str(key)}: ")
                _write(value, append, inner)
            lead = "," + inner
        append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(node).__name__} is not JSON serializable")


# --- schema helpers: read node[key] as one type, or name its path ----------------


def _obj(node: object, path: str, keys: frozenset[str]) -> None:
    """Check that ``node`` is an object with exactly the keys ``keys``.

    A plain ``dict`` with those keys passes one C-level comparison; the
    key differences are built only to word an error."""
    if type(node) is dict and node.keys() == keys:
        return
    if not isinstance(node, dict):
        raise SchemaError(path, "object", type(node).__name__)
    unknown = set(node) - keys
    if unknown:
        raise SchemaError(path, f"keys from {sorted(keys)}", f"unknown keys {sorted(unknown)}")
    missing = keys - set(node)
    if missing:
        raise SchemaError(path, f"required keys {sorted(missing)}", "absent")


def _str(node: dict, key: str, path: str) -> str:
    value = node[key]
    if not isinstance(value, str):
        raise SchemaError(f"{path}.{key}", "string", value)
    return value


def _bool(node: dict, key: str, path: str) -> bool:
    value = node[key]
    if not isinstance(value, bool):
        raise SchemaError(f"{path}.{key}", "boolean", value)
    return value


def _int(node: dict, key: str, path: str) -> int:
    value = node[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{path}.{key}", "integer", value)
    return value


def _finite(value: object) -> bool:
    """An ``int`` or ``float`` in the float range, not a ``bool``: NaN and
    an int past the float range fail ``abs(value) <= max``."""
    return type(value) is not bool and isinstance(value, (int, float)) and abs(value) <= float_info.max


def _num(node: dict, key: str, path: str) -> float:
    value = node[key]
    if not _finite(value):
        raise SchemaError(f"{path}.{key}", "finite number", value)
    return float(value)


def _opt_str(node: dict, key: str, path: str) -> str | None:
    value = node[key]
    if value is not None and not isinstance(value, str):
        raise SchemaError(f"{path}.{key}", "string or null", value)
    return value


def _timestamp(node: dict, key: str, path: str) -> datetime:
    return parse_timestamp(_str(node, key, path))


def _enum(enum_type: type[Enum], node: dict, key: str, path: str) -> Enum:
    value = _str(node, key, path)
    try:
        return enum_type(value)
    except ValueError:
        allowed = ", ".join(member.value for member in enum_type)
        raise SchemaError(f"{path}.{key}", f"one of {{{allowed}}}", value) from None


def _list(node: dict, key: str, path: str) -> list:
    value = node[key]
    if not isinstance(value, list):
        raise SchemaError(f"{path}.{key}", "list", value)
    return value


def _strs(node: dict, key: str, path: str) -> tuple[str, ...]:
    value = node[key]
    if not isinstance(value, list) or any(not isinstance(v, str) for v in value):
        raise SchemaError(f"{path}.{key}", "list of strings", value)
    return tuple(value)


def _items(cls: type, node: dict, key: str, path: str) -> tuple:
    """Read the list at ``key`` as ``cls`` objects."""
    return tuple(from_node(cls, raw, f"{path}.{key}[{index}]") for index, raw in enumerate(_list(node, key, path)))


def _keyed(cls: type, node: dict, key: str, path: str) -> tuple:
    """Read the object at ``key`` as ``(id, cls)`` pairs."""
    value = node[key]
    if not isinstance(value, dict):
        raise SchemaError(f"{path}.{key}", "object", type(value).__name__)
    return tuple((item_id, from_node(cls, raw, f"{path}.{key}.{item_id}")) for item_id, raw in value.items())


def _numbers(node: dict, key: str, path: str) -> tuple[tuple[str, float], ...]:
    """Read the object at ``key`` as ``(name, number)`` pairs."""
    value = node[key]
    if not isinstance(value, dict):
        raise SchemaError(f"{path}.{key}", "object", type(value).__name__)
    return tuple((name, _num(value, name, f"{path}.{key}")) for name in value)


def _kind_named(classes: dict[str, type], node: dict, key: str, path: str):
    """Read the field ``key`` as the class that the sibling ``kind`` names."""
    kind = _str(node, "kind", path)
    if kind not in classes:
        raise SchemaError(f"{path}.kind", f"one of {{{', '.join(classes)}}}", kind)
    return from_node(classes[kind], node[key], f"{path}.{key}")


# --- the shape table ---------------------------------------------------------------


def _union_classes(annotation) -> tuple[type, ...]:
    """The members of an annotation that is a union of dataclasses, else ``()``."""
    members = get_args(annotation) if isinstance(annotation, UnionType) else ()
    return members if members and all(is_dataclass(member) for member in members) else ()


def _shape(annotation):
    """``(read, write)`` for a field declared as ``annotation``.

    ``read(node, key, path)`` returns the checked value of ``node[key]``;
    ``write(value)`` returns the JSON value, and a ``write`` of ``None``
    keeps the value as it is.
    """
    if annotation is str:
        return _str, None
    if annotation is float:
        return _num, float
    if annotation is int:
        return _int, None
    if annotation is bool:
        return _bool, None
    if annotation is datetime:
        return _timestamp, format_timestamp
    if annotation == str | None:
        return _opt_str, None
    if isinstance(annotation, type) and issubclass(annotation, Enum):
        return partial(_enum, annotation), attrgetter("value")
    classes = _union_classes(annotation)
    if classes:
        return partial(_kind_named, {cls.__name__: cls for cls in classes}), to_node
    item = get_args(annotation)[0]  # the remaining annotations are tuple[item, ...]
    if item is str:
        return _strs, list
    if item == tuple[str, float]:  # (name, number) pairs, written as an object
        return _numbers, dict
    if get_origin(item) is tuple:  # (id, element) pairs
        return partial(_keyed, get_args(item)[1]), lambda pairs: {key: to_node(element) for key, element in pairs}
    return partial(_items, item), lambda values: [to_node(value) for value in values]


@cache
def _plan(cls: type) -> tuple[frozenset[str], tuple, tuple, tuple]:
    """The JSON keys of ``cls``, a ``(field name, read)`` pair per field, a
    ``(key, field name, write)`` triple per key and a ``(field name, read,
    min, max)`` row per number field (``None`` for an absent bound; a
    ``max`` comes with a ``min``).  A field typed as a union of dataclasses
    adds the ``kind`` key: written from the field value's class, and
    checked by the field's own reader."""
    hints = get_type_hints(cls)
    reads, writes, numbers = [], [], []
    for f in fields(cls):
        # from_node passes the values positionally, in field order.
        assert f.init and not f.kw_only, f"{cls.__name__}.{f.name} is not a positional __init__ field"
        read, write = _shape(hints[f.name])
        if _union_classes(hints[f.name]):
            writes.append(("kind", f.name, attrgetter("__class__.__name__")))
        if read is _int or read is _num:
            numbers.append((f.name, read, f.metadata.get("min"), f.metadata.get("max")))
        reads.append((f.name, read))
        writes.append((f.name, f.name, write))
    return frozenset(key for key, _, _ in writes), tuple(reads), tuple(writes), tuple(numbers)


def to_node(obj) -> dict:
    """The JSON object of a domain dataclass: one key per field."""
    node = {}
    # A loop, not a comprehension: one call fewer per object.
    for key, name, write in _plan(type(obj))[2]:
        node[key] = getattr(obj, name) if write is None else write(getattr(obj, name))
    return node


def number_fault(obj) -> str | None:
    """How the first number field of the dataclass ``obj`` breaks the
    number rule or its declared bounds, or ``None``."""
    for name, read, low, high in _plan(type(obj))[3]:
        value = getattr(obj, name)
        if read is _int and (type(value) is bool or not isinstance(value, int)):
            return f"{name} must be an integer, got {value!r}"
        if read is _num and not _finite(value):
            return f"{name} must be a finite number, got {value!r}"
        if (low is not None and value < low) or (high is not None and value > high):
            bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
            return f"{name} must be {bounds}, got {value!r}"
    return None


def from_node(cls: type, node: object, path: str):
    """Read the domain dataclass ``cls`` from its JSON object at ``path``."""
    keys, reads, _, _ = _plan(cls)
    _obj(node, path, keys)
    values = []
    # A loop, not a comprehension: one call fewer per object.
    for name, read in reads:
        values.append(read(node, name, path))
    return cls(*values)
