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
  keyed by id;
* a field typed as a union of dataclasses (a VR's or an evidence record's
  ``payload``) is an object with a sibling ``kind`` key naming its class.

``dump_canonical`` sorts the keys and a ``Landscape`` keeps its
collections sorted by id, so ``serialize(parse(serialize(x)))`` equals
``serialize(x)`` byte for byte; ``load_json`` rejects a repeated key.
``number_fault`` is the one number rule for a dataclass built in code:
an ``int`` field holds an ``int``, a ``float`` field a finite ``int`` or
``float``, and a ``bool`` is neither.
"""

from __future__ import annotations

import json
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


def parse_timestamp(value: str) -> datetime:
    """Parse an ISO-8601 timestamp; must be timezone-aware, normalized to UTC."""
    if not isinstance(value, str):
        raise InvalidTimestamp(repr(value), "not a string")
    try:
        parsed = datetime.fromisoformat(value.replace("Z", "+00:00"))
    except ValueError as exc:
        raise InvalidTimestamp(value, str(exc)) from None
    if parsed.tzinfo is None:
        raise InvalidTimestamp(value, "missing UTC offset")
    return parsed.astimezone(timezone.utc)


# --- documents ---------------------------------------------------------------


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    node = dict(pairs)
    if len(node) != len(pairs):
        keys = [key for key, _ in pairs]
        raise InputSyntaxError(f"duplicate key {next(key for key in keys if keys.count(key) > 1)!r}")
    return node


def load_json(data: bytes | str) -> object:
    """Parse JSON text; ``NaN``, ``Infinity`` and a key repeated in one
    object are syntax errors."""
    text = data.decode("utf-8") if isinstance(data, bytes) else data

    def _reject_constant(token: str) -> float:
        raise ValueError(f"non-finite constant {token}")

    try:
        return json.loads(text, parse_constant=_reject_constant, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise InputSyntaxError(exc.msg, offset=exc.pos) from None
    except ValueError as exc:
        raise InputSyntaxError(str(exc)) from None


def dump_canonical(node: object) -> bytes:
    """Sorted keys, two-space indent, UTF-8 and one trailing newline."""
    return (json.dumps(node, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


# --- schema helpers: read node[key] as one type, or name its path ----------------


def _obj(node: object, path: str, keys: frozenset[str]) -> None:
    """Check that ``node`` is an object with exactly the keys ``keys``."""
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


def _num(node: dict, key: str, path: str) -> float:
    value = node[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}.{key}", "number", value)
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
    if get_origin(item) is tuple:  # (id, element) pairs
        return partial(_keyed, get_args(item)[1]), lambda pairs: {key: to_node(element) for key, element in pairs}
    return partial(_items, item), lambda values: [to_node(value) for value in values]


@cache
def _plan(cls: type) -> tuple[frozenset[str], tuple, tuple]:
    """The JSON keys of ``cls``, a ``(field name, read)`` pair per field and
    a ``(key, field name, write)`` triple per key.  A field typed as a union
    of dataclasses adds the ``kind`` key: written from the field value's
    class, and checked by the field's own reader."""
    hints = get_type_hints(cls)
    reads, writes = [], []
    for f in fields(cls):
        read, write = _shape(hints[f.name])
        if _union_classes(hints[f.name]):
            writes.append(("kind", f.name, attrgetter("__class__.__name__")))
        reads.append((f.name, read))
        writes.append((f.name, f.name, write))
    return frozenset(key for key, _, _ in writes), tuple(reads), tuple(writes)


def to_node(obj) -> dict:
    """The JSON object of a domain dataclass: one key per field."""
    node = {}
    # A loop, not a comprehension: one call fewer per object.
    for key, name, write in _plan(type(obj))[2]:
        node[key] = getattr(obj, name) if write is None else write(getattr(obj, name))
    return node


_FLOAT_MAX = float_info.max


def number_fault(obj) -> str | None:
    """How the first number field of the dataclass ``obj`` breaks the
    number rule, or ``None``.  The field types come from the cached plan;
    NaN and an int past the float range fail ``abs(value) <= max``."""
    for name, read in _plan(type(obj))[1]:
        value = getattr(obj, name)
        if read is _int and (type(value) is bool or not isinstance(value, int)):
            return f"{name} must be an integer, got {value!r}"
        finite = type(value) is not bool and isinstance(value, (int, float)) and abs(value) <= _FLOAT_MAX
        if read is _num and not finite:
            return f"{name} must be a finite number, got {value!r}"
    return None


def from_node(cls: type, node: object, path: str):
    """Read the domain dataclass ``cls`` from its JSON object at ``path``."""
    keys, reads, _ = _plan(cls)
    _obj(node, path, keys)
    values = {}
    # A loop, not a comprehension: one call fewer per object.
    for name, read in reads:
        values[name] = read(node, name, path)
    return cls(**values)
