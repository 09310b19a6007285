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

``from_node`` reads a list of objects one field at a time: each row of
the ``_shape`` table has a column reader, which checks that field of every
object in the list with one C-level pass per rule.  A payload column is
read per ``kind``, and nested lists as one flattened column; every object
is then built with one ``map(cls, *columns)``.  A column reader words no
error: if any step raises, the list is read again object by object, and
the one-object readers name the JSON path and what was expected.  The
one-object reader of a scalar field is its column over that one object,
so each scalar rule is written once, and a one-object read, too, takes
exact JSON types only.

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
names the JSON path of a number that breaks it; ``number_fault``, which
also takes an ``int`` or ``float`` subclass, checks the inclusive ``min``
and ``max`` bounds a field declares in its ``field(metadata=...)`` too.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import fields, is_dataclass
from datetime import datetime, timezone
from enum import Enum
from functools import cache, partial
from itertools import chain, compress, islice, repeat
from operator import attrgetter, eq, itemgetter
from sys import float_info
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from laisc.errors import InputSyntaxError, InvalidTimestamp, SchemaError

# --- timestamps --------------------------------------------------------------


def format_timestamp(value: datetime) -> str:
    return value.astimezone(timezone.utc).isoformat()


def check_aware(value: datetime) -> datetime:
    """``value``, if it has a UTC offset; a naive datetime is an
    ``InvalidTimestamp``, for it would be read in the host's local time."""
    if value.utcoffset() is None:
        raise InvalidTimestamp(value.isoformat(), "missing UTC offset")
    return value


#: The one timestamp grammar, a profile of RFC 3339 that every supported
#: Python's ``fromisoformat`` reads alike (3.11 widened what it takes).
_GRAMMAR = "YYYY-MM-DDTHH:MM:SS[.fff|.ffffff](Z|+HH:MM|-HH:MM)"
_RFC3339 = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(\.\d{3}|\.\d{6})?(Z|[+-]\d\d:\d\d)", re.ASCII)


def parse_timestamp(value: str) -> datetime:
    """Parse a timestamp of the ``_RFC3339`` profile, normalized to UTC.
    A time that UTC cannot hold (``0001-01-01T00:00:00+01:00``) is an
    ``InvalidTimestamp`` too."""
    if not isinstance(value, str):
        raise InvalidTimestamp(repr(value), "not a string")
    if not _RFC3339.fullmatch(value):
        raise InvalidTimestamp(value, f"not {_GRAMMAR}")
    try:
        return datetime.fromisoformat(value.replace("Z", "+00:00")).astimezone(timezone.utc)
    except (ValueError, OverflowError) as exc:
        raise InvalidTimestamp(value, str(exc)) from None


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


#: A surrogate code point, and the JSON escape of one.
_SURROGATE = re.compile(r"[\ud800-\udfff]")
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def load_json(data: bytes | str) -> object:
    """Parse JSON text; ``NaN``, ``Infinity``, a key repeated in one object
    and a lone surrogate (a ``\\ud800`` escape, say, which no UTF-8 writer
    can encode) are syntax errors."""
    text = decode_utf8(data)

    def _reject_constant(token: str) -> float:
        raise ValueError(f"non-finite constant {token}")

    try:
        node = json.loads(text, parse_constant=_reject_constant, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise InputSyntaxError(exc.msg, offset=exc.pos) from None
    except ValueError as exc:
        raise InputSyntaxError(str(exc)) from None
    # The parsed strings, in which ``json`` has joined each valid escaped
    # pair, are searched only if the text may hold a surrogate.
    if _may_hold_surrogate(data, text):
        lone = _SURROGATE.search(json.dumps(node, ensure_ascii=False))
        if lone:
            raise InputSyntaxError(f"lone surrogate {lone.group()!r}")
    return node


def _may_hold_surrogate(data: bytes | str, text: str) -> bool:
    """Whether ``text`` has a surrogate escape, or, read from a ``str``, a
    surrogate character (text decoded from UTF-8 holds none).  Text without
    a backslash passes one C-level ``memchr``."""
    if "\\" in text and _SURROGATE_ESCAPE.search(text):
        return True
    if type(data) is str and not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            return True
    return False


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
    """Check that ``node`` is an object with exactly the keys ``keys``."""
    if not isinstance(node, dict):
        raise SchemaError(path, "object", type(node).__name__)
    unknown = set(node) - keys
    if unknown:
        raise SchemaError(path, f"keys from {sorted(keys)}", f"unknown keys {sorted(unknown)}")
    missing = keys - set(node)
    if missing:
        raise SchemaError(path, f"required keys {sorted(missing)}", "absent")


def _finite(value: object) -> bool:
    """An ``int`` or ``float`` in the float range, not a ``bool``: NaN and
    an int past the float range fail ``abs(value) <= max``."""
    return type(value) is not bool and isinstance(value, (int, float)) and abs(value) <= float_info.max


def _items(cls: type, node: dict, key: str, path: str) -> tuple:
    """Read the list at ``key`` as ``cls`` objects."""
    raws = _list(node, key, path)
    return tuple(_read_all(cls, raws, (f"{path}.{key}[{index}]" for index in range(len(raws)))))


def _keyed(cls: type, node: dict, key: str, path: str) -> tuple:
    """Read the object at ``key`` as ``(id, cls)`` pairs."""
    value = node[key]
    if not isinstance(value, dict):
        raise SchemaError(f"{path}.{key}", "object", type(value).__name__)
    return tuple(zip(value, _read_all(cls, list(value.values()), (f"{path}.{key}.{item_id}" for item_id in value))))


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


# --- columns: one field of every object in a list at a time -----------------------
#
# ``column(nodes, key)`` returns the values of ``node[key]`` for every node
# of a list, checked and converted with one C-level pass per rule, or raises
# without wording why.  ``_read_all`` re-reads a list that a column refuses
# object by object, and the reader of one object's scalar field is that
# field's column over the one object (``_checked``), so each scalar rule is
# stated once, here.  Columns take exact JSON types only: a ``str`` or
# ``int`` subclass (an ``IntEnum``, say) is refused.


class _Irregular(Exception):
    """A column that the column pass does not read."""


_STR = frozenset({str})
_LIST = frozenset({list})


def _typed(types: frozenset[type], nodes: list, key: str) -> list:
    """The values at ``key``, if each is of one of the exact ``types``."""
    values = list(map(itemgetter(key), nodes))
    if set(map(type, values)) <= types:
        return values
    raise _Irregular


def _nums(nodes: list, key: str) -> list[float]:
    values = _typed(frozenset({int, float}), nodes, key)
    if all(map(float_info.max.__ge__, map(abs, values))):  # False for NaN, too
        return list(map(float, values))
    raise _Irregular


def _timestamps(nodes: list, key: str) -> list[datetime]:
    """The rule of ``parse_timestamp``, one ``map`` per step."""
    texts = _typed(_STR, nodes, key)
    if not all(map(_RFC3339.fullmatch, texts)):
        raise _Irregular
    parsed = map(datetime.fromisoformat, map(str.replace, texts, repeat("Z"), repeat("+00:00")))
    return list(map(datetime.astimezone, parsed, repeat(timezone.utc)))


def _members(members: dict[str, Enum], nodes: list, key: str) -> list[Enum]:
    return list(map(members.__getitem__, _typed(_STR, nodes, key)))


def _strs_column(nodes: list, key: str) -> list[tuple[str, ...]]:
    lists = _typed(_LIST, nodes, key)
    if set(map(type, chain.from_iterable(lists))) <= _STR:
        return list(map(tuple, lists))
    raise _Irregular


def _items_column(cls: type, nodes: list, key: str) -> list[tuple]:
    """Each node's list at ``key``, read as one flattened column of ``cls``
    objects and cut back to the lists' lengths."""
    lists = _typed(_LIST, nodes, key)
    objects = iter(_objects(cls, list(chain.from_iterable(lists))))
    return list(map(tuple, map(islice, repeat(objects), map(len, lists))))


def _kind_named_column(classes: dict[str, type], nodes: list, key: str) -> list:
    """The values at ``key``, read per class that the sibling ``kind`` names
    and put back in their order."""
    kinds = _typed(_STR, nodes, "kind")
    values = list(map(itemgetter(key), nodes))
    read = {
        kind: iter(_objects(classes[kind], list(compress(values, map(eq, kinds, repeat(kind))))))
        for kind in set(kinds)
    }
    return list(map(next, map(read.__getitem__, kinds)))


def _each(read, nodes: list, key: str) -> list:
    """A column of a shape that lists do not hold, read node by node."""
    return [read(node, key, "$") for node in nodes]


def _objects(cls: type, nodes: list) -> list:
    """The ``cls`` objects of the JSON objects ``nodes``, read one field at
    a time: every node is a ``dict`` with exactly ``cls``'s keys, and the
    objects are built with one ``map``."""
    keys, _, _, _, columns = _plan(cls)
    if not all(map(eq, map(dict.keys, nodes), repeat(keys))):
        raise _Irregular
    return list(map(cls, *[column(nodes, name) for name, column in columns]))


def _read_all(cls: type, raws: list, paths) -> list:
    """The ``cls`` objects of the JSON values ``raws``: one column pass or,
    if any step of it raises, ``from_node`` on each value at its path from
    the iterable ``paths``, which words the error."""
    try:
        return _objects(cls, raws)
    except Exception:
        return [from_node(cls, raw, path) for raw, path in zip(raws, paths)]


# --- one object's scalar field: its column over that one object -----------------


def _checked(column, expected: str):
    """The reader of one object's field: ``column`` over that one object,
    or a ``SchemaError`` at ``{path}.{key}`` expecting ``expected``."""

    def read(node: dict, key: str, path: str):
        try:
            return column((node,), key)[0]
        except (_Irregular, KeyError):  # KeyError: an unknown enum member
            raise SchemaError(f"{path}.{key}", expected, node[key]) from None

    return read


#: ``(read, write, column)`` for each scalar annotation; see ``_shape``.
_SCALARS = {
    annotation: (_checked(column, expected), write, column)
    for annotation, column, expected, write in (
        (str, partial(_typed, _STR), "string", None),
        (int, partial(_typed, frozenset({int})), "integer", None),
        (bool, partial(_typed, frozenset({bool})), "boolean", None),
        (float, _nums, "finite number", float),
        (str | None, partial(_typed, frozenset({str, type(None)})), "string or null", None),
        (tuple[str, ...], _strs_column, "list of strings", list),
    )
}
_str, _num = _SCALARS[str][0], _SCALARS[float][0]
_list = _checked(partial(_typed, _LIST), "list")


def _timestamp(node: dict, key: str, path: str) -> datetime:
    """A non-string is worded as a "string", a bad time by ``parse_timestamp``."""
    return parse_timestamp(_str(node, key, path))


def _enum(read, node: dict, key: str, path: str) -> Enum:
    """``read``, which words an unknown member, once a non-string is
    worded as a "string"."""
    _str(node, key, path)
    return read(node, key, path)


# --- the shape table ---------------------------------------------------------------


def _union_classes(annotation) -> tuple[type, ...]:
    """The members of an annotation that is a union of dataclasses, else ``()``."""
    members = get_args(annotation) if isinstance(annotation, UnionType) else ()
    return members if members and all(is_dataclass(member) for member in members) else ()


def _shape(annotation):
    """``(read, write, column)`` for a field declared as ``annotation``.

    ``column(nodes, key)`` returns the checked values of ``node[key]`` for
    every object of a list.  ``read(node, key, path)`` returns that of one
    object, or raises a ``SchemaError`` at its path (a bad time is an
    ``InvalidTimestamp``); a scalar's ``read`` is its column over that
    object.  ``write(value)`` returns the JSON value, and a ``write`` of
    ``None`` keeps the value as it is.
    """
    if annotation in _SCALARS:
        return _SCALARS[annotation]
    if annotation is datetime:
        return _timestamp, format_timestamp, _timestamps
    if isinstance(annotation, type) and issubclass(annotation, Enum):
        members = {member.value: member for member in annotation}
        column = partial(_members, members)
        return partial(_enum, _checked(column, f"one of {{{', '.join(members)}}}")), attrgetter("value"), column
    classes = _union_classes(annotation)
    if classes:
        by_name = {cls.__name__: cls for cls in classes}
        return partial(_kind_named, by_name), to_node, partial(_kind_named_column, by_name)
    item = get_args(annotation)[0]  # the remaining annotations are tuple[item, ...]
    if item == tuple[str, float]:  # (name, number) pairs, written as an object
        return _numbers, dict, partial(_each, _numbers)
    if get_origin(item) is tuple:  # (id, element) pairs
        read = partial(_keyed, get_args(item)[1])
        return read, lambda pairs: {key: to_node(element) for key, element in pairs}, partial(_each, read)
    return partial(_items, item), lambda values: [to_node(value) for value in values], partial(_items_column, item)


@cache
def _plan(cls: type) -> tuple[frozenset[str], tuple, tuple, tuple, tuple]:
    """The JSON keys of ``cls``, a ``(field name, read)`` pair per field, a
    ``(key, field name, write)`` triple per key, a ``(field name, int or
    float, min, max)`` row per number field (``None`` for an absent bound;
    a ``max`` comes with a ``min``) and a ``(field name, column)`` pair per
    field.  A field typed as a union of dataclasses adds the ``kind`` key:
    written from the field value's class, and checked by the field's own
    readers."""
    hints = get_type_hints(cls)
    reads, writes, numbers, columns = [], [], [], []
    for f in fields(cls):
        # from_node and _objects pass the values positionally, in field order.
        assert f.init and not f.kw_only, f"{cls.__name__}.{f.name} is not a positional __init__ field"
        annotation = hints[f.name]
        read, write, column = _shape(annotation)
        if _union_classes(annotation):
            writes.append(("kind", f.name, attrgetter("__class__.__name__")))
        if annotation is int or annotation is float:
            numbers.append((f.name, annotation, f.metadata.get("min"), f.metadata.get("max")))
        reads.append((f.name, read))
        writes.append((f.name, f.name, write))
        columns.append((f.name, column))
    keys = frozenset(key for key, _, _ in writes)
    return keys, tuple(reads), tuple(writes), tuple(numbers), tuple(columns)


def to_node(obj) -> dict:
    """The JSON object of a domain dataclass: one key per field."""
    node = {}
    # A loop, not a comprehension: one call fewer per object.
    for key, name, write in _plan(type(obj))[2]:
        node[key] = getattr(obj, name) if write is None else write(getattr(obj, name))
    return node


def number_fault(obj) -> str | None:
    """How the first number field of the dataclass ``obj`` breaks the
    number rule or its declared bounds, or ``None``.  The rule is that of
    ``_nums`` for a file, except that it takes an ``int`` or ``float``
    subclass built in code."""
    for name, annotation, low, high in _plan(type(obj))[3]:
        value = getattr(obj, name)
        if annotation is int and (type(value) is bool or not isinstance(value, int)):
            return f"{name} must be an integer, got {value!r}"
        if annotation is float and not _finite(value):
            return f"{name} must be a finite number, got {value!r}"
        if (low is not None and value < low) or (high is not None and value > high):
            bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
            return f"{name} must be {bounds}, got {value!r}"
    return None


def from_node(cls: type, node: object, path: str):
    """Read the domain dataclass ``cls`` from its JSON object at ``path``."""
    keys, reads, _, _, _ = _plan(cls)
    _obj(node, path, keys)
    values = []
    # A loop, not a comprehension: one call fewer per object.
    for name, read in reads:
        values.append(read(node, name, path))
    return cls(*values)
