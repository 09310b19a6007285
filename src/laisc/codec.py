"""The JSON codec: a domain dataclass's field annotations are its schema.

Every domain class is a ``record``: a frozen dataclass whose ``==``,
``hash``, ``repr``, immutability and pickling are the functions below,
written once over the class's field names; ``dataclass`` itself only
records the fields, so ``fields``, ``replace`` and ``is_dataclass`` work
as on any dataclass, and only each class's short ``__init__`` is
generated.

``to_node`` writes a dataclass as a JSON object with one key per field,
and ``from_node`` reads one back, checking each value against its field's
annotation.  One table, ``_shape``, maps an annotation to the column that
reads it, the function that writes it and the words of a refusal:

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

A field has one reader, its column, which checks that field of every
object in a list with one C-level pass per rule.  A payload column is
read per ``kind``, and nested lists and objects as one flattened column;
every object is then built with one ``map(cls, *columns)``.  ``from_node``
runs the same columns over one object.  If any step of a list's column
pass raises, the list is read again object by object with ``from_node``,
which names the JSON path of the first fault in document order and what
was expected there.  So each field's rule is written once, and a
one-object read, too, takes exact JSON types only.

``dump_canonical`` sorts the keys and a ``Landscape`` keeps its
collections sorted by id, so ``serialize(parse(serialize(x)))`` equals
``serialize(x)`` byte for byte; ``load_json`` rejects a repeated key.
``dump_canonical`` writes its node with one recursive writer that appends
to a list: strings go through ``json``'s C ``encode_basestring``, numbers
through ``int.__repr__`` and ``float.__repr__``.  Its output equals
``json.dumps(node, sort_keys=True, indent=2, ensure_ascii=False) + "\\n"``
encoded as UTF-8, byte for byte, without the pure-Python encoder that
``indent`` selects in ``json``.

One number rule holds for files read, dataclasses built in code, the
CSV tables and the metric inputs: a number is of the exact type ``int``
or ``float`` (``NUMBER_TYPES``), never a ``bool`` or a subclass, and a
``float`` one is in the float range, so NaN, the infinities and
``10**400`` are not.  ``is_number`` states it for one value and
``are_numbers`` for a list.  ``from_node`` names the JSON path of a
number that breaks it; ``number_fault`` checks the inclusive ``min`` and
``max`` bounds and the exclusive ``above`` bound that a field declares in
its ``field(metadata=...)`` too, and that a ``bool`` field holds an exact
``bool``, which its column takes.

A text rule holds beside it: a field declared ``str``, ``str | None`` or
``tuple[str, ...]`` holds exact ``str`` values, and an ``Enum`` field a
member of its ``Enum``, as its column takes them from a file.
``text_fault`` checks it for objects built in code, nested ones
included, and words a fault at its JSON path in the column's words, so
neither self-check lets through a document the reader would refuse or
the writer could not write.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_right
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields, is_dataclass
from datetime import datetime, timezone
from enum import Enum
from functools import cache, partial
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import attrgetter, eq, is_, itemgetter
from sys import float_info
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from laisc.errors import InputSyntaxError, InvalidTimestamp, SchemaError

# --- records ----------------------------------------------------------------------
#
# A record class keeps its field names in ``_record_names`` and a function
# that returns the tuple of an object's field values in ``_record_values``;
# the methods below read those two, so they are the same for every class.


def _record_eq(self, other) -> bool:
    if other.__class__ is self.__class__:
        return self._record_values(self) == other._record_values(other)
    return NotImplemented


def _record_hash(self) -> int:
    return hash(self._record_values(self))


def _record_repr(self) -> str:
    values = ", ".join(map("{}={!r}".format, self._record_names, self._record_values(self)))
    return f"{self.__class__.__qualname__}({values})"


def _frozen_setattr(self, name: str, value) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _record_getstate(self) -> list:
    return list(self._record_values(self))


def _record_setstate(self, state: list) -> None:
    for name, value in zip(self._record_names, state):
        object.__setattr__(self, name, value)


_RECORD_METHODS = {
    "__eq__": _record_eq,
    "__hash__": _record_hash,
    "__repr__": _record_repr,
    "__setattr__": _frozen_setattr,
    "__delattr__": _frozen_delattr,
}
#: What a class with ``__slots__`` needs besides: it has no ``__dict__``
#: for ``pickle`` and ``copy`` to fill.
_SLOTS_METHODS = {"__getstate__": _record_getstate, "__setstate__": _record_setstate}


def _values_getter(names: tuple[str, ...]):
    """A function of an object that returns the tuple of its ``names`` attributes."""
    if len(names) == 1:
        get = attrgetter(*names)
        return lambda obj: (get(obj),)
    return attrgetter(*names) if names else lambda obj: ()


def _record_init(cls: type, names: tuple[str, ...], defaults: dict[str, object]):
    """``cls.__init__``: each field in order, set with ``object.__setattr__``,
    then ``__post_init__`` if ``cls`` has one."""
    params = ", ".join(f"{name}=_default_{name}" if name in defaults else name for name in names)
    body = [f" _set(self, {name!r}, {name})" for name in names]
    if hasattr(cls, "__post_init__"):
        body.append(" self.__post_init__()")
    namespace = {"_set": object.__setattr__, **{f"_default_{name}": value for name, value in defaults.items()}}
    exec("\n".join([f"def __init__(self, {params}):", *body, " pass"]), namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


def record(cls: type | None = None, /, *, slots: bool = True):
    """Make ``cls`` a frozen dataclass with ``__slots__`` (none if ``slots``
    is false), as ``dataclass(frozen=True, slots=slots)`` would.

    ``dataclass`` is called for its fields only (no ``__init__``, ``==`` or
    ``repr``); ``==``, ``hash``, ``repr``, the frozen ``__setattr__`` and
    ``__delattr__``, and with slots ``__getstate__`` and ``__setstate__``,
    are this module's functions, and ``__init__`` is generated.  A method
    that ``cls`` or a base already defines is kept.  Every field takes its
    value by position or keyword, in order, with its ``default``."""
    if cls is None:
        return partial(record, slots=slots)
    cls = dataclass(cls, init=False, repr=False, eq=False, slots=slots)
    assert all(f.default_factory is MISSING for f in fields(cls)), f"{cls.__name__} has a default_factory"
    names = tuple(f.name for f in fields(cls))
    defaults = {f.name: f.default for f in fields(cls) if f.default is not MISSING}
    cls._record_names = names
    cls._record_values = staticmethod(_values_getter(names))
    owned = {name for base in cls.__mro__[:-1] for name in vars(base)}
    methods = {**_RECORD_METHODS, **(_SLOTS_METHODS if slots else {})}
    for name, method in methods.items():
        if name not in owned:
            setattr(cls, name, method)
    if "__init__" not in owned:
        cls.__init__ = _record_init(cls, names, defaults)
    return cls


# --- timestamps --------------------------------------------------------------


def format_timestamp(value: datetime) -> str:
    return value.astimezone(timezone.utc).isoformat()


def check_aware(value: datetime) -> datetime:
    """``value``, if it has a UTC offset and UTC can hold it.  A naive
    datetime is an ``InvalidTimestamp``, for it would be read in the host's
    local time, and so is one that ``format_timestamp`` cannot write
    (``0001-01-01T00:00:00+01:00``), as ``parse_timestamp`` refuses it."""
    offset = value.utcoffset()
    if offset is None:
        raise InvalidTimestamp(value.isoformat(), "missing UTC offset")
    try:
        if offset:
            value.astimezone(timezone.utc)
    except OverflowError as exc:
        raise InvalidTimestamp(value.isoformat(), str(exc)) from None
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


# --- columns: one field of every object in a list at a time -----------------------
#
# ``column(nodes, key, where)`` returns the values of ``node[key]`` for every
# node of a list, checked and converted with one C-level pass per rule;
# ``where(i)``, the JSON path of ``nodes[i]``, is built only to word a fault.
# A column is the only statement of its field's rule: ``from_node`` runs the
# columns over one object, and words a column's ``_Irregular`` with its
# shape's ``expected`` text.  A nested column reads its objects with
# ``_objects`` at their own paths, and ``_objects`` reads a list that a
# column refuses again with ``from_node``, object by object in document
# order, so the first fault of a file is the one named.  Columns take exact
# JSON types only: a ``str`` or ``int`` subclass (an ``IntEnum``) is refused.


class _Irregular(Exception):
    """A value that a column refuses without wording why."""


_STR = frozenset({str})
_LIST = frozenset({list})
_DICT = frozenset({dict})

#: The exact types of a number: a ``bool`` or a subclass (an ``IntEnum``) is none.
NUMBER_TYPES = frozenset({int, float})


def is_number(value: object) -> bool:
    """Of a ``NUMBER_TYPES`` type and in the float range, which NaN is not."""
    return type(value) in NUMBER_TYPES and abs(value) <= float_info.max


def are_numbers(values: list) -> bool:
    """``all(map(is_number, values))``, one C-level pass per rule."""
    types = set(map(type, values))
    if types <= {float}:  # isfinite takes a quarter of the time of abs and a compare
        return all(map(math.isfinite, values))
    return types <= NUMBER_TYPES and all(map(float_info.max.__ge__, map(abs, values)))


def _typed(types: frozenset[type], nodes: list, key: str, where=None) -> list:
    """The values at ``key``, if each is of one of the exact ``types``."""
    values = list(map(itemgetter(key), nodes))
    if set(map(type, values)) <= types:
        return values
    raise _Irregular


def _nums(nodes: list, key: str, where=None) -> list[float]:
    values = list(map(itemgetter(key), nodes))
    if are_numbers(values):
        return list(map(float, values))
    raise _Irregular


def _strs_column(nodes: list, key: str, where=None) -> list[tuple[str, ...]]:
    lists = _typed(_LIST, nodes, key)
    if set(map(type, chain.from_iterable(lists))) <= _STR:
        return list(map(tuple, lists))
    raise _Irregular


def _timestamps(nodes: list, key: str, where=None) -> list[datetime]:
    return list(map(parse_timestamp, _typed(_STR, nodes, key)))


def _first(values: list, fails) -> tuple[int, object]:
    """The index and value of the first of ``values`` that ``fails``."""
    return next((index, value) for index, value in enumerate(values) if fails(value))


def _one_of(names) -> str:
    """What an ``Enum`` field takes: "one of" its members' ``names``."""
    return f"one of {{{', '.join(names)}}}"


def _members(members: dict, nodes: list, key: str, where) -> list:
    """The ``members`` that the strings at ``key`` name; a non-string is
    worded as a "string", an unknown name as "one of" the names."""
    names = list(map(itemgetter(key), nodes))
    if set(map(type, names)) <= _STR and all(map(members.__contains__, names)):
        return list(map(members.__getitem__, names))
    index, name = _first(names, lambda name: type(name) is not str or name not in members)
    raise SchemaError(f"{where(index)}.{key}", "string" if type(name) is not str else _one_of(members), name)


def _maps(nodes: list, key: str, where) -> list[dict]:
    """The objects at ``key``; a non-object is worded by its type name."""
    maps = list(map(itemgetter(key), nodes))
    if set(map(type, maps)) <= _DICT:
        return maps
    index, value = _first(maps, lambda value: type(value) is not dict)
    raise SchemaError(f"{where(index)}.{key}", "object", type(value).__name__)


def _flat_where(where, key: str, groups: list, label):
    """The ``where`` of the members of ``groups``, the list or object at
    ``key`` of each node, flattened in order: member ``k`` of ``groups[i]``
    is at ``f"{where(i)}.{key}{label(groups[i], k)}"``."""
    starts = [0, *accumulate(map(len, groups))]

    def at(index: int) -> str:
        owner = bisect_right(starts, index) - 1
        return f"{where(owner)}.{key}{label(groups[owner], index - starts[owner])}"

    return at


def _items_column(cls: type, nodes: list, key: str, where) -> list[tuple]:
    """Each node's list at ``key``, read as one flattened column of ``cls``
    objects and cut back to the lists' lengths."""
    lists = _typed(_LIST, nodes, key)
    at = _flat_where(where, key, lists, lambda _, k: f"[{k}]")
    objects = iter(_objects(cls, list(chain.from_iterable(lists)), at))
    return list(map(tuple, map(islice, repeat(objects), map(len, lists))))


def _keyed_column(cls: type, nodes: list, key: str, where) -> list[tuple]:
    """Each node's object at ``key`` as ``(id, cls)`` pairs, the ``cls``
    objects read as one flattened column."""
    maps = _maps(nodes, key, where)
    at = _flat_where(where, key, maps, lambda value, k: f".{list(value)[k]}")
    objects = iter(_objects(cls, list(chain.from_iterable(map(dict.values, maps))), at))
    return list(map(tuple, map(zip, maps, map(islice, repeat(objects), map(len, maps)))))


def _measured_column(nodes: list, key: str, where) -> list[tuple]:
    """Each node's object at ``key`` as ``(name, number)`` pairs: every
    name of it read as a ``float`` field."""
    column, _, expected = _SCALARS[float]
    return [
        tuple((name, _field(column, expected, value, name, lambda _, i=i: f"{where(i)}.{key}")) for name in value)
        for i, value in enumerate(_maps(nodes, key, where))
    ]


def _kind_named_column(classes: dict[str, type], nodes: list, key: str, where) -> list:
    """The values at ``key``, read per class that the sibling ``kind`` names
    and put back in their order."""
    kinds = _members(classes, nodes, "kind", where)
    values = list(map(itemgetter(key), nodes))
    read = {}
    for cls in set(kinds):
        picked = list(compress(count(), map(is_, kinds, repeat(cls))))
        payloads = list(map(values.__getitem__, picked))
        read[cls] = iter(_objects(cls, payloads, lambda i, picked=picked: f"{where(picked[i])}.{key}"))
    return list(map(next, map(read.__getitem__, kinds)))


def _objects(cls: type, nodes: list, where) -> list:
    """The ``cls`` objects of the JSON values ``nodes``, ``nodes[i]`` at
    ``where(i)``.  If every node is a ``dict`` with exactly ``cls``'s keys,
    they are read one column at a time and built with one ``map``; if any
    step of that raises, ``from_node`` reads each node in turn and words the
    first fault."""
    keys, _, _, columns, _ = _plan(cls)
    try:
        if all(map(eq, map(dict.keys, nodes), repeat(keys))):
            return list(map(cls, *[column(nodes, name, where) for name, column, _ in columns]))
    except Exception:
        pass
    return [from_node(cls, node, where(index)) for index, node in enumerate(nodes)]


# --- the shape table ---------------------------------------------------------------


#: ``(column, write, expected)`` for each scalar annotation; see ``_shape``.
_SCALARS = {
    str: (partial(_typed, _STR), None, "string"),
    int: (partial(_typed, frozenset({int})), None, "integer"),
    bool: (partial(_typed, frozenset({bool})), None, "boolean"),
    float: (_nums, float, "finite number"),
    str | None: (partial(_typed, frozenset({str, type(None)})), None, "string or null"),
    tuple[str, ...]: (_strs_column, list, "list of strings"),
    datetime: (_timestamps, format_timestamp, "string"),
}


def _union_classes(annotation) -> tuple[type, ...]:
    """The members of an annotation that is a union of dataclasses, else ``()``."""
    members = get_args(annotation) if isinstance(annotation, UnionType) else ()
    return members if members and all(is_dataclass(member) for member in members) else ()


def _is_enum(annotation) -> bool:
    return isinstance(annotation, type) and issubclass(annotation, Enum)


def _shape(annotation):
    """``(column, write, expected)`` for a field declared as ``annotation``.

    ``column(nodes, key, where)`` returns the checked values of
    ``node[key]`` for every object of a list, ``nodes[i]`` being at the
    path ``where(i)``.  ``expected`` words its ``_Irregular``; a column
    without one words its own faults (a bad time, an unknown member, a
    ``kind`` or a value that is not an object).  ``write(value)`` returns
    the JSON value, and a ``write`` of ``None`` keeps the value as it is.
    """
    if annotation in _SCALARS:
        return _SCALARS[annotation]
    if _is_enum(annotation):
        return partial(_members, {member.value: member for member in annotation}), attrgetter("value"), None
    classes = _union_classes(annotation)
    if classes:
        return partial(_kind_named_column, {cls.__name__: cls for cls in classes}), to_node, None
    item = get_args(annotation)[0]  # the remaining annotations are tuple[item, ...]
    if item == tuple[str, float]:  # (name, number) pairs, written as an object
        return _measured_column, dict, None
    if get_origin(item) is tuple:  # (id, element) pairs
        column = partial(_keyed_column, get_args(item)[1])
        return column, lambda pairs: {key: to_node(element) for key, element in pairs}, None
    return partial(_items_column, item), lambda values: [to_node(value) for value in values], "list"


def _str_tuples(values) -> bool:
    """The ``tuple[str, ...]`` test; it lists ``values``, for it reads them twice."""
    values = list(values)
    return set(map(type, values)) <= {tuple} and set(map(type, chain.from_iterable(values))) <= _STR


def _of_types(types: frozenset[type], values) -> bool:
    return set(map(type, values)) <= types


#: Whether every value that an iterable of one text field's values yields
#: is what that field's column takes from a file: of the exact type, so a
#: ``str`` subclass is not.
_TEXT_TESTS = {
    str: partial(_of_types, _STR),
    str | None: partial(_of_types, frozenset({str, type(None)})),
    tuple[str, ...]: _str_tuples,
}


def _holding(annotation) -> str | None:
    """How a field declared as ``annotation`` holds dataclasses: ``"one"``
    (a union of dataclasses), ``"list"`` (a tuple of them), ``"keyed"``
    (``(id, dataclass)`` pairs), or ``None``."""
    if _union_classes(annotation):
        return "one"
    if get_origin(annotation) is not tuple or annotation in _SCALARS:
        return None
    item = get_args(annotation)[0]
    if is_dataclass(item):
        return "list"
    if get_origin(item) is tuple and is_dataclass(get_args(item)[1]):
        return "keyed"
    return None


def _held(holding: str, values) -> list:
    """The dataclasses that ``values``, a column of a field that holds them
    as ``holding`` says, hold, in order."""
    if holding == "one":
        return list(values)
    items = chain.from_iterable(values)
    return list(items if holding == "list" else map(itemgetter(1), items))


def _held_suffixes(holding: str, value) -> list[str]:
    """The JSON path below the field of each dataclass that ``value`` holds."""
    if holding == "one":
        return [""]
    if holding == "list":
        return [f"[{k}]" for k in range(len(value))]
    return [f".{key}" for key, _ in value]


@cache
def _plan(cls: type) -> tuple[frozenset[str], tuple, tuple, tuple, tuple]:
    """The JSON keys of ``cls``, a ``(key, field name, write)`` triple per
    key, a ``(field name, int, float or bool, min, max, above)`` row per
    number or ``bool`` field (``None`` for an absent bound; a ``max`` comes
    with a ``min``; ``above`` is exclusive), a ``(field name, column,
    expected)`` row per field, and a ``(field name, test, expected,
    holding)`` row per text or ``Enum`` field (``holding`` is ``None``) and
    per field that holds dataclasses (``test`` is ``None``).  A field typed
    as a union of dataclasses adds the ``kind`` key: written from the field
    value's class, and checked by the field's column."""
    hints = get_type_hints(cls)
    writes, numbers, columns, texts = [], [], [], []
    for f in fields(cls):
        # from_node and _objects pass the values positionally, in field order.
        assert f.init and not f.kw_only, f"{cls.__name__}.{f.name} is not a positional __init__ field"
        annotation = hints[f.name]
        column, write, expected = _shape(annotation)
        if _union_classes(annotation):
            writes.append(("kind", f.name, attrgetter("__class__.__name__")))
        if annotation in (int, float, bool):
            bounds = (f.metadata.get("min"), f.metadata.get("max"), f.metadata.get("above"))
            numbers.append((f.name, annotation, *bounds))
        holding = _holding(annotation)
        if annotation in _TEXT_TESTS or holding:
            texts.append((f.name, _TEXT_TESTS.get(annotation), expected, holding))
        elif _is_enum(annotation):
            members = _one_of(member.value for member in annotation)
            texts.append((f.name, partial(_of_types, frozenset({annotation})), members, None))
        writes.append((f.name, f.name, write))
        columns.append((f.name, column, expected))
    keys = frozenset(key for key, _, _ in writes)
    return keys, tuple(writes), tuple(numbers), tuple(columns), tuple(texts)


def to_node(obj) -> dict:
    """The JSON object of a domain dataclass: one key per field."""
    node = {}
    # A loop, not a comprehension: one call fewer per object.
    for key, name, write in _plan(type(obj))[1]:
        node[key] = getattr(obj, name) if write is None else write(getattr(obj, name))
    return node


def number_fault(obj) -> str | None:
    """How the first number or ``bool`` field of the dataclass ``obj``
    breaks the number rule or its declared bounds, or ``None``: an ``int``
    field holds an ``int``, a ``float`` field a number that ``is_number``,
    and a ``bool`` field a ``bool``."""
    for name, annotation, low, high, above in _plan(type(obj))[2]:
        value = getattr(obj, name)
        if annotation is int and type(value) is not int:
            return f"{name} must be an integer, got {value!r}"
        if annotation is bool and type(value) is not bool:
            return f"{name} must be a boolean, got {value!r}"
        if annotation is float and not is_number(value):
            return f"{name} must be a finite number, got {value!r}"
        if (low is not None and value < low) or (high is not None and value > high):
            bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
            return f"{name} must be {bounds}, got {value!r}"
        if above is not None and value <= above:
            return f"{name} must be > {above}, got {value!r}"
    return None


def _by_class(objects: list):
    """``(cls, the objects of class cls)`` for each class among ``objects``."""
    types = list(map(type, objects))
    classes = set(types)
    for cls in classes:
        yield cls, objects if len(classes) == 1 else list(compress(objects, map(is_, types, repeat(cls))))


def numbers_hold(objects: list) -> bool:
    """Whether ``number_fault`` finds no fault in any of the dataclasses
    ``objects``: one C-level pass per number or ``bool`` field of each
    class, and one per bound."""
    for cls, group in _by_class(objects):
        for name, annotation, low, high, above in _plan(cls)[2]:
            values = list(map(attrgetter(name), group))
            if not (are_numbers(values) if annotation is float else set(map(type, values)) <= {annotation}):
                return False
            if (low is not None and min(values) < low) or (high is not None and max(values) > high):
                return False
            if above is not None and min(values) <= above:
                return False
    return True


def _texts_hold(objects: list) -> bool:
    """Whether every text field of the dataclasses ``objects``, and of the
    dataclasses they hold, passes its test: one C-level pass per field of
    each class."""
    for cls, group in _by_class(objects):
        for name, test, _, holding in _plan(cls)[4]:
            values = map(attrgetter(name), group)
            if not (test(values) if holding is None else _texts_hold(_held(holding, values))):
                return False
    return True


def text_fault(objects: list, where) -> tuple[str, str, object] | None:
    """The first field of the dataclasses ``objects``, or of a dataclass
    they hold, that is declared ``str``, ``str | None``, ``tuple[str,
    ...]`` or an ``Enum`` and holds what its column would refuse in a file,
    as ``(path, expected, value)``: ``objects[i]`` is at the JSON path
    ``where(i)``, and ``expected`` is the column's words.  ``None`` if
    there is none.
    The objects are checked one C-level pass per field first; only a list
    that fails is walked object by object, to name the first fault."""
    if _texts_hold(objects):
        return None
    for index, obj in enumerate(objects):
        for name, test, expected, holding in _plan(type(obj))[4]:
            value, path = getattr(obj, name), f"{where(index)}.{name}"
            if holding is None:
                if not test((value,)):
                    return path, expected, value
                continue
            suffixes = _held_suffixes(holding, value)
            fault = text_fault(_held(holding, (value,)), lambda k: path + suffixes[k])
            if fault:
                return fault
    return None


# --- one object: its columns over that one object --------------------------------


def _field(column, expected: str | None, node: dict, key: str, where):
    """``column`` over the one object ``node``, at ``where(0)``; its
    ``_Irregular`` is a ``SchemaError`` at ``{where(0)}.{key}``."""
    try:
        return column((node,), key, where)[0]
    except _Irregular:
        raise SchemaError(f"{where(0)}.{key}", expected, node[key]) from None


def from_node(cls: type, node: object, path: str):
    """Read the domain dataclass ``cls`` from its JSON object at ``path``:
    ``cls``'s columns over this one object."""
    keys, _, _, columns, _ = _plan(cls)
    if not isinstance(node, dict):
        raise SchemaError(path, "object", type(node).__name__)
    unknown = node.keys() - keys
    if unknown:
        raise SchemaError(path, f"keys from {sorted(keys)}", f"unknown keys {sorted(unknown)}")
    missing = keys - node.keys()
    if missing:
        raise SchemaError(path, f"required keys {sorted(missing)}", "absent")
    where = (path,).__getitem__
    values = []
    # A loop, not a comprehension: one call fewer per object.
    for name, column, expected in columns:
        values.append(_field(column, expected, node, name, where))
    return cls(*values)
