"""The JSON codec: a domain dataclass's field annotations are its schema.

Every domain class is a ``record``: a frozen dataclass whose ``==``,
``hash``, ``repr``, immutability and pickling are the functions below,
written once over the class's field names; ``dataclass`` itself only
records the fields, so ``fields``, ``replace`` and ``is_dataclass`` work
as on any dataclass, and only each class's short ``__init__`` is
generated.  Two records are equal when they are of one class and their
field values are equal.  The grid and table constructors of
``laisc.io``, the only ``__init__`` a record class writes itself, set
their fields with ``set_fields``, the ``__setstate__`` of every slotted
record.

``to_node`` writes a dataclass as a JSON object with one key per field,
and ``from_node`` reads one back, checking each value against its field's
annotation.  One table, ``_shape``, has a row for each annotation that a
field may have: the column that reads it, the function that writes it,
the words of a refusal, the self-check's text rules, the number rule's
type test and its words, and how the field holds dataclasses.
``_plan`` reads each field's row once; an annotation with no row fails
there, naming the field.  The annotations with a row:

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
object in a list with one C-level pass per rule; a scalar column runs its
row's type test, the test that the self-check's rule of the field runs.
A payload column is read per ``kind``, and nested lists and objects as
one flattened column; every object is then built with one ``map(cls,
*columns)``.  ``from_node``
runs the same columns over one object.  If a column or a constructor
refuses a value of a list, the list is read again object by object with
``from_node``, which names the JSON path of the first fault in document
order and what was expected there; any other exception is raised as it
is.  So each field's rule is written once, and a one-object read, too,
takes exact JSON types only.

``dump_canonical`` sorts the keys and a ``Landscape`` keeps its
collections sorted by id, so ``serialize(parse(serialize(x)))`` equals
``serialize(x)`` byte for byte; ``load_json`` rejects a repeated key.
``dump_canonical`` writes its node with one recursive writer that appends
to a list: strings go through ``json``'s C ``encode_basestring``, numbers
through ``int.__repr__`` and ``float.__repr__``.  Its output equals
``json.dumps(node, sort_keys=True, indent=2, ensure_ascii=False) + "\\n"``
encoded as UTF-8, byte for byte, without the pure-Python encoder that
``indent`` selects in ``json``.

The calls that read, judge or write a whole document run with the cyclic
garbage collector paused (``gc_paused``): ``io.parse_landscape``,
``io.parse_evidence``, ``io.serialize_landscape``,
``io.serialize_evidence``, ``evaluation.evaluate`` and the three
renderers of ``laisc.report``.  Their JSON nodes, records and reports
hold no reference cycles, so a collection inside one frees nothing; it
only moves their short-lived containers into older generations and walks
the retained heap again.  The collector is switched on again on return
only if it was on at entry, so a caller that has switched it off keeps
it off.  ``gc.isenabled`` is one flag of the process: a thread that calls
``gc.disable()`` while another thread is inside one of these calls can
find the collector on again when that call returns.  Grid and CSV I/O
and the metric kernels leave the collector alone; they build few tracked
containers.

One number rule holds for files read, dataclasses built in code, the
CSV tables and the metric inputs: a number is of the exact type ``int``
or ``float`` (``NUMBER_TYPES``), never a ``bool`` or a subclass, and a
``float`` one is in the float range, so NaN, the infinities and
``10**400`` are not.  ``is_number`` states it for one value and
``are_numbers`` for a list.  ``from_node`` names the JSON path of a
number that breaks it.

The self-checks of objects built in code state each rule once, as one
row: a column test over a list of values, with C-level passes, and the
words of its fault.  A valid list runs the column tests only; a list
that fails is searched by the same tests run on one value at a time
(``check_rows``, or ``first_fault`` to return the fault), and the fault
named is the one at the lowest index, of the first rule there.  The rows
are:

* the number rule of a number or ``bool`` field (``number_rows``, which
  alone runs it, over a list of objects or over one): its exact type,
  by the type test of its ``_shape`` row, then the inclusive ``min`` and
  ``max`` and the exclusive ``above`` bound that it declares in its
  ``field(metadata=...)``; a bound over no values holds;
* the text rule (``check_text``, from the ``_shape`` rows): a field
  declared ``str``, ``str | None`` or ``tuple[str, ...]`` holds exact
  ``str`` values, as its column takes them from a file, and no lone
  surrogate, which no UTF-8 writer can write and ``load_json`` refuses
  (``_SURROGATE``); an ``Enum`` field holds a member of its ``Enum``;
  ``check_ids`` holds the ids of a table's rows and the keys of
  ``Landscape.datasets`` to the rules of a ``str`` field;
* the shape rule (``check_text``): a payload holds one of its union's
  classes, worded as the reader's refusal of its ``kind``, a tuple of
  dataclasses is a tuple of its item class only, and ``(id, dataclass)``
  pairs a tuple of pairs.  A ``__post_init__`` stores a collection field
  with ``as_tuple``, which keeps a value that it cannot sort or convert
  as given, so the shape rule names it rather than the sort raising;
* the rules that ``laisc.model`` states of a landscape's structure and
  ``laisc.io`` of a bundle's records and of the CSV tables, with
  ``rule_rows``, ``unique_row`` and ``check_rows``.

``check_text`` words a fault at its JSON path in the reader's words, so
neither self-check lets through a document the reader would refuse or
the writer could not write.
"""

from __future__ import annotations

import gc
import json
import math
import re
from bisect import bisect_right
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields, is_dataclass
from datetime import datetime, timezone
from enum import Enum
from functools import cache, partial
from itertools import accumulate, chain, compress, count, islice, repeat, takewhile
from operator import attrgetter, eq, is_, itemgetter
from sys import float_info, maxsize
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from laisc.errors import InputSyntaxError, InvalidTimestamp, LaiscError, SchemaError

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


def set_fields(self, state) -> None:
    """Set the fields of ``self``, in order, to the values of ``state``,
    the first ``len(state)`` fields if it is shorter: every slotted
    record's ``__setstate__``, and how the grid and table constructors of
    ``laisc.io`` set their fields."""
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
_SLOTS_METHODS = {"__getstate__": _record_getstate, "__setstate__": set_fields}


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


def as_tuple(values, key=None, *, sort: bool = True):
    """``values`` as a tuple, sorted by ``key`` if ``sort``: how a record
    stores a collection field in its ``__post_init__``.  Values that do not
    sort (ids of mixed types) keep their order, and a value that is not
    iterable (``None``) or is a string, which would split into characters,
    is kept as it is, so the self-check refuses it at its JSON path rather
    than the sort raising a bare ``TypeError``."""
    if isinstance(values, str):
        return values
    try:
        return tuple(sorted(values, key=key) if sort else values)
    except (TypeError, AttributeError):
        return tuple(values) if isinstance(values, Iterable) else values


# --- timestamps --------------------------------------------------------------


def format_timestamp(value: datetime) -> str:
    return value.astimezone(timezone.utc).isoformat()


def check_aware(value: datetime) -> datetime:
    """``value``, if it has a UTC offset and UTC can hold it.  A naive
    datetime is an ``InvalidTimestamp``, for it would be read in the host's
    local time, and so is one that ``format_timestamp`` cannot write
    (``0001-01-01T00:00:00+01:00``), as ``parse_timestamp`` refuses it.
    A value that is no ``datetime`` is one too."""
    if not isinstance(value, datetime):
        raise InvalidTimestamp(str(value), "not a datetime")
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


@contextmanager
def gc_paused():
    """Keep the cyclic garbage collector off for the duration, and switch
    it on again after only if it was on at entry; as a decorator, around
    each call."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


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
_TUPLE = frozenset({tuple})
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


def _of_types(types: frozenset[type], values) -> bool:
    return set(map(type, values)) <= types


def _strings(containers: frozenset[type], values) -> bool:
    """Whether each of ``values`` is of one of the exact ``containers`` and
    holds exact ``str`` values only."""
    return _of_types(containers, values) and _of_types(_STR, chain.from_iterable(values))


def _column(test, convert, nodes: list, key: str, where=None) -> list:
    """The values at ``key``, converted by ``convert`` (kept as they are if
    it is ``None``), if ``test`` holds of them: a scalar field's column."""
    values = list(map(itemgetter(key), nodes))
    if test(values):
        return values if convert is None else list(map(convert, values))
    raise _Irregular


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
    lists = _column(partial(_of_types, _LIST), None, nodes, key)
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
    column, _, expected, *_ = _SCALARS[float]
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
    they are read one column at a time and built with one ``map``; if a
    column or a constructor refuses a value, ``from_node`` reads each node
    in turn and words the first fault.  Any other exception is raised as
    it is."""
    keys, _, _, columns, _ = _plan(cls)
    try:
        if set(map(type, nodes)) <= _DICT and all(map(eq, map(dict.keys, nodes), repeat(keys))):
            return list(map(cls, *[column(nodes, name, where) for name, column, _ in columns]))
    except (_Irregular, LaiscError):
        pass
    return [from_node(cls, node, where(index)) for index, node in enumerate(nodes)]


# --- the shape table: one row per field annotation ------------------------------------


def _no_surrogate(texts, values: list) -> bool:
    """Whether the strings ``texts(values)``, joined, hold no surrogate code
    point, which no UTF-8 writer can encode (``load_json`` refuses one);
    ASCII text passes one C-level test."""
    text = "".join(texts(values))
    return text.isascii() or not _SURROGATE.search(text)


def _pair_tuples(values: list) -> bool:
    """Whether each of ``values`` is a tuple of 2-tuples."""
    return _of_types(_TUPLE, values) and all(type(pair) is tuple and len(pair) == 2 for pair in chain(*values))


_STR_TEST, _OPTIONAL_STR_TEST = partial(_of_types, _STR), partial(_of_types, frozenset({str, type(None)}))
_STR_LISTS, _STR_TUPLES = partial(_strings, _LIST), partial(_strings, _TUPLE)
_PRESENT = partial(filter, None)  # the strings of a ``str | None`` column

#: The row of each scalar annotation (see ``_shape``), from ``(test,
#: convert, write, expected, text, kind)``.  The column keeps the values
#: that ``test`` passes, converted by ``convert``.  A text field's ``text``
#: is its self-check's type test, of the types built in code, and the
#: function that gives the strings of its values; a number or ``bool``
#: field's number rule runs ``test`` itself, and its words call the type
#: ``kind``.  A timestamp column looks ``parse_timestamp`` up each time it
#: runs, as the module's other calls of it do.
_SCALARS = {
    annotation: (
        partial(_column, test, convert),
        write,
        expected,
        ((text[0], expected), (partial(_no_surrogate, text[1]), "string without a lone surrogate")) if text else (),
        (test, kind) if kind else None,
        None,
    )
    for annotation, test, convert, write, expected, text, kind in (
        (str, _STR_TEST, None, None, "string", (_STR_TEST, iter), None),
        (int, partial(_of_types, frozenset({int})), None, None, "integer", None, "an integer"),
        (bool, partial(_of_types, frozenset({bool})), None, None, "boolean", None, "a boolean"),
        (float, are_numbers, float, float, "finite number", None, "a finite number"),
        (str | None, _OPTIONAL_STR_TEST, None, None, "string or null", (_OPTIONAL_STR_TEST, _PRESENT), None),
        (tuple[str, ...], _STR_LISTS, tuple, list, "list of strings", (_STR_TUPLES, chain.from_iterable), None),
        (datetime, _STR_TEST, lambda text: parse_timestamp(text), format_timestamp, "string", None, None),
    )
}


def _shape(annotation) -> tuple | None:
    """The row of a field declared as ``annotation``, or ``None`` if the
    table has none; a row is ``(column, write, expected, rules, number,
    holding)``, and the reader, the writer and the self-checks read the
    field's rule from it alone.

    ``column(nodes, key, where)`` returns the checked values of
    ``node[key]`` for every object of a list, ``nodes[i]`` being at the
    path ``where(i)``.  ``expected`` words its ``_Irregular``; a column
    without one words its own faults (a bad time, an unknown member, a
    ``kind`` or a value that is not an object).  ``write(value)`` returns
    the JSON value, and a ``write`` of ``None`` keeps the value as it is.
    ``rules`` are the ``(test, words)`` rules of ``check_text``: a text
    field's exact types and no lone surrogate, an ``Enum`` field's
    members, the container of a field that holds dataclasses.  ``number``
    is ``(test, kind)`` for a number or ``bool`` field, the type test of
    its number rule and what the rule's words call the type, else
    ``None``.  ``holding`` is ``(how, classes, expected)`` for a field
    that holds dataclasses, else ``None``: ``how`` is ``"one"`` (a union of
    dataclasses), ``"list"`` (a tuple of them) or ``"keyed"`` (``(id,
    dataclass)`` pairs), ``classes`` what it may hold, and ``expected`` the
    reader's words for another class.
    """
    if annotation in _SCALARS:
        return _SCALARS[annotation]
    if isinstance(annotation, type) and issubclass(annotation, Enum):
        members = {member.value: member for member in annotation}
        rules = ((partial(_of_types, frozenset({annotation})), _one_of(members)),)
        return partial(_members, members), attrgetter("value"), None, rules, None, None
    classes = get_args(annotation) if isinstance(annotation, UnionType) else ()
    if classes and all(map(is_dataclass, classes)):  # a union of dataclasses
        holding = "one", frozenset(classes), _one_of(cls.__name__ for cls in classes)
        return partial(_kind_named_column, {cls.__name__: cls for cls in classes}), to_node, None, (), None, holding
    args = get_args(annotation) if get_origin(annotation) is tuple else ()
    item = args[0] if args[1:] == (Ellipsis,) else None  # the item of tuple[item, ...]
    if item == tuple[str, float]:  # (name, number) pairs, written as an object
        return _measured_column, dict, None, (), None, None
    pair = get_args(item) if get_origin(item) is tuple else ()
    if len(pair) == 2 and is_dataclass(pair[1]):  # (id, element) pairs, written as an object
        cls = pair[1]
        write = lambda pairs: {key: to_node(element) for key, element in pairs}  # noqa: E731
        holding = "keyed", frozenset({cls}), cls.__name__
        return partial(_keyed_column, cls), write, None, ((_pair_tuples, "object"),), None, holding
    if is_dataclass(item):
        write = lambda values: [to_node(value) for value in values]  # noqa: E731
        rules = ((partial(_of_types, _TUPLE), "list"),)
        return partial(_items_column, item), write, "list", rules, None, ("list", frozenset({item}), item.__name__)
    return None


# --- rules: one row per self-check rule --------------------------------------------
#
# A rule is ``(test, words)``: ``test(values)`` tells, with C-level passes,
# whether every one of a list of values keeps the rule, and the same test of
# a one-value list whether that value does, so a list that fails is searched
# by the rule's own test.  The rules of one field run in order, each only
# where those before it hold: a bound never meets a value of another type.
# A bound over no values holds.


def _within(low, high, values: list) -> bool:
    return (low is None or min(values, default=low) >= low) and (high is None or max(values, default=high) <= high)


def _above(bound, values: list) -> bool:
    return min(values, default=math.inf) > bound


def _number_rules(name: str, number: tuple, metadata) -> tuple:
    """The rules of the number or ``bool`` field ``name``, ``number`` its
    row's ``(test, kind)``: its type, then the inclusive ``min`` and ``max``
    and the exclusive ``above`` bound of its ``metadata``; ``words`` is
    formatted with the value at fault."""
    test, kind = number
    rules = [(test, f"{name} must be {kind}, got {{!r}}")]
    low, high, above = metadata.get("min"), metadata.get("max"), metadata.get("above")
    if low is not None or high is not None:
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        rules.append((partial(_within, low, high), f"{name} must be {bounds}, got {{!r}}"))
    if above is not None:
        rules.append((partial(_above, above), f"{name} must be > {above}, got {{!r}}"))
    return tuple(rules)


def _held(how: str, values) -> list:
    """The dataclasses that ``values``, a column of a field that holds them
    as ``how`` says, hold, in order."""
    if how == "one":
        return list(values)
    items = chain.from_iterable(values)
    return list(items if how == "list" else map(itemgetter(1), items))


def _held_items(holding, value) -> list[tuple]:
    """``(suffix, dataclass)`` for each dataclass that ``value``, of a field
    that holds them as ``holding`` says (none if it holds none), holds:
    ``suffix`` is its JSON path below the field."""
    how = holding and holding[0]
    if how == "one":
        return [("", value)]
    if how == "list":
        return [(f"[{k}]", item) for k, item in enumerate(value)]
    return [(f".{key}", item) for key, item in value] if how else []


@cache
def _plan(cls: type) -> tuple[frozenset[str], tuple, tuple, tuple, tuple]:
    """What the reader, the writer and the self-checks do with ``cls``,
    from each field's ``_shape`` row, read once: the JSON keys of ``cls``,
    a ``(key, field name, write)`` triple per key, a ``(field name,
    rules)`` row per number or ``bool`` field (its number rule), a
    ``(field name, column, expected)`` row per field, and a ``(field name,
    rules, holding)`` row per field with text rules or that holds
    dataclasses.  A field that holds one of a union of dataclasses adds
    the ``kind`` key: written from the field value's class, and checked by
    the field's column.  A field whose annotation has no row fails an
    assertion that names it."""
    hints = get_type_hints(cls)
    writes, numbers, columns, texts = [], [], [], []
    for f in fields(cls):
        # from_node and _objects pass the values positionally, in field order.
        assert f.init and not f.kw_only, f"{cls.__name__}.{f.name} is not a positional __init__ field"
        shape = _shape(hints[f.name])
        assert shape, f"{cls.__name__}.{f.name}: codec has no row for the annotation {hints[f.name]}"
        column, write, expected, rules, number, holding = shape
        if holding and holding[0] == "one":
            writes.append(("kind", f.name, attrgetter("__class__.__name__")))
        if number:
            numbers.append((f.name, _number_rules(f.name, number, f.metadata)))
        if rules or holding:
            texts.append((f.name, rules, holding))
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


def rule_rows(values: list, rules, fault, positions=None) -> list[tuple]:
    """The ``check_rows`` rows of ``rules`` over the column ``values``, in
    order: ``values[k]`` is of the item at index ``positions()[k]`` (at
    ``k`` without ``positions``; an item may have several values), and
    ``fault(words, index, value)`` is the error of the item at ``index``
    whose first ``value`` to break the rule of ``words`` is ``value``.  A
    row's search runs its test on one value at a time."""

    def find(test, words, stop: int) -> tuple | None:
        pairs = takewhile(lambda pair: pair[0] < stop, zip(positions() if positions else count(), values))
        return next(((at, fault(words, at, value)) for at, value in pairs if not test((value,))), None)

    return [(partial(test, values), partial(find, test, words)) for test, words in rules]


def unique_row(values: list, fault) -> tuple:
    """The ``check_rows`` row of the rule that no two of ``values`` are
    equal; its search finds the first value that repeats an earlier one,
    and ``fault(index, value)`` is its error."""

    def find(stop: int) -> tuple | None:
        firsts = dict(zip(reversed(values), reversed(range(len(values)))))
        return next(((at, fault(at, value)) for at, value in enumerate(values[:stop]) if firsts[value] != at), None)

    return (lambda: len(set(values)) == len(values)), find


def first_fault(rows) -> tuple | None:
    """The ``(index, error)`` of the first fault that ``rows`` find in a
    list of items, or ``None``: each row is one rule as ``(holds, find)``,
    ``holds()`` the rule's column test over every item, and ``find(stop)``
    the ``(index, error)`` of the first item before ``stop`` that breaks
    it, or ``None``.  A valid list runs the column tests only.  The fault
    has the lowest index, and of the faults there the first row's.  A
    column test runs only while every row before it holds, and a search
    only below the lowest fault found so far, so no rule meets an item
    that breaks a rule before it."""
    found = None
    for holds, find in rows:
        if found is None and holds():
            continue
        found = find(maxsize if found is None else found[0]) or found
    return found


def check_rows(rows) -> None:
    """Raise the error of ``first_fault(rows)``, if there is one."""
    found = first_fault(rows)
    if found:
        raise found[1]


def by_class(objects: list):
    """``(cls, group, positions)`` for each class among ``objects``, in
    the order they first appear: ``group`` the objects of class ``cls``, in
    order, and ``positions()`` their indexes, built only when called."""
    types = list(map(type, objects))
    classes = dict.fromkeys(types)
    for cls in classes:
        group = objects if len(classes) == 1 else list(compress(objects, map(is_, types, repeat(cls))))
        yield cls, group, lambda cls=cls: list(compress(count(), map(is_, types, repeat(cls))))


def number_rows(cls: type, group: list, positions, fault) -> list[tuple]:
    """The ``check_rows`` rows of the number rule over ``group``, a
    ``by_class`` group of ``cls`` objects: each rule of each number or
    ``bool`` field, in field order.  ``fault(words, index)`` is the error of
    the object at ``index``, ``words`` the rule's words with the value."""
    rows = []
    for name, rules in _plan(cls)[2]:
        values = list(map(attrgetter(name), group))
        rows += rule_rows(values, rules, lambda words, index, value: fault(words.format(value), index), positions)
    return rows


def _texts_hold(objects: list, classes=None) -> bool:
    """Whether the dataclasses ``objects`` are of ``classes`` (of any class
    without them), and every text, ``Enum`` and dataclass-holding field of
    them, and of the dataclasses they hold, keeps its rules: one C-level
    pass per rule of each field of each class."""
    for cls, group, _ in by_class(objects):
        if classes is not None and cls not in classes:
            return False
        for name, rules, holding in _plan(cls)[4]:
            values = list(map(attrgetter(name), group))
            if not all(test(values) for test, _ in rules):
                return False
            if holding and not _texts_hold(_held(holding[0], values), holding[1]):
                return False
    return True


def check_text(objects: list, where) -> None:
    """Raise a ``SchemaError`` at the first field of the dataclasses
    ``objects``, or of a dataclass they hold, that holds what its column
    would refuse in a file or its writer could not write: ``objects[i]`` is
    at the JSON path ``where(i)``, and the error has the reader's words.  A
    text field holds exact ``str`` values without a lone surrogate, an
    ``Enum`` field a member, a payload one of its classes (a fault at the
    owner's ``kind``, named by its class name), a tuple of dataclasses a
    tuple (a JSON list) of its item class only, and ``(id, dataclass)``
    pairs a tuple of pairs (a JSON object).
    The objects are checked one C-level pass per rule first; only a list
    that fails is walked object by object, to name the first fault."""
    if _texts_hold(objects):
        return
    for index, obj in enumerate(objects):
        for name, rules, holding in _plan(type(obj))[4]:
            value, path = getattr(obj, name), f"{where(index)}.{name}"
            for test, expected in rules:
                if not test((value,)):
                    raise SchemaError(path, expected, value)
            for suffix, item in _held_items(holding, value):
                if type(item) not in holding[1]:
                    at = f"{where(index)}.kind" if holding[0] == "one" else path + suffix
                    raise SchemaError(at, holding[2], type(item).__name__)
                check_text([item], lambda _, at=path + suffix: at)


def check_ids(ids: list, path, more=()) -> None:
    """Hold ``ids``, the ids of a table's rows or a keyed field's keys, to
    the rules of a ``str`` field, as ``check_text`` does, then to the rules
    ``more``, each ``(test, expected)``: a ``SchemaError`` at ``path(index,
    id)`` for the first id at fault."""
    check_rows(rule_rows(ids, (*_SCALARS[str][3], *more), lambda words, i, got: SchemaError(path(i, got), words, got)))


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
