"""Individuals, populations, attribute-defined groups, and the CSV format.

A population is an ordered, immutable collection of individuals. Each
individual carries a binary merit label (does this person deserve the
favorable outcome?), an optional binary criterion label (the fact pattern a
deterministic procedure reads), and named categorical attributes such as
``sex=M``.

A :class:`Population` keeps its data as columns, one entry per member in
population order:

- ``ids()``, the member ids;
- ``merit``, an ``int8`` array of merit labels;
- ``criterion``, an ``int8`` array of criterion labels, ``-1`` where missing;
- ``attributes``, one :class:`AttributeColumn` per attribute name: the
  distinct values in first-appearance order and an ``int32`` code per member
  indexing them, ``-1`` where the member has no value;

and nothing else, whether :func:`load_population` filled them from a text's
bytes or ``Population(members)`` encoded them from the given members. Every
text loads as its UTF-8 file, and no member holds what a file cannot. The
ids of a loaded population stay byte ranges until something asks for
``ids()``, ``by_id`` or an id-based group; an error or violation that names
one member decodes only that member's id. The member view (``members``,
``by_id``, iteration) is built from the columns only when something asks for
it, without checking each member again, since :class:`Individual` accepts
exactly the members that the loader can return; members with equal
attributes share one read-only mapping. A group is the rows that
:func:`group_rows` selects, read-only sorted row indices or ``ALL`` for every
member; an attribute's groups are slices of one stable partition of its
column's rows by code from :func:`_partition_rows`, built on first query.
Every exact aggregate downstream is a count per (cell, merit class, code) from
:func:`cell_counts`, where one int is the cell or the code of every member.
:func:`csv_text` is the package's one CSV writer: :func:`dump_population`
writes through it, and so does every CSV report.
Everything here is read-only, each mapping included: an edit raises. So every
operation is a pure function and safe under concurrent use. A pickle or copy
of a population holds its four columns only, never the member view.
"""

from __future__ import annotations

import codecs
import csv
import io
import sys
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import IO, Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

import numpy as np

from .errors import PopulationParseError, UnknownIdError

__all__ = [
    "GUILTY",
    "INNOCENT",
    "Individual",
    "Population",
    "AttributeEquals",
    "CriterionEquals",
    "ExplicitIdSet",
    "Singleton",
    "GroupSpec",
    "group_members",
    "merit_counts",
    "load_population",
    "dump_population",
]

# Merit labels: 1 means the individual deserves the favorable outcome
# (acquittal), 0 means they deserve the unfavorable one (conviction).
GUILTY = 0
INNOCENT = 1

CSV_HEADER = ("id", "J", "X", "attrs")
MISSING = -1  # criterion or attribute code of a member without a value
ALL = slice(None)  # the row selection of every member


@dataclass(frozen=True)
class Individual:
    """One subject of a decision procedure: one row of the population CSV format.

    ``merit`` is the ground-truth label, 1 deserving acquittal and 0
    conviction. ``criterion`` is the binary fact label a deterministic
    procedure evaluates, ``None`` for individuals only ever handled by
    randomized procedures. ``attributes`` maps names to categorical values;
    the individual keeps a read-only copy.

    An individual builds exactly when :func:`load_population` can return it,
    so every population dumps and loads back unchanged, from its text or from
    that text's UTF-8 file. The loader strips every id, label, name and value,
    so the id, each name and each value must be a non-empty ``str`` that
    ``str.strip`` leaves as it is, a name must not hold ``=`` or ``;`` and a
    value not ``;``; each label is the ``int`` 0 or 1 (not a ``bool``), and
    ``criterion`` may be ``None``. Neither the id nor the joined
    ``name=value;...`` text may be longer than ``csv.field_size_limit()``,
    hold NUL before Python 3.11, whose :mod:`csv` cannot read it, hold a CR,
    which a file reads as LF, or hold a lone surrogate, which has no UTF-8
    form. Anything else raises :class:`ValueError` naming the field.
    """

    id: str
    merit: int
    criterion: int | None = None
    attributes: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not _is_stripped_text(self.id):
            message = f"individual id must be a non-empty string without edge whitespace, got {self.id!r}"
            raise ValueError(message)
        if not _is_label(self.merit):
            raise ValueError(f"merit must be 0 or 1, got {self.merit!r}")
        if self.criterion is not None and not _is_label(self.criterion):
            raise ValueError(f"criterion must be 0, 1 or None, got {self.criterion!r}")
        for name, value in self.attributes.items():
            if not _is_stripped_text(name) or "=" in name or ";" in name:
                raise ValueError(f"bad attribute name {name!r}")
            if not _is_stripped_text(value) or ";" in value:
                raise ValueError(f"bad value {value!r} for attribute {name!r}")
        attributes = _ReadOnlyDict(self.attributes)
        attrs_text = ";".join(map("=".join, attributes.items())) if attributes else ""
        for what, text in ("individual id", self.id), ("attrs text", attrs_text):
            if len(text) > csv.field_size_limit():
                raise ValueError(f"{what} of {len(text)} characters exceeds csv.field_size_limit()")
            if _CSV_REFUSES_NUL and "\0" in text:
                raise ValueError(f"{what} must not hold NUL before Python 3.11, got {text!r}")
            if "\r" in text:
                raise ValueError(f"{what} must not hold CR, which a file reads as LF, got {text!r}")
            if not text.isascii() and any("\ud800" <= char <= "\udfff" for char in text):
                raise ValueError(f"{what} has no UTF-8 form, got {text!r}")
        object.__setattr__(self, "attributes", attributes)


def _is_stripped_text(text) -> bool:
    """Whether ``text`` is a non-empty ``str`` that ``str.strip`` leaves as it is."""
    return isinstance(text, str) and text != "" and text == text.strip()


def _is_label(label) -> bool:
    """Whether ``label`` is the ``int`` 0 or 1; a ``bool`` is not a label."""
    return type(label) is int and label in (0, 1)


_CSV_REFUSES_NUL = sys.version_info < (3, 11)  # csv reads and writes NUL from 3.11 on


def _trusted(ident: str, merit: int, criterion: int | None, attributes: dict[str, str]) -> Individual:
    """An individual made of fields already checked, without :meth:`Individual.__post_init__`."""
    ind = object.__new__(Individual)
    ind.__dict__.update(id=ident, merit=merit, criterion=criterion, attributes=attributes)
    return ind


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _refuse_assignment(self, name, value=None):
    raise AttributeError(f"cannot assign to field {name!r}")


class _ReadOnlyDict(dict):
    """A ``dict`` that refuses every edit with ``TypeError``. Equality, ``repr``
    and every read are a ``dict``'s; a pickle or copy holds one plain ``dict``
    and rebuilds a read-only one from it."""

    __slots__ = ()

    def __new__(cls, items=(), /):
        self = dict.__new__(cls)
        dict.update(self, items)
        return self

    __init__ = object.__init__  # filled by __new__, so a second __init__ call edits nothing

    def _refuse(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__!r} object is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


class AttributeColumn:
    """One dictionary-encoded attribute: distinct ``values`` in first-appearance
    order and one ``codes`` entry per member indexing them (-1 when absent).

    The rows of each code come from one stable partition of the rows by code,
    built on the first :meth:`_rows` query and kept, read-only, for the
    column's life. It is derived data: equality and pickling see only
    ``values`` and ``codes``.
    """

    __slots__ = ("values", "codes", "_partition")

    def __init__(self, values: tuple[str, ...], codes: np.ndarray):
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "codes", _frozen(codes))
        object.__setattr__(self, "_partition", None)

    __setattr__ = __delattr__ = _refuse_assignment

    def __eq__(self, other) -> bool:
        if not isinstance(other, AttributeColumn):
            return NotImplemented
        return self.values == other.values and np.array_equal(self.codes, other.codes)

    __hash__ = None

    def __reduce__(self):
        return AttributeColumn, (self.values, self.codes)

    def _rows(self, code: int) -> np.ndarray:
        """The sorted rows whose code is ``code``, ``MISSING`` included: a
        read-only slice of the rows ordered by code, rows in order within a code."""
        if self._partition is None:
            partition = tuple(map(_frozen, _partition_rows(self.codes, len(self.values))))
            object.__setattr__(self, "_partition", partition)
        order, offsets = self._partition
        return order[offsets[code + 1] : offsets[code + 2]]


def _partition_rows(keys: np.ndarray, n_keys: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows stably ordered by key, each in ``[MISSING, n_keys)`` and shifted up
    by one into the narrowest type, which numpy's stable sort orders by radix up to
    16 bits. Key ``k``'s rows are ``order[offsets[k + 1] : offsets[k + 2]]``."""
    dtype = np.uint8 if n_keys < 2**8 else np.uint16 if n_keys < 2**16 else np.int32
    shifted = keys.astype(dtype)
    shifted += 1
    offsets = np.zeros(n_keys + 2, dtype=np.intp)
    np.cumsum(np.bincount(shifted, minlength=n_keys + 1), out=offsets[1:])
    return np.argsort(shifted, kind="stable"), offsets


def _encode_attributes(
    dicts: Sequence[Mapping[str, str]], rows: np.ndarray | slice = ALL
) -> dict[str, AttributeColumn]:
    """Dictionary-encode attribute mappings, one column per name.

    Member ``i`` carries ``dicts[rows[i]]``, or ``dicts[i]`` with ``ALL``.
    With row indices, ``dicts`` must be listed in the order of their first use,
    so that values still come out in first-appearance order.
    """
    encoded: dict[str, tuple[dict[str, int], list[int]]] = {}
    for i, attrs in enumerate(dicts):
        for name, value in attrs.items():
            entry = encoded.get(name)
            if entry is None:
                entry = encoded[name] = ({}, [MISSING] * len(dicts))
            values, codes = entry
            codes[i] = values.setdefault(value, len(values))
    columns = {}
    for name, (values, codes) in encoded.items():
        array = np.array(codes, dtype=np.int32)
        columns[name] = AttributeColumn(tuple(values), array[rows])
    return columns


class Population:
    """An ordered collection of individuals with unique ids, stored as columns."""

    def __init__(self, members: Iterable[Individual]):
        members = tuple(members)
        index: dict[str, int] = {}
        for ind in members:
            if ind.id in index:
                raise ValueError(f"duplicate individual id {ind.id!r}")
            index[ind.id] = len(index)
        n = len(members)
        criterion = (MISSING if ind.criterion is None else ind.criterion for ind in members)
        columns = Population._from_columns(
            tuple(index),
            np.fromiter((ind.merit for ind in members), np.int8, n),
            np.fromiter(criterion, np.int8, n),
            _encode_attributes([ind.attributes for ind in members]),
        )
        self.__dict__.update(vars(columns))  # what a loaded population holds, and only that

    @classmethod
    def _from_columns(
        cls,
        ids: Sequence[str],
        merit: np.ndarray,
        criterion: np.ndarray,
        attributes: dict[str, AttributeColumn],
    ) -> Population:
        """A population over already validated columns. ``ids`` holds the
        member ids, which must be distinct; it is read whole on first use."""
        pop = cls.__new__(cls)
        pop.__dict__.update(
            _id_source=ids,
            merit=_frozen(merit),
            criterion=_frozen(criterion),
            attributes=_ReadOnlyDict(attributes),
        )
        return pop

    def __reduce__(self):
        """A pickle or copy holds the four columns only and is rebuilt by
        :meth:`_from_columns`, so its arrays come back read-only."""
        return self._from_columns, (tuple(self._id_source), self.merit, self.criterion, self.attributes)

    __setattr__ = __delattr__ = _refuse_assignment

    def __eq__(self, other) -> bool:
        if not isinstance(other, Population):
            return NotImplemented
        return (
            self.ids() == other.ids()
            and np.array_equal(self.merit, other.merit)
            and np.array_equal(self.criterion, other.criterion)
            and self.attributes == other.attributes
        )

    __hash__ = None

    def __len__(self) -> int:
        return len(self.merit)

    def __iter__(self) -> Iterator[Individual]:
        return iter(self.members)

    def __repr__(self) -> str:
        return f"Population({len(self)} members)"

    @cached_property
    def _ids(self) -> tuple[str, ...]:
        return tuple(self._id_source)

    @cached_property
    def _index(self) -> dict[str, int]:
        return dict(zip(self._ids, range(len(self))))

    def ids(self) -> tuple[str, ...]:
        return self._ids

    def _id(self, i: int) -> str:
        """Member ``i``'s id, decoded alone unless the ids are already built."""
        return self._ids[i] if "_ids" in self.__dict__ else self._id_source[i]

    def _attribute_combinations(self, rows: np.ndarray) -> tuple[list[_ReadOnlyDict], list[int]]:
        """The attributes of the members at ``rows``: one read-only mapping,
        names in column order, per distinct combination of their codes, and
        each member's combination. Combinations are numbered column by column,
        so each number stays below ``len(codes) * (len(values) + 1)``."""
        codes = [column.codes[rows] for column in self.attributes.values()]
        combination = np.zeros(len(rows), dtype=np.int64)
        first = np.zeros(min(len(combination), 1), dtype=np.intp)  # one combination, no column
        for column, column_codes in zip(self.attributes.values(), codes):
            combination *= len(column.values) + 1
            combination += column_codes
            combination += 1  # MISSING is 0
            _, first, combination = np.unique(combination, return_index=True, return_inverse=True)
        mappings = [{} for _ in range(len(first))]
        for name, column, column_codes in zip(self.attributes, self.attributes.values(), codes):
            for mapping, code in zip(mappings, column_codes[first].tolist()):
                if code != MISSING:
                    mapping[name] = column.values[code]
        return list(map(_ReadOnlyDict, mappings)), combination.tolist()

    def _members(self, rows: np.ndarray) -> tuple[Individual, ...]:
        """The members at ``rows``, built from the columns, each read once;
        members with equal attributes share one read-only mapping."""
        mappings, combinations = self._attribute_combinations(rows)
        ids = map(self._id, rows.tolist())
        criteria = (None if c == MISSING else c for c in self.criterion[rows].tolist())
        attrs = map(mappings.__getitem__, combinations)
        return tuple(map(_trusted, ids, self.merit[rows].tolist(), criteria, attrs))

    @cached_property
    def members(self) -> tuple[Individual, ...]:
        self.ids()  # decoded in bulk, so that _members looks each id up
        return self._members(np.arange(len(self)))

    @cached_property
    def by_id(self) -> Mapping[str, Individual]:
        return _ReadOnlyDict(zip(self.ids(), self.members))

    def attribute_values(self, name: str) -> tuple[str, ...]:
        """Distinct values of an attribute, in first-appearance order."""
        column = self.attributes.get(name)
        return () if column is None else column.values


# --- group specs: plain data; group_rows decides who belongs ---------------


@dataclass(frozen=True)
class AttributeEquals:
    """Members whose attribute ``name`` equals ``value``."""

    name: str
    value: str


@dataclass(frozen=True)
class CriterionEquals:
    """Members whose criterion label equals ``value``, the ``int`` 0 or 1."""

    value: int

    def __post_init__(self):
        if not _is_label(self.value):
            raise ValueError(f"criterion value must be 0 or 1, got {self.value!r}")


@dataclass(frozen=True)
class ExplicitIdSet:
    """Members listed by ids, not one ``str``; each must exist in the target population."""

    ids: frozenset[str]

    def __init__(self, ids: Iterable[str]):
        if isinstance(ids, str):
            raise TypeError(f"ids must be a collection of ids, not the str {ids!r}")
        object.__setattr__(self, "ids", frozenset(ids))


@dataclass(frozen=True)
class Singleton:
    """The one-member group containing exactly ``id``."""

    id: str


GroupSpec = Union[AttributeEquals, CriterionEquals, ExplicitIdSet, Singleton]


_NO_ROWS = _frozen(np.empty(0, dtype=np.intp))


def group_rows(pop: Population, g: GroupSpec | None) -> np.ndarray | slice:
    """The rows of ``g``'s members: read-only sorted row indices, or ``ALL``
    when ``g`` is ``None``.

    An attribute group is a slice of its column's partition by code (see
    :class:`AttributeColumn`), so it costs its own size once the column's
    first query has built the partition; a criterion group takes one pass over
    the criterion labels, and an id-based group one lookup per id.
    """
    if g is None:
        return ALL
    if isinstance(g, AttributeEquals):
        column = pop.attributes.get(g.name)
        if column is None or g.value not in column.values:
            return _NO_ROWS
        return column._rows(column.values.index(g.value))
    if isinstance(g, CriterionEquals):
        return _frozen(np.flatnonzero(pop.criterion == g.value))
    ids = g.ids if isinstance(g, ExplicitIdSet) else {g.id}
    unknown = ids - pop._index.keys()
    if unknown and isinstance(g, Singleton):
        raise UnknownIdError(f"unknown id in group: {g.id!r}")
    if unknown:
        raise UnknownIdError(f"unknown ids in group: {sorted(unknown)}")
    return _frozen(np.sort(np.array([pop._index[ident] for ident in ids], dtype=np.intp)))


def group_members(pop: Population, g: GroupSpec | None) -> tuple[Individual, ...]:
    """Members satisfying ``g``, in population order. ``None`` selects everyone."""
    return pop.members if g is None else pop._members(group_rows(pop, g))


def cell_counts(
    merit: np.ndarray,
    codes: np.ndarray | int = 0,
    n_codes: int = 1,
    cells: np.ndarray | int = 0,
    n_cells: int = 1,
) -> np.ndarray:
    """Member counts per (cell, merit class, code), shape ``(n_cells, 2, n_codes)``,
    of the members whose merit labels are ``merit``.

    ``codes`` and ``cells`` give one entry per member, in ``[0, n_codes)`` and
    ``[0, n_cells)``, or one int for every member (0 when omitted). One integer
    ``np.bincount`` does the counting.
    """
    # merit is widened first, so that the key's dtype never rests on promotion rules
    key = (merit.astype(np.intp) + 2 * cells) * n_codes + codes
    counts = np.bincount(key, minlength=n_cells * 2 * n_codes)
    return counts.reshape(n_cells, 2, n_codes)


def merit_counts(pop: Population, g: GroupSpec | None = None) -> tuple[int, int]:
    """(number guilty, number innocent) within the group. Empty group gives (0, 0)."""
    n_guilty, n_innocent = cell_counts(pop.merit[group_rows(pop, g)])[0, :, 0].tolist()
    return n_guilty, n_innocent


# --- CSV ingestion ---------------------------------------------------------

# (row, column from 0 for id, error) of a check's first failure; the least is raised
_RowError = tuple[int, int, PopulationParseError]


def _parse_binary(text: str, column: str, line: int, optional: bool = False) -> int | None:
    text = text.strip()
    if not text:
        if optional:
            return None
        raise PopulationParseError(f"empty {column} value", line)
    if text == "0":
        return 0
    if text == "1":
        return 1
    raise PopulationParseError(f"{column} must be 0 or 1, got {text!r}", line)


def _parse_attrs(text: str, line: int) -> dict[str, str]:
    attrs: dict[str, str] = {}
    text = text.strip()
    if not text:
        return attrs
    for pair in text.split(";"):
        name, sep, value = pair.partition("=")
        name, value = name.strip(), value.strip()
        if not sep or not name or not value:
            raise PopulationParseError(f"bad attribute pair {pair!r}", line)
        if name in attrs:
            raise PopulationParseError(f"duplicate attribute {name!r}", line)
        attrs[name] = value
    return attrs


class _Cells(NamedTuple):
    """The data rows of a population text as byte ranges of ``raw``.

    Cell ``i`` (row ``i // 4``, column ``i % 4`` of id, J, X, attrs) is the
    UTF-8 encoding ``raw[bounds[i] + 1 : bounds[i + 1]]``: each cell lies
    between two separator positions. At least eight bytes of ``raw`` precede
    every cell and at least one follows every J and X cell. ``lines[r]`` is
    the line of row ``r``.
    """

    raw: bytes
    bounds: np.ndarray
    lines: Sequence[int]

    def column(self, column: int) -> tuple[np.ndarray, np.ndarray]:
        """The start and end of every cell in ``column``."""
        return self.bounds[column:-1:4] + 1, self.bounds[column + 1 :: 4].copy()

    def text(self, column: int, row: int) -> str:
        cell = 4 * row + column
        return self.raw[self.bounds[cell] + 1 : self.bounds[cell + 1]].decode()


_HEADER_LINE = ",".join(CSV_HEADER).encode() + b"\n"


def _plain_cells(raw: bytes) -> _Cells | None:
    """The cells of the UTF-8 text ``raw``, found by numpy, or ``None`` unless
    ``raw`` is plain: the bare header line, then at least one line, each with
    exactly three commas and no more bytes than ``csv.field_size_limit()``,
    and no quote or NUL anywhere.

    LF is the only line break, and a final LF ends the last line.
    """
    if not raw.startswith(_HEADER_LINE) or any(byte in raw for byte in (b'"', b"\0")):
        return None
    data = np.frombuffer(raw, dtype=np.uint8)
    # one more position, the end of the text, ends a last line without LF
    is_separator = np.empty(len(data) + 1, dtype=bool)
    np.equal(data, ord(","), out=is_separator[:-1])
    is_line_feed = data == ord("\n")
    is_separator[:-1] |= is_line_feed
    line_feeds = np.count_nonzero(is_line_feed)
    del is_line_feed
    is_separator[-1] = not raw.endswith(b"\n")
    # 32-bit positions halve the memory of every position array that follows
    bounds = np.flatnonzero(is_separator).astype(np.int32 if len(data) < 2**31 else np.int64)
    del is_separator
    # the header's three commas and LF, then the same four on every line: as
    # many LFs as line ends before the last, and each is a fourth separator
    lines = len(bounds) // 4
    if len(bounds) < 8 or len(bounds) % 4 or line_feeds - raw.endswith(b"\n") != lines - 1:
        return None
    if not (data[bounds[3:-1:4]] == ord("\n")).all():
        return None
    # csv.reader refuses a longer field; a UTF-8 byte count bounds the characters
    if (bounds[7::4] - bounds[3:-1:4]).max() > csv.field_size_limit() + 1:
        return None
    return _Cells(raw, bounds[3:], range(2, lines + 1))


def _csv_cells(raw: bytes, errors: list[_RowError]) -> _Cells:
    """The cells of the UTF-8 text ``raw``, whose line breaks are LF, as read
    by :func:`csv.reader`, which handles RFC-4180 quoting and blank lines.
    :class:`io.TextIOWrapper` decodes ``raw`` a chunk at a time and cuts a
    line only after LF, so the whole text is never held decoded. The error that
    ends the rows early, a row with the wrong number of columns or a
    :class:`csv.Error` such as a field longer than ``csv.field_size_limit()``,
    goes to ``errors`` at the row after the last one read.
    """
    cells: list[str] = []
    lines: list[int] = []
    header_seen = False
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(raw), "utf-8", newline="\n"))
    start = 1  # the physical line the next record starts on
    try:
        for row in reader:
            line, start = start, reader.line_num + 1
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # blank line
            if not header_seen:
                if tuple(cell.strip() for cell in row) != CSV_HEADER:
                    raise PopulationParseError(
                        f"expected header {','.join(CSV_HEADER)!r}, got {','.join(row)!r}", line
                    )
                header_seen = True
            elif len(row) != 4:
                error = PopulationParseError(f"expected 4 columns, got {len(row)}", line)
                errors.append((len(lines), 0, error))
                break
            else:
                cells.extend(row)
                lines.append(line)
    except csv.Error as exc:
        errors.append((len(lines), 0, PopulationParseError(str(exc), start)))
    if not header_seen and not errors:
        raise PopulationParseError("empty input: missing header", 1)
    encoded = [cell.encode() for cell in cells]
    lengths = np.fromiter(map(len, encoded), dtype=np.intp, count=len(encoded))
    bounds = np.cumsum(np.concatenate(([7], lengths + 1)))
    return _Cells(bytes(8) + b",".join(encoded) + bytes(1), bounds, lines)


def _labels(cells: _Cells, column: int, errors: list[_RowError]) -> np.ndarray:
    """Column J (1) or X (2) as ``int8`` labels, ``MISSING`` for an empty X;
    the first cell that does not parse puts its error in ``errors``.

    A cell that is exactly ``0`` or ``1`` is read from its byte; any other
    (one that needs stripping, or a bad one) goes through :func:`_parse_binary`.
    """
    name, optional = CSV_HEADER[column], column == 2
    starts, ends = cells.column(column)
    lengths = ends - starts
    digits = np.frombuffer(cells.raw, dtype=np.uint8)[starts] - ord("0")  # wraps below "0"
    parsed = (lengths == 1) & (digits <= 1)
    labels = digits.view(np.int8)
    if optional:
        empty = lengths == 0
        labels[empty] = MISSING
        parsed |= empty
    for row in np.flatnonzero(~parsed).tolist():
        try:
            label = _parse_binary(cells.text(column, row), name, cells.lines[row], optional)
        except PopulationParseError as exc:
            errors.append((row, column, exc))
            break
        labels[row] = MISSING if label is None else label
    return labels


# how far a last word of 1 to 8 bytes, loaded with the bytes before it, is shifted down
_TAIL_SHIFTS = np.array([0, 56, 48, 40, 32, 24, 16, 8, 0], dtype=np.uint64)


def _field_words(
    data: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> Iterator[tuple[np.ndarray | slice, np.ndarray]]:
    """Yield ``(rows, words)`` for k = 0, 1, ...: the fields ``data[start:end]``
    that have a byte 8k, and bytes 8k to 8k + 7 of each as a little-endian
    ``uint64``, zero-padded past the field's end.

    Each word is one unaligned 8-byte load that ends within its field, so at
    least eight bytes of ``data`` must precede every field.
    """
    loads = np.ndarray((len(data) - 7,), "<u8", data, 0, (1,))
    rows: np.ndarray | slice = slice(None)
    offsets, left = starts, ends - starts
    while True:
        if not (left > 0).all():
            kept = np.flatnonzero(left > 0)
            rows = kept if isinstance(rows, slice) else rows[kept]
            offsets, left = offsets[kept], left[kept]
        if not left.size:
            return
        size = np.minimum(left, 8)
        last = offsets + size
        last -= 8
        words = loads[last]
        words >>= _TAIL_SHIFTS[size]
        yield rows, words
        offsets, left = offsets + 8, left - 8


_MIX = np.uint64(0x9E3779B97F4A7C15)  # 2^64 over the golden ratio, odd


def _mix_keys(lengths: np.ndarray, rounds: Iterable[tuple[np.ndarray | slice, np.ndarray]]) -> np.ndarray:
    """A ``uint64`` key per field from its length and its :func:`_field_words`
    rounds: equal fields get equal keys, and unequal ones almost always
    unequal keys.

    Each word is folded in by a multiply and a shift, which for a given key so
    far maps distinct words to distinct keys.
    """
    keys = lengths.astype(np.uint64)
    for rows, words in rounds:
        folded = keys[rows] ^ words
        folded *= _MIX
        folded ^= folded >> np.uint64(32)
        keys[rows] = folded
    return keys


_PREFIX_ROWS = 4096  # the rows whose distinct keys make _table_groups's table


def _table_groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Group rows by key through a direct table of the distinct keys of the
    first ``_PREFIX_ROWS`` rows, indexed by high key bits: each row's group,
    numbered in key order, and each group's first row. ``None`` when a row's
    key is not in its slot: a later row's key is not among those, or two of
    them share a slot, which holds only one.

    The table has room for about 64 times the square of the distinct count,
    up to 2^16 slots, so that a few distinct keys seldom share a slot.
    """
    distinct, first = np.unique(keys[:_PREFIX_ROWS], return_index=True)
    bits = min(16, max(1, (64 * len(distinct) ** 2).bit_length()))
    shift = np.uint64(64 - bits)
    table = np.zeros(1 << bits, dtype=np.uint16)
    table[distinct >> shift] = np.arange(len(distinct))
    group = table.take(keys >> shift)  # take gathers about twice as fast as indexing
    # an empty slot reads as group 0, whose key differs from every key that
    # maps to that slot; so a row's key is in the table exactly when it is its group's
    if (distinct.take(group) != keys).any():
        return None
    return group, first


def _sorted_groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group rows by sorting their keys: each row's group, numbered in key
    order, and each group's first row."""
    order = np.argsort(keys)
    ordered = keys[order]
    opens = np.empty(len(keys), dtype=bool)
    opens[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=opens[1:])
    group = np.empty(len(keys), dtype=np.intp)
    group[order] = np.cumsum(opens) - 1
    return group, np.minimum.reduceat(order, np.flatnonzero(opens))


def _group_cells(cells: _Cells, column: int) -> tuple[np.ndarray, np.ndarray]:
    """Group the cells of ``column`` by their bytes: the first row of each group
    in first-appearance order, and each row's group, numbered in that order.

    Rows are grouped by key, through :func:`_table_groups` or else
    :func:`_sorted_groups`, then every row's words are compared with its
    group's first row's; only if two different cells share a key are the cells
    grouped again, as bytes.
    """
    data = np.frombuffer(cells.raw, dtype=np.uint8)
    starts, ends = cells.column(column)
    lengths = ends - starts
    rounds = list(_field_words(data, starts, ends))
    keys = _mix_keys(lengths, rounds)
    group, first = _table_groups(keys) or _sorted_groups(keys)
    leader = first[group]
    exact = (lengths[leader] == lengths).all()
    position = np.empty(len(keys), dtype=np.intp)  # of each row within a round's rows
    for rows, words in rounds:
        if not exact:
            break
        if isinstance(rows, slice):
            leader_words = words[leader]
        else:  # a leader has as many words as the rows it leads
            position[rows] = np.arange(len(rows))
            leader_words = words[position[leader[rows]]]
        exact = (leader_words == words).all()
    if not exact:
        index: dict[bytes, int] = {}
        group = np.array(
            [index.setdefault(cells.raw[s:e], len(index)) for s, e in zip(starts.tolist(), ends.tolist())],
            dtype=np.intp,
        )
        _, first = np.unique(group, return_index=True)
    order = np.argsort(first)
    renumber = np.empty_like(order)
    renumber[order] = np.arange(len(order))
    return first[order], renumber[group]


def _id_bounds(cells: _Cells, errors: list[_RowError]) -> _IdRanges:
    """The byte range in ``cells.raw`` of every stripped id; the first empty id
    and the first duplicate put their errors in ``errors``.

    Only an id whose first or last byte is not printable ASCII can change under
    ``str.strip``; those ids are stripped as text. Duplicates are found by
    sorting the ids' keys; the ids whose keys repeat are compared as bytes.
    """
    raw = cells.raw
    data = np.frombuffer(raw, dtype=np.uint8)
    starts, ends = cells.column(0)
    # only "!" to "~", which str.strip keeps, are at most "~" - "!" above "!"; lower bytes wrap
    first, last = data[starts] - ord("!"), data[ends - 1] - ord("!")
    edge = (first > ord("~") - ord("!")) | (last > ord("~") - ord("!")) | (starts == ends)
    for row in np.flatnonzero(edge).tolist():
        cell = cells.text(0, row)
        ident = cell.strip()
        starts[row] += len(cell[: len(cell) - len(cell.lstrip())].encode())
        ends[row] = starts[row] + len(ident.encode())
    empty = np.flatnonzero(starts == ends)
    if empty.size:
        row = int(empty[0])
        errors.append((row, 0, PopulationParseError("empty id", cells.lines[row])))
    keys = _mix_keys(ends - starts, _field_words(data, starts, ends))
    ordered = np.sort(keys)
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    suspects = np.flatnonzero(np.isin(keys, repeated)).tolist() if repeated.size else []
    seen: set[bytes] = set()
    for row in suspects:
        ident = raw[starts[row] : ends[row]]
        if ident in seen:
            message = f"duplicate id {ident.decode()!r}"
            errors.append((row, 0, PopulationParseError(message, cells.lines[row])))
            break
        seen.add(ident)
    return _IdRanges(raw, starts, ends)


@dataclass(frozen=True, eq=False)
class _IdRanges:
    """The ids of a loaded population as byte ranges of ``raw``, decoded on demand."""

    raw: bytes
    starts: np.ndarray
    ends: np.ndarray

    def __getitem__(self, i: int) -> str:
        return self.raw[self.starts[i] : self.ends[i]].decode()

    def __iter__(self) -> Iterator[str]:
        return (self.raw[s:e].decode() for s, e in zip(self.starts.tolist(), self.ends.tolist()))


def _file_bytes(source: str | bytes | IO[str] | IO[bytes]) -> bytes:
    """``source`` as the bytes of its UTF-8 file, read as
    ``Path.read_text(encoding="utf-8")`` reads one: a file object is read
    whole, ``bytes`` are checked to be UTF-8 and a ``str`` is encoded strictly;
    every CRLF and lone CR becomes LF, and one leading byte-order mark is dropped."""
    source = source if isinstance(source, (str, bytes)) else source.read()
    if isinstance(source, str):
        source = source.encode()  # a lone surrogate raises UnicodeEncodeError
    elif not source.isascii():
        source.decode()  # refuses what Path.read_text refuses, at the same position
    if b"\r" in source:  # replace copies the whole text even when it holds no CR
        source = source.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return source.removeprefix(codecs.BOM_UTF8)


def load_population(source: str | bytes | IO[str] | IO[bytes]) -> Population:
    """Parse the population CSV format (header ``id,J,X,attrs``).

    ``X`` may be empty; ``attrs`` is a semicolon-separated list of
    ``name=value`` pairs and may be empty. Fields may be quoted as in
    RFC 4180; CRLF input, blank lines and one leading UTF-8 byte-order mark
    are tolerated. Raises :class:`PopulationParseError` naming the offending
    line on any malformed row, duplicate id, out-of-range label, or field
    longer than ``csv.field_size_limit()``.

    ``source`` is a ``str``, ``bytes``, a text file or a binary file, and each
    loads as its UTF-8 file (:func:`_file_bytes`), so a quoted CRLF reads as LF.

    Two stages: the text's cells are located as byte ranges of its UTF-8
    encoding, by :func:`_plain_cells` or else by :func:`_csv_cells`, whose
    :func:`csv.reader` decodes those bytes a chunk at a time; then whole
    columns are validated and encoded. The error raised is the first
    offending row's, checking each row's column count, id (empty, then
    duplicate), ``J``, ``X`` and ``attrs`` in that order. The member ids are
    decoded only when first asked for.
    """
    raw = _file_bytes(source)
    errors: list[_RowError] = []
    cells = _plain_cells(raw) or _csv_cells(raw, errors)
    ids = _id_bounds(cells, errors)
    merit = _labels(cells, 1, errors)
    criterion = _labels(cells, 2, errors)

    # Each distinct attrs string is parsed once, in first-appearance order.
    first_rows, attr_rows = _group_cells(cells, 3)
    attr_dicts = []
    for row in first_rows.tolist():
        try:
            attr_dicts.append(_parse_attrs(cells.text(3, row), cells.lines[row]))
        except PopulationParseError as exc:
            errors.append((row, 3, exc))
            break

    if errors:
        raise min(errors, key=lambda error: error[:2])[2]
    return Population._from_columns(ids, merit, criterion, _encode_attributes(attr_dicts, attr_rows))


def dump_population(pop: Population) -> str:
    """Serialize to the population CSV format (LF line endings), straight
    from the columns, quoting a field only when it holds a comma, a quote or
    an LF. ``load_population(dump_population(p)) == p`` for every population,
    also from the text's UTF-8 bytes with LF or CRLF line ends, since no member
    holds a CR or a lone surrogate. Each member's attributes are written in
    column order, from one text per distinct combination of attribute codes.
    """
    labels = ("0", "1", "")  # by label, and MISSING (-1) last
    mappings, combinations = pop._attribute_combinations(np.arange(len(pop)))
    texts = [";".join(map("=".join, mapping.items())) for mapping in mappings]
    rows = (
        [ident, labels[merit], labels[criterion], texts[combination]]
        for ident, merit, criterion, combination in zip(
            pop.ids(), pop.merit.tolist(), pop.criterion.tolist(), combinations
        )
    )
    return csv_text(chain([CSV_HEADER], rows))  # streamed: no list of every row


def csv_text(rows: Iterable[Sequence]) -> str:
    """``rows`` as CSV text with LF line endings: the package's one CSV writer."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()
