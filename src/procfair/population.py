"""Individuals, populations, attribute-defined groups, and CSV ingestion.

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
  indexing them, ``-1`` where the member has no value.

:func:`load_population` fills these columns directly, in two stages. First
every cell is located as a byte range of the text's UTF-8 encoding (a
file's bytes without a CR are that encoding already; others are decoded
first, as ``Path.read_text`` decodes them): in plain
text (the bare header first, three commas on every later line, no quote, CR
or NUL) numpy finds the commas and line feeds; anything else is read by
:func:`csv.reader` and its cells are encoded one after another. Then each
column is validated and encoded as a whole from those bytes, raising the
error of the first offending row: labels that are exactly ``0`` or ``1`` are
read from their byte, attrs strings are grouped by a key mixed from their
8-byte words and then compared word for word, and ids are checked for
duplicates by sorting their keys and comparing the ids whose keys repeat.
The ids of a loaded population stay byte ranges until something asks for
``ids()``, ``by_id`` or an id-based group; an error or violation that names
one member decodes only that member's id. Its member view (``members``,
iteration) is built from the columns only when something asks for it.
``Population(members)`` encodes the columns once, when it is constructed, and
keeps the given tuple as ``members``. Every exact aggregate downstream is a count per
(cell, merit class, code) from :func:`cell_counts`. Everything here is
read-only, so every operation is a pure function and safe under concurrent
use.
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import operator
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import IO, Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

import numpy as np

from .errors import PopulationParseError, UnknownIdError

# Merit labels: 1 means the individual deserves the favorable outcome
# (acquittal), 0 means they deserve the unfavorable one (conviction).
GUILTY = 0
INNOCENT = 1
MERIT_VALUES = (GUILTY, INNOCENT)

CSV_HEADER = ("id", "J", "X", "attrs")
MISSING = -1  # criterion or attribute code of a member without a value


@dataclass(frozen=True)
class Individual:
    """One subject of a decision procedure.

    ``merit`` is the ground-truth label: 1 deserving acquittal, 0 deserving
    conviction. ``criterion`` is the binary fact label a deterministic
    procedure evaluates; it is ``None`` for individuals only ever handled by
    randomized procedures. ``attributes`` maps attribute names to categorical
    values; names must not contain ``=`` or ``;`` and values must not contain
    ``;`` (both are structural in the CSV format).
    """

    id: str
    merit: int
    criterion: int | None = None
    attributes: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.id:
            raise ValueError("individual id must be a non-empty string")
        if self.merit not in MERIT_VALUES:
            raise ValueError(f"merit must be 0 or 1, got {self.merit!r}")
        if self.criterion is not None and self.criterion not in (0, 1):
            raise ValueError(f"criterion must be 0, 1 or None, got {self.criterion!r}")
        for name, value in self.attributes.items():
            if not name or not isinstance(name, str) or "=" in name or ";" in name:
                raise ValueError(f"bad attribute name {name!r}")
            if not value or not isinstance(value, str) or ";" in value:
                raise ValueError(f"bad value {value!r} for attribute {name!r}")
        object.__setattr__(self, "attributes", dict(self.attributes))


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class AttributeColumn:
    """One dictionary-encoded attribute: distinct ``values`` in first-appearance
    order and one ``codes`` entry per member indexing them (-1 when absent)."""

    __slots__ = ("values", "codes")

    def __init__(self, values: tuple[str, ...], codes: np.ndarray):
        self.values = values
        self.codes = _frozen(codes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AttributeColumn):
            return NotImplemented
        return self.values == other.values and np.array_equal(self.codes, other.codes)

    __hash__ = None


def _encode_attributes(
    dicts: Sequence[Mapping[str, str]], rows: np.ndarray | None = None
) -> dict[str, AttributeColumn]:
    """Dictionary-encode attribute mappings, one column per name.

    Member ``i`` carries ``dicts[rows[i]]``, or ``dicts[i]`` without ``rows``.
    With ``rows``, ``dicts`` must be listed in the order of their first use, so
    that values still come out in first-appearance order.
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
        columns[name] = AttributeColumn(tuple(values), array if rows is None else array[rows])
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
        self.__dict__.update(
            members=members, _index=index, _ids=tuple(index),
            merit=_frozen(np.fromiter((ind.merit for ind in members), np.int8, n)),
            criterion=_frozen(np.fromiter(criterion, np.int8, n)),
            attributes=_encode_attributes([ind.attributes for ind in members]),
        )

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
            _id_source=ids, merit=_frozen(merit), criterion=_frozen(criterion), attributes=attributes
        )
        return pop

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

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

    def _members(self, rows: np.ndarray) -> tuple[Individual, ...]:
        """The members at ``rows``, built from the columns, each read once."""
        attrs = [{} for _ in range(len(rows))]
        for name, column in self.attributes.items():
            for member_attrs, code in zip(attrs, column.codes[rows].tolist()):
                if code != MISSING:
                    member_attrs[name] = column.values[code]
        ids = map(self._id, rows.tolist())
        criteria = (None if c == MISSING else c for c in self.criterion[rows].tolist())
        return tuple(map(Individual, ids, self.merit[rows].tolist(), criteria, attrs))

    @cached_property
    def members(self) -> tuple[Individual, ...]:
        self.ids()  # decoded in bulk, so that _members looks each id up
        return self._members(np.arange(len(self)))

    @cached_property
    def by_id(self) -> Mapping[str, Individual]:
        return {ind.id: ind for ind in self.members}

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
    """Members whose criterion label equals ``value`` (0 or 1)."""

    value: int

    def __post_init__(self):
        if self.value not in (0, 1):
            raise ValueError(f"criterion value must be 0 or 1, got {self.value!r}")


@dataclass(frozen=True)
class ExplicitIdSet:
    """Members listed by id; every id must exist in the target population."""

    ids: frozenset[str]

    def __init__(self, ids: Iterable[str]):
        object.__setattr__(self, "ids", frozenset(ids))


@dataclass(frozen=True)
class Singleton:
    """The one-member group containing exactly ``id``."""

    id: str


GroupSpec = Union[AttributeEquals, CriterionEquals, ExplicitIdSet, Singleton]


def group_rows(pop: Population, g: GroupSpec | None) -> np.ndarray | None:
    """The sorted row indices of ``g``'s members; ``None`` when ``g`` selects everyone."""
    if g is None:
        return None
    if isinstance(g, AttributeEquals):
        column = pop.attributes.get(g.name)
        if column is None or g.value not in column.values:
            return np.empty(0, dtype=np.intp)
        return np.flatnonzero(column.codes == column.values.index(g.value))
    if isinstance(g, CriterionEquals):
        return np.flatnonzero(pop.criterion == g.value)
    ids = g.ids if isinstance(g, ExplicitIdSet) else {g.id}
    unknown = ids - pop._index.keys()
    if unknown and isinstance(g, Singleton):
        raise UnknownIdError(f"unknown id in group: {g.id!r}")
    if unknown:
        raise UnknownIdError(f"unknown ids in group: {sorted(unknown)}")
    return np.sort(np.array([pop._index[ident] for ident in ids], dtype=np.intp))


def _gather(column: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
    """``column``'s entries at ``rows``, as from :func:`group_rows`; all of it for ``None``."""
    return column if rows is None else column[rows]


def group_members(pop: Population, g: GroupSpec | None) -> tuple[Individual, ...]:
    """Members satisfying ``g``, in population order. ``None`` selects everyone."""
    rows = group_rows(pop, g)
    if rows is None:
        return pop.members
    return pop._members(rows)


def cell_counts(
    merit: np.ndarray,
    codes: np.ndarray | None = None,
    n_codes: int = 1,
    cells: np.ndarray | None = None,
    n_cells: int = 1,
) -> np.ndarray:
    """Member counts per (cell, merit class, code), shape ``(n_cells, 2, n_codes)``,
    of the members whose merit labels are ``merit``.

    ``codes`` (all 0 when omitted) and ``cells`` (all 0 when omitted) give one
    entry per member, in ``[0, n_codes)`` and ``[0, n_cells)``. One integer
    ``np.bincount`` does the counting.
    """
    key = merit.astype(np.intp)
    if codes is not None:
        key = key * n_codes + codes
    if cells is not None:
        key = cells.astype(np.intp) * (2 * n_codes) + key
    counts = np.bincount(key, minlength=n_cells * 2 * n_codes)
    return counts.reshape(n_cells, 2, n_codes)


def merit_counts(pop: Population, g: GroupSpec | None = None) -> tuple[int, int]:
    """(number guilty, number innocent) within the group. Empty group gives (0, 0)."""
    n_guilty, n_innocent = cell_counts(_gather(pop.merit, group_rows(pop, g)))[0, :, 0].tolist()
    return n_guilty, n_innocent


# --- CSV ingestion ---------------------------------------------------------

_NO_CRITERION = 255  # MISSING as an unsigned byte, read back through int8

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
        return _decode(self.raw, self.bounds[cell] + 1, self.bounds[cell + 1])


def _decode(raw: bytes, start: int, end: int) -> str:
    return raw[start:end].decode("utf-8", "surrogatepass")


_HEADER_LINE = ",".join(CSV_HEADER).encode() + b"\n"


def _plain_cells(raw: bytes) -> _Cells | None:
    """The cells of the UTF-8 text ``raw``, found by numpy, or ``None`` unless
    ``raw`` is plain: the bare header line, then at least one line, each with
    exactly three commas and no more bytes than ``csv.field_size_limit()``,
    and no quote, CR or NUL anywhere.

    LF is the only line break, and a final LF ends the last line.
    """
    if not raw.startswith(_HEADER_LINE) or any(byte in raw for byte in (b'"', b"\r", b"\0")):
        return None
    data = np.frombuffer(raw, dtype=np.uint8)
    # one more position, the end of the text, ends a last line without LF
    is_separator = np.empty(len(data) + 1, dtype=bool)
    np.equal(data, ord(","), out=is_separator[:-1])
    is_separator[:-1] |= data == ord("\n")
    is_separator[-1] = not raw.endswith(b"\n")
    # 32-bit positions halve the memory of every position array that follows
    bounds = np.flatnonzero(is_separator).astype(np.int32 if len(data) < 2**31 else np.int64)
    del is_separator
    # the header's three commas and LF, then the same four on every line
    if len(bounds) < 8 or len(bounds) % 4:
        return None
    kinds = data[bounds[:-1]]
    if not (kinds[3::4] == ord("\n")).all() or np.count_nonzero(kinds == ord("\n")) != len(kinds) // 4:
        return None
    # csv.reader refuses a longer field; a UTF-8 byte count bounds the characters
    if (bounds[7::4] - bounds[3:-1:4]).max() > csv.field_size_limit() + 1:
        return None
    return _Cells(raw, bounds[3:], range(2, len(bounds) // 4 + 1))


_LINES_CHUNK = 1 << 16  # characters cut into lines at a time


def _lines(text: str) -> Iterator[str]:
    """``text`` cut after every LF, the lines a text file yields.

    Chunks of whole lines are cut with ``str.split``, so no copy of the whole
    text is made and no line is found by a search of its own.
    """
    start = 0
    while start < len(text):
        end = text.find("\n", start + _LINES_CHUNK) + 1 or len(text)
        lines = text[start:end].split("\n")
        last = lines.pop()  # empty when the chunk ends with its LF
        yield from map(operator.add, lines, itertools.repeat("\n"))
        if last:
            yield last
        start = end


def _csv_cells(text: str, errors: list[_RowError]) -> _Cells:
    """The cells of ``text`` as read by :func:`csv.reader`, which handles
    RFC-4180 quoting, CRLF and blank lines. The error that ends the rows early,
    a row with the wrong number of columns or a :class:`csv.Error` such as a
    field longer than ``csv.field_size_limit()``, goes to ``errors`` at the row
    after the last one read.
    """
    cells: list[str] = []
    lines: list[int] = []
    header_seen = False
    reader = csv.reader(_lines(text))
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
    encoded = [cell.encode("utf-8", "surrogatepass") for cell in cells]
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
    labels = np.frombuffer(cells.raw, dtype=np.uint8)[starts] - ord("0")  # wraps below "0"
    parsed = (lengths == 1) & (labels <= 1)
    if optional:
        empty = lengths == 0
        labels[empty] = _NO_CRITERION
        parsed |= empty
    for row in np.flatnonzero(~parsed).tolist():
        try:
            label = _parse_binary(cells.text(column, row), name, cells.lines[row], optional)
        except PopulationParseError as exc:
            errors.append((row, column, exc))
            break
        labels[row] = _NO_CRITERION if label is None else label
    return labels.view(np.int8)


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


def _group_cells(cells: _Cells, column: int) -> tuple[np.ndarray, np.ndarray]:
    """Group the cells of ``column`` by their bytes: the first row of each group
    in first-appearance order, and each row's group, numbered in that order.

    Rows are grouped by key, then every row's words are compared with its
    group's first row's; only if two different cells share a key are the cells
    grouped again, as bytes.
    """
    data = np.frombuffer(cells.raw, dtype=np.uint8)
    starts, ends = cells.column(column)
    lengths = ends - starts
    rounds = list(_field_words(data, starts, ends))
    keys = _mix_keys(lengths, rounds)
    order = np.argsort(keys)
    ordered = keys[order]
    opens = np.empty(len(keys), dtype=bool)
    opens[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=opens[1:])
    group = np.empty(len(keys), dtype=np.intp)
    group[order] = np.cumsum(opens) - 1
    first = np.minimum.reduceat(order, np.flatnonzero(opens))
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


_GRAPHIC_ASCII = np.zeros(256, dtype=bool)  # the bytes of "!" to "~", which str.strip keeps
_GRAPHIC_ASCII[ord("!") : ord("~") + 1] = True


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
    edge = ~(_GRAPHIC_ASCII[data[starts]] & _GRAPHIC_ASCII[data[ends - 1]]) | (starts == ends)
    for row in np.flatnonzero(edge).tolist():
        cell = cells.text(0, row)
        ident = cell.strip()
        starts[row] += len(cell[: len(cell) - len(cell.lstrip())].encode("utf-8", "surrogatepass"))
        ends[row] = starts[row] + len(ident.encode("utf-8", "surrogatepass"))
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
            message = f"duplicate id {_decode(raw, starts[row], ends[row])!r}"
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
        return _decode(self.raw, self.starts[i], self.ends[i])

    def __iter__(self) -> Iterator[str]:
        return map(partial(_decode, self.raw), self.starts.tolist(), self.ends.tolist())


def _file_text(raw: bytes) -> str:
    """The bytes of a file as ``Path.read_text(encoding="utf-8")`` reads them:
    strictly decoded, every CRLF and lone CR read as LF."""
    return raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


def load_population(source: str | bytes | IO[str]) -> Population:
    """Parse the population CSV format (header ``id,J,X,attrs``).

    ``X`` may be empty; ``attrs`` is a semicolon-separated list of
    ``name=value`` pairs and may be empty. Fields may be quoted as in
    RFC 4180; CRLF input, blank lines and one leading UTF-8 byte-order mark
    are tolerated. Raises :class:`PopulationParseError` naming the offending
    line on any malformed row, duplicate id, out-of-range label, or field
    longer than ``csv.field_size_limit()``.

    ``bytes`` are a file's contents and load as the text that
    ``Path.read_text(encoding="utf-8")`` reads from it (see :func:`_file_text`):
    bytes without a CR are that text's encoding already and, once checked to
    be UTF-8, are cut as they are; bytes with a CR are decoded first.

    Two stages: the text's cells are located as byte ranges of its UTF-8
    encoding, by :func:`_plain_cells` or else :func:`_csv_cells`; then whole
    columns are validated and encoded. The error raised is the first
    offending row's, checking each row's column count, id (empty, then
    duplicate), ``J``, ``X`` and ``attrs`` in that order. The member ids are
    decoded only when first asked for.
    """
    if isinstance(source, bytes) and b"\r" not in source:
        if not source.isascii():
            source.decode("utf-8")  # refuses what Path.read_text refuses
        raw, text = source.removeprefix(codecs.BOM_UTF8), None
    else:
        if isinstance(source, bytes):
            source = _file_text(source)
        text = (source if isinstance(source, str) else source.read()).removeprefix("\ufeff")
        raw = text.encode("utf-8", "surrogatepass")
    errors: list[_RowError] = []
    cells = _plain_cells(raw) or _csv_cells(raw.decode("utf-8") if text is None else text, errors)
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
    """Serialize back to the population CSV format (LF line endings).

    ``load_population(dump_population(p))`` reproduces ``p`` exactly; since the
    loader strips ids and attrs texts, a member whose id or joined ``name=value``
    text starts or ends with whitespace raises :class:`ValueError` instead.
    Fields are quoted as needed, and every field of a row whose id or attrs
    holds a carriage return is quoted, since the loader refuses an unquoted one.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    # the minimal quoting quotes "\n", the line terminator, but not a bare "\r"
    quoted = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(CSV_HEADER)
    for ind in pop.members:
        attrs = ";".join(f"{name}={value}" for name, value in ind.attributes.items())
        if ind.id != ind.id.strip() or attrs != attrs.strip():
            raise ValueError(f"member {ind.id!r}: the loader would strip its id or attrs {attrs!r}")
        criterion = "" if ind.criterion is None else str(ind.criterion)
        row = [ind.id, str(ind.merit), criterion, attrs]
        (quoted if "\r" in ind.id + attrs else writer).writerow(row)
    return out.getvalue()
