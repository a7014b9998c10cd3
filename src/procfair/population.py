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

:func:`load_population` fills these columns directly, in two stages. A
tokenizer cuts the CSV text into four lists of cells, one per column: plain
text (no quotes, CR or NUL, the bare header first, three commas on every later
line) with ``str.split``, anything else with :func:`csv.reader`. Then each
column is validated and encoded as a whole, raising the error of the first
offending row. ``Population(members)`` builds the columns from
:class:`Individual` objects on first use, and the member view (``members``,
``by_id``, iteration) of a loaded population is built only when something
asks for it. Every exact aggregate downstream is a count per
(cell, merit class, code) from :func:`cell_counts`. Everything here is
read-only, so every operation is a pure function and safe under concurrent
use.
"""

from __future__ import annotations

import csv
import io
import itertools
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, Iterable, Iterator, Mapping, Sequence, Union

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
        self.__dict__.update(members=members, _index=index)

    @classmethod
    def _from_columns(
        cls,
        index: dict[str, int],
        merit: np.ndarray,
        criterion: np.ndarray,
        attributes: dict[str, AttributeColumn],
    ) -> Population:
        """A population over already validated columns; ``index`` maps id to position."""
        pop = cls.__new__(cls)
        pop.__dict__.update(
            _index=index, merit=_frozen(merit), criterion=_frozen(criterion), attributes=attributes
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
        return len(self._index)

    def __iter__(self) -> Iterator[Individual]:
        return iter(self.members)

    def __repr__(self) -> str:
        return f"Population({len(self)} members)"

    @cached_property
    def _ids(self) -> tuple[str, ...]:
        return tuple(self._index)

    def ids(self) -> tuple[str, ...]:
        return self._ids

    @cached_property
    def merit(self) -> np.ndarray:
        return _frozen(np.fromiter((ind.merit for ind in self.members), np.int8, len(self)))

    @cached_property
    def criterion(self) -> np.ndarray:
        labels = (MISSING if ind.criterion is None else ind.criterion for ind in self.members)
        return _frozen(np.fromiter(labels, np.int8, len(self)))

    @cached_property
    def attributes(self) -> Mapping[str, AttributeColumn]:
        return _encode_attributes([ind.attributes for ind in self.members])

    def _member(self, i: int) -> Individual:
        """Member ``i``, built from the columns unless the member view exists."""
        if "members" in self.__dict__:
            return self.members[i]
        attrs = {}
        for name, column in self.attributes.items():
            code = int(column.codes[i])
            if code != MISSING:
                attrs[name] = column.values[code]
        criterion = int(self.criterion[i])
        return Individual(
            self._ids[i], int(self.merit[i]), None if criterion == MISSING else criterion, attrs
        )

    @cached_property
    def members(self) -> tuple[Individual, ...]:
        return tuple(self._member(i) for i in range(len(self)))

    @cached_property
    def by_id(self) -> Mapping[str, Individual]:
        return {ind.id: ind for ind in self.members}

    def attribute_values(self, name: str) -> tuple[str, ...]:
        """Distinct values of an attribute, in first-appearance order."""
        column = self.attributes.get(name)
        return () if column is None else column.values


# --- group specs -----------------------------------------------------------


@dataclass(frozen=True)
class AttributeEquals:
    """Members whose attribute ``name`` equals ``value``."""

    name: str
    value: str

    def matches(self, ind: Individual) -> bool:
        return ind.attributes.get(self.name) == self.value

    def label(self) -> str:
        return f"{self.name}={self.value}"


@dataclass(frozen=True)
class CriterionEquals:
    """Members whose criterion label equals ``value`` (0 or 1)."""

    value: int

    def __post_init__(self):
        if self.value not in (0, 1):
            raise ValueError(f"criterion value must be 0 or 1, got {self.value!r}")

    def matches(self, ind: Individual) -> bool:
        return ind.criterion == self.value

    def label(self) -> str:
        return f"X={self.value}"


@dataclass(frozen=True)
class ExplicitIdSet:
    """Members listed by id; every id must exist in the target population."""

    ids: frozenset[str]

    def __init__(self, ids: Iterable[str]):
        object.__setattr__(self, "ids", frozenset(ids))

    def matches(self, ind: Individual) -> bool:
        return ind.id in self.ids

    def label(self) -> str:
        return "{" + ",".join(sorted(self.ids)) + "}"


@dataclass(frozen=True)
class Singleton:
    """The one-member group containing exactly ``id``."""

    id: str

    def matches(self, ind: Individual) -> bool:
        return ind.id == self.id

    def label(self) -> str:
        return "{" + self.id + "}"


GroupSpec = Union[AttributeEquals, CriterionEquals, ExplicitIdSet, Singleton]


def group_cells(pop: Population, g: GroupSpec | None) -> np.ndarray | None:
    """Cell 0 for members of ``g`` and -1 for the rest, the ``cells`` argument of
    :func:`cell_counts`; ``None`` when ``g`` selects everyone."""
    if g is None:
        return None
    if isinstance(g, AttributeEquals):
        column = pop.attributes.get(g.name)
        if column is None or g.value not in column.values:
            mask = np.zeros(len(pop), dtype=bool)
        else:
            mask = column.codes == column.values.index(g.value)
    elif isinstance(g, CriterionEquals):
        mask = pop.criterion == g.value
    else:
        ids = g.ids if isinstance(g, ExplicitIdSet) else {g.id}
        unknown = ids - pop._index.keys()
        if unknown and isinstance(g, Singleton):
            raise UnknownIdError(f"unknown id in group: {g.id!r}")
        if unknown:
            raise UnknownIdError(f"unknown ids in group: {sorted(unknown)}")
        mask = np.zeros(len(pop), dtype=bool)
        mask[[pop._index[ident] for ident in ids]] = True
    return mask.view(np.int8) - 1


def group_members(pop: Population, g: GroupSpec | None) -> tuple[Individual, ...]:
    """Members satisfying ``g``, in population order. ``None`` selects everyone."""
    cells = group_cells(pop, g)
    if cells is None:
        return pop.members
    return tuple(pop._member(i) for i in np.flatnonzero(cells == 0).tolist())


def cell_counts(
    pop: Population,
    codes: np.ndarray | None = None,
    n_codes: int = 1,
    cells: np.ndarray | None = None,
    n_cells: int = 1,
) -> np.ndarray:
    """Member counts per (cell, merit class, code), shape ``(n_cells, 2, n_codes)``.

    ``codes`` (all 0 when omitted) must lie in ``[0, n_codes)`` for every
    counted member; members whose entry in ``cells`` is negative are not
    counted, and ``cells=None`` puts everyone in cell 0. One ``np.bincount``
    does the counting.
    """
    key = pop.merit.astype(np.intp)
    if codes is not None:
        key = key * n_codes + codes
    if cells is not None:
        counted = cells >= 0
        key = cells[counted].astype(np.intp) * (2 * n_codes) + key[counted]
    counts = np.bincount(key, minlength=n_cells * 2 * n_codes)
    return counts.reshape(n_cells, 2, n_codes)


def merit_counts(pop: Population, g: GroupSpec | None = None) -> tuple[int, int]:
    """(number guilty, number innocent) within the group. Empty group gives (0, 0)."""
    n_guilty, n_innocent = cell_counts(pop, cells=group_cells(pop, g))[0, :, 0].tolist()
    return n_guilty, n_innocent


# --- CSV ingestion ---------------------------------------------------------

_BINARY = {"0": 0, "1": 1}
_NO_CRITERION = 255  # MISSING as an unsigned byte, read back through int8


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


def _parse_attrs(text: str) -> dict[str, str]:
    attrs: dict[str, str] = {}
    text = text.strip()
    if not text:
        return attrs
    for pair in text.split(";"):
        name, sep, value = pair.partition("=")
        if not sep or not name or not value:
            raise PopulationParseError(f"bad attribute pair {pair!r}")
        if name in attrs:
            raise PopulationParseError(f"duplicate attribute {name!r}")
        attrs[name] = value
    return attrs


_HEADER_LINE = ",".join(CSV_HEADER) + "\n"
_CRITERION = {"0": 0, "1": 1, "": _NO_CRITERION}


def _one_row_per_line(text: str) -> bool:
    """Whether every line after the header line of ``text`` holds exactly three
    commas and no more characters than ``csv.field_size_limit()``.

    LF is the only line break, and a final LF ends the last line.
    """
    data = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    body = data[len(_HEADER_LINE) : len(data) - text.endswith("\n")]
    newlines = np.flatnonzero(body == ord("\n"))
    commas = np.flatnonzero(body == ord(","))
    if len(commas) != 3 * (len(newlines) + 1):
        return False
    if not np.array_equal(np.searchsorted(commas, newlines), np.arange(1, len(newlines) + 1) * 3):
        return False
    # csv.reader refuses a longer field; a UTF-8 byte count bounds the characters
    longest = np.diff(newlines, prepend=-1, append=len(body)).max() - 1
    return longest <= csv.field_size_limit()


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


def _tokenize(
    text: str,
) -> tuple[tuple[Sequence[str], ...], Sequence[int], Exception | None]:
    """The data rows of ``text`` as four columns (ids, J, X, attrs) and the line
    number of each row, plus the error that ends the rows early, if any.

    Text without quotes, CR or NUL, whose first line is the plain header and
    whose later lines hold three commas each, is split with ``str``
    operations. Everything else goes through :func:`csv.reader`, which handles
    RFC-4180 quoting, CRLF and blank lines; its rows stop at the first row with
    the wrong number of columns, or at the first :class:`csv.Error`.
    """
    if (
        text.startswith(_HEADER_LINE)
        and '"' not in text
        and "\r" not in text
        and "\0" not in text
        and _one_row_per_line(text)
    ):
        cells = text.replace("\n", ",").split(",")
        # the header's four cells come first; a final LF leaves one empty cell last
        stop = len(cells) - text.endswith("\n")
        columns = tuple(cells[first:stop:4] for first in range(4, 8))
        return columns, range(2, len(columns[0]) + 2), None
    ids: list[str] = []
    js: list[str] = []
    xs: list[str] = []
    attrs: list[str] = []
    lines: list[int] = []
    header_seen = False
    pending = None
    try:
        for line, row in enumerate(csv.reader(_lines(text)), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # blank line
            if not header_seen:
                if tuple(cell.strip() for cell in row) != CSV_HEADER:
                    raise PopulationParseError(
                        f"expected header {','.join(CSV_HEADER)!r}, got {','.join(row)!r}", line
                    )
                header_seen = True
            elif len(row) != 4:
                pending = PopulationParseError(f"expected 4 columns, got {len(row)}", line)
                break
            else:
                ident, j, x, attr_text = row
                ids.append(ident)
                js.append(j)
                xs.append(x)
                attrs.append(attr_text)
                lines.append(line)
    except csv.Error as exc:
        pending = exc
    if not header_seen and pending is None:
        raise PopulationParseError("empty input: missing header", 1)
    return (ids, js, xs, attrs), lines, pending


def _parse_unmapped(
    labels: list[int | None], cells: Sequence[str], column: str, lines: Sequence[int]
) -> tuple[int, PopulationParseError] | None:
    """Fill in, with :func:`_parse_binary`, the labels that the plain lookup
    left ``None`` (cells that need stripping, or bad ones); the row and error
    of the first cell that does not parse."""
    row = -1
    for _ in range(labels.count(None)):
        row = labels.index(None, row + 1)
        try:  # only X may be empty
            label = _parse_binary(cells[row], column, lines[row], optional=column == "X")
        except PopulationParseError as exc:
            return row, exc
        labels[row] = _NO_CRITERION if label is None else label
    return None


def load_population(source: str | IO[str]) -> Population:
    """Parse the population CSV format (header ``id,J,X,attrs``).

    ``X`` may be empty; ``attrs`` is a semicolon-separated list of
    ``name=value`` pairs and may be empty. Fields may be quoted as in
    RFC 4180; CRLF input, blank lines and one leading UTF-8 byte-order mark
    are tolerated. Raises :class:`PopulationParseError` naming the offending
    line on any malformed row, duplicate id, or out-of-range label.

    Two stages: :func:`_tokenize` cuts the text into columns, then whole
    columns are validated and encoded. The error raised is the first
    offending row's, checking each row's column count, id (empty, then
    duplicate), ``J``, ``X`` and ``attrs`` in that order.
    """
    text = source if isinstance(source, str) else source.read()
    if text.startswith("\ufeff"):
        text = text[1:]
    (ids, js, xs, attrs), lines, pending = _tokenize(text)
    n = len(ids)
    # (row, position of the check within the row, error) of each check's first failure
    errors: list[tuple[int, int, Exception]] = []

    # Each distinct attrs string is parsed once, in first-appearance order.
    attr_codes = dict(zip(dict.fromkeys(attrs), range(n)))
    attr_rows = np.fromiter(map(attr_codes.__getitem__, attrs), dtype=np.intp, count=n)
    del attrs  # the largest column, no longer needed
    attr_dicts = []
    for code, attr_text in enumerate(attr_codes):
        try:
            attr_dicts.append(_parse_attrs(attr_text))
        except PopulationParseError as exc:
            row = int(np.flatnonzero(attr_rows == code)[0])
            errors.append((row, 4, PopulationParseError(str(exc), lines[row])))
            break

    merit = list(map(_BINARY.get, js))
    criterion = list(map(_CRITERION.get, xs))
    for check, labels, cells, column in ((2, merit, js, "J"), (3, criterion, xs, "X")):
        error = _parse_unmapped(labels, cells, column, lines)
        if error:
            errors.append((error[0], check, error[1]))
    del js, xs, cells  # the J and X cells, no longer needed

    ids = list(map(str.strip, ids))
    index = dict(zip(ids, range(n)))
    if "" in index:
        row = ids.index("")
        errors.append((row, 0, PopulationParseError("empty id", lines[row])))
    if len(index) < n:
        seen: set[str] = set()
        for row, ident in enumerate(ids):
            if ident in seen:
                errors.append((row, 1, PopulationParseError(f"duplicate id {ident!r}", lines[row])))
                break
            seen.add(ident)

    if errors:
        raise min(errors, key=lambda error: error[:2])[2]
    if pending is not None:
        raise pending
    return Population._from_columns(
        index,
        np.frombuffer(bytes(merit), dtype=np.int8),
        np.frombuffer(bytes(criterion), dtype=np.int8),
        _encode_attributes(attr_dicts, attr_rows),
    )


def dump_population(pop: Population) -> str:
    """Serialize back to the population CSV format (LF line endings).

    ``load_population(dump_population(p))`` reproduces ``p`` exactly.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for ind in pop.members:
        attrs = ";".join(f"{name}={value}" for name, value in ind.attributes.items())
        criterion = "" if ind.criterion is None else str(ind.criterion)
        writer.writerow([ind.id, str(ind.merit), criterion, attrs])
    return out.getvalue()
