"""``load_population`` against a reference loader that reads one row at a time.

The reference is the row-by-row loader the column-at-a-time one replaced:
:func:`csv.reader` over the whole text, every check made per row in order.
Generated texts mix the plain form the loader reads from its bytes with
everything that has to go through :func:`csv.reader` (quoted fields, CRLF and
lone CR line ends, blank lines, a BOM, wrong column counts), and both loaders
must build equal populations or raise the same exception type with the same
message. Each text is given as a ``str``, as a text file, or as the bytes of a
file, and every form means what the text's UTF-8 file means: the reference
reads those bytes through :class:`io.TextIOWrapper` as ``Path.read_text``
does, whose universal newlines turn every CRLF and lone CR into LF.
"""

from __future__ import annotations

import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procfair import population
from procfair.errors import PopulationParseError
from procfair.population import (
    CSV_HEADER,
    Individual,
    Population,
    _plain_cells,
    load_population,
)

# --- the reference loader ---------------------------------------------------------


def _parse_binary(text, column, line, optional=False):
    text = text.strip()
    if not text:
        if optional:
            return None
        raise PopulationParseError(f"empty {column} value", line)
    if text in ("0", "1"):
        return int(text)
    raise PopulationParseError(f"{column} must be 0 or 1, got {text!r}", line)


def _parse_attrs(text, line):
    attrs = {}
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


def reference_load(source):
    text = source if isinstance(source, str) else source.read()
    if text.startswith("\ufeff"):
        text = text[1:]
    members = []
    seen = set()
    header_seen = False
    rows = csv.reader(io.StringIO(text))
    start = 1  # the physical line the next record starts on
    while True:
        try:
            row = next(rows)
        except StopIteration:
            break
        except csv.Error as exc:  # such as a field longer than csv.field_size_limit()
            raise PopulationParseError(str(exc), start) from None
        line, start = start, rows.line_num + 1
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if not header_seen:
            if tuple(cell.strip() for cell in row) != CSV_HEADER:
                raise PopulationParseError(
                    f"expected header {','.join(CSV_HEADER)!r}, got {','.join(row)!r}", line
                )
            header_seen = True
            continue
        if len(row) != 4:
            raise PopulationParseError(f"expected 4 columns, got {len(row)}", line)
        ident, j, x, attrs = row
        ident = ident.strip()
        if not ident:
            raise PopulationParseError("empty id", line)
        if ident in seen:
            raise PopulationParseError(f"duplicate id {ident!r}", line)
        seen.add(ident)
        merit = _parse_binary(j, "J", line)
        criterion = _parse_binary(x, "X", line, optional=True)
        members.append(Individual(ident, merit, criterion, _parse_attrs(attrs, line)))
    if not header_seen:
        raise PopulationParseError("empty input: missing header", 1)
    return Population(members)


FORMS = ("str", "file", "bytes", "binary")


def outcome(load, source):
    """The population ``load`` builds from ``source``, or (error type, message)."""
    try:
        return load(source)
    except PopulationParseError as exc:
        return type(exc), str(exc)


def assert_same(text, form="str"):
    raw = text.encode("utf-8")
    expected = outcome(reference_load, io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    forms = {"str": text, "file": io.StringIO(text), "bytes": raw, "binary": io.BytesIO(raw)}
    got = outcome(load_population, forms[form])
    assert got == expected
    if isinstance(expected, Population):
        assert got.members == expected.members


# --- generated texts ----------------------------------------------------------------

# the first entries of each list are well formed; plain texts draw only from those
IDS = ["a", "b", "c", "d", "é", " a", "b ", "", "  ", "x,y", "n\0ul"]
LABELS = ["0", "1", " 1", "0 ", "2", ""]
ATTRS = [
    "", "sex=M", "sex=F", "sex=M;age=old", "k=v=w", " sex=F ", "sex=M;sex=F", "bad", "=x",
    "sex=", "sex=M;", "town=a,b", "c\rr", "sex = M ; age=old", "sex= ;age=old", "sex=M;sex =F",
]


def quote(cell):
    return '"' + cell.replace('"', '""') + '"'


@st.composite
def rows(draw, plain):
    kinds = ["row"] if plain else ["row"] * 8 + ["short", "long", "blank", "spaces"]
    kind = draw(st.sampled_from(kinds))
    if kind == "blank":
        return ""
    if kind == "spaces":
        return "   "
    ids, labels, attrs = (IDS[:5], LABELS[:2], ATTRS[:5]) if plain else (IDS, LABELS, ATTRS)
    cells = [draw(st.sampled_from(ids)), draw(st.sampled_from(labels)),
             draw(st.sampled_from(labels)), draw(st.sampled_from(attrs))]
    if kind == "short":
        cells = cells[:3]
    elif kind == "long":
        cells.append("extra")
    if plain:
        return ",".join(cells)
    # a comma inside a field needs quotes; other fields are quoted now and then
    return ",".join(quote(c) if "," in c or draw(st.integers(0, 9)) == 0 else c for c in cells)


@st.composite
def texts(draw):
    plain = draw(st.booleans())
    headers = ["id,J,X,attrs"] * 3
    if not plain:
        headers += [" id , J,X,attrs", "id,J,X", ""]
    body = draw(st.lists(rows(plain), max_size=8))
    if draw(st.booleans()):  # distinct ids, so that more texts load
        body = [f"m{i}{row}" for i, row in enumerate(body)]
    eol = "\n" if plain else draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = eol.join([draw(st.sampled_from(headers))] + body)
    if draw(st.booleans()):
        text += eol
    if draw(st.integers(0, 4)) == 0:
        text = "\ufeff" + text
    return text


@settings(max_examples=400, deadline=None)
@given(texts(), st.sampled_from(FORMS))
def test_loader_matches_the_row_by_row_reference(text, form):
    assert_same(text, form)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n\n",
        "id,J,X,attrs",
        "id,J,X,attrs\n",
        "id,J,X,attrs\n\n",
        "id,J,X,attrs\na,1,0,sex=M",
        "id,J,X,attrs\na,1,0,sex=M\n\n",
        "\nid,J,X,attrs\na,1,0,\n",
        # the first offending row wins, whichever column it fails in
        "id,J,X,attrs\na,1,0,bad\nb,2,0,\n",
        "id,J,X,attrs\na,1,0,\nb,1,0,bad\nc,1,2,\n",
        "id,J,X,attrs\na,1,0,\na,1,2,bad\n",
        "id,J,X,attrs\n,2,2,bad\n",
        "id,J,X,attrs\na,1,0,bad\nb,1\n",
        "id,J,X,attrs\na,1,0,\nb,1\nb,1,0,\n",
        "id,J,X,attrs\na,1,0,\nb,1,0,x\ry\n",
        "id,J,X,attrs\na,1,0,x\ry\nb,1\n",
        "id,J,X,attrs\na,2,0,\nb,1,0,x\ry\n",
        # three commas a line on average, but not on every line
        "id,J,X,attrs\na,1,0\nb,1,0,,\n",
        # an attrs string's error names the line where it first appears
        "id,J,X,attrs\na,1,0,sex=M\nb,1,0,sex=M\nc,1,0,bad\nd,1,0,bad\n",
        # spaced labels fall back to the strict parser and load
        "id,J,X,attrs\na, 1,0 ,sex=M\nb,0, ,\n",
        # a lone CR ends a line and a quoted CRLF reads as LF
        'id,J,X,attrs\na,1,0,"sex=M\r\nx"\rb,0,1,\n',
    ],
)
def test_loader_edge_cases_match_the_reference(text):
    for form in FORMS:
        assert_same(text, form)


def test_field_size_limit_is_kept():
    """A field longer than csv's limit is refused exactly as csv.reader refuses it."""
    limit = csv.field_size_limit()
    try:
        csv.field_size_limit(8)
        assert_same("id,J,X,attrs\na,1,0,sex=M\nb,1,0,sex=Female\n")
        assert_same("id,J,X,attrs\na,1,0,sex=M\nb,1,0,sex=M\n")
        with pytest.raises(PopulationParseError, match=r"^line 3: field larger than field limit \(8\)$"):
            load_population("id,J,X,attrs\na,1,0,sex=M\nb,1,0,sex=Female\n")
    finally:
        csv.field_size_limit(limit)


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_errors_name_the_line_a_record_starts_on(eol):
    """A quoted line break moves the next record one line down, for a bad
    cell and for a field over csv's limit alike."""
    head = ["id,J,X,attrs", 'a,1,0,"s=x', 'y"']
    text = eol.join(head + ["b,2,0,", ""])
    assert_same(text)
    with pytest.raises(PopulationParseError, match=r"^line 4: J must be 0 or 1"):
        load_population(text)
    limit = csv.field_size_limit()
    try:
        csv.field_size_limit(8)
        text = eol.join(head + ["b,1,0,sex=Female", ""])
        assert_same(text)
        with pytest.raises(PopulationParseError, match=r"^line 4: field larger than field limit \(8\)$"):
            load_population(text)
    finally:
        csv.field_size_limit(limit)


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
@pytest.mark.parametrize("final_eol", [True, False])
@pytest.mark.parametrize("bad_row", [None, 5000])
def test_text_longer_than_a_chunk_matches_the_reference(eol, final_eol, bad_row):
    """csv.reader's text is decoded a chunk at a time; quoted line breaks span the cuts."""
    body = [
        f'm{i},{i % 2},{i // 2 % 2},"sex={"MF"[i % 2]};town=t{i % 7}' + ("\nx" if i % 9 else "") + '"'
        for i in range(8000)
    ]
    if bad_row is not None:
        body[bad_row] = f"m{bad_row},2,0,"
    text = eol.join(["id,J,X,attrs"] + body) + (eol if final_eol else "")
    assert len(text.encode()) > 3 * io.DEFAULT_BUFFER_SIZE
    assert_same(text)
    assert_same(text, "bytes")


@pytest.mark.parametrize("shift", range(-4, 2))
def test_a_character_across_a_decoder_chunk_matches_the_reference(shift):
    """A quoted id ending in a character of two, three or four UTF-8 bytes,
    which lie before, across and after the end of the first chunk csv.reader's
    text is decoded from."""
    head = 'id,J,X,attrs\n"'
    for char in "é…😀":
        text = head + "x" * (io.DEFAULT_BUFFER_SIZE + shift - len(head)) + char + '",0,1,sex=M\nb,1,,sex=F\n'
        assert len(text.encode()) > io.DEFAULT_BUFFER_SIZE
        assert load_population(text).ids()[0].endswith(char)
        for form in FORMS:
            assert_same(text, form)


# --- plain texts, read from their bytes ---------------------------------------------

# Ids of 1 to 20 UTF-8 bytes: the prefixes make ids that share their first 8 or
# 16 bytes, and the other characters put multi-byte and whitespace bytes at the
# edges, where str.strip may remove them.
ID_PREFIXES = ["", "", "abcdefgh", "abcdefgh12345678"]  # no prefix half the time
ID_CHARS = "xy9é… \t"
plain_ids = st.builds(
    str.__add__, st.sampled_from(ID_PREFIXES), st.text(ID_CHARS, max_size=4)
).filter(lambda ident: 1 <= len(ident.encode()) <= 20)
plain_attrs = st.lists(
    st.tuples(st.sampled_from(["a", "sex", "region_of_residence"]), st.text("vwé", min_size=1, max_size=20)),
    max_size=3,
    unique_by=lambda pair: pair[0],
).map(lambda pairs: ";".join(f"{name}={value}" for name, value in pairs))


@st.composite
def plain_texts(draw):
    ids = draw(st.lists(plain_ids, min_size=1, max_size=12))
    if len(ids) > 1 and draw(st.booleans()):  # repeat an id at a later row
        earlier = draw(st.integers(0, len(ids) - 2))
        ids[draw(st.integers(earlier + 1, len(ids) - 1))] = ids[earlier]
    pool = draw(st.lists(plain_attrs, min_size=1, max_size=4))  # so attrs strings repeat
    rows = [
        ",".join([ident, draw(st.sampled_from("01")), draw(st.sampled_from(["0", "1", ""])),
                  draw(st.sampled_from(pool))])
        for ident in ids
    ]
    return "\n".join(["id,J,X,attrs"] + rows) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=300, deadline=None)
@given(plain_texts())
def test_byte_path_matches_the_reference(text):
    assert _plain_cells(text.encode()) is not None
    assert_same(text)
    assert_same(text, "bytes")


@pytest.mark.parametrize(
    "text",
    [
        "id,J,X,attrs\nabcdefgh1,1,0,sex=M\nabcdefgh2,0,1,region=north;sex=F\n a,1,,\né…,0,0,sex=M\n"
        "abcdefgh,1,1,sex=F;region=north\nb,0,0,\n",
        "id,J,X,attrs\nabcdefgh1,1,0,sex=M\nabcdefgh2,0,1,region=north;sex=F\n a,1,,\n"
        "abcdefgh,1,1,sex=F\nabcdefgh2,0,0,sex=M\n",
        'id,J,X,attrs\r\n"a,b",1,0,sex=M\r\nb,0,1,"sex=F"\r\n',
        # NUL bytes pad a cell's last word, so only the lengths tell these apart
        "id,J,X,attrs\na,1,0,sex=M\nb,0,1,sex=M\0\nc\0,1,1,\nc,0,0,sex=M\n",
    ],
)
def test_equal_keys_are_told_apart_by_their_bytes(monkeypatch, text):
    """With every id and attrs string given the same key, the byte comparison alone decides."""
    monkeypatch.setattr(population, "_mix_keys", lambda lengths, rounds: np.zeros(len(lengths), np.uint64))
    assert_same(text)


# --- attrs grouped through the table of a prefix's distinct keys -------------------

PREFIX = population._PREFIX_ROWS


def _long_text(attrs):
    """A plain text of rows past the prefix, with ``attrs(i)`` at row ``i``."""
    rows = (f"m{i},{i % 2},{i // 2 % 2},{attrs(i)}" for i in range(PREFIX + 1000))
    return "\n".join(["id,J,X,attrs", *rows]) + "\n"


def _usual(i):
    return f"sex={'MF'[i % 2]};town=t{i % 7}"


def _table_uses(monkeypatch):
    """Whether each later _table_groups call grouped its keys through the table."""
    uses = []
    table_groups = population._table_groups

    def recorded(keys):
        grouped = table_groups(keys)
        uses.append(grouped is not None)
        return grouped

    monkeypatch.setattr(population, "_table_groups", recorded)
    return uses


@pytest.mark.parametrize(
    "attrs, through_table",
    [
        (_usual, True),
        (lambda i: "sex=X" if i == PREFIX - 1 else _usual(i), True),  # the prefix's last row
        (lambda i: "sex=X" if i == PREFIX else _usual(i), False),  # the first row past it
        (lambda i: "sex=X" if i == PREFIX + 500 else _usual(i), False),
        (lambda i: "" if i % 5 == 0 else _usual(i), True),  # empty cells in the prefix and after it
        (lambda i: "" if i % 5 == 0 and i > PREFIX else _usual(i), False),  # empty cells after it only
    ],
)
def test_attrs_strings_past_the_prefix_match_the_reference(monkeypatch, attrs, through_table):
    """A key the table lacks sends the rows to the sort, with the same result."""
    uses = _table_uses(monkeypatch)
    assert_same(_long_text(attrs))
    assert uses == [through_table]


def test_prefix_keys_that_share_a_slot_are_grouped_by_sorting(monkeypatch):
    """With only the low 16 bits of each key kept, every key falls in slot 0 of the table."""
    mix_keys = population._mix_keys
    low_keys = lambda lengths, rounds: mix_keys(lengths, rounds) & np.uint64(0xFFFF)  # noqa: E731
    monkeypatch.setattr(population, "_mix_keys", low_keys)
    uses = _table_uses(monkeypatch)
    assert_same(_long_text(_usual))
    assert_same(_long_text(lambda i: "" if i % 5 == 0 else _usual(i)), "bytes")
    assert uses == [False, False]


def test_the_table_holds_the_prefixs_keys_and_only_those():
    high = np.uint64(1 << 60)
    keys = np.array([high, 0, high, 0], dtype=np.uint64)  # 0 is the key of an empty cell
    group, first = population._table_groups(keys)
    assert group.tolist() == [1, 0, 1, 0] and first.tolist() == [1, 0]
    prefix = np.full(PREFIX, high, dtype=np.uint64)
    for later in (0, (1 << 60) + 1, (1 << 60) - 1, ~(1 << 60)):  # the key's own slot, and empty ones
        assert population._table_groups(np.append(prefix, np.uint64(later % 2**64))) is None
    assert population._table_groups(np.array([1, 2], dtype=np.uint64)) is None  # a shared slot
    group, first = population._table_groups(np.empty(0, dtype=np.uint64))
    assert group.size == first.size == 0


def _first_character(forms):
    """The character of the first of ``forms`` that is a UTF-8 character, or ``None``."""
    for form in forms:
        try:
            return form.decode()
        except UnicodeDecodeError:
            pass
    return None


def test_each_byte_at_an_ids_edge_is_stripped_as_the_reference_strips_it():
    """Every byte value that can begin or end a UTF-8 character, first or last in
    an id, and every whitespace character at either edge."""
    tails = [(), (0x80,), (0xA0, 0x80), (0x80, 0x80), (0x90, 0x80, 0x80), (0x80, 0x80, 0x80)]
    ids = []
    for byte in range(256):
        leading = _first_character(bytes([byte, *tail]) for tail in tails)
        trailing = _first_character([bytes([byte]), bytes([0xC2, byte])])
        ids += [] if leading is None else [leading + "x", leading]
        ids += [] if trailing is None else ["x" + trailing]
    # ASCII and the lead bytes 0xC2-0xF4 begin a character; ASCII and 0x80-0xBF end one
    assert len(ids) == 2 * (128 + 51) + 192
    spaces = [char for char in map(chr, range(0x3001)) if char.isspace()]  # every character str.strip removes
    ids += [edge for char in spaces for edge in (char + "x", "x" + char)]
    for ident in ids:
        # a second row "x" is a duplicate exactly when the first id strips to it
        text = f"id,J,X,attrs\n{ident},1,0,sex=M\nx,0,1,\n"
        assert_same(text)
        assert_same(text, "bytes")


# --- which inputs reach csv.reader --------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "id,J,X,attrs\na,1,0\nb,1,0,,\n",
        "id,J,X,attrs\na,1,0,,\nb,1,0",
        # a blank line and two commas: as many separators as two plain lines
        "id,J,X,attrs\n\na,1,0\n",
    ],
)
def test_lines_without_three_commas_each_go_to_csv_reader(text):
    assert _plain_cells(text.encode()) is None
    assert_same(text)


def test_plain_text_loads_without_csv_reader(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("csv.reader called for plain text")

    monkeypatch.setattr(csv, "reader", refuse)
    text = "id,J,X,attrs\na,1,0,sex=M\nb,0,,town=x;sex=F\n"
    pop = load_population(text)
    assert pop.ids() == ("a", "b")
    assert pop.attribute_values("sex") == ("M", "F")
    # a str reads as its file, so CRLF line ends are LF before the text is cut
    assert load_population(text.replace("\n", "\r\n")) == pop


def test_quoted_text_goes_through_csv_reader(monkeypatch):
    calls = []
    reader = csv.reader

    def counting(*args, **kwargs):
        calls.append(args)
        return reader(*args, **kwargs)

    plain = "id,J,X,attrs\na,1,0,sex=M\nb,0,,town=x;sex=F\n"
    monkeypatch.setattr(csv, "reader", counting)
    quoted = plain.replace("town=x;sex=F", '"town=x;sex=F"')
    assert load_population(plain) == load_population(quoted)
    assert len(calls) == 1


def test_file_bytes_load_as_the_text_a_file_reads_as():
    """Bytes are read as ``Path.read_text`` reads them, not cut as they stand:
    csv.reader would refuse the CR of the first row's quoted CRLF. A ``str``
    and a text file load as their bytes do."""
    text = 'id,J,X,attrs\na,1,0,"sex=M\r\nx"\rb,0,1,\n'
    pop = load_population(text.encode())
    assert pop.ids() == ("a", "b")
    assert pop.attribute_values("sex") == ("M\nx",)
    assert load_population(text) == load_population(io.StringIO(text)) == pop
    assert load_population("\ufeffid,J,X,attrs\né,1,0,\n".encode()).ids() == ("é",)


def test_text_without_a_utf8_form_is_refused_as_encoding_refuses_it():
    """A lone surrogate has no UTF-8 file, so neither a ``str`` nor a text file holding one loads."""
    text = "id,J,X,attrs\na\ud800,1,0,\n"
    with pytest.raises(UnicodeEncodeError) as expected:
        text.encode()
    for source in (text, io.StringIO(text)):
        with pytest.raises(UnicodeEncodeError) as got:
            load_population(source)
        assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("raw", [b"id,J,X,attrs\na\xff,1,0,\n", b"id,J,X,attrs\r\n\xe9,1,0,\r\n"])
def test_file_bytes_that_are_not_utf8_fail_as_read_text_fails(raw):
    with pytest.raises(UnicodeDecodeError) as expected:
        io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read()
    with pytest.raises(UnicodeDecodeError) as got:
        load_population(raw)
    assert str(got.value) == str(expected.value)
