"""JSON values and JSON text for reports.

Every exact rational is rendered by :func:`rational_json` as an object carrying
both the ``"a/b"`` ratio string and a float approximation, e.g. ``{"ratio":
"3/4", "approx": 0.75}``, so downstream tools can choose exactness or
convenience. All dictionaries are built in a deterministic order; serializing
the same report twice produces identical text. :func:`json_text` owns JSON
text as ``population.csv_text`` owns CSV text: it writes every report
document, byte for byte as ``json.dumps(doc, indent=2)`` would, and
:func:`write_json` hands that text to a ``write`` function in pieces.
``witness``'s listing of violating bipartitions is written here too, at the
one depth it sits at: a :class:`Listing` holds the one enumerator's search
from ``theorem``, and each violation is written once, as one f-string of two
half-table entries per side and constant prefixes and tails, with no side
joined, a chunk at a time, so that the CLI can write the listing out in
buffers of about ``WRITE_BUFFER`` characters without ever holding it whole.
``fairness`` and ``theorem`` types appear only in annotations, so ``roc`` can
import this module at its top.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii
from itertools import islice
from typing import TYPE_CHECKING, Any, Callable

from .population import GUILTY, INNOCENT, AttributeEquals, CriterionEquals
from .procedure import (
    ConditionalRates,
    DeterministicProcedure,
    GlobalRates,
    PerGroupRates,
    Procedure,
)

if TYPE_CHECKING:
    from .fairness import ContingencyTable, FairnessVerdict, JusticeMetrics
    from .theorem import WitnessReport, _Violations


def json_text(doc: Any) -> str:
    """A report document as ``json.dumps(doc, indent=2)`` writes it, byte for byte.

    A report document is built of dicts with string keys, lists, strings, ints,
    finite floats, booleans and ``None``, each of exactly that type; anything
    else, a subclass (an ``IntEnum``, an ``OrderedDict``) included, raises
    ``TypeError``, and a document that contains itself (or nests past the
    recursion limit) raises ``ValueError``. With an ``indent``, ``json.dumps``
    runs CPython's pure-Python encoder; this writer walks the document once,
    appends every piece of its text to one list and joins that list once (a
    listing's a buffer at a time, by :func:`write_json`), so no container's
    text is copied into its parent's. It dispatches on each
    value's exact type. The one other type it writes is :class:`Listing`, by
    exact type and only at the listing's depth, as the list that ``json.dumps``
    writes from its violations as dicts.
    """
    texts: list[str] = []
    write_json(doc, texts.append)
    return "".join(texts)


# Characters of listing text that :func:`write_json` gathers before it writes them.
WRITE_BUFFER = 1 << 16


def write_json(doc: Any, write: Callable[[str], Any]) -> None:
    """Hand the text of :func:`json_text` to ``write``: once, or, while a
    :class:`Listing` is written, each time about ``WRITE_BUFFER`` characters of
    its items are pending, at the end of an item. Nothing is written before the
    walk reaches the listing, so a document that :func:`json_text` refuses
    writes nothing unless its fault lies past a listing."""
    parts: list[str] = []

    def flush() -> None:
        text = "".join(parts)
        parts.clear()  # before the write, which may copy the text again
        write(text)

    try:
        _append_text(doc, "\n", parts, flush)
    except RecursionError:
        raise ValueError("cannot write a document that contains itself or nests too deeply") from None
    flush()


# The writer of each scalar type, by exact type: each is a C call.
_SCALARS: dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: float.__repr__,
    bool: ("false", "true").__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _append_text(value: Any, indent: str, parts: list[str], flush: Callable[[], None]) -> None:
    """Append the pieces of ``value``'s JSON text, whose lines start with
    ``indent``, to ``parts``; only a :class:`Listing` calls ``flush``. Each item
    is appended after its separator, the first item's without the comma, which
    is known before the item is written, so a flush inside it sends no
    separator that would still change."""
    kind = type(value)
    if kind is list or kind is dict:
        if not value:
            parts.append("[]" if kind is list else "{}")
            return
        inner = indent + "  "
        separator = "," + inner
        append, scalar = parts.append, _SCALARS.get
        # a loop per kind: pairing each item with its prefix cost an audit report a third more
        if kind is list:
            parts.append("[")
            lead = inner
            for item in value:
                append(lead)
                lead = separator
                if write := scalar(type(item)):
                    append(write(item))
                else:
                    _append_text(item, inner, parts, flush)
            parts.append(indent + "]")
        else:
            parts.append("{")
            lead = inner
            for key, item in value.items():
                append(f"{lead}{encode_basestring_ascii(key)}: ")
                lead = separator
                if write := scalar(type(item)):
                    append(write(item))
                else:
                    _append_text(item, inner, parts, flush)
            parts.append(indent + "}")
        return
    if kind is Listing and indent == _LISTING:
        _append_listing(value.search, parts, flush)
        return
    write = _SCALARS.get(kind)
    if write is None:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")
    parts.append(write(value))


def rational_json(value: Fraction | None) -> dict[str, Any] | None:
    if value is None:
        return None
    return {
        "ratio": f"{value.numerator}/{value.denominator}",
        "approx": float(value),
    }


def group_spec_json(g: AttributeEquals | CriterionEquals) -> dict[str, Any]:
    """A report's group: an attribute value (a verdict side) or a criterion side (witness)."""
    if isinstance(g, AttributeEquals):
        return {"kind": "attribute", "name": g.name, "value": g.value}
    if isinstance(g, CriterionEquals):
        return {"kind": "criterion", "value": g.value}
    raise TypeError(f"no report shape for group {g!r}")


def procedure_json(proc: Procedure) -> dict[str, Any]:
    if isinstance(proc, DeterministicProcedure):
        return {"type": "deterministic"}
    rates = proc.rates
    if isinstance(rates, GlobalRates):
        return {
            "type": "randomized",
            "rates": {"global": [rational_json(rates.h), rational_json(rates.k)]},
        }
    assert isinstance(rates, PerGroupRates)
    return {
        "type": "randomized",
        "attribute": rates.attribute,
        "rates": {
            value: [rational_json(rate) for rate in pair] for value, pair in sorted(rates.table.items())
        },
    }


def rates_json(rates: ConditionalRates) -> dict[str, Any]:
    return {
        "h": rational_json(rates.h),
        "k": rational_json(rates.k),
        "support": {"guilty": rates.support[0], "innocent": rates.support[1]},
    }


def verdict_json(verdict: FairnessVerdict) -> dict[str, Any]:
    return {
        "group_a": group_spec_json(verdict.group_a),
        "group_b": group_spec_json(verdict.group_b),
        "tolerance": rational_json(verdict.tolerance),
        "fair": verdict.fair,
        "classes": [
            {
                "merit": c.merit,
                "rate_a": rational_json(c.rate_a),
                "rate_b": rational_json(c.rate_b),
                "difference": rational_json(c.difference),
                "comparable": c.comparable,
                "violation": c.violation,
            }
            for c in verdict.comparisons
        ],
    }


def contingency_json(table: ContingencyTable) -> dict[str, Any]:
    def cell_json(cell) -> dict[str, Any]:
        return {
            "count": cell.count,
            "expected_convictions": rational_json(cell.expected_convictions),
            "expected_acquittals": rational_json(cell.expected_acquittals),
        }

    return {
        "attribute": table.attribute,
        "groups": {
            value: {str(merit): cell_json(cell) for merit, cell in sorted(by_merit.items())}
            for value, by_merit in table.cells.items()
        },
        "totals": {str(merit): cell_json(cell) for merit, cell in sorted(table.totals().items())},
    }


def justice_json(metrics: JusticeMetrics) -> dict[str, Any]:
    def one(gj) -> dict[str, Any]:
        return {
            "expected_convictions": rational_json(gj.convictions),
            "mistaken_convictions": rational_json(gj.mistaken_convictions),
            "guilty_share": rational_json(gj.guilty_share),
        }

    return {
        "per_group": {value: one(gj) for value, gj in metrics.per_group.items()},
        "overall": one(metrics.overall),
    }


def witness_json(report: WitnessReport) -> dict[str, Any]:
    return {
        "group_x1": group_spec_json(report.group_x1),
        "group_x0": group_spec_json(report.group_x0),
        "violated_merit_classes": list(report.violated_merit_classes),
        "class_probabilities": {
            str(j): {"x0": rational_json(p0), "x1": rational_json(p1)}
            for j, (p0, p1) in sorted(report.class_probabilities.items())
        },
        "procedure_class": report.procedure_class.value if report.procedure_class else None,
        "perfect": report.perfect,
        "unwitnessable": report.unwitnessable,
    }


# --- witness listing ---------------------------------------------------------
# The listing is the value at depth 2 of the witness document (exhaustive,
# violations), and its items sit one level deeper. As ``json.dumps(doc,
# indent=2)`` indents them, an item's lines start with ``_ITEM``, its keys one
# level deeper with ``_KEY`` and the items of its lists one more level deeper.
# The constant text of an item is held in two prefixes and one of three tails,
# so that writing one, once per violation, is a single f-string of seven parts.
_LISTING = "\n" + "  " * 2
_ITEM = _LISTING + "  "
_KEY = _ITEM + "  "
_LISTED_ID = "," + _KEY + "  "
_SUBSET = "," + _ITEM + "{" + _KEY + '"subset": ['
_COMPLEMENT = _KEY + "]," + _KEY + '"complement": ['
# an item's text after its complement's body, by the class bits of its violated
# merit classes (bit ``1 << j`` for class j): the ``violated_merit_classes`` list
# at its depth, and the item's end
_TAILS = ("",) + tuple(
    _KEY + "]," + _KEY + '"violated_merit_classes": ' + json_text(list(classes)).replace("\n", _KEY) + _ITEM + "}"
    for classes in ((GUILTY,), (INNOCENT,), (GUILTY, INNOCENT))
)


def listed_id(ident: str) -> str:
    """A member's piece of a listed side: its id as a JSON list item, comma first."""
    return _LISTED_ID + encode_basestring_ascii(ident)


class Listing:
    """``witness``'s listing of violating bipartitions: ``search`` is the
    ``theorem._Violations`` of its one enumerator. :func:`json_text` writes it,
    by exact type and only at the listing's depth, as the list ``json.dumps``
    writes from the violations as objects ``{"subset": [...], "complement":
    [...], "violated_merit_classes": [...]}``, each side its ids in sorted order.
    Each write or count runs the search afresh, so a document holding it reads
    the same every time."""

    __slots__ = ("search",)

    def __init__(self, search: _Violations):
        self.search = search

    def count(self) -> int:
        """The number of violations, read from each chunk's length, with no side built."""
        return sum(len(sides) for sides, _ in self.search.chunks())


def _append_listing(search: _Violations, parts: list[str], flush: Callable[[], None]) -> None:
    """Append the listing of ``search`` to ``parts`` a chunk at a time, each
    item one f-string from four half-table entries, and ``flush`` after every
    ``WRITE_BUFFER`` characters of items or so."""
    pieces = [listed_id(ident) for ident in search.ids]
    low, high = search.tables(pieces)
    # A side's list body has no comma before its first id: a side's low entry
    # is written without it, and so is its high entry when the side has no low
    # bits, at ``span`` past its index.
    span = len(high)
    low = [entry[1:] for entry in low]
    high += [entry[1:] for entry in high]
    # every item lists every member once, so all items are about this long
    per_flush = max(1, WRITE_BUFFER // (len(_SUBSET + _COMPLEMENT + _TAILS[3]) + sum(map(len, pieces))))
    parts.append("[")
    listed, room = 0, per_flush
    for sides, bits in search.chunks():
        subset_low, subset_high, other_low, other_high = search.entries(sides)
        subset_high += span * (subset_low == 0)
        other_high += span * (other_low == 0)
        rows = zip(subset_low.tolist(), subset_high.tolist(), other_low.tolist(), other_high.tolist(), bits.tolist())
        while True:  # one batch of at most ``room`` items, then a flush when it fills the buffer
            first = len(parts)
            parts += [
                f"{_SUBSET}{low[a]}{high[b]}{_COMPLEMENT}{low[c]}{high[d]}{_TAILS[k]}"
                for a, b, c, d, k in islice(rows, room)
            ]
            if not listed:  # the listing's first item has no comma
                parts[first] = parts[first][1:]
            listed += len(parts) - first
            room -= len(parts) - first
            if room:
                break
            flush()
            room = per_flush
    if listed:
        parts.append(_LISTING + "]")
    else:
        parts[-1] = "[]"
