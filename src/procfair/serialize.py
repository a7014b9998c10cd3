"""JSON values and JSON text for reports.

Every exact rational is rendered by :func:`rational_json` as an object carrying
both the ``"a/b"`` ratio string and a float approximation, e.g. ``{"ratio":
"3/4", "approx": 0.75}``, so downstream tools can choose exactness or
convenience. All dictionaries are built in a deterministic order; serializing
the same report twice produces identical text. :func:`json_text` owns JSON
text as ``population.csv_text`` owns CSV text: it writes every report
document, byte for byte as ``json.dumps(doc, indent=2)`` would. ``witness``'s
listing of violating bipartitions is written here too, at the one depth it
sits at: :func:`listed_id` is each member's piece of a side, which the one
enumerator in ``theorem`` joins, and each violation stays data, a
:class:`ListingItem` of its two sides and its classes, until :func:`json_text`
writes it as a list item. ``fairness`` and ``theorem`` types appear only in
annotations, so ``roc`` can import this module at its top.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii
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
    from .theorem import WitnessReport


def json_text(doc: Any) -> str:
    """A report document as ``json.dumps(doc, indent=2)`` writes it, byte for byte.

    A report document is built of dicts with string keys, lists, strings, ints,
    finite floats, booleans and ``None``, each of exactly that type; anything
    else, a subclass (an ``IntEnum``, an ``OrderedDict``) included, raises
    ``TypeError``, and a document that contains itself (or nests past the
    recursion limit) raises ``ValueError``. With an ``indent``, ``json.dumps``
    runs CPython's pure-Python encoder; this writer walks the document once,
    appends every piece of its text to one list and joins that list once, so
    no container's text is copied into its parent's. It dispatches on each
    value's exact type. The one other type it writes is :class:`ListingItem`,
    by exact type and only as an item of a list at the listing's depth, as the
    object that ``json.dumps`` writes from the same item as a dict.
    """
    return _joined(doc, "\n")


# The writer of each scalar type, by exact type: each is a C call.
_SCALARS: dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: float.__repr__,
    bool: ("false", "true").__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _joined(value: Any, indent: str) -> str:
    """``value`` as JSON text whose lines start with ``indent`` (LF first),
    written by one :func:`_append_text` walk and joined once."""
    parts: list[str] = []
    try:
        _append_text(value, indent, parts)
    except RecursionError:
        raise ValueError("cannot write a document that contains itself or nests too deeply") from None
    return "".join(parts)


def _append_text(value: Any, indent: str, parts: list[str]) -> None:
    """Append the pieces of ``value``'s JSON text, whose lines start with
    ``indent``, to ``parts``. Each item is appended after its separator, the
    first item's without the comma."""
    kind = type(value)
    if kind is list or kind is dict:
        if not value:
            parts.append("[]" if kind is list else "{}")
            return
        inner = indent + "  "
        separator = "," + inner
        append, scalar = parts.append, _SCALARS.get
        first = len(parts)
        # a loop per kind: pairing each item with its prefix cost an audit report a third more
        if kind is list:
            parts.append("[")
            for item in value:
                append(separator)
                item_kind = type(item)
                if write := scalar(item_kind):
                    append(write(item))
                elif item_kind is ListingItem and inner == _ITEM:
                    subset, complement, classes = item
                    append(f"{_SUBSET}{subset[1:]}{_COMPLEMENT}{complement[1:]}{_TAILS[classes]}")
                else:
                    _append_text(item, inner, parts)
            parts.append(indent + "]")
        else:
            parts.append("{")
            for key, item in value.items():
                append(f"{separator}{encode_basestring_ascii(key)}: ")
                if write := scalar(type(item)):
                    append(write(item))
                else:
                    _append_text(item, inner, parts)
            parts.append(indent + "}")
        parts[first + 1] = parts[first + 1][1:]  # the first item's separator has no comma
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
# A listing item sits at depth ``_LISTING_DEPTH`` of the witness document
# (exhaustive, violations, item). As ``json.dumps(doc, indent=2)`` indents
# it, its lines start with ``_ITEM``, its keys one level deeper with ``_KEY``
# and the items of its lists one more level deeper. The constant text of an
# item is held in two prefixes and one of three tails, so that writing one,
# once per violation, is a single f-string of five parts.
_LISTING_DEPTH = 3
_ITEM = "\n" + "  " * _LISTING_DEPTH
_KEY = _ITEM + "  "
_LISTED_ID = "," + _KEY + "  "
_SUBSET = "{" + _KEY + '"subset": ['
_COMPLEMENT = _KEY + "]," + _KEY + '"complement": ['
# an item's text after its complement's body, by its violated merit classes: the
# ``violated_merit_classes`` list at its depth, and the item's end
_TAILS = {
    classes: f'{_KEY}],{_KEY}"violated_merit_classes": {_joined(list(classes), _KEY)}{_ITEM}}}'
    for classes in ((GUILTY,), (INNOCENT,), (GUILTY, INNOCENT))
}


def listed_id(ident: str) -> str:
    """A member's piece of a listed side: its id as a JSON list item, comma first."""
    return _LISTED_ID + encode_basestring_ascii(ident)


class ListingItem(tuple):
    """One violating bipartition of ``witness``'s listing, as data:
    ``(subset, complement, classes)``, each side the body of its JSON list
    joined of :func:`listed_id` pieces (never empty, the first piece's comma
    included) and ``classes`` the enumerator's non-empty tuple of violated merit
    classes. :func:`json_text` writes it, by exact type, only as an item of a
    list at the listing's depth, as the object ``{"subset": [...],
    "complement": [...], "violated_merit_classes": [...]}``."""

    __slots__ = ()
