"""JSON values and CSV text for reports.

Every exact rational is rendered by :func:`rational_json` as an object carrying
both the ``"a/b"`` ratio string and a float approximation, e.g. ``{"ratio":
"3/4", "approx": 0.75}``, so downstream tools can choose exactness or
convenience. All dictionaries are built in a deterministic order; serializing
the same report twice produces identical text. :func:`json_text` owns JSON
text as :func:`csv_text` owns CSV text: the one writes every report document,
byte for byte as ``json.dumps(doc, indent=2)`` would, and the other every CSV
report, the CLI's and ``roc-export``'s. ``fairness`` and ``theorem`` types
appear only in annotations, so ``roc`` can import this module at its top.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from .population import AttributeEquals, CriterionEquals
from .procedure import (
    ConditionalRates,
    DeterministicProcedure,
    GlobalRates,
    PerGroupRates,
    Procedure,
)

if TYPE_CHECKING:
    from .fairness import ContingencyTable, FairnessVerdict, JusticeMetrics
    from .theorem import Bipartition, WitnessReport


def csv_text(rows: Iterable[Sequence]) -> str:
    """``rows`` as CSV text with LF line endings."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def json_text(doc: Any) -> str:
    """A report document as ``json.dumps(doc, indent=2)`` writes it, byte for byte.

    A report document is built of dicts with string keys, lists, strings, ints,
    finite floats, booleans and ``None``; anything else raises ``TypeError``.
    With an ``indent``, ``json.dumps`` runs CPython's pure-Python encoder; this
    writer joins each container's parts in one ``str.join`` instead, and writes
    a string item without a call of its own.
    """
    return _json_value(doc, "\n")


def _json_value(value: Any, indent: str) -> str:
    """``value`` as JSON text whose lines start with ``indent`` (LF first)."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value)
    inner = indent + "  "
    if isinstance(value, list):
        if not value:
            return "[]"
        items = [
            encode_basestring_ascii(item) if type(item) is str else _json_value(item, inner)
            for item in value
        ]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            encode_basestring_ascii(key) + ": " + _json_value(item, inner) for key, item in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


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
            value: [rational_json(h), rational_json(k)]
            for value, (h, k) in sorted(rates.table.items())
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


def bipartition_json(b: Bipartition) -> dict[str, Any]:
    return {
        "subset": list(b.subset),
        "complement": list(b.complement),
        "violated_merit_classes": list(b.violated_merit_classes),
    }
