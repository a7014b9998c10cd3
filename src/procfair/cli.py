"""Command-line surface.

Subcommands: ``audit``, ``classify``, ``witness``, ``simulate``,
``example1``, ``roc-export``. Every command is deterministic given identical
inputs (including the seed), supports ``--format json``, and writes to
``--out`` or standard output. Exit codes: 0 success, 1 operational failure,
2 reserved for ``witness`` when a fairness violation is found, so shell
pipelines can branch on the result.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from . import serialize
from .demo import demo_report
from .errors import ProcfairError
from .fairness import check_pairwise_fairness, expected_contingency, justice_metrics
from .population import GUILTY, INNOCENT, AttributeEquals, load_population, merit_counts
from .procedure import (
    ConditionalRates,
    as_probability,
    as_rational,
    conviction_sums,
    empirical_rates,
    exact_rates,
    load_procedure,
    simulate,
)
from .roc import RocPoint, classify, export_diagram, is_merit_agnostic, to_diamond
from .theorem import DEFAULT_MAX_N, _check_search_limit, construct_witness, exhaustive_search

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2

EMPIRICAL_DEFAULT_TOLERANCE = Fraction(1, 10**9)


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_json(doc, out: str | None) -> None:
    _write(json.dumps(doc, indent=2) + "\n", out)


def _fmt(value: Fraction | None) -> str:
    """Human form of an exact rational: integers plainly, others with approx."""
    if value is None:
        return "undefined"
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator} (~{float(value):.4f})"


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


# --- audit -------------------------------------------------------------------


def _cmd_audit(args) -> int:
    pop = load_population(_read_text(args.population))
    proc = load_procedure(_read_text(args.procedure))
    values = pop.attribute_values(args.attribute)
    if not values:
        raise ProcfairError(f"no member has a value for attribute {args.attribute!r}")

    empirical = args.trials is not None
    if args.tolerance is not None:
        tolerance = as_rational(args.tolerance)
    else:
        tolerance = EMPIRICAL_DEFAULT_TOLERANCE if empirical else Fraction(0)
    if empirical and tolerance == 0:
        print(
            "warning: comparing simulated rates at tolerance 0 is degenerate; "
            "sampling noise will fail almost every comparison",
            file=sys.stderr,
        )

    groups = {value: AttributeEquals(args.attribute, value) for value in values}
    if empirical:
        simulation = simulate(proc, pop, seed=args.seed, trials=args.trials)
        rates = {value: empirical_rates(pop, simulation, g) for value, g in groups.items()}
        overall = empirical_rates(pop, simulation)
    else:
        rates = {value: exact_rates(proc, pop, g) for value, g in groups.items()}
        overall = exact_rates(proc, pop)

    verdicts = [
        check_pairwise_fairness(
            rates[a], rates[b], tolerance, group_a=groups[a], group_b=groups[b]
        )
        for a, b in combinations(values, 2)
    ]
    table = expected_contingency(pop, proc, args.attribute)
    metrics = justice_metrics(table)
    n_guilty, n_innocent = merit_counts(pop)

    doc = {
        "population": {
            "size": len(pop),
            "merit_counts": {"guilty": n_guilty, "innocent": n_innocent},
        },
        "procedure": serialize.procedure_json(proc),
        "attribute": args.attribute,
        "rate_source": "empirical" if empirical else "exact",
        "tolerance": serialize.rational_json(tolerance),
        "rates": {
            "overall": serialize.rates_json(overall),
            "by_group": {value: serialize.rates_json(rates[value]) for value in values},
        },
        "fair": all(v.fair for v in verdicts),
        "verdicts": [serialize.verdict_json(v) for v in verdicts],
        "contingency": serialize.contingency_json(table),
        "justice": serialize.justice_json(metrics),
    }
    if empirical:
        doc["simulation"] = {"seed": args.seed, "trials": args.trials}

    if args.format == "json":
        _emit_json(doc, args.out)
    elif args.format == "csv":
        _write(_audit_csv(values, rates, overall, table, metrics, verdicts), args.out)
    else:
        raise ProcfairError(f"audit does not support format {args.format!r}")
    return EXIT_OK


def _audit_csv(values, rates, overall, table, metrics, verdicts) -> str:
    def ratio(x):
        return "" if x is None else f"{x.numerator}/{x.denominator}"

    def approx(x):
        return "" if x is None else f"{float(x):.8f}"

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["section", "group", "merit", "field", "ratio", "approx"])
    for value, r in [("overall", overall)] + [(v, rates[v]) for v in values]:
        writer.writerow(["rates", value, GUILTY, "h", ratio(r.h), approx(r.h)])
        writer.writerow(["rates", value, INNOCENT, "k", ratio(r.k), approx(r.k)])
    cells = [(v, table.cells[v]) for v in table.values()] + [("total", table.totals())]
    for value, by_merit in cells:
        for merit in (GUILTY, INNOCENT):
            cell = by_merit[merit]
            writer.writerow(["contingency", value, merit, "count", cell.count, cell.count])
            writer.writerow(
                [
                    "contingency",
                    value,
                    merit,
                    "expected_convictions",
                    ratio(cell.expected_convictions),
                    approx(cell.expected_convictions),
                ]
            )
    for value, gj in list(metrics.per_group.items()) + [("overall", metrics.overall)]:
        writer.writerow(
            ["justice", value, "", "convictions", ratio(gj.convictions), approx(gj.convictions)]
        )
        writer.writerow(
            [
                "justice",
                value,
                "",
                "mistaken_convictions",
                ratio(gj.mistaken_convictions),
                approx(gj.mistaken_convictions),
            ]
        )
        writer.writerow(
            ["justice", value, "", "guilty_share", ratio(gj.guilty_share), approx(gj.guilty_share)]
        )
    for v in verdicts:
        pair = f"{v.group_a.label()}|{v.group_b.label()}"
        writer.writerow(["verdict", pair, "", "fair", v.fair, v.fair])
    return out.getvalue()


# --- classify ----------------------------------------------------------------


def _cmd_classify(args) -> int:
    point = RocPoint(as_probability(args.h), as_probability(args.k))
    cls = classify(point, as_rational(args.eps))
    if args.format == "json":
        _emit_json(
            {
                "h": serialize.rational_json(point.h),
                "k": serialize.rational_json(point.k),
                "eps": serialize.rational_json(as_rational(args.eps)),
                "class": cls.value,
                "merit_agnostic": is_merit_agnostic(cls),
            },
            args.out,
        )
    else:
        _write(cls.value + "\n", args.out)
    return EXIT_OK


# --- witness -----------------------------------------------------------------


def _cmd_witness(args) -> int:
    _check_search_limit(args.max_n)
    pop = load_population(_read_text(args.population))
    report = construct_witness(pop)
    searched = len(pop) <= args.max_n
    found = exhaustive_search(pop, max_n=args.max_n) if searched else ()

    doc = {
        "witness": serialize.witness_json(report),
        "exhaustive": {
            "searched": searched,
            "note": None if searched else f"population exceeds --max-n {args.max_n}; skipped",
            "violations": [serialize.bipartition_json(b) for b in found],
        },
    }
    if args.format == "json":
        _emit_json(doc, args.out)
    else:
        lines = []
        if report.violated_merit_classes:
            classes = ", ".join(str(j) for j in report.violated_merit_classes)
            lines.append(
                f"violation: the criterion split {{X=0}}/{{X=1}} is unfair on "
                f"merit class(es) {classes} (conviction probability 1 vs 0)"
            )
        elif report.perfect:
            lines.append("no violation (procedure is perfect on this population)")
        else:
            lines.append(
                "no violation on this population: the procedure is imperfect but "
                "unwitnessable here (each merit class sits entirely on one side of X)"
            )
        if report.procedure_class is not None:
            lines.append(f"empirical classification: {report.procedure_class.value}")
        if searched:
            lines.append(f"exhaustive search: {len(found)} violating bipartition(s)")
        else:
            lines.append(f"exhaustive search skipped (population exceeds --max-n {args.max_n})")
        _write("\n".join(lines) + "\n", args.out)
    return EXIT_VIOLATION if report.violated_merit_classes else EXIT_OK


# --- simulate ----------------------------------------------------------------


def _cmd_simulate(args) -> int:
    pop = load_population(_read_text(args.population))
    proc = load_procedure(_read_text(args.procedure))
    simulation = simulate(proc, pop, seed=args.seed, trials=args.trials)
    empirical = empirical_rates(pop, simulation)
    # the mean member conviction probability per merit class: the configured
    # pair whenever every member has the same one
    expected = ConditionalRates.from_sums(conviction_sums(proc, pop)[0])

    if args.format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["quantity", "ratio", "approx"])
        rows = [
            ("empirical_h", empirical.h),
            ("empirical_k", empirical.k),
            ("expected_h", expected.h),
            ("expected_k", expected.k),
        ]
        for name, value in rows:
            if value is None:
                writer.writerow([name, "", ""])
            else:
                writer.writerow(
                    [name, f"{value.numerator}/{value.denominator}", f"{float(value):.8f}"]
                )
        _write(out.getvalue(), args.out)
    else:
        _emit_json(
            {
                "procedure": serialize.procedure_json(proc),
                "seed": args.seed,
                "trials": args.trials,
                "population_size": len(pop),
                "empirical": serialize.rates_json(empirical),
                "expected": serialize.rates_json(expected),
            },
            args.out,
        )
    return EXIT_OK


# --- example1 ----------------------------------------------------------------


def _cmd_example1(args) -> int:
    report = demo_report()
    if args.format == "json":
        doc = {
            "note": report.note,
            "population": {
                "size": report.population_size,
                "groups": {
                    value: {"guilty": sizes[GUILTY], "innocent": sizes[INNOCENT]}
                    for value, sizes in report.group_sizes.items()
                },
            },
            "stages": [
                {
                    "name": stage.name,
                    "procedure": serialize.procedure_json(stage.procedure),
                    "rates_by_group": {
                        value: serialize.rates_json(r)
                        for value, r in stage.rates_by_group.items()
                    },
                    "verdict": serialize.verdict_json(stage.verdict),
                    "contingency": serialize.contingency_json(stage.contingency),
                    "justice": serialize.justice_json(stage.justice),
                    "classification": stage.classification.value,
                }
                for stage in report.stages
            ],
        }
        _emit_json(doc, args.out)
    elif args.format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            ["stage", "group", "merit", "count", "expected_convictions", "guilty_share", "fair"]
        )
        for stage in report.stages:
            cells = [(v, stage.contingency.cells[v]) for v in stage.contingency.values()]
            cells.append(("total", stage.contingency.totals()))
            for value, by_merit in cells:
                justice = (
                    stage.justice.per_group[value]
                    if value in stage.justice.per_group
                    else stage.justice.overall
                )
                share = justice.guilty_share
                for merit in (GUILTY, INNOCENT):
                    cell = by_merit[merit]
                    writer.writerow(
                        [
                            stage.name,
                            value,
                            merit,
                            cell.count,
                            f"{float(cell.expected_convictions):.8f}",
                            "" if share is None else f"{float(share):.8f}",
                            stage.verdict.fair,
                        ]
                    )
        _write(out.getvalue(), args.out)
    else:
        lines = [report.note, ""]
        group_bits = "; ".join(
            f"{value} {sizes[GUILTY] + sizes[INNOCENT]} ({sizes[GUILTY]} guilty / "
            f"{sizes[INNOCENT]} innocent)"
            for value, sizes in report.group_sizes.items()
        )
        lines.append(f"population: {report.population_size} individuals — {group_bits}")
        for stage in report.stages:
            totals = stage.contingency.totals()
            lines.append("")
            lines.append(f"stage: {stage.name}")
            rate_bits = "; ".join(
                f"{value}: h={_fmt(r.h)}, k={_fmt(r.k)}"
                for value, r in stage.rates_by_group.items()
            )
            lines.append(f"  conviction rates — {rate_bits}")
            lines.append(
                "  expected convictions: guilty "
                f"{_fmt(totals[GUILTY].expected_convictions)}, innocent "
                f"{_fmt(totals[INNOCENT].expected_convictions)}"
            )
            for value in stage.contingency.values():
                cells = stage.contingency.cells[value]
                lines.append(
                    f"  group {value}: guilty convicted "
                    f"{_fmt(cells[GUILTY].expected_convictions)}, innocent convicted "
                    f"{_fmt(cells[INNOCENT].expected_convictions)}"
                )
            for value, gj in stage.justice.per_group.items():
                share = "undefined" if gj.guilty_share is None else _fmt(gj.guilty_share)
                lines.append(
                    f"  justice {value}: {_fmt(gj.convictions)} convictions, "
                    f"{_fmt(gj.mistaken_convictions)} mistaken, guilty share {share}"
                )
            lines.append(
                f"  pairwise fairness (M vs F, tolerance 0): "
                f"{'fair' if stage.verdict.fair else 'unfair'}"
            )
            lines.append(f"  classification: {stage.classification.value}")
        _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# --- roc-export --------------------------------------------------------------


def _cmd_roc_export(args) -> int:
    points = []
    if args.points:
        doc = json.loads(_read_text(args.points))
        if not isinstance(doc, list):
            raise ProcfairError("points file must be a JSON list of {label, h, k} objects")
        for i, entry in enumerate(doc):
            if not isinstance(entry, dict) or not {"label", "h", "k"} <= set(entry):
                raise ProcfairError(f"points entry {i} must carry label, h and k")
            points.append(
                (str(entry["label"]), RocPoint(as_probability(entry["h"]), as_probability(entry["k"])))
            )
    if args.format == "json":
        labels = [label for label, _ in points]
        if len(set(labels)) != len(labels):
            raise ProcfairError("duplicate point labels")
        eps = as_rational(args.eps)
        rows = []
        for label, point in points:
            x, y = to_diamond(point)
            cls = classify(point, eps)
            rows.append(
                {
                    "label": label,
                    "h": serialize.rational_json(point.h),
                    "k": serialize.rational_json(point.k),
                    "x": x,
                    "y": y,
                    "class": cls.value,
                    "merit_agnostic": is_merit_agnostic(cls),
                }
            )
        _emit_json(rows, args.out)
    else:
        _write(export_diagram(points, format=args.format, eps=as_rational(args.eps)), args.out)
    return EXIT_OK


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="procfair",
        description=(
            "Audit binary decision procedures for group fairness against a "
            "moral ground truth, classify them in rate space, and exhibit the "
            "morally arbitrary groups that witness unfairness."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    audit = sub.add_parser("audit", help="fairness and justice report for one attribute")
    audit.add_argument("--population", required=True, help="population CSV path")
    audit.add_argument("--procedure", required=True, help="procedure JSON path")
    audit.add_argument("--attribute", required=True, help="attribute defining the groups")
    audit.add_argument("--tolerance", default=None, help="rate tolerance (default 0 exact, 1e-9 empirical)")
    audit.add_argument("--trials", type=int, default=None, help="simulate and audit empirical rates")
    audit.add_argument("--seed", type=int, default=0)
    audit.add_argument("--format", choices=["json", "csv"], default="json")
    audit.add_argument("--out", default=None)
    audit.set_defaults(func=_cmd_audit)

    cls = sub.add_parser("classify", help="taxonomy class of a rate point")
    cls.add_argument("--h", required=True, help="P(U=0 | J=0), number or a/b")
    cls.add_argument("--k", required=True, help="P(U=0 | J=1), number or a/b")
    cls.add_argument("--eps", default="0", help="tolerance band, in [0, 1/4)")
    cls.add_argument("--format", choices=["text", "json"], default="text")
    cls.add_argument("--out", default=None)
    cls.set_defaults(func=_cmd_classify)

    wit = sub.add_parser("witness", help="construct and exhaustively check the criterion split")
    wit.add_argument("--population", required=True, help="population CSV path (X required)")
    wit.add_argument("--max-n", type=int, default=DEFAULT_MAX_N, dest="max_n")
    wit.add_argument("--format", choices=["text", "json"], default="text")
    wit.add_argument("--out", default=None)
    wit.set_defaults(func=_cmd_witness)

    sim = sub.add_parser("simulate", help="seeded Monte-Carlo outcomes and empirical rates")
    sim.add_argument("--population", required=True)
    sim.add_argument("--procedure", required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--trials", type=int, default=1000)
    sim.add_argument("--format", choices=["json", "csv"], default="json")
    sim.add_argument("--out", default=None)
    sim.set_defaults(func=_cmd_simulate)

    ex1 = sub.add_parser("example1", help="run the built-in two-stage demonstration scenario")
    ex1.add_argument("--format", choices=["text", "json", "csv"], default="text")
    ex1.add_argument("--out", default=None)
    ex1.set_defaults(func=_cmd_example1)

    roc = sub.add_parser("roc-export", help="render rate points as an SVG diagram or CSV")
    roc.add_argument("points", nargs="?", default=None, help="JSON file of {label, h, k} points")
    roc.add_argument("--format", choices=["svg", "csv", "json"], default="svg")
    roc.add_argument("--eps", default="0", help="classification tolerance for the class column")
    roc.add_argument("--out", default=None)
    roc.set_defaults(func=_cmd_roc_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ProcfairError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
