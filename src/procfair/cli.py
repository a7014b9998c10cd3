"""Command-line surface.

Subcommands: ``audit``, ``classify``, ``witness``, ``simulate``,
``example1``, ``roc-export``. Each command builds one report document, the
dict that ``--format json`` prints; its CSV and text formats (and
``roc-export``'s SVG) are renderings of that document, and :func:`main`
writes the result to ``--out`` or standard output. Every input file is read
as bytes by :func:`_read` and handed to the library, which reads it as its
UTF-8 file and checks its format (``roc._load_points`` the points file);
every CSV report is written by ``population.csv_text``. :func:`_audit_document`
builds the ``audit`` document, and ``example1`` reads each of its two stages
off one. ``witness`` holds its violating bipartitions as the search of the
enumerator behind ``theorem.exhaustive_search``, in a ``serialize.Listing``
that its JSON output writes a chunk at a time and its text output counts;
the listing is the document's last key, and its exit code is known before
it, so the listing goes to the output in buffers and is never held whole.
An output file is created at the first write, after every check has passed.
Every command is deterministic given
identical inputs (including the seed). Exit codes: 0 success, 1 operational
failure (a bad argument included), 2 reserved for ``witness`` when a fairness
violation is found, so shell pipelines can branch on the result.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from . import serialize
from .demo import demo_report
from .errors import ProcfairError
from .fairness import (
    _checked_tolerance,
    check_pairwise_fairness,
    expected_contingency,
    justice_metrics,
)
from .population import GUILTY, INNOCENT, AttributeEquals, csv_text, load_population
from .procedure import (
    ConditionalRates,
    RocPoint,
    conviction_sums,
    empirical_rates,
    exact_rates,
    load_procedure,
    simulate,
)
from .roc import _checked_eps, _load_points, classify, diagram_rows, is_merit_agnostic, render_diagram
from .theorem import DEFAULT_MAX_N, _check_search_limit, _exhaustive_violations, construct_witness

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2

EMPIRICAL_DEFAULT_TOLERANCE = Fraction(1, 10**9)


def _read(path: str) -> bytes:
    """The bytes of the file at ``path``: every input file is read here."""
    return Path(path).read_bytes()


# --- renderers ---------------------------------------------------------------
# Each reads only the command's document, plus ``args`` for values the
# document does not hold, and hands its text to ``write``.


def _json(doc, args, write) -> None:
    serialize.write_json(doc, write)
    write("\n")


def _cells(r) -> list[str]:
    """The ``ratio`` and ``approx`` CSV cells of a rendered rational, empty when undefined."""
    return ["", ""] if r is None else [r["ratio"], f"{r['approx']:.8f}"]


def _fmt(r) -> str:
    """Human form of a rendered rational: integers plainly, others with approx."""
    if r["ratio"].endswith("/1"):
        return r["ratio"][:-2]
    return f"{r['ratio']} (~{r['approx']:.4f})"


# --- audit -------------------------------------------------------------------


def _cmd_audit(args):
    empirical = args.trials is not None
    default = EMPIRICAL_DEFAULT_TOLERANCE if empirical else 0
    tolerance = _checked_tolerance(default if args.tolerance is None else args.tolerance)
    pop = load_population(_read(args.population))
    proc = load_procedure(_read(args.procedure))
    if not pop.attribute_values(args.attribute):
        raise ProcfairError(f"no member has a value for attribute {args.attribute!r}")

    if empirical and tolerance == 0:
        print(
            "warning: comparing simulated rates at tolerance 0 is degenerate; "
            "sampling noise will fail almost every comparison",
            file=sys.stderr,
        )
    simulation = simulate(proc, pop, seed=args.seed, trials=args.trials) if empirical else None
    return _audit_document(pop, proc, args.attribute, tolerance, simulation), EXIT_OK


def _audit_document(pop, proc, attribute, tolerance, simulation=None) -> dict:
    """The ``audit`` document: exact rates, or those of ``simulation`` if one is given."""
    values = pop.attribute_values(attribute)
    groups = {value: AttributeEquals(attribute, value) for value in values}
    if simulation is not None:
        rates_of = functools.partial(empirical_rates, pop, simulation)
    else:
        rates_of = functools.partial(exact_rates, proc, pop)
    rates = {value: rates_of(g) for value, g in groups.items()}
    overall = rates_of()

    verdicts = [
        check_pairwise_fairness(
            rates[a], rates[b], tolerance, group_a=groups[a], group_b=groups[b]
        )
        for a, b in combinations(values, 2)
    ]
    table = expected_contingency(pop, proc, attribute)
    n_guilty, n_innocent = overall.support

    doc = {
        "population": {
            "size": len(pop),
            "merit_counts": {"guilty": n_guilty, "innocent": n_innocent},
        },
        "procedure": serialize.procedure_json(proc),
        "attribute": attribute,
        "rate_source": "empirical" if simulation is not None else "exact",
        "tolerance": serialize.rational_json(tolerance),
        "rates": {
            "overall": serialize.rates_json(overall),
            "by_group": {value: serialize.rates_json(rates[value]) for value in values},
        },
        "fair": all(v.fair for v in verdicts),
        "verdicts": [serialize.verdict_json(v) for v in verdicts],
        "contingency": serialize.contingency_json(table),
        "justice": serialize.justice_json(justice_metrics(table)),
    }
    if simulation is not None:
        doc["simulation"] = {"seed": simulation.seed, "trials": simulation.trials}
    return doc


def _audit_csv(doc, args, write) -> None:
    rates = doc["rates"]
    for value in rates["by_group"]:
        if value in ("overall", "total"):  # a group row would read as a summary row of that name
            raise ValueError(f"attribute value {value!r} names a summary row of the CSV; use --format json")
        if "|" in value:  # two verdict rows' group pairs could read alike
            raise ValueError(
                f"attribute value {value!r} holds '|', which separates a verdict row's two groups; "
                "use --format json"
            )
    rows = [["section", "group", "merit", "field", "ratio", "approx"]]
    for value, r in [("overall", rates["overall"]), *rates["by_group"].items()]:
        rows.append(["rates", value, GUILTY, "h", *_cells(r["h"])])
        rows.append(["rates", value, INNOCENT, "k", *_cells(r["k"])])
    table = doc["contingency"]
    for value, by_merit in [*table["groups"].items(), ("total", table["totals"])]:
        for merit, cell in by_merit.items():
            rows.append(["contingency", value, merit, "count", cell["count"], cell["count"]])
            rows.append(
                ["contingency", value, merit, "expected_convictions",
                 *_cells(cell["expected_convictions"])]
            )
    justice = doc["justice"]
    for value, gj in [*justice["per_group"].items(), ("overall", justice["overall"])]:
        for key, r in gj.items():
            rows.append(["justice", value, "", key.removeprefix("expected_"), *_cells(r)])
    for v in doc["verdicts"]:
        pair = "|".join(f"{g['name']}={g['value']}" for g in (v["group_a"], v["group_b"]))
        rows.append(["verdict", pair, "", "fair", v["fair"], v["fair"]])
    write(csv_text(rows))


# --- classify ----------------------------------------------------------------


def _cmd_classify(args):
    point = RocPoint(args.h, args.k)
    eps = _checked_eps(args.eps)
    cls = classify(point, eps)
    return {
        "h": serialize.rational_json(point.h),
        "k": serialize.rational_json(point.k),
        "eps": serialize.rational_json(eps),
        "class": cls.value,
        "merit_agnostic": is_merit_agnostic(cls),
    }, EXIT_OK


def _classify_text(doc, args, write) -> None:
    write(doc["class"] + "\n")


# --- witness -----------------------------------------------------------------


def _cmd_witness(args):
    _check_search_limit(args.max_n)
    pop = load_population(_read(args.population))
    report = construct_witness(pop)
    searched = len(pop) <= args.max_n
    listing = serialize.Listing(_exhaustive_violations(pop, args.max_n)) if searched else []

    doc = {
        "witness": serialize.witness_json(report),
        "exhaustive": {
            "searched": searched,
            "note": None if searched else f"population exceeds --max-n {args.max_n}; skipped",
            "violations": listing,
        },
    }
    return doc, EXIT_VIOLATION if report.violated_merit_classes else EXIT_OK


def _witness_text(doc, args, write) -> None:
    report, search = doc["witness"], doc["exhaustive"]
    if report["violated_merit_classes"]:
        classes = ", ".join(str(j) for j in report["violated_merit_classes"])
        lines = [
            f"violation: the criterion split {{X=0}}/{{X=1}} is unfair on "
            f"merit class(es) {classes} (conviction probability 1 vs 0)"
        ]
    elif report["perfect"]:
        lines = ["no violation (procedure is perfect on this population)"]
    else:
        lines = [
            "no violation on this population: the procedure is imperfect but "
            "unwitnessable here (each merit class sits entirely on one side of X)"
        ]
    if report["procedure_class"] is not None:
        lines.append(f"empirical classification: {report['procedure_class']}")
    if search["searched"]:
        lines.append(f"exhaustive search: {search['violations'].count()} violating bipartition(s)")
    else:
        lines.append(f"exhaustive search skipped (population exceeds --max-n {args.max_n})")
    write("\n".join(lines) + "\n")


# --- simulate ----------------------------------------------------------------


def _cmd_simulate(args):
    pop = load_population(_read(args.population))
    proc = load_procedure(_read(args.procedure))
    simulation = simulate(proc, pop, seed=args.seed, trials=args.trials)
    # the mean member conviction probability per merit class: the configured
    # pair whenever every member has the same one
    expected = ConditionalRates.from_sums(conviction_sums(proc, pop)[0])
    return {
        "procedure": serialize.procedure_json(proc),
        "seed": args.seed,
        "trials": args.trials,
        "population_size": len(pop),
        "empirical": serialize.rates_json(empirical_rates(pop, simulation)),
        "expected": serialize.rates_json(expected),
    }, EXIT_OK


def _simulate_csv(doc, args, write) -> None:
    rows = [["quantity", "ratio", "approx"]]
    for source in ("empirical", "expected"):
        for rate in ("h", "k"):
            rows.append([f"{source}_{rate}", *_cells(doc[source][rate])])
    write(csv_text(rows))


# --- example1 ----------------------------------------------------------------


def _cmd_example1(args):
    return demo_report(), EXIT_OK


def _example1_csv(doc, args, write) -> None:
    rows = [["stage", "group", "merit", "count", "expected_convictions", "guilty_share", "fair"]]
    for stage in doc["stages"]:
        table, justice = stage["contingency"], stage["justice"]
        for value, by_merit in [*table["groups"].items(), ("total", table["totals"])]:
            share = justice["per_group"].get(value, justice["overall"])["guilty_share"]
            for merit, cell in by_merit.items():
                rows.append(
                    [stage["name"], value, merit, cell["count"],
                     _cells(cell["expected_convictions"])[1], _cells(share)[1],
                     stage["verdict"]["fair"]]
                )
    write(csv_text(rows))


def _example1_text(doc, args, write) -> None:
    guilty, innocent = str(GUILTY), str(INNOCENT)
    group_bits = "; ".join(
        f"{value} {sizes['guilty'] + sizes['innocent']} ({sizes['guilty']} guilty / "
        f"{sizes['innocent']} innocent)"
        for value, sizes in doc["population"]["groups"].items()
    )
    lines = [
        doc["note"],
        "",
        f"population: {doc['population']['size']} individuals — {group_bits}",
    ]
    for stage in doc["stages"]:
        table = stage["contingency"]
        rate_bits = "; ".join(
            f"{value}: h={_fmt(r['h'])}, k={_fmt(r['k'])}"
            for value, r in stage["rates_by_group"].items()
        )
        lines += [
            "",
            f"stage: {stage['name']}",
            f"  conviction rates — {rate_bits}",
            "  expected convictions: guilty "
            f"{_fmt(table['totals'][guilty]['expected_convictions'])}, innocent "
            f"{_fmt(table['totals'][innocent]['expected_convictions'])}",
        ]
        for value, cells in table["groups"].items():
            lines.append(
                f"  group {value}: guilty convicted "
                f"{_fmt(cells[guilty]['expected_convictions'])}, innocent convicted "
                f"{_fmt(cells[innocent]['expected_convictions'])}"
            )
        for value, gj in stage["justice"]["per_group"].items():
            lines.append(
                f"  justice {value}: {_fmt(gj['expected_convictions'])} convictions, "
                f"{_fmt(gj['mistaken_convictions'])} mistaken, "
                f"guilty share {_fmt(gj['guilty_share'])}"
            )
        verdict = stage["verdict"]
        lines += [
            f"  pairwise fairness ({verdict['group_a']['value']} vs {verdict['group_b']['value']}, "
            f"tolerance {_fmt(verdict['tolerance'])}): {'fair' if verdict['fair'] else 'unfair'}",
            f"  classification: {stage['classification']}",
        ]
    write("\n".join(lines) + "\n")


# --- roc-export --------------------------------------------------------------


def _cmd_roc_export(args):
    eps = _checked_eps(args.eps)
    points = _load_points(_read(args.points)) if args.points else []
    return diagram_rows(points, eps), EXIT_OK


def _roc_diagram(doc, args, write) -> None:
    write(render_diagram(doc, args.format))


# --- parser ------------------------------------------------------------------


def _add_report(parser, func, renderers) -> None:
    """Bind the command to ``func`` and add ``--out`` and ``--format``, whose
    choices are the renderers' names, the first one the default."""
    parser.add_argument("--format", choices=list(renderers), default=next(iter(renderers)))
    parser.add_argument("--out", default=None)
    parser.set_defaults(func=func, render=renderers)


class _Parser(argparse.ArgumentParser):
    """Raises a bad argument for :func:`main` to report as one ``error:`` line
    with exit code 1, where argparse would exit 2, the code of a ``witness``
    violation. Subcommand parsers are of this class too."""

    def error(self, message):
        raise ProcfairError(message)


def _integer_at_least(minimum: int):
    """An argparse ``type`` for an integer of at least ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
        return value

    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    audit.add_argument(
        "--trials", type=_integer_at_least(1), default=None, help="simulate and audit empirical rates"
    )
    audit.add_argument("--seed", type=_integer_at_least(0), default=0)
    _add_report(audit, _cmd_audit, {"json": _json, "csv": _audit_csv})

    cls = sub.add_parser("classify", help="taxonomy class of a rate point")
    cls.add_argument("--h", required=True, help="P(U=0 | J=0), number or a/b")
    cls.add_argument("--k", required=True, help="P(U=0 | J=1), number or a/b")
    cls.add_argument("--eps", default="0", help="tolerance band, in [0, 1/4)")
    _add_report(cls, _cmd_classify, {"text": _classify_text, "json": _json})

    wit = sub.add_parser("witness", help="construct and exhaustively check the criterion split")
    wit.add_argument("--population", required=True, help="population CSV path (X required)")
    wit.add_argument("--max-n", type=int, default=DEFAULT_MAX_N, dest="max_n")
    _add_report(wit, _cmd_witness, {"text": _witness_text, "json": _json})

    sim = sub.add_parser("simulate", help="seeded Monte-Carlo outcomes and empirical rates")
    sim.add_argument("--population", required=True)
    sim.add_argument("--procedure", required=True)
    sim.add_argument("--seed", type=_integer_at_least(0), default=0)
    sim.add_argument("--trials", type=_integer_at_least(1), default=1000)
    _add_report(sim, _cmd_simulate, {"json": _json, "csv": _simulate_csv})

    ex1 = sub.add_parser("example1", help="run the built-in two-stage demonstration scenario")
    _add_report(ex1, _cmd_example1, {"text": _example1_text, "json": _json, "csv": _example1_csv})

    roc = sub.add_parser("roc-export", help="render rate points as an SVG diagram or CSV")
    roc.add_argument("points", nargs="?", default=None, help="JSON file of {label, h, k} points")
    roc.add_argument("--eps", default="0", help="classification tolerance for the class column")
    _add_report(roc, _cmd_roc_export, {"svg": _roc_diagram, "csv": _roc_diagram, "json": _json})

    return parser


@contextlib.contextmanager
def _output(path: str | None):
    """The ``write`` of a report: standard output's, or that of the file at
    ``path``, which is created at the first write, so a report refused before
    its first byte creates none."""
    if not path:
        yield sys.stdout.write
        return
    file = None

    def write(text: str) -> None:
        nonlocal file
        if file is None:
            file = open(path, "w", encoding="utf-8")
        file.write(text)

    try:
        yield write
    finally:
        if file is not None:
            file.close()


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        doc, code = args.func(args)
        with _output(args.out) as write:
            args.render[args.format](doc, args, write)
    except (ProcfairError, ValueError, OSError) as exc:
        # one line, even where argparse repeats a word as typed
        print("error:", str(exc).replace("\r", "\\r").replace("\n", "\\n"), file=sys.stderr)
        return EXIT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
