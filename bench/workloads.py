"""The three workloads: their seeded input files and one round of ops each.

A round is a fixed list of batches; a batch is a list of ops timed between
two sets of reference loops (see ``refclock.py``). Every run attempts whole
rounds, so each op's share of the attempted ops is the same in every run.
Ops call ``procfair.cli.main`` with the generated files, or a public library
function on populations loaded at set-up; each op has a check from
``oracle.py``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import ModuleType
from typing import Callable

import inputs
import oracle

SIZES = {
    "audit-large": {"n": 100_000},
    "simulate-trials": {"n": 10_000, "trials": 300},
    "small-inputs": {
        "witness_n": 12,
        "absolute_n": 11,
        "theorem": (7, 40),
        "small_n": 100,
        "small_trials": 200,
        "classify_points": 10,
        "roc_points": 20,
    },
}

# The same checks at a size that runs in seconds, for the benchmark's own tests.
TINY_SIZES = {
    "audit-large": {"n": 400},
    "simulate-trials": {"n": 300, "trials": 40},
    "small-inputs": {
        "witness_n": 8,
        "absolute_n": 7,
        "theorem": (5, 10),
        "small_n": 40,
        "small_trials": 50,
        "classify_points": 6,
        "roc_points": 6,
    },
}

EXAMPLE1_ROWS = 10_000


@dataclass
class Op:
    """One call into procfair. ``call`` returns the CLI exit code or the library
    result; ``check`` raises ``oracle.OpFailed`` or ``oracle.WrongOutput``."""

    label: str
    kind: str
    call: Callable[[], object]
    check: Callable[[object, str], None]
    rows: int  # population rows read or built by the op
    cli: bool
    out: Path | None = None


@dataclass
class Workload:
    name: str
    batches: list[list[Op]]
    files: dict[str, Callable[[], str]] = field(default_factory=dict)  # file path -> renderer

    @property
    def ops(self) -> list[Op]:
        return [op for batch in self.batches for op in batch]

    def write_inputs(self) -> None:
        """Render and write every input file (part of the timed set-up)."""
        for path, render in self.files.items():
            Path(path).write_text(render(), encoding="utf-8")


class _Builder:
    def __init__(self, pkg: ModuleType, directory: Path):
        self.pkg = pkg
        self.dir = directory
        self.files: dict[str, Callable[[], str]] = {}

    def population(self, name: str, rows: inputs.Rows) -> str:
        path = str(self.dir / name)
        self.files[path] = lambda: inputs.population_csv(rows)
        return path

    def json_file(self, name: str, doc) -> str:
        path = str(self.dir / name)
        self.files[path] = lambda: json.dumps(doc)
        return path

    def cli(self, label: str, kind: str, argv: list[str], ext: str, rows: int, check) -> Op:
        out = self.dir / f"out-{label}.{ext}"
        argv = [kind, *argv, "--out", str(out)]
        pkg = self.pkg
        # procfair.cli.main is looked up at call time, so a traced run sees its wrapper.
        return Op(label, kind, lambda: pkg.cli.main(argv), lambda rc, err: check(rc, err, out),
                  rows, cli=True, out=out)

    def library(self, label: str, kind: str, call, rows: int, check) -> Op:
        return Op(label, kind, call, lambda result, err: check(result), rows, cli=False)


def _same_bytes(check):
    """Also require the output to repeat byte for byte whenever the op runs again."""
    first: list[str] = []

    def wrapped(rc, err, out: Path) -> None:
        check(rc, err, out)
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        if not first:
            first.append(digest)
        oracle.expect(digest == first[0], "output differs from an earlier run with the same seed")

    return wrapped


def _pair(proc: dict) -> tuple[Fraction, Fraction]:
    """The one (h, k) pair of a global or equal-rate per-group procedure."""
    (pair,) = {tuple(Fraction(x) for x in p) for p in proc["rates"].values()}
    return pair


# --- audit-large ------------------------------------------------------------------


def audit_large(b: _Builder, seed: int, n: int) -> list[list[Op]]:
    """Exact audits and witnesses over one 10^5-row population: per-row work only."""
    rows = inputs.make_rows(seed, 1, n, 16, "p")
    pop = b.population("population.csv", rows)
    regions = rows.attrs["region"][0]
    procs = {}
    for name, proc, attribute in (
        ("det", inputs.DETERMINISTIC, "region"),
        ("global", inputs.GLOBAL, "sex"),
        ("equal", inputs.per_group_equal("region", regions), "region"),
        # Heterogeneous per-group rates: the audit fails today (see README).
        ("unequal", inputs.per_group_unequal("region", regions), "region"),
    ):
        procs[name] = (b.json_file(f"proc-{name}.json", proc), attribute, oracle.expect_audit(rows, proc, attribute))
    witness = oracle.expect_witness(rows)

    def op(name: str, fmt: str) -> Op:
        if name == "witness":
            check = lambda rc, err, out: oracle.check_witness(rc, err, out, witness, fmt)  # noqa: E731
            return b.cli(f"witness-{fmt}", "witness", ["--population", pop, "--format", fmt], fmt, n, check)
        path, attribute, exp = procs[name]
        check = lambda rc, err, out: oracle.check_audit(rc, err, out, exp, fmt)  # noqa: E731
        argv = ["--population", pop, "--procedure", path, "--attribute", attribute, "--format", fmt]
        return b.cli(f"audit-{name}-{fmt}", "audit", argv, fmt, n, check)

    round_ = [("det", "json"), ("global", "csv"), ("equal", "json"), ("unequal", "csv"), ("witness", "json"),
              ("det", "csv"), ("global", "json"), ("equal", "csv"), ("unequal", "json"), ("witness", "text")]
    return [[op(name, fmt)] for name, fmt in round_]


# --- simulate-trials -----------------------------------------------------------------


def simulate_trials(b: _Builder, seed: int, n: int, trials: int) -> list[list[Op]]:
    """Seeded Monte-Carlo over 10^4 rows and a few hundred trials: simulation dominates."""
    rows = inputs.make_rows(seed, 2, n, 4, "q")
    pop = b.population("population.csv", rows)
    procs = {"global": inputs.GLOBAL, "equal": inputs.per_group_equal("region", rows.attrs["region"][0])}
    paths = {name: b.json_file(f"proc-{name}.json", proc) for name, proc in procs.items()}

    def op(index: int, command: str, name: str, fmt: str) -> Op:
        op_seed = seed * 1000 + index
        pair = _pair(procs[name])
        common = ["--population", pop, "--procedure", paths[name], "--seed", str(op_seed), "--trials", str(trials)]
        if command == "simulate":
            check = lambda rc, err, out: oracle.check_simulate(  # noqa: E731
                rc, err, out, rows, pair, trials, op_seed, fmt)
            return b.cli(f"simulate-{name}-{fmt}", "simulate", [*common, "--format", fmt], fmt, n, _same_bytes(check))
        exp = oracle.expect_audit(rows, procs[name], "region")
        empirical = {"pair": pair, "trials": trials, "seed": op_seed}
        check = lambda rc, err, out: oracle.check_audit(rc, err, out, exp, fmt, empirical)  # noqa: E731
        argv = [*common, "--attribute", "region", "--tolerance", "1/100", "--format", fmt]
        return b.cli(f"audit-trials-{name}", "audit", argv, fmt, n, _same_bytes(check))

    round_ = [("simulate", "global", "json"), ("simulate", "equal", "csv"), ("audit", "global", "json"),
              ("simulate", "global", "csv"), ("simulate", "equal", "json"), ("audit", "equal", "json")]
    return [[op(i, *spec)] for i, spec in enumerate(round_)]


# --- small-inputs --------------------------------------------------------------------


def small_inputs(b: _Builder, seed: int, witness_n: int, absolute_n: int, theorem: tuple[int, int],
                 small_n: int, small_trials: int, classify_points: int, roc_points: int) -> list[list[Op]]:
    """Many small ops: per-call cost and exponential enumeration, no per-row cost."""
    pkg = b.pkg

    def witness_op(tag: str, path: str, exp: oracle.WitnessExpect, fmt: str) -> Op:
        check = lambda rc, err, out: oracle.check_witness(rc, err, out, exp, fmt)  # noqa: E731
        return b.cli(f"witness-{tag}-{fmt}", "witness", ["--population", path, "--format", fmt], fmt, witness_n, check)

    witness_ops = []
    for tag, stream, formats in (("a", 3, ("json", "text")), ("b", 4, ("json",))):
        rows = inputs.make_rows(seed, stream, witness_n, 2, "s")
        path = b.population(f"witness-{tag}.csv", rows)
        exp = oracle.expect_witness(rows)
        witness_ops += [witness_op(tag, path, exp, fmt) for fmt in formats]

    # Library calls on a population loaded here, outside the timed ops.
    abs_rows = inputs.make_rows(seed, 5, absolute_n, 2, "a")
    abs_pop = pkg.load_population(inputs.population_csv(abs_rows))

    def absolute_op(name: str, doc: dict) -> Op:
        proc = pkg.load_procedure(json.dumps(doc))
        prob = oracle.member_probabilities(abs_rows, doc)
        return b.library(
            f"absolute-{name}", "check_absolute_fairness",
            lambda: pkg.check_absolute_fairness(proc, abs_pop, mode="bipartitions", max_n=absolute_n,
                                                max_violations=1 << absolute_n),
            absolute_n, lambda report: oracle.check_absolute(report, abs_rows, prob))

    n_ind, n_trials = theorem
    library_ops = [
        absolute_op("global", inputs.GLOBAL),
        absolute_op("unequal", inputs.per_group_unequal("sex", inputs.SEX_VALUES)),
        b.library("verify-theorem", "verify_theorem",
                  lambda: pkg.verify_theorem(n_individuals=n_ind, n_trials=n_trials, seed=seed),
                  n_ind * n_trials, lambda report: oracle.check_theorem(report, n_ind, n_trials)),
    ]

    example1 = [b.cli("example1-json", "example1", ["--format", "json"], "json", EXAMPLE1_ROWS,
                      oracle.check_example1)]

    def classify_op(i: int, h: Fraction, k: Fraction) -> Op:
        fmt = "text" if i % 2 == 0 else "json"
        check = lambda rc, err, out: oracle.check_classify(rc, err, out, h, k, fmt)  # noqa: E731
        argv = ["--h", oracle.ratio(h), "--k", oracle.ratio(k), "--format", fmt]
        return b.cli(f"classify-{i}", "classify", argv, fmt, 0, check)

    rate_ops = [classify_op(i, h, k) for i, (_, h, k) in enumerate(inputs.rate_points(seed, 7, classify_points))]
    points = inputs.rate_points(seed, 8, roc_points)
    points_path = b.json_file("points.json", [{"label": label, "h": oracle.ratio(h), "k": oracle.ratio(k)}
                                              for label, h, k in points])
    for i in range(3):
        rate_ops.append(b.cli(f"roc-svg-{i}", "roc-export", [points_path, "--format", "svg"], "svg", 0,
                              lambda rc, err, out: oracle.check_roc_svg(rc, err, out, points)))
        rate_ops.append(b.cli(f"roc-csv-{i}", "roc-export", [points_path, "--format", "csv"], "csv", 0,
                              lambda rc, err, out: oracle.check_roc_csv(rc, err, out, points)))

    small = inputs.make_rows(seed, 6, small_n, 4, "m")
    small_pop = b.population("small.csv", small)
    small_procs = {"det": inputs.DETERMINISTIC, "global": inputs.GLOBAL,
                   "equal": inputs.per_group_equal("region", small.attrs["region"][0])}
    small_paths = {name: b.json_file(f"small-{name}.json", doc) for name, doc in small_procs.items()}

    def small_audit(name: str, fmt: str) -> Op:
        exp = oracle.expect_audit(small, small_procs[name], "region")
        check = lambda rc, err, out: oracle.check_audit(rc, err, out, exp, fmt)  # noqa: E731
        argv = ["--population", small_pop, "--procedure", small_paths[name], "--attribute", "region", "--format", fmt]
        return b.cli(f"audit-small-{name}-{fmt}", "audit", argv, fmt, small_n, check)

    def small_simulate(index: int, name: str, fmt: str) -> Op:
        op_seed = seed * 1000 + index
        pair = _pair(small_procs[name])
        check = lambda rc, err, out: oracle.check_simulate(  # noqa: E731
            rc, err, out, small, pair, small_trials, op_seed, fmt)
        argv = ["--population", small_pop, "--procedure", small_paths[name], "--seed", str(op_seed),
                "--trials", str(small_trials), "--format", fmt]
        return b.cli(f"simulate-small-{name}-{fmt}", "simulate", argv, fmt, small_n, _same_bytes(check))

    small_ops = [small_audit("det", "json"), small_audit("equal", "csv"),
                 small_simulate(0, "global", "json"), small_simulate(1, "equal", "csv")]
    return [witness_ops, library_ops, example1, rate_ops, small_ops]


BUILDERS = {
    "audit-large": audit_large,
    "simulate-trials": simulate_trials,
    "small-inputs": small_inputs,
}


def build(name: str, seed: int, pkg: ModuleType, directory: Path, sizes: dict | None = None) -> Workload:
    """Generate the workload's inputs from ``seed`` and define one round of ops.

    Expected outputs are computed here; ``Workload.write_inputs`` renders and
    writes the files.
    """
    b = _Builder(pkg, directory)
    batches = BUILDERS[name](b, seed, **(sizes or SIZES[name]))
    return Workload(name, batches, b.files)
