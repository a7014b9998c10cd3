"""Expected outputs, computed from the benchmark's own labels, and output checks.

Nothing here imports procfair. Expected values come from the label arrays in
``inputs.Rows`` and the procedure documents the benchmark writes; the
taxonomy follows the table in the repository README. A check raises
:class:`OpFailed` when the program reported a failure (non-zero exit, an
exception) and :class:`WrongOutput` when it completed with an output that
disagrees with the expectation.
"""

from __future__ import annotations

import csv
import io
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from inputs import Rows

GUILTY, INNOCENT = 0, 1
MERITS = (GUILTY, INNOCENT)
SIGMAS = 6  # binomial bound for simulated rates
AMBIGUOUS_MESSAGE = "group spans members with different configured rates"


class OpFailed(Exception):
    """The program reported a failure for this op."""


class WrongOutput(Exception):
    """The program completed, but its output disagrees with the expectation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongOutput(message)


def ratio(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def expect_rational(doc, value: Fraction | None, where: str) -> None:
    """``doc`` is the report's ``{"ratio", "approx"}`` rendering of ``value``."""
    if value is None:
        expect(doc is None, f"{where}: expected null, got {doc!r}")
        return
    expect(isinstance(doc, dict), f"{where}: expected a rational, got {doc!r}")
    expect(doc.get("ratio") == ratio(value), f"{where}: ratio {doc.get('ratio')!r} != {ratio(value)}")
    expect(doc.get("approx") == float(value), f"{where}: approx {doc.get('approx')!r} != {float(value)}")


def load_json(path) -> object:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise WrongOutput(f"unreadable JSON output: {exc}") from exc


def read_csv(path) -> list[list[str]]:
    try:
        return list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
    except OSError as exc:
        raise WrongOutput(f"unreadable CSV output: {exc}") from exc


def expect_exit(rc: object, wanted: int, stderr: str) -> None:
    if rc == wanted:
        return
    if rc == 1:
        raise OpFailed(stderr.strip().splitlines()[-1] if stderr.strip() else "exit code 1")
    raise WrongOutput(f"exit code {rc!r}, expected {wanted}")


# --- procedures ----------------------------------------------------------------


def member_pairs(rows: Rows, proc: dict) -> tuple[list[tuple[Fraction, Fraction]], np.ndarray]:
    """Distinct configured (h, k) pairs and each member's index into them."""
    rates = proc["rates"]
    if "attribute" not in proc:
        h, k = rates["global"]
        return [(Fraction(h), Fraction(k))], np.zeros(len(rows), dtype=np.int64)
    values, codes = rows.attrs[proc["attribute"]]
    pairs = [(Fraction(rates[v][0]), Fraction(rates[v][1])) for v in values]
    return pairs, codes.astype(np.int64)


def conviction_sums(rows: Rows, proc: dict, codes: np.ndarray, n_groups: int):
    """Per cell ``2 * group code + merit``: member count and summed conviction probability."""
    cell = codes.astype(np.int64) * 2 + rows.merit.astype(np.int64)
    counts = np.bincount(cell, minlength=2 * n_groups)
    if proc["type"] == "deterministic":
        convicted = np.bincount(cell, weights=(rows.criterion == 0).astype(np.float64), minlength=2 * n_groups)
        return counts.tolist(), [Fraction(int(round(c))) for c in convicted]
    pairs, pair_of = member_pairs(rows, proc)
    by_pair = np.bincount(cell * len(pairs) + pair_of, minlength=2 * n_groups * len(pairs))
    by_pair = by_pair.reshape(2 * n_groups, len(pairs))
    sums = [sum((int(n) * pairs[p][c % 2] for p, n in enumerate(by_pair[c]) if n), Fraction(0))
            for c in range(2 * n_groups)]
    return counts.tolist(), sums


def first_appearance(codes: np.ndarray) -> list[int]:
    uniq, first = np.unique(codes, return_index=True)
    return [int(u) for _, u in sorted(zip(first.tolist(), uniq.tolist()))]


# --- audit ---------------------------------------------------------------------


@dataclass(frozen=True)
class Cell:
    count: int
    convictions: Fraction


@dataclass(frozen=True)
class AuditExpect:
    attribute: str
    values: tuple[str, ...]  # first-appearance order in the population file
    cells: dict  # value -> {merit: Cell}
    rates: dict  # value -> (h, k); None where a class is empty
    overall: tuple  # (h, k) of the whole population
    ambiguous_overall: bool  # randomized with more than one configured pair in use
    n: int
    merit_counts: tuple[int, int]


def _rate(cell: Cell) -> Fraction | None:
    return cell.convictions / cell.count if cell.count else None


def expect_audit(rows: Rows, proc: dict, attribute: str) -> AuditExpect:
    values, codes = rows.attrs[attribute]
    counts, sums = conviction_sums(rows, proc, codes, len(values))
    order = first_appearance(codes)
    cells = {
        values[g]: {m: Cell(counts[2 * g + m], sums[2 * g + m]) for m in MERITS} for g in order
    }
    totals = total_cells(cells)
    ambiguous = proc["type"] == "randomized" and len(np.unique(member_pairs(rows, proc)[1])) > 1
    return AuditExpect(
        attribute=attribute,
        values=tuple(values[g] for g in order),
        cells=cells,
        rates={v: (_rate(c[GUILTY]), _rate(c[INNOCENT])) for v, c in cells.items()},
        overall=(_rate(totals[GUILTY]), _rate(totals[INNOCENT])),
        ambiguous_overall=ambiguous,
        n=len(rows),
        merit_counts=(totals[GUILTY].count, totals[INNOCENT].count),
    )


def justice(cells: dict) -> tuple[Fraction, Fraction, Fraction | None]:
    """(expected convictions, mistaken convictions, guilty share) of one group."""
    guilty, innocent = cells[GUILTY].convictions, cells[INNOCENT].convictions
    total = guilty + innocent
    return total, innocent, (guilty / total if total else None)


def total_cells(cells: dict) -> dict:
    """Merit-class totals over every group's cells."""
    return {
        m: Cell(sum(c[m].count for c in cells.values()),
                sum((c[m].convictions for c in cells.values()), Fraction(0)))
        for m in MERITS
    }


def pair_verdicts(values, rates, tolerance: Fraction) -> list[tuple[str, str, bool, tuple[bool, bool]]]:
    """(a, b, fair, per-class violation) for every value pair, in report order."""
    out = []
    for a, b in combinations(values, 2):
        violation = tuple(
            rates[a][m] is not None and rates[b][m] is not None and abs(rates[a][m] - rates[b][m]) > tolerance
            for m in MERITS
        )
        out.append((a, b, not any(violation), violation))
    return out


def _expect_overall_between(reported: tuple, rates: dict, where: str) -> None:
    """A fixed audit of heterogeneous rates: overall lies between the group extremes."""
    for m in MERITS:
        group = [r[m] for r in rates.values() if r[m] is not None]
        expect(reported[m] is not None, f"{where}: overall rate of class {m} missing")
        expect(min(group) <= reported[m] <= max(group),
               f"{where}: overall rate {reported[m]} of class {m} outside [{min(group)}, {max(group)}]")


def check_audit_json(path, exp: AuditExpect, empirical: dict | None = None) -> None:
    """Check an ``audit --format json`` report. ``empirical`` carries the
    configured pairs and trials of an ``audit --trials`` run."""
    doc = load_json(path)
    expect(doc["population"]["size"] == exp.n, "population size")
    mc = doc["population"]["merit_counts"]
    expect((mc["guilty"], mc["innocent"]) == exp.merit_counts, "merit counts")
    expect(doc["attribute"] == exp.attribute, "attribute")
    by_group = doc["rates"]["by_group"]
    expect(tuple(by_group) == exp.values, f"group order {tuple(by_group)} != {exp.values}")
    reported = {}
    for v in exp.values:
        r = by_group[v]
        counts = (exp.cells[v][GUILTY].count, exp.cells[v][INNOCENT].count)
        expect((r["support"]["guilty"], r["support"]["innocent"]) == counts, f"support of {v}")
        if empirical is None:
            expect_rational(r["h"], exp.rates[v][GUILTY], f"rate h of {v}")
            expect_rational(r["k"], exp.rates[v][INNOCENT], f"rate k of {v}")
            reported[v] = exp.rates[v]
        else:
            reported[v] = (Fraction(r["h"]["ratio"]), Fraction(r["k"]["ratio"]))
            expect_simulated(reported[v], counts, empirical["pair"], empirical["trials"], f"rates of {v}")
    overall = doc["rates"]["overall"]
    got_overall = tuple(None if overall[f] is None else Fraction(overall[f]["ratio"]) for f in ("h", "k"))
    if empirical is not None:
        expect_simulated(got_overall, exp.merit_counts, empirical["pair"], empirical["trials"], "overall rates")
        expect(doc["rate_source"] == "empirical", "rate source")
        expect(doc["simulation"] == {"seed": empirical["seed"], "trials": empirical["trials"]}, "simulation block")
    elif exp.ambiguous_overall:
        _expect_overall_between(got_overall, exp.rates, "overall")
    else:
        expect(got_overall == exp.overall, f"overall rates {got_overall} != {exp.overall}")
        expect(doc["rate_source"] == "exact", "rate source")
    tolerance = Fraction(doc["tolerance"]["ratio"])
    verdicts = pair_verdicts(exp.values, reported, tolerance)
    expect(len(doc["verdicts"]) == len(verdicts), "verdict count")
    for got, (a, b, fair, violation) in zip(doc["verdicts"], verdicts):
        expect((got["group_a"]["value"], got["group_b"]["value"]) == (a, b), f"verdict pair {a}|{b}")
        expect(got["fair"] is fair, f"verdict {a}|{b}: fair={got['fair']}, expected {fair}")
        expect(tuple(c["violation"] for c in got["classes"]) == violation, f"verdict {a}|{b} classes")
    expect(doc["fair"] is all(v[2] for v in verdicts), "overall verdict")
    _check_contingency_json(doc["contingency"], exp)
    _check_justice_json(doc["justice"], exp)


def _check_contingency_json(doc, exp: AuditExpect) -> None:
    expect(tuple(doc["groups"]) == exp.values, "contingency group order")
    for v in exp.values:
        for m in MERITS:
            got = doc["groups"][v][str(m)]
            cell = exp.cells[v][m]
            expect(got["count"] == cell.count, f"contingency count {v}/{m}")
            expect_rational(got["expected_convictions"], cell.convictions, f"contingency {v}/{m}")
            expect_rational(got["expected_acquittals"], cell.count - cell.convictions, f"acquittals {v}/{m}")
    for m, cell in total_cells(exp.cells).items():
        got = doc["totals"][str(m)]
        expect(got["count"] == cell.count, f"contingency total count {m}")
        expect_rational(got["expected_convictions"], cell.convictions, f"contingency total {m}")


def _check_justice_json(doc, exp: AuditExpect) -> None:
    groups = [(v, doc["per_group"][v], exp.cells[v]) for v in exp.values]
    for where, got, cells in groups + [("overall", doc["overall"], total_cells(exp.cells))]:
        total, mistaken, share = justice(cells)
        expect_rational(got["expected_convictions"], total, f"justice convictions {where}")
        expect_rational(got["mistaken_convictions"], mistaken, f"justice mistaken {where}")
        expect_rational(got["guilty_share"], share, f"justice guilty share {where}")


def check_audit_csv(path, exp: AuditExpect) -> None:
    rows = read_csv(path)
    expect(rows[0] == ["section", "group", "merit", "field", "ratio", "approx"], "csv header")
    table = {}
    for row in rows[1:]:
        expect(len(row) == 6, f"csv row width {row}")
        table[tuple(row[:4])] = (row[4], row[5])

    def cell(key, value: Fraction | None) -> None:
        want = ("", "") if value is None else (ratio(value), f"{float(value):.8f}")
        expect(table.get(key) == want, f"csv {key}: {table.get(key)} != {want}")

    for v in exp.values:
        cell(("rates", v, "0", "h"), exp.rates[v][GUILTY])
        cell(("rates", v, "1", "k"), exp.rates[v][INNOCENT])
    if exp.ambiguous_overall:
        got = tuple(Fraction(table[("rates", "overall", str(m), f)][0]) for m, f in ((0, "h"), (1, "k")))
        _expect_overall_between(got, exp.rates, "csv overall")
    else:
        cell(("rates", "overall", "0", "h"), exp.overall[GUILTY])
        cell(("rates", "overall", "1", "k"), exp.overall[INNOCENT])
    for v, cells in [(v, exp.cells[v]) for v in exp.values] + [("total", total_cells(exp.cells))]:
        for m in MERITS:
            count = str(cells[m].count)
            expect(table.get(("contingency", v, str(m), "count")) == (count, count), f"csv count {v}/{m}")
            cell(("contingency", v, str(m), "expected_convictions"), cells[m].convictions)
    for v, cells in [(v, exp.cells[v]) for v in exp.values] + [("overall", total_cells(exp.cells))]:
        total, mistaken, share = justice(cells)
        cell(("justice", v, "", "convictions"), total)
        cell(("justice", v, "", "mistaken_convictions"), mistaken)
        cell(("justice", v, "", "guilty_share"), share)
    verdicts = pair_verdicts(exp.values, exp.rates, Fraction(0))
    got_verdicts = [(k[1], val) for k, val in table.items() if k[0] == "verdict"]
    expect(len(got_verdicts) == len(verdicts), "csv verdict count")
    for (pair, val), (a, b, fair, _) in zip(got_verdicts, verdicts):
        expect(pair == f"{exp.attribute}={a}|{exp.attribute}={b}", f"csv verdict pair {pair}")
        expect(val == (str(fair), str(fair)), f"csv verdict {pair}: {val}, expected {fair}")


def check_audit(rc, stderr: str, path, exp: AuditExpect, fmt: str, empirical: dict | None = None) -> None:
    """An audit report. Heterogeneous per-group rates fail today with
    ``AmbiguousRateError`` from the overall row; any fix that reports the
    group rows, verdicts and cells correctly, with the overall rates between
    the group extremes, passes."""
    expect_exit(rc, 0, stderr)
    if fmt == "json":
        check_audit_json(path, exp, empirical)
    else:
        check_audit_csv(path, exp)


# --- simulation ----------------------------------------------------------------


def expect_simulated(got: tuple, support: tuple[int, int], pair: tuple, trials: int, where: str) -> None:
    """Empirical (h, k) lie within SIGMAS binomial standard deviations of ``pair``."""
    for m in MERITS:
        n = support[m] * trials
        if n == 0:
            expect(got[m] is None, f"{where}: class {m} has no support but a rate")
            continue
        p = float(pair[m])
        expect(got[m] is not None, f"{where}: class {m} rate missing")
        expect(got[m].denominator <= n and (got[m] * n).denominator == 1,
               f"{where}: class {m} rate {got[m]} is not a count over {n} member-trials")
        bound = SIGMAS * math.sqrt(p * (1 - p) / n)
        expect(abs(float(got[m]) - p) <= bound, f"{where}: class {m} rate {float(got[m]):.6f} outside {p}±{bound:.6f}")


def check_simulate(rc, stderr: str, path, rows: Rows, pair: tuple, trials: int, seed: int, fmt: str) -> None:
    expect_exit(rc, 0, stderr)
    if fmt == "json":
        check_simulate_json(path, rows, pair, trials, seed)
    else:
        check_simulate_csv(path, rows, pair, trials)


def check_simulate_json(path, rows: Rows, pair: tuple, trials: int, seed: int) -> None:
    doc = load_json(path)
    expect(doc["seed"] == seed and doc["trials"] == trials, "seed/trials")
    expect(doc["population_size"] == len(rows), "population size")
    support = merit_support(rows)
    emp = doc["empirical"]
    expect((emp["support"]["guilty"], emp["support"]["innocent"]) == support, "support")
    got = tuple(None if emp[f] is None else Fraction(emp[f]["ratio"]) for f in ("h", "k"))
    expect_simulated(got, support, pair, trials, "empirical")
    expect(doc["expected"] is not None, "expected rates missing")
    expect_rational(doc["expected"]["h"], pair[GUILTY], "expected h")
    expect_rational(doc["expected"]["k"], pair[INNOCENT], "expected k")


def check_simulate_csv(path, rows: Rows, pair: tuple, trials: int) -> None:
    table = {r[0]: r[1:] for r in read_csv(path)}
    expect(table.get("quantity") == ["ratio", "approx"], "csv header")
    got = tuple(Fraction(table[q][0]) for q in ("empirical_h", "empirical_k"))
    expect_simulated(got, merit_support(rows), pair, trials, "empirical")
    for q, value in (("expected_h", pair[GUILTY]), ("expected_k", pair[INNOCENT])):
        expect(table.get(q) == [ratio(value), f"{float(value):.8f}"], f"csv {q}")


def merit_support(rows: Rows) -> tuple[int, int]:
    innocent = int(rows.merit.sum())
    return len(rows) - innocent, innocent


# --- taxonomy ------------------------------------------------------------------

MERIT_AGNOSTIC = {"MeritAgnostic", "EveryoneConvicted", "EveryoneAcquitted"}


def taxonomy(h: Fraction, k: Fraction) -> str:
    """The README taxonomy at tolerance 0: corners, then edges, then the interior."""
    corners = {(1, 0): "PerfectlyJust", (1, 1): "EveryoneConvicted",
               (0, 0): "EveryoneAcquitted", (0, 1): "PerfectlyUnjust"}
    if (h, k) in corners:
        return corners[(h, k)]
    if h == 1:
        return "PerfectForGuilty"
    if k == 0:
        return "PerfectForInnocent"
    if h == k:
        return "MeritAgnostic"
    return "ImperfectlyJust" if h > k else "UnreasonablyUnjust"


def check_classify(rc, stderr, path, h: Fraction, k: Fraction, fmt: str) -> None:
    expect_exit(rc, 0, stderr)
    cls = taxonomy(h, k)
    if fmt == "text":
        expect(path.read_text(encoding="utf-8") == cls + "\n", f"class, expected {cls}")
        return
    doc = load_json(path)
    expect_rational(doc["h"], h, "h")
    expect_rational(doc["k"], k, "k")
    expect(doc["class"] == cls, f"class {doc['class']}, expected {cls}")
    expect(doc["merit_agnostic"] is (cls in MERIT_AGNOSTIC), "merit_agnostic flag")


def check_roc_csv(rc, stderr, path, points) -> None:
    expect_exit(rc, 0, stderr)
    rows = read_csv(path)
    expect(rows[0] == ["label", "h", "k", "x", "y", "class"], "csv header")
    expect(len(rows) == len(points) + 1, "one row per point")
    for row, (label, h, k) in zip(rows[1:], points):
        expect(row[0] == label, f"label {row[0]} != {label}")
        expect(row[1:3] == [f"{float(h):.8f}", f"{float(k):.8f}"], f"{label}: h, k")
        x, y = float(h - k) / math.sqrt(2), float(h + k) / math.sqrt(2)
        expect(abs(float(row[3]) - x) <= 1e-8 and abs(float(row[4]) - y) <= 1e-8, f"{label}: diamond x, y")
        expect(row[5] == taxonomy(h, k), f"{label}: class {row[5]}")


def check_roc_svg(rc, stderr, path, points) -> None:
    expect_exit(rc, 0, stderr)
    try:
        root = ET.fromstring(path.read_text(encoding="utf-8"))
    except ET.ParseError as exc:
        raise WrongOutput(f"SVG does not parse: {exc}") from exc
    ns = "{http://www.w3.org/2000/svg}"
    titles = [c.findtext(f"{ns}title") or "" for c in root.iter(f"{ns}circle")]
    expect(len(titles) == len(points), "one marker per point")
    for title, (label, h, k) in zip(titles, points):
        expect(title.startswith(f"{label}:") and title.endswith(taxonomy(h, k)), f"marker title {title!r}")


# --- witness and bipartitions ---------------------------------------------------


def violating_bipartitions(merit: np.ndarray, prob: list[Fraction]) -> list[tuple[int, tuple[int, ...]]]:
    """(subset mask, violated classes) of every bipartition unfair at tolerance 0.

    The first member always stays in the complement, so each unordered split
    appears once, in increasing mask order. Computed with a numpy bit matrix
    over integer numerators, independently of procfair's enumerators.
    """
    n = len(merit)
    if n < 2:
        return []
    den = math.lcm(*(p.denominator for p in prob))
    num = np.array([p.numerator * (den // p.denominator) for p in prob], dtype=np.int64)
    masks = np.arange(1, 1 << (n - 1), dtype=np.int64) << 1
    bits = (masks[:, None] >> np.arange(n)) & 1
    violated = []
    for m in MERITS:
        in_class = (merit == m).astype(np.int64)
        count = bits @ in_class
        total = bits @ (in_class * num)
        count_other = int(in_class.sum()) - count
        total_other = int((in_class * num).sum()) - total
        both = (count > 0) & (count_other > 0)
        violated.append(both & (total * count_other != total_other * count))
    out = []
    for i in np.flatnonzero(violated[0] | violated[1]).tolist():
        out.append((int(masks[i]), tuple(m for m in MERITS if violated[m][i])))
    return out


@dataclass(frozen=True)
class WitnessExpect:
    violated: tuple[int, ...]
    perfect: bool
    procedure_class: str | None
    searched: bool
    violations: list  # [(subset ids, complement ids, classes)]


def expect_witness(rows: Rows, max_n: int = 15) -> WitnessExpect:
    merit, crit = rows.merit, rows.criterion
    violated = tuple(m for m in MERITS if {0, 1} <= set(crit[merit == m].tolist()))
    rates = []
    for m in MERITS:
        in_class = merit == m
        rates.append(Fraction(int((crit[in_class] == 0).sum()), int(in_class.sum())) if in_class.any() else None)
    cls = taxonomy(*rates) if None not in rates else None
    searched = len(rows) <= max_n
    violations = []
    if searched:
        prob = [Fraction(1 - int(x)) for x in crit]
        for mask, classes in violating_bipartitions(merit, prob):
            inside = [i for i in range(len(rows)) if mask >> i & 1]
            subset = tuple(sorted(rows.ids[i] for i in inside))
            complement = tuple(sorted(set(rows.ids) - set(subset)))
            violations.append((subset, complement, classes))
    return WitnessExpect(violated, bool((merit == crit).all()), cls, searched, violations)


def check_witness(rc, stderr, path, exp: WitnessExpect, fmt: str) -> None:
    expect_exit(rc, 2 if exp.violated else 0, stderr)
    if fmt == "text":
        lines = path.read_text(encoding="utf-8").splitlines()
        expect(lines[0].startswith("violation:") == bool(exp.violated), "first line")
        if exp.procedure_class:
            expect(f"empirical classification: {exp.procedure_class}" in lines, "classification line")
        want = (f"exhaustive search: {len(exp.violations)} violating bipartition(s)" if exp.searched
                else "exhaustive search skipped (population exceeds --max-n 15)")
        expect(want in lines, f"missing line {want!r}")
        return
    doc = load_json(path)
    w = doc["witness"]
    expect(tuple(w["violated_merit_classes"]) == exp.violated, "violated classes")
    for j in exp.violated:
        probs = w["class_probabilities"][str(j)]
        expect_rational(probs["x0"], Fraction(1), f"class {j} x0")
        expect_rational(probs["x1"], Fraction(0), f"class {j} x1")
    expect(w["procedure_class"] == exp.procedure_class, f"class {w['procedure_class']}")
    expect(w["perfect"] is exp.perfect, "perfect flag")
    expect(w["unwitnessable"] is (not exp.perfect and not exp.violated), "unwitnessable flag")
    ex = doc["exhaustive"]
    expect(ex["searched"] is exp.searched, "searched flag")
    got = [(tuple(v["subset"]), tuple(v["complement"]), tuple(v["violated_merit_classes"])) for v in ex["violations"]]
    expect(got == exp.violations, f"{len(got)} bipartitions reported, {len(exp.violations)} expected")


def check_absolute(report, rows: Rows, prob: list[Fraction]) -> None:
    """``check_absolute_fairness(mode="bipartitions")`` against the bit-matrix oracle."""
    want = violating_bipartitions(rows.merit, prob)
    expect(report.mode == "bipartitions" and not report.truncated, "mode / truncation")
    expect(report.fair is (not want), f"fair={report.fair}, expected {not want}")
    got = []
    for v in report.violations:
        got.append((sum(1 << rows.ids.index(i) for i in v.group_a.ids), tuple(v.merit_classes)))
    expect(got == want, f"{len(got)} violating bipartitions, expected {len(want)}")


def member_probabilities(rows: Rows, proc: dict) -> list[Fraction]:
    pairs, pair_of = member_pairs(rows, proc)
    return [pairs[p][m] for p, m in zip(pair_of.tolist(), rows.merit.tolist())]


def check_theorem(report, n_individuals: int, n_trials: int) -> None:
    expect(report.passed and not report.counterexamples, f"counterexamples: {report.counterexamples[:1]}")
    expect((report.n_individuals, report.n_trials) == (n_individuals, n_trials), "sizes")
    counted = report.perfect_instances + report.witnessed_instances + report.unwitnessable_instances
    expect(counted == n_trials, f"instance counts sum to {counted}, not {n_trials}")


# --- example1 ------------------------------------------------------------------

EXAMPLE1_CELLS = {  # value -> merit -> (count, expected convictions)
    "M": {GUILTY: (2000, 2000 * Fraction(3, 4)), INNOCENT: (4000, 4000 * Fraction(1, 10))},
    "F": {GUILTY: (500, 500 * Fraction(3, 4)), INNOCENT: (3500, 3500 * Fraction(1, 10))},
}


def check_example1(rc, stderr, path) -> None:
    expect_exit(rc, 0, stderr)
    doc = load_json(path)
    expect(doc["population"]["size"] == 10000, "population size")
    expect([s["name"] for s in doc["stages"]] == ["global", "group-fair"], "stages")
    for stage in doc["stages"]:
        for value, by_merit in EXAMPLE1_CELLS.items():
            for m, (count, conv) in by_merit.items():
                got = stage["contingency"]["groups"][value][str(m)]
                expect(got["count"] == count, f"{stage['name']} {value}/{m} count")
                expect_rational(got["expected_convictions"], conv, f"{stage['name']} {value}/{m} convictions")
        expect(stage["verdict"]["fair"] is True, f"{stage['name']} verdict")
        expect(stage["classification"] == "ImperfectlyJust", f"{stage['name']} classification")
