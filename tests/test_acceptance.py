"""Acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and prints
one ``[acceptance] ... PASS/FAIL`` line (run pytest with ``-s`` to see the
lines as they happen). All expectations are exact rational equalities unless
a numeric tolerance is part of the criterion itself.
"""

import math
import time
from fractions import Fraction

import numpy as np

from procfair.demo import demo_global_procedure, demo_population
from procfair.fairness import (
    check_absolute_fairness,
    check_pairwise_fairness,
    expected_contingency,
    justice_metrics,
)
from procfair.population import (
    GUILTY,
    INNOCENT,
    AttributeEquals,
    Individual,
    Population,
)
from procfair.procedure import (
    empirical_rates,
    exact_rates,
    global_procedure,
    make_group_fair,
    simulate,
)
from procfair.roc import ProcedureClass, RocPoint, classify, to_diamond
from procfair.theorem import exhaustive_search, verify_theorem

from test_roc import expected_class  # the one independent nine-way oracle


def report(name: str, passed: bool, elapsed: float | None = None) -> None:
    status = "PASS" if passed else "FAIL"
    timing = "" if elapsed is None else f" ({elapsed:.2f}s)"
    print(f"[acceptance] {name}: {status}{timing}")
    assert passed, name


def test_criterion_1_scenario_reproduction_exact():
    start = time.perf_counter()
    pop = demo_population()
    proc = global_procedure(Fraction(3, 4), Fraction(1, 10))
    table = expected_contingency(pop, proc, "sex")
    totals = table.totals()
    metrics = justice_metrics(table)
    elapsed = time.perf_counter() - start

    checks = [
        totals[GUILTY].expected_convictions == 1875,
        totals[INNOCENT].expected_convictions == 750,
        table.cell("M", GUILTY).expected_convictions == 1500,
        table.cell("M", INNOCENT).expected_convictions == 400,
        table.cell("F", GUILTY).expected_convictions == 375,
        table.cell("F", INNOCENT).expected_convictions == 350,
        metrics.per_group["M"].convictions == 1900,
        metrics.per_group["M"].mistaken_convictions == 400,
        metrics.per_group["F"].guilty_share == Fraction(375, 725),
        elapsed < 1.0,
    ]
    report("1 scenario reproduction (exact)", all(checks), elapsed)


def test_criterion_2_group_fair_yet_imperfectly_just():
    pop = demo_population()
    proc = make_group_fair(Fraction(3, 4), Fraction(1, 10), "sex", {"M", "F"})
    rates_m = exact_rates(proc, pop, AttributeEquals("sex", "M"))
    rates_f = exact_rates(proc, pop, AttributeEquals("sex", "F"))
    verdict = check_pairwise_fairness(rates_m, rates_f, 0)
    cls = classify(RocPoint(rates_m.h, rates_m.k), eps=0)
    passed = verdict.fair and cls is ProcedureClass.IMPERFECTLY_JUST
    report("2 group-fair verdict with imperfect justice", passed)


def test_criterion_3_taxonomy_grid():
    steps = 100  # 100 x 100 rational grid covering the unit square corners included
    grid = [
        (Fraction(i, steps - 1), Fraction(j, steps - 1))
        for i in range(steps)
        for j in range(steps)
    ]
    start = time.perf_counter()
    got = [classify(RocPoint(h, k), eps=0) for h, k in grid]
    elapsed = time.perf_counter() - start

    matches = all(cls is expected_class(h, k) for cls, (h, k) in zip(got, grid))
    all_nine = set(got) == set(ProcedureClass)
    report(
        "3 taxonomy coverage on 10^4-point grid",
        matches and all_nine and len(got) == steps * steps and elapsed < 1.0,
        elapsed,
    )


def test_criterion_4_impossibility_property():
    start = time.perf_counter()
    result = verify_theorem(10, 1000, seed=42)
    elapsed = time.perf_counter() - start
    passed = result.passed and result.counterexamples == () and elapsed < 60.0
    report(
        f"4 impossibility theorem (1000 random instances, "
        f"{result.witnessed_instances} witnessed)",
        passed,
        elapsed,
    )


def test_criterion_5_randomized_exemption():
    start = time.perf_counter()
    coin = global_procedure(Fraction(1, 2), Fraction(1, 2))
    rng = np.random.default_rng(7)
    ok = True
    for n in (2, 5, 9, 12):
        merits = [int(m) for m in rng.integers(0, 2, size=n)]
        pop = Population(Individual(f"p{i}", m) for i, m in enumerate(merits))
        ok = ok and exhaustive_search(pop, max_n=12, proc=coin) == ()
        ok = ok and check_absolute_fairness(coin, pop, mode="bipartitions", max_n=12).fair
    elapsed = time.perf_counter() - start
    report("5 randomized exemption (coin toss, n <= 12)", ok and elapsed < 10.0, elapsed)


def test_criterion_6_monte_carlo_consistency():
    start = time.perf_counter()
    pop = demo_population()  # 2500 guilty, 7500 innocent
    trials = 400  # 2500 * 400 = 10^6 guilty-trials
    rates = empirical_rates(pop, simulate(demo_global_procedure(), pop, seed=2026, trials=trials))
    elapsed = time.perf_counter() - start

    n_guilty_trials = 2500 * trials
    n_innocent_trials = 7500 * trials
    bound_h = 3 * math.sqrt(0.75 * 0.25 / n_guilty_trials)
    bound_k = 3 * math.sqrt(0.10 * 0.90 / n_innocent_trials)
    ok = (
        n_guilty_trials >= 10**6
        and abs(float(rates.h) - 0.75) < bound_h
        and abs(float(rates.k) - 0.10) < bound_k
        and elapsed < 30.0
    )
    report("6 Monte-Carlo consistency (10^6 guilty-trials)", ok, elapsed)


def test_criterion_7_diamond_geometry():
    half = math.sqrt(2) / 2
    corners = {
        (0, 0): (0.0, 0.0),  # everyone acquitted, bottom
        (1, 0): (half, half),  # perfectly just, right
        (0, 1): (-half, half),  # perfectly unjust, left
        (1, 1): (0.0, 2 * half),  # everyone convicted, top
    }
    ok = all(
        max(abs(a - b) for a, b in zip(to_diamond(RocPoint(h, k)), expected)) < 1e-12
        for (h, k), expected in corners.items()
    )
    rng = np.random.default_rng(7)
    for _ in range(100):
        h1, k1, h2, k2 = rng.random(4)
        native = math.dist((h1, k1), (h2, k2))
        mapped = math.dist(to_diamond(RocPoint(h1, k1)), to_diamond(RocPoint(h2, k2)))
        ok = ok and abs(native - mapped) < 1e-12
    report("7 diamond geometry (corners and isometry)", ok)
