"""Tests of the benchmark itself: every workload at a tiny size through the
same checks, and the independent checks against hand-computed cases.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import inputs
import oracle
import refclock
import run
import tracing
import workloads

F = Fraction


@pytest.fixture(scope="module")
def pkg():
    return run.import_procfair()


def hand_rows(merit, criterion, region, sex=None) -> inputs.Rows:
    n = len(merit)
    return inputs.Rows(
        ids=tuple(f"i{i}" for i in range(n)),
        merit=np.array(merit, dtype=np.int8),
        criterion=np.array(criterion, dtype=np.int8),
        attrs={"sex": (inputs.SEX_VALUES, np.array(sex or [0] * n, dtype=np.int8)),
               "region": (inputs.region_values(max(region) + 1), np.array(region, dtype=np.int16))},
    )


# --- the benchmark definition ------------------------------------------------------


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["audit-large", "simulate-trials", "small-inputs"]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


# --- every workload, tiny, through the same checks -----------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.SIZES))
def test_workload_runs_and_checks_at_tiny_size(name):
    result, detail = run.run(name, seed=3, seconds=0, trace=False, sizes=workloads.TINY_SIZES[name])
    assert result["correct"], detail["wrong"]
    assert set(result["metrics"]) == set(run.E2E_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    if name == "audit-large":
        # exactly the heterogeneous per-group audits fail, with AmbiguousRateError
        assert (result["attempted"], result["failed"]) == (10, 2)
        assert [f.split(":")[0] for f in detail["failures"]] == ["audit-unequal-csv", "audit-unequal-json"]
        assert all(oracle.AMBIGUOUS_MESSAGE in f for f in detail["failures"])
    else:
        assert result["failed"] == 0, detail["failures"]


@pytest.mark.parametrize("name", sorted(workloads.SIZES))
def test_traced_run_reports_every_layer_metric(name):
    result, detail = run.run(name, seed=4, seconds=0, trace=True, sizes=workloads.TINY_SIZES[name])
    assert result["correct"], detail["wrong"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [m for m, _, _ in tracing.PER_LAYER]
    assert 0 < metrics["trace.coverage"] <= 1
    assert metrics["population.load_population.s"] > 0
    assert (run.ROOT / detail["spans"]).is_file()
    if name == "audit-large":
        # per round: 16 groups + overall in 6 region audits, 2 + 1 in 2 sex audits, 1 per witness
        assert metrics["procedure.exact_rates.calls"] == 6 * 17 + 2 * 3 + 2 * 1
        assert metrics["fairness.check_pairwise_fairness.calls"] == 4 * 120 + 2 * 1
        assert metrics["procedure.simulate.s"] == 0
    if name == "simulate-trials":
        assert metrics["procedure.simulate.member_trials_per_s"] > 0
        assert metrics["procedure.simulate.alloc_mb"] > 0
        assert metrics["procedure.empirical_rates.calls"] == 4 * 1 + 2 * 5
    if name == "small-inputs":
        assert metrics["fairness.check_absolute_fairness.bipartitions_per_s"] > 0
        assert metrics["theorem.exhaustive_search.bipartitions_per_s"] > 0


def test_run_refuses_a_directory_without_procfair(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "small-inputs", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no procfair package" in proc.stderr


# --- the independent checks against hand-computed cases ------------------------------------


def test_audit_expectation_by_hand():
    # r00: innocents i0 (X=1), i1 (X=0) and guilty i2 (X=0); r01: guilty i3 (X=0), i4 (X=1)
    rows = hand_rows([1, 1, 0, 0, 0], [1, 0, 0, 0, 1], [0, 0, 0, 1, 1])
    exp = oracle.expect_audit(rows, inputs.DETERMINISTIC, "region")
    assert exp.values == ("r00", "r01")
    assert exp.rates == {"r00": (F(1), F(1, 2)), "r01": (F(1, 2), None)}
    assert exp.overall == (F(2, 3), F(1, 2))
    assert exp.cells["r01"][0] == oracle.Cell(2, F(1))
    assert not exp.ambiguous_overall
    g = oracle.expect_audit(rows, inputs.GLOBAL, "region")
    assert g.cells["r00"][0] == oracle.Cell(1, F(3, 4)) and g.cells["r00"][1] == oracle.Cell(2, F(1, 5))
    u = oracle.expect_audit(rows, inputs.per_group_unequal("region", ("r00", "r01")), "region")
    assert u.ambiguous_overall
    assert u.rates == {"r00": (F(4, 24), F(1, 48)), "r01": (F(5, 24), None)}
    assert oracle.pair_verdicts(exp.values, exp.rates, F(0)) == [("r00", "r01", False, (True, False))]


def test_taxonomy_by_hand():
    cases = {(1, 0): "PerfectlyJust", (1, 1): "EveryoneConvicted", (0, 0): "EveryoneAcquitted",
             (0, 1): "PerfectlyUnjust", (1, F(1, 2)): "PerfectForGuilty", (F(1, 2), 0): "PerfectForInnocent",
             (F(1, 3), F(1, 3)): "MeritAgnostic", (F(3, 4), F(1, 10)): "ImperfectlyJust",
             (0, F(1, 2)): "UnreasonablyUnjust"}
    for (h, k), cls in cases.items():
        assert oracle.taxonomy(F(h), F(k)) == cls


def test_bipartition_oracle_and_witness_by_hand():
    # a: innocent, X=1; b: innocent, X=0; c: guilty, X=0
    rows = hand_rows([1, 1, 0], [1, 0, 0], [0, 0, 0])
    prob = [F(1 - x) for x in (1, 0, 0)]
    assert oracle.violating_bipartitions(rows.merit, prob) == [(0b010, (1,)), (0b110, (1,))]
    assert oracle.violating_bipartitions(rows.merit, [F(1, 2)] * 3) == []
    w = oracle.expect_witness(rows)
    assert (w.violated, w.perfect, w.procedure_class) == ((1,), False, "PerfectForGuilty")
    assert w.violations == [(("i1",), ("i0", "i2"), (1,)), (("i1", "i2"), ("i0",), (1,))]


def test_simulated_rates_bound():
    oracle.expect_simulated((F(750, 1000), F(10, 100)), (10, 1), (F(3, 4), F(1, 10)), 100, "ok")
    with pytest.raises(oracle.WrongOutput):
        oracle.expect_simulated((F(900, 1000), F(10, 100)), (10, 1), (F(3, 4), F(1, 10)), 100, "far")
    with pytest.raises(oracle.WrongOutput):  # not a count over support x trials
        oracle.expect_simulated((F(3, 4), F(1, 3)), (10, 1), (F(3, 4), F(1, 3)), 100, "denominator")


def test_reference_scale():
    assert refclock.scale([0.002] * 8) == pytest.approx(refclock.REF_NOMINAL_S / 0.002)
    assert refclock.reference_loop() == refclock.reference_loop()


# --- the checks catch wrong outputs and the known failure ------------------------------------


@pytest.fixture
def small(pkg, tmp_path):
    rows = inputs.make_rows(7, 1, 60, 4, "p")
    pop = tmp_path / "pop.csv"
    pop.write_text(inputs.population_csv(rows))
    return rows, pop, tmp_path


def _audit(pkg, pop, tmp_path, proc, fmt, attribute="region"):
    path = tmp_path / "proc.json"
    path.write_text(json.dumps(proc))
    out = tmp_path / f"out.{fmt}"
    rc = pkg.cli.main(["audit", "--population", str(pop), "--procedure", str(path),
                       "--attribute", attribute, "--format", fmt, "--out", str(out)])
    return rc, out


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_audit_check_passes_then_catches_a_changed_cell(pkg, small, fmt):
    rows, pop, tmp_path = small
    exp = oracle.expect_audit(rows, inputs.DETERMINISTIC, "region")
    rc, out = _audit(pkg, pop, tmp_path, inputs.DETERMINISTIC, fmt)
    oracle.check_audit(rc, "", out, exp, fmt)
    value = exp.values[0]
    wrong = oracle.ratio(exp.cells[value][0].convictions + 1)
    if fmt == "json":
        doc = json.loads(out.read_text())
        doc["contingency"]["groups"][value]["0"]["expected_convictions"]["ratio"] = wrong
        out.write_text(json.dumps(doc))
    else:
        rows = [r.split(",") for r in out.read_text().splitlines()]
        for r in rows:
            if r[:4] == ["contingency", value, "0", "expected_convictions"]:
                r[4] = wrong
        out.write_text("\n".join(",".join(r) for r in rows) + "\n")
    with pytest.raises(oracle.WrongOutput):
        oracle.check_audit(rc, "", out, exp, fmt)


def test_unequal_audit_fails_with_ambiguous_rates(pkg, small, capsys):
    rows, pop, tmp_path = small
    proc = inputs.per_group_unequal("region", rows.attrs["region"][0])
    rc, out = _audit(pkg, pop, tmp_path, proc, "json")
    err = capsys.readouterr().err
    with pytest.raises(oracle.OpFailed, match=oracle.AMBIGUOUS_MESSAGE):
        oracle.check_audit(rc, err, out, oracle.expect_audit(rows, proc, "region"), "json")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_unequal_audit_check_accepts_a_fix(pkg, small, monkeypatch, fmt):
    """With the overall row computed as the mean member conviction probability
    per merit class, the same check passes."""
    rows, pop, tmp_path = small
    proc = inputs.per_group_unequal("region", rows.attrs["region"][0])
    original = pkg.cli.exact_rates

    def mean_rates(p, population, g=None):
        try:
            return original(p, population, g)
        except pkg.AmbiguousRateError:
            table = pkg.expected_contingency(population, p, "region").totals()
            return pkg.ConditionalRates(table[0].expected_convictions / table[0].count,
                                        table[1].expected_convictions / table[1].count,
                                        (table[0].count, table[1].count))

    monkeypatch.setattr(pkg.cli, "exact_rates", mean_rates)
    rc, out = _audit(pkg, pop, tmp_path, proc, fmt)
    oracle.check_audit(rc, "", out, oracle.expect_audit(rows, proc, "region"), fmt)


def test_witness_check_catches_a_wrong_exit_code_and_listing(pkg, small):
    rows, pop, tmp_path = small
    exp = oracle.expect_witness(rows)
    out = tmp_path / "w.json"
    rc = pkg.cli.main(["witness", "--population", str(pop), "--format", "json", "--out", str(out)])
    oracle.check_witness(rc, "", out, exp, "json")
    with pytest.raises(oracle.WrongOutput):
        oracle.check_witness(0, "", out, exp, "json")
    doc = json.loads(out.read_text())
    doc["witness"]["violated_merit_classes"] = [1]
    out.write_text(json.dumps(doc))
    with pytest.raises(oracle.WrongOutput):
        oracle.check_witness(rc, "", out, exp, "json")


def test_same_seed_check_catches_changed_bytes(tmp_path):
    out = tmp_path / "o.txt"
    check = workloads._same_bytes(lambda rc, err, path: None)
    out.write_text("a")
    check(0, "", out)
    check(0, "", out)
    out.write_text("b")
    with pytest.raises(oracle.WrongOutput):
        check(0, "", out)


# --- tracing ------------------------------------------------------------------------


def test_tracing_patches_every_namespace_and_restores(pkg):
    original = pkg.population.load_population
    recorder = tracing.SpanRecorder()
    with tracing.installed(recorder):
        assert pkg.cli.load_population is not original
        assert pkg.load_population is pkg.cli.load_population
        recorder.op = 0
        pop = pkg.load_population("id,J,X,attrs\na,1,1,sex=M\nb,0,0,sex=F\n")
        pkg.construct_witness(pop)
    assert pkg.cli.load_population is original and pkg.population.load_population is original
    names = [s[1] for s in recorder.spans]
    assert names == ["population.load_population", "theorem.construct_witness", "procedure.exact_rates",
                     "roc.classify"]
    parents = {s[1]: s[4] for s in recorder.spans}
    assert parents["procedure.exact_rates"] == 1 and parents["theorem.construct_witness"] == -1
    assert recorder.spans[0][5] == 2  # rows loaded
