import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procfair.cli import build_parser, main
from procfair.demo import demo_population
from procfair.population import dump_population
from procfair.roc import RocPoint, classify, export_diagram

PERFECT_CSV = "id,J,X,attrs\na,1,1,\nb,0,0,\n"
IMPERFECT_CSV = "id,J,X,attrs\na,1,1,\nb,1,0,\nc,0,0,\n"
GLOBAL_PROC = '{"type": "randomized", "rates": {"global": ["3/4", "1/10"]}}'
GROUP_FAIR_PROC = (
    '{"type": "randomized", "attribute": "sex",'
    ' "rates": {"M": ["3/4", "1/10"], "F": ["3/4", "1/10"]}}'
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_the_parser_is_built_once():
    assert build_parser() is build_parser()


# --- classify ----------------------------------------------------------------


def test_classify_text(capsys):
    code, out, _ = run(capsys, "classify", "--h", "0.75", "--k", "0.1")
    assert code == 0
    assert out == "ImperfectlyJust\n"


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "--h", "1/2", "--k", "1/2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["class"] == "MeritAgnostic"
    assert doc["merit_agnostic"] is True
    assert doc["h"] == {"ratio": "1/2", "approx": 0.5}


def test_classify_bad_probability_exits_nonzero(capsys):
    code, _, err = run(capsys, "classify", "--h", "1.5", "--k", "0")
    assert code == 1
    assert "error:" in err


# --- example1 ----------------------------------------------------------------


def test_example1_reports_scenario_numbers(capsys):
    code, out, _ = run(capsys, "example1")
    assert code == 0
    assert "guilty 1875, innocent 750" in out
    assert "guilty convicted 1500, innocent convicted 400" in out
    assert "guilty convicted 375, innocent convicted 350" in out
    assert "1900 convictions, 400 mistaken" in out
    assert "15/29" in out  # the reduced form of 375/725
    assert "10000" in out and "12000" in out  # the data note
    assert "fair" in out
    assert "ImperfectlyJust" in out


def test_example1_is_byte_identical_across_runs(capsys):
    _, first, _ = run(capsys, "example1")
    _, second, _ = run(capsys, "example1")
    assert first == second


def test_example1_csv(capsys):
    code, out, _ = run(capsys, "example1", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("stage,group,merit,count")
    assert any("1875.00000000" in line for line in lines)
    assert any("750.00000000" in line for line in lines)


def test_example1_json(capsys):
    code, out, _ = run(capsys, "example1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    totals = doc["stages"][0]["contingency"]["totals"]
    assert totals["0"]["expected_convictions"]["ratio"] == "1875/1"
    assert totals["1"]["expected_convictions"]["ratio"] == "750/1"
    assert doc["stages"][1]["verdict"]["fair"] is True


def test_example1_stages_are_the_sex_audits_of_its_population(capsys, tmp_path):
    pop_file = tmp_path / "population.csv"
    pop_file.write_text(dump_population(demo_population()), encoding="utf-8")
    _, out, _ = run(capsys, "example1", "--format", "json")
    stages = json.loads(out)["stages"]
    assert [stage["name"] for stage in stages] == ["global", "group-fair"]
    for stage, procedure in zip(stages, (GLOBAL_PROC, GROUP_FAIR_PROC)):
        proc_file = tmp_path / f"{stage['name']}.json"
        proc_file.write_text(procedure, encoding="utf-8")
        code, out, err = run(
            capsys,
            "audit",
            "--population", str(pop_file),
            "--procedure", str(proc_file),
            "--attribute", "sex",
            "--format", "json",
        )
        assert (code, err) == (0, "")
        audit = json.loads(out)
        assert stage["procedure"] == audit["procedure"]
        assert stage["rates_by_group"] == audit["rates"]["by_group"]
        assert stage["verdict"] == audit["verdicts"][0]
        assert stage["contingency"] == audit["contingency"]
        assert stage["justice"] == audit["justice"]
        overall = audit["rates"]["overall"]
        point = RocPoint(overall["h"]["ratio"], overall["k"]["ratio"])
        assert stage["classification"] == classify(point).value


def _checkout_env() -> dict:
    """The environment for a fresh interpreter that imports this checkout's ``src/``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


@pytest.mark.parametrize(
    "modules", [("procfair.demo", "procfair.cli"), ("procfair.cli", "procfair.demo")]
)
def test_demo_and_cli_import_in_either_order(modules):
    """A fresh interpreter imports both modules in either order and runs example1."""
    script = "".join(f"import {name}\n" for name in modules) + "procfair.demo.demo_report()\n"
    proc = subprocess.run(
        [sys.executable, "-c", script], env=_checkout_env(), capture_output=True, text=True
    )
    assert (proc.returncode, proc.stderr) == (0, "")


# --- audit -------------------------------------------------------------------


@pytest.fixture
def demo_files(tmp_path):
    pop_file = tmp_path / "population.csv"
    pop_file.write_text(dump_population(demo_population()), encoding="utf-8")
    proc_file = tmp_path / "procedure.json"
    proc_file.write_text(GROUP_FAIR_PROC, encoding="utf-8")
    return pop_file, proc_file


def test_audit_scenario_files(capsys, demo_files):
    pop_file, proc_file = demo_files
    code, out, _ = run(
        capsys,
        "audit",
        "--population", str(pop_file),
        "--procedure", str(proc_file),
        "--attribute", "sex",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["fair"] is True
    totals = doc["contingency"]["totals"]
    assert totals["0"]["expected_convictions"]["approx"] == 1875.0
    assert totals["1"]["expected_convictions"]["approx"] == 750.0
    assert doc["rates"]["by_group"]["M"]["h"]["ratio"] == "3/4"
    assert doc["justice"]["per_group"]["F"]["guilty_share"]["ratio"] == "15/29"


def test_audit_missing_procedure_file(capsys, tmp_path):
    pop_file = tmp_path / "population.csv"
    pop_file.write_text(PERFECT_CSV, encoding="utf-8")
    code, _, err = run(
        capsys,
        "audit",
        "--population", str(pop_file),
        "--procedure", str(tmp_path / "nope.json"),
        "--attribute", "sex",
    )
    assert code == 1
    assert "error:" in err


def test_audit_zero_tolerance_with_simulation_warns(capsys, tmp_path):
    pop_file = tmp_path / "population.csv"
    pop_file.write_text(
        "id,J,X,attrs\na,1,,sex=M\nb,0,,sex=M\nc,1,,sex=F\nd,0,,sex=F\n", encoding="utf-8"
    )
    proc_file = tmp_path / "procedure.json"
    proc_file.write_text(GROUP_FAIR_PROC, encoding="utf-8")
    code, out, err = run(
        capsys,
        "audit",
        "--population", str(pop_file),
        "--procedure", str(proc_file),
        "--attribute", "sex",
        "--trials", "50",
        "--tolerance", "0",
    )
    assert code == 0
    assert "degenerate" in err
    assert json.loads(out)["rate_source"] == "empirical"


def test_audit_csv_format(capsys, demo_files):
    pop_file, proc_file = demo_files
    code, out, _ = run(
        capsys,
        "audit",
        "--population", str(pop_file),
        "--procedure", str(proc_file),
        "--attribute", "sex",
        "--format", "csv",
    )
    assert code == 0
    assert out.startswith("section,group,merit,field,ratio,approx")
    assert "contingency,total,0,expected_convictions,1875/1,1875.00000000" in out


def test_audit_attribute_no_member_has_is_an_error(capsys, demo_files):
    pop_file, proc_file = demo_files
    code, out, err = run(
        capsys,
        "audit", "--population", str(pop_file), "--procedure", str(proc_file),
        "--attribute", "age",
    )
    assert code == 1 and out == ""
    assert err == "error: no member has a value for attribute 'age'\n"


def test_audit_csv_leaves_an_empty_merit_class_blank(capsys, tmp_path):
    pop_file = tmp_path / "innocent.csv"
    pop_file.write_text("id,J,X,attrs\na,1,,sex=M\nb,1,,sex=F\n", encoding="utf-8")
    proc_file = tmp_path / "procedure.json"
    proc_file.write_text(GROUP_FAIR_PROC, encoding="utf-8")
    code, out, _ = run(
        capsys,
        "audit", "--population", str(pop_file), "--procedure", str(proc_file),
        "--attribute", "sex", "--format", "csv",
    )
    assert code == 0
    rows = out.splitlines()
    for group in ("overall", "M", "F"):
        assert f"rates,{group},0,h,," in rows
        assert f"rates,{group},1,k,1/10,0.10000000" in rows


# --- witness -----------------------------------------------------------------


def test_witness_perfect_population_exits_zero(capsys, tmp_path):
    pop_file = tmp_path / "perfect.csv"
    pop_file.write_text(PERFECT_CSV, encoding="utf-8")
    code, out, _ = run(capsys, "witness", "--population", str(pop_file))
    assert code == 0
    assert "no violation" in out


def test_witness_violation_exits_two(capsys, tmp_path):
    pop_file = tmp_path / "imperfect.csv"
    pop_file.write_text(IMPERFECT_CSV, encoding="utf-8")
    code, out, _ = run(capsys, "witness", "--population", str(pop_file))
    assert code == 2
    assert "violation" in out
    assert "{X=0}/{X=1}" in out


def test_witness_json_format(capsys, tmp_path):
    pop_file = tmp_path / "imperfect.csv"
    pop_file.write_text(IMPERFECT_CSV, encoding="utf-8")
    code, out, _ = run(capsys, "witness", "--population", str(pop_file), "--format", "json")
    assert code == 2
    doc = json.loads(out)
    assert doc["witness"]["violated_merit_classes"] == [1]
    assert doc["witness"]["class_probabilities"]["1"]["x0"]["approx"] == 1.0
    assert doc["exhaustive"]["searched"] is True
    subsets = [v["subset"] for v in doc["exhaustive"]["violations"]]
    assert ["b"] in subsets


def test_witness_skips_search_beyond_max_n(capsys, tmp_path):
    # six innocents straddling the criterion split: witnessable
    rows = ["id,J,X,attrs"] + [f"p{i},1,{i % 2}," for i in range(6)]
    pop_file = tmp_path / "big.csv"
    pop_file.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code, out, _ = run(
        capsys, "witness", "--population", str(pop_file), "--max-n", "4"
    )
    assert code == 2
    assert "skipped" in out


def test_witness_text_names_an_unwitnessable_population(capsys, tmp_path):
    # every guilty member has X=1 and every innocent one X=0: imperfect, yet no
    # merit class straddles the criterion split
    pop_file = tmp_path / "unjust.csv"
    pop_file.write_text("id,J,X,attrs\na,1,0,\nb,0,1,\n", encoding="utf-8")
    code, out, _ = run(capsys, "witness", "--population", str(pop_file), "--format", "text")
    assert code == 0
    assert out.splitlines()[0] == (
        "no violation on this population: the procedure is imperfect but "
        "unwitnessable here (each merit class sits entirely on one side of X)"
    )


# --- simulate ----------------------------------------------------------------


def test_simulate_json_and_determinism(capsys, tmp_path):
    pop_file = tmp_path / "population.csv"
    pop_file.write_text("id,J,X,attrs\na,1,,\nb,0,,\nc,0,,\n", encoding="utf-8")
    proc_file = tmp_path / "procedure.json"
    proc_file.write_text('{"type": "randomized", "rates": {"global": ["1/2", "1/2"]}}')
    args = (
        "simulate",
        "--population", str(pop_file),
        "--procedure", str(proc_file),
        "--seed", "7",
        "--trials", "200",
    )
    code, first, _ = run(capsys, *args)
    assert code == 0
    doc = json.loads(first)
    assert doc["trials"] == 200
    assert doc["expected"]["h"]["ratio"] == "1/2"
    assert 0.3 < doc["empirical"]["h"]["approx"] < 0.7
    _, second, _ = run(capsys, *args)
    assert first == second


def test_simulate_csv(capsys, tmp_path):
    pop_file = tmp_path / "population.csv"
    pop_file.write_text("id,J,X,attrs\na,1,,\nb,0,,\n", encoding="utf-8")
    proc_file = tmp_path / "procedure.json"
    proc_file.write_text('{"type": "randomized", "rates": {"global": [1, 0]}}')
    code, out, _ = run(
        capsys,
        "simulate",
        "--population", str(pop_file),
        "--procedure", str(proc_file),
        "--trials", "10",
        "--format", "csv",
    )
    assert code == 0
    assert "empirical_h,1/1,1.00000000" in out
    assert "empirical_k,0/1,0.00000000" in out


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_simulate_expected_is_mean_member_probability_for_unequal_rates(capsys, tmp_path, fmt):
    pop_file = tmp_path / "population.csv"
    pop_file.write_text(
        "id,J,X,attrs\na,0,,sex=M\nb,0,,sex=F\nc,1,,sex=M\nd,1,,sex=F\n", encoding="utf-8"
    )
    proc_file = tmp_path / "procedure.json"
    proc_file.write_text(
        '{"type": "randomized", "attribute": "sex",'
        ' "rates": {"M": ["3/4", "1/10"], "F": ["1/2", "1/5"]}}'
    )
    code, out, _ = run(
        capsys,
        "simulate",
        "--population", str(pop_file),
        "--procedure", str(proc_file),
        "--trials", "10",
        "--format", fmt,
    )
    assert code == 0
    # h = (3/4 + 1/2) / 2, k = (1/10 + 1/5) / 2
    if fmt == "json":
        expected = json.loads(out)["expected"]
        assert expected["h"] == {"ratio": "5/8", "approx": 0.625}
        assert expected["k"] == {"ratio": "3/20", "approx": 0.15}
        assert expected["support"] == {"guilty": 2, "innocent": 2}
    else:
        assert out.splitlines()[-2:] == ["expected_h,5/8,0.62500000", "expected_k,3/20,0.15000000"]


@pytest.mark.parametrize("command", [["simulate"], ["audit", "--attribute", "sex"]])
def test_trials_past_int64_member_trials_are_an_error(tmp_path, command):
    """A fresh interpreter refuses 10^30 trials of 3 members at once, before drawing."""
    pop_file = tmp_path / "population.csv"
    pop_file.write_text("id,J,X,attrs\na,1,,sex=M\nb,0,,sex=F\nc,0,,sex=F\n", encoding="utf-8")
    proc_file = tmp_path / "procedure.json"
    proc_file.write_text(GLOBAL_PROC, encoding="utf-8")
    argv = [*command, "--population", str(pop_file), "--procedure", str(proc_file)]
    proc = subprocess.run(
        [sys.executable, "-m", "procfair.cli", *argv, "--trials", str(10**30)],
        env=_checkout_env(), capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert single_error_line(proc.stderr)
    assert "member-trials" in proc.stderr


# --- roc-export --------------------------------------------------------------


def test_roc_export_svg_skeleton_to_stdout(capsys):
    code, out, _ = run(capsys, "roc-export")
    assert code == 0
    assert out.startswith("<svg")
    assert "<circle" not in out


def test_roc_export_points_csv(capsys, tmp_path):
    points = tmp_path / "points.json"
    points.write_text('[{"label": "ex1", "h": "3/4", "k": "1/10"}]', encoding="utf-8")
    code, out, _ = run(capsys, "roc-export", str(points), "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "label,h,k,x,y,class"
    assert "ImperfectlyJust" in out


def test_roc_export_writes_out_file(capsys, tmp_path):
    out_file = tmp_path / "diagram.svg"
    code, out, _ = run(capsys, "roc-export", "--out", str(out_file))
    assert code == 0
    assert out == ""
    assert out_file.read_text(encoding="utf-8").startswith("<svg")


def test_roc_export_bad_points_file(capsys, tmp_path):
    points = tmp_path / "points.json"
    for entry, message in [
        ('{"label": "a"}', "points entry 0 must carry label, h and k"),
        ('{"label": "a", "h": "3/2", "k": "0"}', "probability out of range [0, 1]: '3/2'"),
        ('{"label": "a", "h": "0", "k": "x"}', "cannot interpret 'x' as a rational"),
        ('{"label": true, "h": "0", "k": "0"}', "points entry 0 label must be a string"),
    ]:
        points.write_text(f"[{entry}]", encoding="utf-8")
        code, out, err = run(capsys, "roc-export", str(points))
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"


def test_roc_export_points_file_must_be_a_list(capsys, tmp_path):
    points = tmp_path / "points.json"
    points.write_text('{"label": "a", "h": "0", "k": "0"}', encoding="utf-8")
    code, out, err = run(capsys, "roc-export", str(points))
    assert code == 1 and out == ""
    assert err == "error: points file must be a JSON list of {label, h, k} objects\n"


diagram_points = st.lists(
    st.tuples(
        st.text(alphabet="ab<&> ", max_size=4),
        st.fractions(0, 1, max_denominator=12),
        st.fractions(0, 1, max_denominator=12),
    ),
    max_size=6,
    unique_by=lambda p: p[0],
)


@settings(max_examples=60, deadline=None)
@given(diagram_points, st.sampled_from(["0", "1/10"]), st.sampled_from(["svg", "csv"]))
def test_roc_export_draws_the_library_diagram(tmp_path_factory, points, eps, fmt):
    work = tmp_path_factory.mktemp("roc")
    entries = [{"label": label, "h": str(h), "k": str(k)} for label, h, k in points]
    (work / "points.json").write_text(json.dumps(entries), encoding="utf-8")
    out_file = work / f"diagram.{fmt}"
    argv = ["roc-export", str(work / "points.json"), "--eps", eps, "--format", fmt]
    assert main([*argv, "--out", str(out_file)]) == 0
    library = export_diagram([(label, RocPoint(h, k)) for label, h, k in points], fmt, eps)
    assert out_file.read_bytes() == library.encode("utf-8")


@pytest.mark.parametrize("fmt", ["svg", "csv", "json"])
def test_roc_export_duplicate_labels_fail_alike_in_every_format(capsys, tmp_path, fmt):
    points = tmp_path / "points.json"
    points.write_text(
        '[{"label": "p", "h": "1/2", "k": "0"}, {"label": "p", "h": "1", "k": "0"}]',
        encoding="utf-8",
    )
    code, out, err = run(capsys, "roc-export", str(points), "--format", fmt)
    assert code == 1 and out == ""
    assert err == "error: duplicate point labels: ['p']\n"


# --- every command in every format ----------------------------------------------

SEXED_CSV = "id,J,X,attrs\na,1,1,sex=M\nb,1,0,sex=F\nc,0,0,sex=M\nd,0,1,sex=F\n"
COMMAND_ARGS = {  # small inputs for each command; "{pop}", "{proc}", "{points}" name files
    "audit": ["--population", "{pop}", "--procedure", "{proc}", "--attribute", "sex"],
    "classify": ["--h", "3/4", "--k", "1/10"],
    "witness": ["--population", "{pop}"],
    "simulate": ["--population", "{pop}", "--procedure", "{proc}", "--trials", "10"],
    "example1": [],
    "roc-export": ["{points}"],
}


def report_formats():
    """Every (command, --format choice) pair that build_parser() offers."""
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name, sub in commands.choices.items():
        for fmt in next(a for a in sub._actions if a.dest == "format").choices:
            yield name, fmt


@pytest.mark.parametrize(("command", "fmt"), list(report_formats()))
def test_every_format_renders_and_out_matches_stdout(capsys, tmp_path, command, fmt):
    files = {
        "{pop}": ("population.csv", SEXED_CSV),
        "{proc}": ("procedure.json", GROUP_FAIR_PROC),
        "{points}": ("points.json", '[{"label": "a<b", "h": "3/4", "k": "1/10"}]'),
    }
    for name, text in files.values():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [command, *(str(tmp_path / files[a][0]) if a in files else a for a in COMMAND_ARGS[command])]
    argv += ["--format", fmt]
    code, out, err = run(capsys, *argv)
    assert code in (0, 2), err
    assert out
    out_file = tmp_path / f"report.{fmt}"
    assert run(capsys, *argv, "--out", str(out_file)) == (code, "", err)
    assert out_file.read_bytes() == out.encode("utf-8")


def test_bad_population_csv_reports_line(capsys, tmp_path):
    pop_file = tmp_path / "bad.csv"
    pop_file.write_text("id,J,X,attrs\na,5,1,\n", encoding="utf-8")
    code, _, err = run(capsys, "witness", "--population", str(pop_file))
    assert code == 1
    assert "line 2" in err


# --- malformed numbers, search ceiling, byte-order mark ------------------------


def single_error_line(err: str) -> bool:
    lines = err.strip().splitlines()
    return len(lines) == 1 and lines[0].startswith("error:") and "Traceback" not in err


def test_audit_infinite_tolerance_is_an_error(capsys, tmp_path):
    pop_file = tmp_path / "population.csv"
    pop_file.write_text("id,J,X,attrs\na,1,1,sex=M\nb,0,0,sex=F\n", encoding="utf-8")
    proc_file = tmp_path / "procedure.json"
    proc_file.write_text('{"type": "deterministic"}', encoding="utf-8")
    code, out, err = run(
        capsys, "audit", "--population", str(pop_file), "--procedure", str(proc_file),
        "--attribute", "sex", "--tolerance", "inf",
    )
    assert code == 1 and out == ""
    assert single_error_line(err)


def test_classify_infinite_eps_is_an_error(capsys):
    code, out, err = run(capsys, "classify", "--h", "0.75", "--k", "0.1", "--eps", "inf")
    assert code == 1 and out == ""
    assert single_error_line(err)


def test_procedure_overflowing_rate_is_an_error(capsys, tmp_path):
    pop_file = tmp_path / "population.csv"
    pop_file.write_text("id,J,X,attrs\na,1,,\nb,0,,\n", encoding="utf-8")
    proc_file = tmp_path / "procedure.json"
    proc_file.write_text('{"type": "randomized", "rates": {"global": [1e400, 0.1]}}')
    code, out, err = run(
        capsys, "simulate", "--population", str(pop_file), "--procedure", str(proc_file)
    )
    assert code == 1 and out == ""
    assert single_error_line(err)


def test_witness_max_n_above_ceiling_is_refused(capsys, tmp_path, monkeypatch):
    import procfair.theorem as theorem

    def no_search(*args):
        raise AssertionError("the bipartition loop started")

    monkeypatch.setattr(theorem, "_bipartition_violations", no_search)
    pop_file = tmp_path / "imperfect.csv"
    pop_file.write_text(IMPERFECT_CSV, encoding="utf-8")
    code, out, err = run(capsys, "witness", "--population", str(pop_file), "--max-n", "40")
    assert code == 1 and out == ""
    assert single_error_line(err)
    assert "ceiling 20" in err


@pytest.mark.parametrize("argv", [["--max-n", "-5"], ["--max-n=-5"]])
def test_witness_negative_max_n_is_an_error(capsys, tmp_path, argv):
    pop_file = tmp_path / "imperfect.csv"
    pop_file.write_text(IMPERFECT_CSV, encoding="utf-8")
    code, out, err = run(capsys, "witness", "--population", str(pop_file), *argv)
    assert code == 1 and out == ""
    assert single_error_line(err)
    assert "-5" in err


def test_witness_max_n_above_ceiling_is_refused_on_a_large_population(capsys, tmp_path):
    # 50 rows exceed --max-n 40, so the search would be skipped; the ceiling still holds
    rows = ["id,J,X,attrs"] + [f"p{i},1,{i % 2}," for i in range(50)]
    pop_file = tmp_path / "fifty.csv"
    pop_file.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "witness", "--population", str(pop_file), "--max-n", "40")
    assert code == 1 and out == ""
    assert single_error_line(err)
    assert "ceiling 20" in err


def test_witness_reads_population_with_byte_order_mark(capsys, tmp_path):
    pop_file = tmp_path / "bom.csv"
    pop_file.write_text("\ufeffid,J,X,attrs\na,1,1,sex=M\n", encoding="utf-8")
    code, out, err = run(capsys, "witness", "--population", str(pop_file))
    assert code == 0 and err == ""
    assert "no violation" in out


def test_audit_field_over_csv_limit_is_an_error(capsys, tmp_path):
    pop_file = tmp_path / "population.csv"
    pop_file.write_text("id,J,X,attrs\na,1,1,sex=" + "M" * 200_000 + "\n", encoding="utf-8")
    proc_file = tmp_path / "procedure.json"
    proc_file.write_text('{"type": "deterministic"}', encoding="utf-8")
    code, out, err = run(
        capsys, "audit", "--population", str(pop_file), "--procedure", str(proc_file),
        "--attribute", "sex",
    )
    assert code == 1 and out == ""
    assert single_error_line(err)
    assert "line 2: field larger than field limit" in err


# --- range checks on --tolerance and --eps, before any file is read ------------------


@pytest.mark.parametrize("trials", [None, "3"])
@pytest.mark.parametrize("attrs", [("sex=M", "sex=M"), ("sex=M", "sex=F")])
def test_audit_negative_tolerance_is_an_error(capsys, tmp_path, attrs, trials):
    pop_file = tmp_path / "population.csv"
    pop_file.write_text(f"id,J,X,attrs\na,1,1,{attrs[0]}\nb,0,0,{attrs[1]}\n", encoding="utf-8")
    proc_file = tmp_path / "procedure.json"
    proc_file.write_text('{"type": "randomized", "rates": {"global": ["1/2", "1/2"]}}')
    argv = ["audit", "--procedure", str(proc_file), "--attribute", "sex", "--tolerance=-1"]
    if trials is not None:
        argv += ["--trials", trials]
    for population in (pop_file, tmp_path / "missing.csv"):
        code, out, err = run(capsys, *argv, "--population", str(population))
        assert code == 1 and out == ""
        assert err == "error: tolerance must be non-negative, got '-1'\n"


@pytest.mark.parametrize("tolerance", ["1e400", "1.5", "3/2"])
def test_audit_tolerance_above_one_is_an_error_before_any_file_is_read(capsys, tmp_path, tolerance):
    missing = str(tmp_path / "missing")
    argv = ["audit", "--population", missing, "--procedure", missing, "--attribute", "sex"]
    code, out, err = run(capsys, *argv, f"--tolerance={tolerance}")
    assert code == 1 and out == ""
    assert err == f"error: tolerance must be at most 1, got '{tolerance}'\n"


@pytest.mark.parametrize("eps", ["5", "-1/10"])
@pytest.mark.parametrize("points", [None, "[]", '[{"label": "a", "h": "1/2", "k": "0"}]', "missing"])
@pytest.mark.parametrize("fmt", ["svg", "csv", "json"])
def test_roc_export_out_of_range_eps_is_an_error(capsys, tmp_path, fmt, points, eps):
    argv = ["roc-export", f"--eps={eps}", "--format", fmt]
    if points is not None:
        points_file = tmp_path / "points.json"
        if points != "missing":
            points_file.write_text(points, encoding="utf-8")
        argv.append(str(points_file))
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: eps must lie in [0, 1/4), got '{eps}'\n"


def test_decimals_past_the_digit_limit_are_refused_before_any_work(capsys, tmp_path):
    huge = "1e-999999999"  # expanding it exactly would take a billion digits
    code, out, err = run(capsys, "classify", "--h", huge, "--k", "0")
    assert code == 1 and out == "" and single_error_line(err)
    assert "needs more than 4300 digits" in err
    missing = str(tmp_path / "missing")
    audit = ["audit", "--population", missing, "--procedure", missing, "--attribute", "sex"]
    code, out, err = run(capsys, *audit, "--tolerance", huge)
    assert code == 1 and out == "" and single_error_line(err)
    assert "needs more than 4300 digits" in err  # not the missing file
    pop_file = tmp_path / "population.csv"
    pop_file.write_text("id,J,X,attrs\na,1,1,sex=M\n", encoding="utf-8")
    proc_file = tmp_path / "procedure.json"
    proc_file.write_text(f'{{"type": "randomized", "rates": {{"global": ["{huge}", "0"]}}}}')
    audit = ["audit", "--population", str(pop_file), "--procedure", str(proc_file)]
    code, out, err = run(capsys, *audit, "--attribute", "sex")
    assert code == 1 and out == "" and single_error_line(err)
    assert "needs more than 4300 digits" in err


def test_classify_eps_message_names_the_text_as_typed(capsys):
    code, out, err = run(capsys, "classify", "--h", "1/2", "--k", "0", "--eps=1/4")
    assert code == 1 and out == ""
    assert err == "error: eps must lie in [0, 1/4), got '1/4'\n"


# --- input documents nested too deeply for the JSON parser ---------------------


@pytest.mark.parametrize("command", ["audit", "simulate", "roc-export"])
def test_deeply_nested_json_input_is_an_error(capsys, tmp_path, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    pop_file = tmp_path / "population.csv"
    pop_file.write_text("id,J,X,attrs\na,1,1,sex=M\nb,0,0,sex=F\n", encoding="utf-8")
    argv = {
        "audit": ["audit", "--population", str(pop_file), "--procedure", str(deep),
                  "--attribute", "sex"],
        "simulate": ["simulate", "--population", str(pop_file), "--procedure", str(deep)],
        "roc-export": ["roc-export", str(deep)],
    }[command]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and single_error_line(err)
    assert err.startswith("error: invalid JSON: ")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["witness", "--population", "p.csv", "--max-n", "abc"],
         "argument --max-n: invalid int value: 'abc'"),
        (["witness"], "the following arguments are required: --population"),
        (["simulate", "--population", "p.csv", "--procedure", "q.json", "--seed", "-1"],
         "argument --seed: expected an integer >= 0, got '-1'"),
        (["audit", "--population", "p.csv", "--procedure", "q.json", "--attribute", "sex",
          "--trials", "0"],
         "argument --trials: expected an integer >= 1, got '0'"),
        (["audit", "--population", "p.csv", "--procedure", "q.json", "--attribute", "sex",
          "--trials", "2", "--seed", "-03"],
         "argument --seed: expected an integer >= 0, got '-03'"),
        (["simulate", "--population", "p.csv", "--procedure", "q.json", "--trials", "many"],
         "argument --trials: expected an integer >= 1, got 'many'"),
        (["nonsense"], "argument command: invalid choice: 'nonsense'"),
    ],
)
def test_argument_errors_exit_1_before_any_file_is_read(capsys, monkeypatch, argv, message):
    import procfair.cli as cli

    def no_read(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(cli, "_read", no_read)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert single_error_line(err)
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("argv", [["--help"], ["witness", "--help"], ["audit", "-h"]])
def test_help_still_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 0
    assert capsys.readouterr().out.startswith("usage: procfair")
