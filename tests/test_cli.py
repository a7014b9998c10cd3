import argparse
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procfair.cli import build_parser, main
from procfair.demo import demo_population
from procfair.population import dump_population
from procfair.roc import RocPoint, export_diagram

PERFECT_CSV = "id,J,X,attrs\na,1,1,\nb,0,0,\n"
IMPERFECT_CSV = "id,J,X,attrs\na,1,1,\nb,1,0,\nc,0,0,\n"
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
    ]:
        points.write_text(f"[{entry}]", encoding="utf-8")
        code, out, err = run(capsys, "roc-export", str(points))
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"


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


def test_classify_eps_message_names_the_text_as_typed(capsys):
    code, out, err = run(capsys, "classify", "--h", "1/2", "--k", "0", "--eps=1/4")
    assert code == 1 and out == ""
    assert err == "error: eps must lie in [0, 1/4), got '1/4'\n"
