import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from procfair import demo, serialize, theorem
from procfair.cli import build_parser, main
from procfair.demo import demo_population
from procfair.population import Individual, Population, dump_population, load_population
from procfair.roc import RocPoint, classify, export_diagram
from procfair.theorem import construct_witness, exhaustive_search

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


def test_example1_loads_its_population_once_and_hands_out_a_new_one(monkeypatch):
    """``demo_report`` reads one private copy of the population, loaded once
    per process; ``demo_population`` gives each caller its own."""
    loads = []

    def counted_load(source):
        loads.append(source)
        return load_population(source)

    monkeypatch.setattr(demo, "load_population", counted_load)
    demo._report_population.cache_clear()
    assert demo.demo_report() == demo.demo_report()
    assert len(loads) == 1
    assert demo.demo_population() is not demo.demo_population()
    assert demo.demo_population() is not demo._report_population()


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


@pytest.mark.parametrize("reserved", ["overall", "total"])
def test_audit_csv_refuses_a_group_named_like_a_summary_row(capsys, tmp_path, reserved):
    pop_file = tmp_path / "reserved.csv"
    pop_file.write_text(f"id,J,X,attrs\na,1,,g={reserved}\nb,0,,g=x\n", encoding="utf-8")
    proc_file = tmp_path / "procedure.json"
    proc_file.write_text(GLOBAL_PROC, encoding="utf-8")
    out_file = tmp_path / "report.csv"
    argv = ["audit", "--population", str(pop_file), "--procedure", str(proc_file), "--attribute", "g"]
    code, out, err = run(capsys, *argv, "--format", "csv", "--out", str(out_file))
    assert code == 1 and out == "" and not out_file.exists()
    assert err == f"error: attribute value {reserved!r} names a summary row of the CSV; use --format json\n"
    code, out, _ = run(capsys, *argv)
    assert code == 0 and list(json.loads(out)["rates"]["by_group"]) == [reserved, "x"]


def test_audit_csv_refuses_a_group_value_holding_the_pair_separator(capsys, tmp_path):
    """A verdict row joins its two groups with ``|``: the pairs (``x|g=y``, ``z``)
    and (``x``, ``y|g=z``) would both read ``g=x|g=y|g=z``, so such a value is
    refused; JSON names each group on its own."""
    pop_file = tmp_path / "bars.csv"
    pop_file.write_text("id,J,X,attrs\na,1,,g=x|g=y\nb,0,,g=z\nc,1,,g=x\nd,0,,g=y|g=z\n", encoding="utf-8")
    proc_file = tmp_path / "procedure.json"
    proc_file.write_text(GLOBAL_PROC, encoding="utf-8")
    out_file = tmp_path / "report.csv"
    argv = ["audit", "--population", str(pop_file), "--procedure", str(proc_file), "--attribute", "g"]
    code, out, err = run(capsys, *argv, "--format", "csv", "--out", str(out_file))
    assert code == 1 and out == "" and not out_file.exists()
    assert err == (
        "error: attribute value 'x|g=y' holds '|', which separates a verdict row's two groups; "
        "use --format json\n"
    )
    code, out, _ = run(capsys, *argv)
    pairs = [(v["group_a"]["value"], v["group_b"]["value"]) for v in json.loads(out)["verdicts"]]
    assert code == 0 and ("x|g=y", "z") in pairs and ("x", "y|g=z") in pairs


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


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=10), st.randoms())
def test_witness_json_lists_exhaustive_search_in_order(tmp_path_factory, labels, rng):
    """The listing ``witness`` builds from the enumerator's tuples is
    ``exhaustive_search``'s, in order; shuffled ids make sorted order differ
    from population order."""
    ids = [f"i{k}" for k in range(len(labels))]
    rng.shuffle(ids)
    rows = [f"{ident},{merit},{criterion}," for ident, (merit, criterion) in zip(ids, labels)]
    work = tmp_path_factory.mktemp("witness")
    pop_file, out_file = work / "pop.csv", work / "out.json"
    pop_file.write_text("\n".join(["id,J,X,attrs", *rows]) + "\n", encoding="utf-8")
    assert main(["witness", "--population", str(pop_file), "--format", "json", "--out", str(out_file)]) in (0, 2)
    listing = json.loads(out_file.read_text(encoding="utf-8"))["exhaustive"]["violations"]
    found = exhaustive_search(load_population(pop_file.read_bytes()))
    assert listing == [
        {
            "subset": list(b.subset),
            "complement": list(b.complement),
            "violated_merit_classes": list(b.violated_merit_classes),
        }
        for b in found
    ]


# id characters that JSON escapes: a quote, a backslash, and non-ASCII in and
# beyond the Basic Multilingual Plane; a tab too, but only inside an id, since
# the loader strips each id
ESCAPED = ['"', "\\", "\u00e9", "\u540d", "\U0001f600"]
id_parts = st.text(st.sampled_from([*ESCAPED, "a", ",", ";", "="]), min_size=1, max_size=3)


@st.composite
def escaped_populations(draw) -> str:
    """The CSV text of 2 to 10 members, each id holding a character JSON escapes."""
    labels = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=2, max_size=10))
    rows = []
    for k, (merit, criterion) in enumerate(labels):
        ident = draw(id_parts) + draw(st.sampled_from([*ESCAPED, "\t"])) + draw(id_parts) + str(k)
        rows.append(Individual(ident, merit=merit, criterion=criterion))
    return dump_population(Population(rows))


@pytest.mark.parametrize("chunk", [theorem.BIPARTITION_CHUNK, 1, 3])
@settings(max_examples=40, deadline=None)
@given(escaped_populations())
def test_witness_json_is_json_dumps_of_the_listing_of_exhaustive_search(tmp_path_factory, chunk, text):
    """The listing ``witness`` writes as text, item by item, is byte for byte
    ``json.dumps(indent=2)`` of the document with ``exhaustive_search``'s
    listing as dicts, whatever ids it escapes and however the masks are chunked."""
    work = tmp_path_factory.mktemp("witness")
    pop_file, out_file = work / "pop.csv", work / "out.json"
    pop_file.write_text(text, encoding="utf-8")
    argv = ["witness", "--population", str(pop_file), "--format", "json"]
    stdout = mock.Mock(spec=["write"])
    with mock.patch.object(theorem, "BIPARTITION_CHUNK", chunk):
        code = main([*argv, "--out", str(out_file)])
        # a buffer of about one item: the listing goes out one or two items at a time
        with mock.patch.object(serialize, "WRITE_BUFFER", 200), mock.patch.object(sys, "stdout", stdout):
            assert main(argv) == code
        pop = load_population(text)
        found = exhaustive_search(pop)
    doc = {
        "witness": serialize.witness_json(construct_witness(pop)),
        "exhaustive": {
            "searched": True,
            "note": None,
            "violations": [
                {
                    "subset": list(b.subset),
                    "complement": list(b.complement),
                    "violated_merit_classes": list(b.violated_merit_classes),
                }
                for b in found
            ],
        },
    }
    assert code == (2 if doc["witness"]["violated_merit_classes"] else 0)
    written, expected = out_file.read_text(encoding="utf-8"), json.dumps(doc, indent=2) + "\n"
    # the first differing lines, found without a diff of two listings of up to 100 KB
    lines = zip(written.split("\n"), expected.split("\n"))
    assert next(((got, want) for got, want in lines if got != want), None) is None
    assert written == expected
    pieces = [call.args[0] for call in stdout.write.call_args_list]
    assert "".join(pieces) == expected
    # the listing is cut at item ends only, into one piece per buffer, then the end of the document and its newline
    assert len(pieces) >= max(len(found), 1) // 2 + 2
    assert all(piece.endswith("}") for piece in pieces[:-2])


def test_the_listing_writer_holds_a_buffer_not_the_listing():
    """An n = 16 listing of 30,318 violations, 12.7 MB of JSON, is written
    while the writer's allocations peak at a small part of that (about 1 MB)."""
    pop = Population([Individual(f"m{k:02d}", merit=k % 2, criterion=k // 2 % 2) for k in range(16)])
    doc = {"exhaustive": {"violations": serialize.Listing(theorem._exhaustive_violations(pop, 16))}}
    written = []

    def write(text):
        written.append(len(text))

    tracemalloc.start()
    try:
        serialize.write_json(doc, write)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(written) > 10 * 2**20
    assert peak < 2**21


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



def test_witness_text_formats_no_listing_item(capsys, tmp_path, monkeypatch):
    """The witness document holds the enumerator's search; only JSON output
    writes it, so the text format counts each chunk's violations and joins no
    side and writes no JSON."""
    pop_file = tmp_path / "imperfect.csv"
    pop_file.write_text(IMPERFECT_CSV, encoding="utf-8")
    args = build_parser().parse_args(["witness", "--population", str(pop_file), "--format", "text"])
    doc, code = args.func(args)
    assert type(doc["exhaustive"]["violations"]) is serialize.Listing
    found = exhaustive_search(load_population(IMPERFECT_CSV))

    def refuse(*args):
        raise AssertionError("the text format built a listing")

    monkeypatch.setattr(serialize, "write_json", refuse)
    monkeypatch.setattr(theorem, "_subset_joins", refuse)
    code, out, _ = run(capsys, "witness", "--population", str(pop_file), "--format", "text")
    assert code == 2
    assert out.splitlines()[-1] == f"exhaustive search: {len(found)} violating bipartition(s)"


def test_the_listing_reads_nothing_once_the_search_has_returned(monkeypatch):
    """Every check and every read of the population and the procedure comes
    before ``_exhaustive_violations`` returns; what is left is arithmetic, so
    the streamed listing cannot fail after its first byte is written."""
    pop = load_population(IMPERFECT_CSV)
    expected = [
        {"subset": list(b.subset), "complement": list(b.complement), "violated_merit_classes": list(b.violated_merit_classes)}
        for b in exhaustive_search(pop)
    ]
    search = theorem._exhaustive_violations(pop, theorem.DEFAULT_MAX_N)

    def refuse(*args, **kwargs):
        raise AssertionError("read after the search returned")

    for name in ("ids", "_id", "__len__"):
        monkeypatch.setattr(Population, name, refuse)
    monkeypatch.setattr(theorem, "_probability_codes", refuse)
    monkeypatch.setattr(theorem, "_check_search_limit", refuse)
    text = serialize.json_text({"exhaustive": {"violations": serialize.Listing(search)}})
    assert json.loads(text)["exhaustive"]["violations"] == expected != []


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
        ('{"label": "a", "h": "0", "h": "1", "k": "0"}', "invalid JSON: name 'h' given twice in one object"),
        ('{"label": "a", "h": "0", "k": "0", "k": "1", "h": "1"}', "invalid JSON: name 'k' given twice in one object"),
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


def test_audit_procedure_attribute_that_is_not_a_string_is_an_error(capsys, tmp_path):
    pop_file = tmp_path / "population.csv"
    pop_file.write_text("id,J,X,attrs\na,0,,5=x\nb,1,,5=y\n", encoding="utf-8")
    proc_file = tmp_path / "procedure.json"
    proc_file.write_text('{"type": "randomized", "attribute": 5, "rates": {"x": [0.1, 0.2], "y": [0.1, 0.2]}}')
    code, out, err = run(
        capsys, "audit", "--population", str(pop_file), "--procedure", str(proc_file), "--attribute", "5"
    )
    assert code == 1 and out == ""
    assert err == "error: 'attribute' must be a non-empty string, got 5\n"


# a command refused after its arguments parse: population CSV, procedure JSON, argv
REFUSED = {
    "witness-over-the-size-rule": (IMPERFECT_CSV, None, ["witness", "--max-n", "21"]),
    "witness-without-x": ("id,J,X,attrs\na,1,,\nb,0,1,\n", None, ["witness"]),
    "audit-bad-tolerance": (IMPERFECT_CSV, GLOBAL_PROC, ["audit", "--attribute", "sex", "--tolerance", "1/0"]),
    "audit-attribute-no-member-has": (
        "id,J,X,attrs\na,1,1,sex=M\nb,0,0,sex=F\n", GLOBAL_PROC, ["audit", "--attribute", "age"]
    ),
}


@pytest.mark.parametrize("fmt", ["json", "text-or-csv"])
@pytest.mark.parametrize("case", sorted(REFUSED))
def test_a_refused_report_writes_nothing(capsys, tmp_path, case, fmt):
    """The error contract of the streamed writer: every check comes before the
    first write, so a refused command prints one ``error:`` line and nothing on
    standard output, and creates no ``--out`` file."""
    population, procedure, argv = REFUSED[case]
    pop_file, proc_file, out_file = tmp_path / "pop.csv", tmp_path / "proc.json", tmp_path / "out"
    pop_file.write_text(population, encoding="utf-8")
    argv = [*argv, "--population", str(pop_file)]
    if procedure is not None:
        proc_file.write_text(procedure, encoding="utf-8")
        argv += ["--procedure", str(proc_file)]
    if fmt != "json":
        argv += ["--format", "text" if argv[0] == "witness" else "csv"]
    for out in ([], ["--out", str(out_file)]):
        code, stdout, err = run(capsys, *argv, *out)
        assert code == 1 and stdout == ""
        assert single_error_line(err)
        assert not out_file.exists()


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


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(), reason="no integer digit limit")
def test_an_a_b_side_past_the_digit_limit_is_refused_with_its_reason(capsys):
    limit = sys.get_int_max_str_digits()
    ratio = "1" + "0" * limit + "/1"
    code, out, err = run(capsys, "classify", "--h", ratio, "--k", "0")
    assert code == 1 and out == ""
    assert err == f"error: cannot interpret '{ratio}' as a rational: needs more than {limit} digits\n"


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


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(), reason="no integer digit limit")
def test_an_integer_past_the_digit_limit_is_invalid_json(capsys, tmp_path):
    points = tmp_path / "points.json"
    digits = "1" + "0" * sys.get_int_max_str_digits()
    points.write_text(f'[{{"label": "a", "h": {digits}, "k": 0}}]', encoding="utf-8")
    code, out, err = run(capsys, "roc-export", str(points))
    assert code == 1 and out == "" and single_error_line(err)
    assert err.startswith("error: invalid JSON: ")


# --- JSON numbers are read exactly -------------------------------------------


def test_json_numbers_in_a_points_file_are_read_exactly(capsys, tmp_path):
    points = tmp_path / "points.json"
    points.write_text('[{"label": "x", "h": 0.12345678901234567890123, "k": 1e-330}]', encoding="utf-8")
    code, out, err = run(capsys, "roc-export", str(points), "--format", "csv")
    assert (code, err) == (0, "")
    assert out.splitlines()[1].endswith(",ImperfectlyJust")  # k > 0, however small
    code, out, err = run(capsys, "roc-export", str(points), "--format", "json")
    (row,) = json.loads(out)
    assert (row["h"]["ratio"], row["k"]["ratio"]) == ("12345678901234567890123/1" + "0" * 23, "1/1" + "0" * 330)


def test_json_numbers_in_a_procedure_file_are_read_exactly(capsys, tmp_path):
    pop_file = tmp_path / "population.csv"
    pop_file.write_text("id,J,X,attrs\na,1,1,sex=M\nb,0,0,sex=F\n", encoding="utf-8")
    proc_file = tmp_path / "procedure.json"
    audit = ["audit", "--population", str(pop_file), "--procedure", str(proc_file), "--attribute", "sex"]
    proc_file.write_text('{"type": "randomized", "rates": {"global": [0.30000000000000001, 1e-400]}}')
    code, out, err = run(capsys, *audit, "--format", "json")
    assert (code, err) == (0, "")
    h, k = json.loads(out)["procedure"]["rates"]["global"]
    assert (h["ratio"], k["ratio"]) == ("30000000000000001/1" + "0" * 17, "1/1" + "0" * 400)
    proc_file.write_text('{"type": "randomized", "rates": {"global": [1e-4301, 0]}}')
    code, out, err = run(capsys, *audit)
    assert code == 1 and out == ""
    assert err == "error: bad probability for global: cannot interpret 1E-4301 as a rational: needs more than 4300 digits\n"
    proc_file.write_text('{"type": "randomized", "rates": {"global": [1.5, 0]}}')
    code, out, err = run(capsys, *audit)
    assert code == 1 and out == ""
    assert err == "error: bad probability for global: probability out of range [0, 1]: 1.5\n"


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


# --- the error contract, over generated argv and files ---------------------------

CONTRACT_FILES = {
    "{pop}": st.one_of(
        st.sampled_from([
            SEXED_CSV, PERFECT_CSV, IMPERFECT_CSV, "id,J,X,attrs\n", "id,J,X,attrs\na,2,1,sex=M\n",
            "id,J,X,attrs\r\na,1,,sex=M\r\nb,0,1,sex=F\r\n", '\ufeffid,J,X,attrs\na,1,0,"sex=M"\n',
            "id,J,X,attrs\na,1,0,sex=M\na,0,1,sex=F\n", "id,J,X,attrs\na,1,0,sex = M ; age=1\n",
        ]),
        st.text(max_size=30),
    ),
    "{proc}": st.one_of(
        st.sampled_from([
            GLOBAL_PROC, GROUP_FAIR_PROC, '{"type": "deterministic"}', "[]", "{", "[" * 3000,
            '{"type": "randomized", "attribute": "sex", "rates": {"M": ["3/4", "1/10"], "F": ["1/2", "0"]}}',
            '{"type": "randomized", "rates": {"global": ["2", "0"]}}',
        ]),
        st.text(max_size=30),
    ),
    "{points}": st.one_of(
        st.sampled_from([
            '[{"label": "a", "h": "1/2", "k": "0"}]', "[]", "{}", '[{"label": 1, "h": 0, "k": 0}]',
            '[{"label": "a", "h": "x", "k": "0"}]', '[{"label": "a", "h": "1/2", "k": "0"}, {"label": "a"}]',
        ]),
        st.text(max_size=30),
    ),
}
# any text, with line breaks and the characters of numbers and options drawn often
WORDS = st.text(st.one_of(st.sampled_from("\n\r\t -=/.01x"), st.characters()), max_size=6)
# "{missing}" names no file and "{dir}" a directory
PATHS = ["{missing}", "{dir}"]
NUMBERS = ["0", "1/10", "3/4", "1", "1.5", "-1", "1e400", "nan", "inf", "1/0", "0.1", "x", ""]
INTEGERS = ["0", "1", "3", "-1", "x", "", "1e3", "99999999999999999999999"]
FORMATS = ["json", "csv", "text", "svg", "xml"]
OUTS = ["{out}", "{missing}/report", "{dir}"]
CONTRACT_OPTIONS = {
    "audit": {"--population": ["{pop}", *PATHS], "--procedure": ["{proc}", *PATHS],
              "--attribute": ["sex", "age", ""], "--tolerance": NUMBERS, "--trials": INTEGERS,
              "--seed": INTEGERS},
    "witness": {"--population": ["{pop}", *PATHS], "--max-n": INTEGERS},
    "simulate": {"--population": ["{pop}", *PATHS], "--procedure": ["{proc}", *PATHS],
                 "--trials": INTEGERS, "--seed": INTEGERS},
    "classify": {"--h": NUMBERS, "--k": NUMBERS, "--eps": NUMBERS},
    "roc-export": {"": ["{points}", *PATHS], "--eps": NUMBERS},  # "" is the positional points file
}
# the one warning a failing command may print before its error line
WARNINGS = ("warning: comparing simulated rates at tolerance 0 is degenerate",)


@st.composite
def command_lines(draw):
    """An argv: a command and most of its options, --format and now and then
    --out, each with a value from its pool or any text, and now and then a
    stray word."""
    command = draw(st.sampled_from(sorted(CONTRACT_OPTIONS)))
    argv = [command]
    for option, pool in {**CONTRACT_OPTIONS[command], "--format": FORMATS, "--out": OUTS}.items():
        if draw(st.integers(0, 3)) < (3 if option == "--out" else 1):
            continue
        argv += [option] if option else []
        argv.append(draw(st.one_of(st.sampled_from(pool), WORDS)))
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), draw(WORDS))
    return argv


@settings(max_examples=300, deadline=None)
@given(command_lines(), st.fixed_dictionaries(CONTRACT_FILES))
# argparse repeats an unrecognized word or an ambiguous option as typed, line breaks included
@example(["roc-export", "{points}", "\n"], {"{pop}": "", "{proc}": "", "{points}": "[]"})
@example(["audit", "--p=\rx"], {"{pop}": "", "{proc}": "", "{points}": ""})
def test_every_command_keeps_the_error_contract(tmp_path_factory, argv, files):
    """``main`` returns 0, 1 or 2, never raises, exits 2 only from ``witness``,
    and on exit 1 prints nothing to stdout and one ``error:`` line to stderr,
    after at most the documented warnings."""
    work = tmp_path_factory.mktemp("contract")
    names = {"{missing}": str(work / "missing"), "{dir}": str(work), "{out}": str(work / "report")}
    for placeholder, text in files.items():
        names[placeholder] = str(work / placeholder.strip("{}"))
        Path(names[placeholder]).write_text(text, encoding="utf-8", errors="surrogatepass")
    argv = [names.get(word, word).replace("{missing}", names["{missing}"]) for word in argv]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)  # so that an --out of any text writes there
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    lines = err.getvalue().split("\n")
    assert lines.pop() == ""  # stderr is empty or ends with a line feed
    warnings = [line for line in lines if line.startswith(WARNINGS)]
    assert code in (0, 1, 2)
    assert code != 2 or argv[0] == "witness"
    if code == 1:
        assert out.getvalue() == ""
        assert len(lines) == len(warnings) + 1 and lines[-1].startswith("error: "), err.getvalue()
    else:
        assert lines == warnings, err.getvalue()
