import ast
import dataclasses
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from procfair import roc
from procfair.errors import ProcfairError
from procfair.procedure import GlobalRates, global_procedure
from procfair.roc import (
    ProcedureClass,
    RocPoint,
    classify,
    diagram_rows,
    export_diagram,
    is_merit_agnostic,
    to_diamond,
)

unit_fractions = st.fractions(min_value=0, max_value=1)


def expected_class(h: Fraction, k: Fraction) -> ProcedureClass:
    """Independent case analysis of the nine-way taxonomy at zero tolerance,
    also the oracle of the acceptance suite's taxonomy grid."""
    if h == 1 and k == 0:
        return ProcedureClass.PERFECTLY_JUST
    if h == 1 and k == 1:
        return ProcedureClass.EVERYONE_CONVICTED
    if h == 0 and k == 0:
        return ProcedureClass.EVERYONE_ACQUITTED
    if h == 0 and k == 1:
        return ProcedureClass.PERFECTLY_UNJUST
    if h == 1:
        return ProcedureClass.PERFECT_FOR_GUILTY
    if k == 0:
        return ProcedureClass.PERFECT_FOR_INNOCENT
    if h == k:
        return ProcedureClass.MERIT_AGNOSTIC
    if h > k:
        return ProcedureClass.IMPERFECTLY_JUST
    return ProcedureClass.UNREASONABLY_UNJUST


@pytest.mark.parametrize(
    "h,k,expected",
    [
        (1, 0, ProcedureClass.PERFECTLY_JUST),
        (1, 1, ProcedureClass.EVERYONE_CONVICTED),
        (0, 0, ProcedureClass.EVERYONE_ACQUITTED),
        (0, 1, ProcedureClass.PERFECTLY_UNJUST),
        (1, "1/2", ProcedureClass.PERFECT_FOR_GUILTY),
        ("1/2", 0, ProcedureClass.PERFECT_FOR_INNOCENT),
        ("1/2", "1/2", ProcedureClass.MERIT_AGNOSTIC),
        ("3/4", "1/10", ProcedureClass.IMPERFECTLY_JUST),
        ("1/10", "3/4", ProcedureClass.UNREASONABLY_UNJUST),
    ],
)
def test_classify_known_points(h, k, expected):
    assert classify(RocPoint(h, k)) is expected


@given(unit_fractions, unit_fractions)
def test_classify_matches_independent_case_analysis(h, k):
    assert classify(RocPoint(h, k)) is expected_class(h, k)


def banded_class(h: Fraction, k: Fraction, eps: Fraction) -> ProcedureClass:
    """classify's bands restated in Fraction arithmetic: the corners, then the
    h = 1 and k = 0 edges, then the diagonal, each a band of width eps."""

    def snap(x):
        return 0 if x <= eps else 1 if 1 - x <= eps else None

    if snap(h) is not None and snap(k) is not None:
        return expected_class(snap(h), snap(k))
    if snap(h) == 1:
        return ProcedureClass.PERFECT_FOR_GUILTY
    if snap(k) == 0:
        return ProcedureClass.PERFECT_FOR_INNOCENT
    if abs(h - k) <= eps:
        return ProcedureClass.MERIT_AGNOSTIC
    return ProcedureClass.IMPERFECTLY_JUST if h - k > eps else ProcedureClass.UNREASONABLY_UNJUST


@given(
    unit_fractions,
    unit_fractions,
    st.fractions(min_value=0, max_value=Fraction(1, 4)).filter(lambda e: e < Fraction(1, 4)),
)
def test_classify_matches_the_bands_in_fraction_arithmetic(h, k, eps):
    assert classify(RocPoint(h, k), eps) is banded_class(h, k, eps)


@given(unit_fractions, unit_fractions)
def test_swap_duality(h, k):
    # swapping the rates mirrors a procedure across the merit-agnostic diagonal
    point = classify(RocPoint(h, k))
    swapped = classify(RocPoint(k, h))
    assert (point is ProcedureClass.PERFECTLY_JUST) == (
        swapped is ProcedureClass.PERFECTLY_UNJUST
    )
    if point is ProcedureClass.IMPERFECTLY_JUST:
        assert swapped is ProcedureClass.UNREASONABLY_UNJUST
    if point is ProcedureClass.UNREASONABLY_UNJUST:
        # the mirror side keeps its edge classes; the perverse side does not
        assert swapped in (
            ProcedureClass.IMPERFECTLY_JUST,
            ProcedureClass.PERFECT_FOR_GUILTY,
            ProcedureClass.PERFECT_FOR_INNOCENT,
        )


def test_eps_bands_snap_to_corner_before_edge():
    assert classify(RocPoint("19/20", "1/25"), eps="1/20") is ProcedureClass.PERFECTLY_JUST
    assert classify(RocPoint("19/20", "1/2"), eps="1/20") is ProcedureClass.PERFECT_FOR_GUILTY
    assert classify(RocPoint("1/2", "21/40"), eps="1/20") is ProcedureClass.MERIT_AGNOSTIC


@pytest.mark.parametrize("eps", ["1/4", "0.3", -0.01])
def test_eps_out_of_range(eps):
    with pytest.raises(ValueError):
        classify(RocPoint("1/2", "1/2"), eps=eps)


def test_points_file_names_the_first_name_whose_second_occurrence_comes_first():
    with pytest.raises(ProcfairError, match="^invalid JSON: name 'b' given twice in one object$"):
        roc._load_points('[{"a": 1, "b": 2, "b": 3, "a": 4}]')


def test_eps_bounds_are_exact():
    tiny = Fraction(1, 10**100)
    assert roc._checked_eps(Fraction(1, 4) - tiny) == Fraction(1, 4) - tiny
    assert roc._checked_eps(0) == 0
    for eps in (Fraction(1, 4), -tiny, "1/4"):
        with pytest.raises(ValueError, match=r"^eps must lie in \[0, 1/4\), got "):
            roc._checked_eps(eps)


def test_degenerate_classes_flagged_merit_agnostic():
    assert is_merit_agnostic(ProcedureClass.EVERYONE_CONVICTED)
    assert is_merit_agnostic(ProcedureClass.EVERYONE_ACQUITTED)
    assert is_merit_agnostic(ProcedureClass.MERIT_AGNOSTIC)
    assert not is_merit_agnostic(ProcedureClass.PERFECTLY_JUST)
    assert not is_merit_agnostic(ProcedureClass.IMPERFECTLY_JUST)


def test_rocpoint_rejects_out_of_range():
    with pytest.raises(ValueError):
        RocPoint("3/2", 0)


def test_a_global_procedures_rates_are_its_point():
    rates = global_procedure("3/4", "1/10").rates
    assert isinstance(rates, RocPoint)
    assert classify(rates) is classify(RocPoint("3/4", "1/10")) is ProcedureClass.IMPERFECTLY_JUST
    assert repr(rates).startswith("GlobalRates(h=")
    assert GlobalRates(1, 0) != RocPoint(1, 0)
    assert [field.name for field in dataclasses.fields(GlobalRates)] == ["h", "k"]
    with pytest.raises(ValueError):
        GlobalRates(2, 0)  # the checked __init__ of RocPoint, not a generated one


# --- diamond mapping -----------------------------------------------------------


def test_diamond_corners():
    s = math.sqrt(2) / 2
    assert to_diamond(RocPoint(0, 0)) == pytest.approx((0.0, 0.0), abs=1e-15)
    assert to_diamond(RocPoint(1, 0)) == pytest.approx((s, s), abs=1e-12)
    assert to_diamond(RocPoint(0, 1)) == pytest.approx((-s, s), abs=1e-12)
    assert to_diamond(RocPoint(1, 1)) == pytest.approx((0.0, 2 * s), abs=1e-12)


@given(
    st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False),
    st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False),
)
def test_diamond_preserves_distances(h1, k1, h2, k2):
    a, b = RocPoint(h1, k1), RocPoint(h2, k2)
    native = math.dist((float(a.h), float(a.k)), (float(b.h), float(b.k)))
    mapped = math.dist(to_diamond(a), to_diamond(b))
    assert abs(native - mapped) < 1e-12


# --- diagram export --------------------------------------------------------------


def test_export_csv_classifies_rows():
    text = export_diagram([("ex1", RocPoint("3/4", "1/10"))], format="csv")
    lines = text.strip().split("\n")
    assert lines[0] == "label,h,k,x,y,class"
    assert lines[1].startswith("ex1,0.75000000,0.10000000,")
    assert lines[1].endswith(",ImperfectlyJust")


def test_export_csv_coordinates_to_eight_places():
    text = export_diagram([("a", RocPoint(1, 0))], format="csv")
    row = text.strip().split("\n")[1].split(",")
    assert row[3] == f"{math.sqrt(2)/2:.8f}"
    assert row[4] == f"{math.sqrt(2)/2:.8f}"


def test_export_svg_skeleton_without_points():
    svg = export_diagram([], format="svg")
    assert svg.startswith("<svg")
    assert 'stroke-dasharray' in svg  # the merit-agnostic segment
    assert svg.count("<polygon") == 3  # two shaded regions plus the outline
    assert "<circle" not in svg
    assert "P(U=0 | J=0)" in svg and "P(U=0 | J=1)" in svg


def test_export_svg_places_point_at_right_vertex():
    svg = export_diagram([("A", RocPoint(1, 0))], format="svg")
    assert '<circle cx="560.00" cy="300.00"' in svg
    assert ">A</text>" in svg


def test_export_rejects_duplicate_labels():
    points = [("p", RocPoint(0, 0)), ("p", RocPoint(1, 0))]
    with pytest.raises(ValueError, match="duplicate"):
        export_diagram(points, format="csv")


def test_duplicate_labels_among_many_points_are_found_in_one_pass():
    points = [(f"p{i}", RocPoint(Fraction(i % 7, 7), Fraction(i % 5, 5))) for i in range(20_000)]
    start = time.perf_counter()
    assert len(diagram_rows(points)) == len(points)
    unique = time.perf_counter() - start
    points[12_000] = ("p7", points[12_000][1])
    points[-1] = ("p19", points[-1][1])
    start = time.perf_counter()
    with pytest.raises(ValueError) as raised:
        diagram_rows(points)
    # counting each label by scanning the whole list took longer than the export itself
    assert time.perf_counter() - start <= unique
    assert str(raised.value) == "duplicate point labels: ['p19', 'p7']"


def test_export_rejects_unknown_format():
    with pytest.raises(ValueError, match="format"):
        export_diagram([], format="png")


# --- the import graph has no cycle ---------------------------------------------

MODULES = sorted(
    path.stem for path in Path(roc.__file__).parent.glob("*.py") if not path.stem.startswith("_")
)


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_first_in_a_fresh_interpreter(module):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run(
        [sys.executable, "-c", f"import procfair.{module}"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr


def test_roc_has_no_function_level_import():
    tree = ast.parse(Path(roc.__file__).read_text(encoding="utf-8"))
    nested = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body
    ]
    assert nested == []
