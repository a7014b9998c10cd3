"""Every JSON-emitting command validates against its shipped schema."""

import json
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from procfair.cli import main
from procfair.population import CriterionEquals, ExplicitIdSet, Singleton
from procfair.serialize import group_spec_json

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"

POPULATION = "id,J,X,attrs\na,1,1,sex=M\nb,1,0,sex=F\nc,0,0,sex=M\nd,0,1,sex=F\n"
RANDOMIZED = '{"type": "randomized", "rates": {"global": ["3/4", "1/10"]}}'


@pytest.fixture(scope="module")
def registry():
    resources = []
    for path in SCHEMA_DIR.glob("*.schema.json"):
        resource = Resource.from_contents(json.loads(path.read_text(encoding="utf-8")))
        resources.append((resource.id(), resource))
    return Registry().with_resources(resources)


def validate(registry, schema_name: str, doc) -> None:
    schema = json.loads((SCHEMA_DIR / schema_name).read_text(encoding="utf-8"))
    Draft202012Validator(schema, registry=registry).validate(doc)


@pytest.fixture
def files(tmp_path):
    pop = tmp_path / "population.csv"
    pop.write_text(POPULATION, encoding="utf-8")
    proc = tmp_path / "procedure.json"
    proc.write_text(RANDOMIZED, encoding="utf-8")
    return pop, proc


def emit(capsys, *argv) -> str:
    code = main(list(argv))
    assert code in (0, 2)
    return capsys.readouterr().out


def test_audit_schema(capsys, files, registry):
    pop, proc = files
    out = emit(
        capsys,
        "audit", "--population", str(pop), "--procedure", str(proc),
        "--attribute", "sex", "--format", "json",
    )
    validate(registry, "audit.schema.json", json.loads(out))


def test_audit_empirical_schema(capsys, files, registry):
    pop, proc = files
    out = emit(
        capsys,
        "audit", "--population", str(pop), "--procedure", str(proc),
        "--attribute", "sex", "--trials", "20", "--format", "json",
    )
    doc = json.loads(out)
    assert "simulation" in doc
    validate(registry, "audit.schema.json", doc)


def test_classify_schema(capsys, registry):
    out = emit(capsys, "classify", "--h", "3/4", "--k", "0.1", "--format", "json")
    validate(registry, "classify.schema.json", json.loads(out))


def test_witness_schema(capsys, files, registry):
    pop, _ = files
    out = emit(capsys, "witness", "--population", str(pop), "--format", "json")
    validate(registry, "witness.schema.json", json.loads(out))


def test_simulate_schema(capsys, files, registry):
    pop, proc = files
    out = emit(
        capsys,
        "simulate", "--population", str(pop), "--procedure", str(proc),
        "--trials", "25", "--format", "json",
    )
    validate(registry, "simulate.schema.json", json.loads(out))


def test_example1_schema(capsys, registry):
    out = emit(capsys, "example1", "--format", "json")
    validate(registry, "example1.schema.json", json.loads(out))


def test_roc_export_schema(capsys, tmp_path, registry):
    points = tmp_path / "points.json"
    points.write_text(
        '[{"label": "ex1", "h": "3/4", "k": "1/10"},'
        ' {"label": "coin", "h": 0.5, "k": 0.5}]',
        encoding="utf-8",
    )
    out = emit(capsys, "roc-export", str(points), "--format", "json")
    validate(registry, "roc-export.schema.json", json.loads(out))


def test_audit_with_an_empty_merit_class_validates(capsys, tmp_path, registry):
    pop = tmp_path / "innocent.csv"
    pop.write_text("id,J,X,attrs\na,1,1,sex=M\nb,1,0,sex=F\n", encoding="utf-8")
    proc = tmp_path / "procedure.json"
    proc.write_text(RANDOMIZED, encoding="utf-8")
    out = emit(
        capsys,
        "audit", "--population", str(pop), "--procedure", str(proc),
        "--attribute", "sex", "--format", "json",
    )
    doc = json.loads(out)
    assert doc["rates"]["overall"]["h"] is None
    assert [v["group_a"]["kind"] for v in doc["verdicts"]] == ["attribute"]
    validate(registry, "audit.schema.json", doc)


@pytest.mark.parametrize("group", [None, ExplicitIdSet(["a"]), Singleton("a")])
def test_a_report_group_is_an_attribute_or_a_criterion(group):
    assert group_spec_json(CriterionEquals(1)) == {"kind": "criterion", "value": 1}
    with pytest.raises(TypeError, match="no report shape"):
        group_spec_json(group)
