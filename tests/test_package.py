"""The package's public names: each declared once, in the module that defines it."""

import importlib

import pytest

import procfair

PUBLIC_NAMES = [
    "AbsoluteFairnessReport", "AmbiguousRateError", "AttributeEquals", "Bipartition",
    "ClassComparison", "ConditionalRates", "ContingencyCell", "ContingencyTable",
    "CriterionEquals", "DeterministicProcedure", "ExplicitIdSet", "FairnessVerdict",
    "GUILTY", "GlobalRates", "GroupJustice", "GroupPairViolation", "GroupSpec", "INNOCENT",
    "Individual", "JusticeMetrics", "MissingCriterionError", "MissingRateError",
    "PerGroupRates", "Population", "PopulationParseError", "Procedure", "ProcedureClass",
    "ProcedureSpecError", "ProcfairError", "PropertyReport", "RandomizedProcedure",
    "RocPoint", "Simulation", "Singleton", "SizeLimitError", "UnknownIdError",
    "WitnessReport", "as_probability", "as_rational", "check_absolute_fairness",
    "check_pairwise_fairness", "classify", "construct_witness", "dump_population",
    "empirical_rates", "exact_rates", "exhaustive_search", "expected_contingency",
    "export_diagram", "global_procedure", "group_members", "is_merit_agnostic",
    "justice_metrics", "load_population", "load_procedure", "make_group_fair",
    "merit_counts", "per_group_procedure", "simulate", "to_diamond", "verify_theorem",
]
MODULES = ["errors", "fairness", "population", "procedure", "roc", "theorem"]


def test_the_package_exports_its_public_names_once():
    assert sorted(procfair.__all__) == PUBLIC_NAMES
    assert len(set(procfair.__all__)) == len(procfair.__all__)
    for name in procfair.__all__:
        getattr(procfair, name)


def test_each_public_name_is_declared_by_exactly_one_module():
    declared = [name for module in MODULES for name in importlib.import_module(f"procfair.{module}").__all__]
    assert sorted(declared) == PUBLIC_NAMES


@pytest.mark.parametrize("module", MODULES)
def test_every_name_a_module_declares_exists_there(module):
    module = importlib.import_module(f"procfair.{module}")
    for name in module.__all__:
        assert getattr(procfair, name) is getattr(module, name)


def test_conditional_rates_is_still_importable_from_fairness():
    from procfair.fairness import ConditionalRates
    from procfair.procedure import ConditionalRates as declared

    assert ConditionalRates is declared
