"""The package's public names: ``epwlat.X`` and ``from epwlat import X`` give
the defining submodule's own object, though only ``__version__`` and
``InvariantError`` are bound when the package is imported."""

import importlib
import sys

import pytest

import epwlat

# the names the package re-exported before its exports were made lazy
REEXPORTS = {
    "lattices": (
        "Isometry", "Lattice", "Signature", "direct_sum", "discriminant",
        "induced_gram", "is_even", "is_isometry", "is_primitive",
        "negated_reflection", "orthogonal_complement", "product", "reflection",
        "rescale", "saturation", "signature", "sublattice_discriminant_test"),
    "pell": (
        "ContinuedFraction", "DerivedSolution", "PellSolution", "cf_expansion",
        "enumerate_negative", "fundamental_negative", "is_solvable_negative",
        "negative_solutions", "prime_criterion"),
    "epwfamily": (
        "FamilyRecord", "OgradyCase", "OgradyStatus", "disc_obstruction",
        "epw_involution", "epw_top_intersection", "family", "fujiki_degree_to_bb",
        "k3_embedding_sufficient", "necessary_condition", "ogrady_status",
        "reflection_inequality"),
    "errors": ("InvariantError",),
}
SUBMODULES = ("catalog", "epwfamily", "errors", "intmat", "lattices", "pell")


@pytest.mark.parametrize("module,name", [
    (m, n) for m, names in REEXPORTS.items() for n in names])
def test_reexport_is_the_submodule_object(module, name):
    own = getattr(importlib.import_module(f"epwlat.{module}"), name)
    assert getattr(epwlat, name) is own
    namespace = {}
    exec(f"from epwlat import {name}", namespace)
    assert namespace[name] is own


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_attribute(module):
    assert getattr(epwlat, module) is sys.modules[f"epwlat.{module}"]


def test_star_import_gives_the_same_names():
    namespace = {}
    exec("from epwlat import *", namespace)
    namespace.pop("__builtins__")
    expected = {n for names in REEXPORTS.values() for n in names} | set(SUBMODULES)
    assert set(namespace) == expected
    assert sorted(epwlat.__all__) == sorted(expected)
    assert expected <= set(dir(epwlat))


def test_unknown_name():
    with pytest.raises(AttributeError, match="has no attribute 'nonexistent'"):
        epwlat.nonexistent
    with pytest.raises(ImportError):
        exec("from epwlat import nonexistent", {})

