"""The package's public names: ``epwlat.X`` and ``from epwlat import X`` give
the defining submodule's own object, though only ``__version__`` and
``InvariantError`` are bound when the package is imported."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import epwlat
from epwlat import errors

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


def _package_trees():
    """Module name -> AST of every module of the package."""
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(Path(epwlat.__file__).parent.glob("*.py"))}


def _module_private_names(tree):
    """Module-level functions, classes and assigned names that start with
    ``_``, dunders excluded."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.endswith("__"))


def test_every_private_helper_has_a_caller():
    # a name read as a variable or an attribute anywhere in the package is
    # used; a mention in a docstring or comment is not
    trees = _package_trees()
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    dead = [f"{module}.{name}" for module, tree in trees.items()
            for name in _module_private_names(tree) if name not in used]
    assert dead == []


def _text_to_int_calls(tree):
    """Line numbers of the calls ``int(x)``: one argument, no base."""
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "int" and len(node.args) == 1 and not node.keywords}


def test_text_becomes_an_int_only_in_read_int():
    # errors.read_int is the one reader of outside integers, so every
    # refusal is worded once; int(s, 2) names a base and reads the
    # package's own bit strings
    trees = _package_trees()
    allowed = {("errors", line) for f in trees["errors"].body
               if isinstance(f, ast.FunctionDef) and f.name == "read_int"
               for line in _text_to_int_calls(f)}
    found = {(module, line) for module, tree in trees.items()
             for line in _text_to_int_calls(tree)}
    assert sorted(found - allowed) == []
    assert allowed


def _non_ascii_compiles(tree):
    """Line numbers of the calls ``re.compile`` that do not pass ``re.ASCII``
    (or ``re.A``) among their flags."""
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "compile" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "re"
            and not any(isinstance(n, ast.Attribute) and n.attr in ("ASCII", "A")
                        for flags in (*node.args[1:], *(k.value for k in node.keywords))
                        for n in ast.walk(flags))}


def test_every_pattern_is_ascii():
    # outside text has one grammar: under re.ASCII, \s is errors.SPACE and
    # \d the digits 0-9, the whitespace and digits that read_int accepts
    found = {(module, line) for module, tree in _package_trees().items()
             for line in _non_ascii_compiles(tree)}
    assert sorted(found) == []


def test_ascii_whitespace_is_errors_space():
    ascii_text = "".join(map(chr, range(128)))
    assert "".join(re.findall(r"\s", ascii_text, re.ASCII)) == "".join(sorted(errors.SPACE))
