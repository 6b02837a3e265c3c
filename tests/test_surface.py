"""The public surface of the package, pinned name by name.

A public name is a module-level class, function or assignment of an
``hftvertex`` module whose name does not start with an underscore.  The
pin makes every change to the surface a deliberate edit here: a new
name must be added, and a name that moved into ``tests/oracles.py``
cannot come back unnoticed.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import oracles

PUBLIC = {
    "hftvertex": set(),
    "hftvertex.chars": {
        "CharError", "HftError", "LaurentPoly", "Monomial", "NotPolynomial",
        "RationalCharacter", "VariableSet", "VariableSetMismatch",
        "ZeroDenominator", "divide_one_minus", "grlex_key", "monomial_text",
        "one_minus"},
    "hftvertex.cli": {"UsageError", "main"},
    "hftvertex.fixedpoints": {
        "BoxTuple", "FrozenTripleModel", "HilbertPoly", "InvalidModel",
        "InvalidStabilityParameter", "compositions", "enumerate_fixed",
        "hilbert_poly", "limit_stable_equiv", "poly_compare_asymptotic",
        "rank_coefficient", "tau_stability_check"},
    "hftvertex.localize": {
        "AffineWeight", "DivisionByZero", "ModeUnavailable",
        "NonIntegerMultiplicity", "Specialization", "SpecializationSyntax",
        "WeightForm", "WeightFunction", "ZeroWeight", "contribution",
        "form_text", "param_names", "parse_specialization", "specialize",
        "weight_function", "weights_of"},
    "hftvertex.series": {
        "BinomialIneligible", "CountSeries", "InvalidCounts", "VertexSeries",
        "WeightSum", "assemble_vertex", "binomial_series",
        "closed_form_series", "compare_rows", "count_series",
        "eq_weight_sum", "hft_partition", "one_leg_exponent", "power",
        "reference_series", "weight_sum", "ws_text", "ws_to_json",
        "ws_unit"},
    "hftvertex.vertexchar": {
        "alpha_block", "beta_block", "frame_sum", "geometric_sum",
        "total_character"},
}


def _defined_names(path):
    names = set()
    for node in ast.parse(Path(path).read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if not n.startswith("_")}


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_public_names_are_pinned(name):
    module = importlib.import_module(name)
    assert _defined_names(module.__file__) == PUBLIC[name]


def test_every_module_is_pinned():
    package = importlib.import_module("hftvertex")
    found = {"hftvertex." + m.name for m in pkgutil.iter_modules(
        package.__path__)}
    assert found | {"hftvertex"} == set(PUBLIC)


def test_oracle_names_stay_out_of_the_package():
    # neither defined nor imported by any package module
    held = _defined_names(oracles.__file__)
    for name in PUBLIC:
        module = importlib.import_module(name)
        assert not held & set(vars(module)), name
