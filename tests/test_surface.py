"""The public surface of the package, pinned name by name.

A public name is a module-level class, function or assignment of an
``hftvertex`` module whose name does not start with an underscore.  The
pin makes every change to the surface a deliberate edit here: a new
name must be added, and a name that moved into ``tests/oracles.py``
cannot come back unnoticed.  Each public name must also have a caller
in the package or in the benchmark scripts, so code that only the
tests call moves into the tests.  The package also stays exact and
self-contained: no float, no true division and no import from outside
the standard library.
"""

import ast
import importlib
import pkgutil
import re
import sys
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
        "hilbert_poly", "limit_stable_equiv", "rank_coefficient",
        "tau_stability_check"},
    "hftvertex.localize": {
        "AffineWeight", "DivisionByZero", "InexactWeight", "ModeUnavailable",
        "NonIntegerMultiplicity", "Specialization", "SpecializationSyntax",
        "WeightForm", "WeightFunction", "ZeroWeight", "contribution",
        "form_text", "param_names", "parse_specialization", "specialize",
        "weight_function", "weights_of"},
    "hftvertex.series": {
        "BinomialIneligible", "CountSeries", "InvalidCounts", "WeightSum",
        "assemble_vertex", "binomial_series",
        "closed_form_series", "compare_rows", "eq_weight_sum",
        "hft_partition", "one_leg_exponent", "power", "reference_series",
        "weight_sum", "ws_unit"},
    "hftvertex.vertexchar": {
        "alpha_block", "beta_block", "frame_sum", "geometric_sum",
        "total_character"},
}


BENCHMARK = Path(__file__).resolve().parents[1] / "perfbench"


def _tree(path):
    return ast.parse(Path(path).read_text(encoding="utf-8"))


def _names_of(node):
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target]
        return {t.id for t in targets if isinstance(t, ast.Name)}
    return set()


def _defined_names(path):
    names = set().union(*map(_names_of, _tree(path).body))
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


def test_every_public_name_has_a_caller():
    # a caller reads the name outside the statement that defines it, in
    # a module that defines or imports it; an import alone is no caller.
    # The benchmark scripts name layers in strings, so a word there counts.
    called = set(re.findall(r"\w+", " ".join(
        p.read_text(encoding="utf-8") for p in BENCHMARK.glob("*.py"))))
    public = set()
    for name in PUBLIC:
        path = importlib.import_module(name).__file__
        tree = _tree(path)
        bound = set().union(*map(_names_of, tree.body))
        bound.update(a.asname or a.name for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) for a in node.names)
        for node in tree.body:
            called |= {n.id for n in ast.walk(node) if isinstance(
                n, ast.Name)} & bound - _names_of(node)
        public |= _defined_names(path)
    assert sorted(public - called) == []


# the functions of ``math`` that take and give integers only
_INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm"}


def _inexact(tree):
    """Line and reason of each node that would bring a float or a
    runtime dependency into a module: an import from outside the
    standard library, a ``math`` import other than an integer function,
    a float literal, ``/`` or ``/=``, or a call of ``float``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported = [(a.name, None) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            imported = [(node.module, a.name) for a in node.names]
        else:
            imported = []
        for module, name in imported:
            top = module.partition(".")[0]
            text = module if name is None else "%s.%s" % (module, name)
            if top not in sys.stdlib_module_names:
                yield node.lineno, "import of " + text
            elif top == "math" and name not in _INTEGER_MATH:
                yield node.lineno, "import of " + text
        if isinstance(node, ast.Constant) and isinstance(
                node.value, (float, complex)):
            yield node.lineno, "float literal"
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.Div):
            yield node.lineno, "true division"
        if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Name) and node.func.id == "float":
            yield node.lineno, "call of float"


def test_the_package_stays_exact_and_self_contained():
    found = []
    for name in PUBLIC:
        path = importlib.import_module(name).__file__
        found += [(name, *hit) for hit in _inexact(_tree(path))]
    assert found == []


@pytest.mark.parametrize("source", [
    "import numpy", "from sympy import Rational", "import math",
    "from math import sqrt", "x = 0.5", "x = 1e3", "y = x / 2", "x /= 2",
    "y = float(x)"])
def test_inexact_code_is_found(source):
    assert len(list(_inexact(ast.parse(source)))) == 1
