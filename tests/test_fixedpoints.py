"""Tests for fixed point enumeration, Poincare data, and stability."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from hftvertex.chars import LaurentPoly, RationalCharacter, VariableSet
from hftvertex.fixedpoints import (BoxTuple, FrozenTripleModel, InvalidModel,
                                   InvalidStabilityParameter, compositions,
                                   enumerate_fixed, hilbert_poly,
                                   _leading_sign, limit_stable_equiv,
                                   rank_coefficient, tau_stability_check)
from oracles import box_model, char_from_poincare, poincare_from_char

V1 = VariableSet(1)
V2 = VariableSet(2)


def test_box_tuple_basics():
    box = BoxTuple((2, 0), (1, 3))
    assert box.rank == 2
    assert box.total == 6
    assert BoxTuple((0,), (0,)).total == 0


def test_box_tuple_validation():
    with pytest.raises(InvalidModel):
        BoxTuple((1,), (1, 2))
    with pytest.raises(InvalidModel):
        BoxTuple((), ())
    with pytest.raises(InvalidModel):
        BoxTuple((-1,), (0,))
    # neither a float nor a bool is read as a count
    for alpha, beta in (((1.5,), (0,)), ((True,), (0,)), ((0,), (0.9,)),
                        ((0, 1), (0, "1"))):
        with pytest.raises(InvalidModel, match="nonnegative integers"):
            BoxTuple(alpha, beta)


def test_compositions_order_and_count():
    got = list(compositions(2, 2))
    assert got == [(0, 2), (1, 1), (2, 0)]
    for total in range(6):
        for parts in range(1, 5):
            count = len(list(compositions(total, parts)))
            assert count == math.comb(total + parts - 1, parts - 1)
    assert list(compositions(0, 0)) == [()]
    assert list(compositions(3, 0)) == []
    with pytest.raises(ValueError):
        list(compositions(-1, 2))


def test_enumerate_fixed_counts_and_order():
    for rank in (1, 2, 3):
        for total in range(5):
            found = enumerate_fixed(rank, total)
            assert len(found) == math.comb(total + 2 * rank - 1,
                                           2 * rank - 1)
            flat = [box.alpha + box.beta for box in found]
            assert flat == sorted(flat)
            assert all(box.total == total for box in found)
    with pytest.raises(ValueError, match="rank must be at least one"):
        enumerate_fixed(0, 1)


def test_enumerate_fixed_matches_exhaustive_generation():
    rank, total = 2, 3
    brute = set()
    for cand in itertools.product(range(total + 1), repeat=2 * rank):
        if sum(cand) == total:
            brute.add((cand[:rank], cand[rank:]))
    assert {(b.alpha, b.beta) for b in enumerate_fixed(rank, total)} == brute


def test_char_from_poincare_structure_sheaf():
    full = char_from_poincare(V1, LaurentPoly.zero(V1), LaurentPoly.one(V1))
    expect = RationalCharacter(
        V1, LaurentPoly.one(V1),
        (V1.mono(t1=1), V1.mono(t2=1), V1.mono(t3=1)))
    assert full == expect


def test_poincare_roundtrip_random():
    rng = random.Random(909)
    for _ in range(100):
        vars = V2 if rng.random() < 0.5 else V1
        terms = {tuple(rng.randint(-2, 2) for _ in range(vars.nvars)):
                 Fraction(rng.randint(-4, 4))
                 for _ in range(rng.randint(0, 4))}
        numerator = LaurentPoly(vars, terms)
        twist = LaurentPoly.monomial(vars, vars.mono(t1=rng.randint(-2, 2)))
        full = char_from_poincare(vars, numerator, twist)
        assert poincare_from_char(full, twist) == numerator


def test_hilbert_poly_normalization():
    assert hilbert_poly((1, 2, 0, 0)) == (Fraction(1), Fraction(2))
    assert hilbert_poly(()) == ()
    assert hilbert_poly(("1/2", 1)) == (Fraction(1, 2), Fraction(1))
    assert hilbert_poly((0,)) == ()


def test_poly_compare_asymptotic():
    def sign(a, b):
        return _leading_sign((1, hilbert_poly(a)), (-1, hilbert_poly(b)))
    assert sign((0, 0, 1), (0, 5)) == 1
    assert sign((0, 5), (0, 0, 1)) == -1
    assert sign((1, 2), (1, 2)) == 0
    assert sign((-3, 1), (4,)) == 1


def test_rank_coefficient():
    total = hilbert_poly((2, 2))
    assert rank_coefficient(hilbert_poly((1, 2)), total) == 2
    assert rank_coefficient(hilbert_poly((1, 1)), total) == 1
    assert rank_coefficient(hilbert_poly((5,)), total) == 0
    with pytest.raises(InvalidModel):
        rank_coefficient(hilbert_poly((1,)), hilbert_poly(()))


def test_model_validation():
    with pytest.raises(InvalidModel):
        FrozenTripleModel(0, (1, 1), (1,))
    with pytest.raises(InvalidModel):
        FrozenTripleModel(1, (), (1,))
    with pytest.raises(InvalidModel):
        FrozenTripleModel(1, (1, -1), (1,))
    with pytest.raises(InvalidModel):
        FrozenTripleModel(1, (1, 1), ())
    with pytest.raises(InvalidModel):
        FrozenTripleModel(1, (1, 1), (1, 2))


def test_model_json_roundtrip():
    data = {"rank": 2, "p_total": ["2", "2"], "p_image": [1, "2"],
            "subobjects": [{"p": ["1", 2], "factors": True},
                           {"p": ["1", "0"], "factors": False}]}
    assert FrozenTripleModel.from_json(data) == FrozenTripleModel(
        2, (2, 2), (1, 2), (((1, 2), True), ((1,), False)))


def test_stability_parameter_validation():
    model = FrozenTripleModel(1, (1, 1), (1, 1))
    with pytest.raises(InvalidStabilityParameter):
        tau_stability_check(model, (0, 0, -1))
    with pytest.raises(InvalidStabilityParameter):
        tau_stability_check(model, ())
    with pytest.raises(InvalidStabilityParameter):
        limit_stable_equiv(model, (0, 1))


def test_limit_stable_oracles():
    # full rank image: stable, zero dimensional cokernel
    m1 = FrozenTripleModel(2, (2, 2), (1, 2))
    assert limit_stable_equiv(m1, (0, 0, 1)) == (True, True)
    # rank one image inside rank two: neither
    m2 = FrozenTripleModel(2, (2, 2), (1, 1))
    assert limit_stable_equiv(m2, (0, 0, 1)) == (False, False)
    # image equal to the whole sheaf: skipped subobject, stable
    m3 = FrozenTripleModel(1, (1, 1), (1, 1))
    assert limit_stable_equiv(m3, (0, 0, 0, 1)) == (True, True)


def test_tau_stability_factoring_vs_not():
    total = hilbert_poly((2, 2))
    sub = hilbert_poly((1, 1))
    q = (0, 0, 1)
    factoring = FrozenTripleModel(2, total, total, ((sub, True),))
    assert tau_stability_check(factoring, q) is False
    free = FrozenTripleModel(2, total, total, ((sub, False),))
    assert tau_stability_check(free, q) is True


def test_tau_stability_skips_trivial_subobjects():
    total = hilbert_poly((2, 2))
    model = FrozenTripleModel(2, total, total,
                              ((total, True), ((), True)))
    assert tau_stability_check(model, (0, 0, 1)) is True


def test_box_model_always_limit_stable():
    rng = random.Random(111)
    for _ in range(50):
        rank = rng.randint(1, 4)
        total = rng.randint(0, 8)
        box = random.Random(rng.random()).choice(
            enumerate_fixed(rank, min(total, 4)))
        model = box_model(box)
        assert model.p_total == hilbert_poly((box.rank + box.total,
                                              box.rank))
        assert tau_stability_check(model, (0, 0, 1)) is True
        assert limit_stable_equiv(model, (0, 0, 1)) == (True, True)


def random_line_model(rng):
    """A model of the shape this theory produces: a degree one total
    polynomial with integer rank, plus an image of rank at most that."""
    rank = rng.randint(1, 4)
    tail = rng.randint(0, 6)
    twist = rng.randint(0, 3)
    total = hilbert_poly((rank * (twist + 1) + tail, rank))
    if rng.random() < 0.5:
        # full rank image, possibly smaller in lower order
        image = hilbert_poly((rank * (twist + 1) + rng.randint(0, tail),
                              rank))
        expect = True
    else:
        im_rank = rng.randint(0, rank - 1)
        if im_rank == 0:
            image = hilbert_poly((rng.randint(1, 5),))
        else:
            image = hilbert_poly((rng.randint(0, 5), im_rank))
        expect = False
    return FrozenTripleModel(rank, total, image), expect


def test_limit_stability_matches_cokernel_rank_randomized():
    rng = random.Random(2024)
    for _ in range(200):
        model, expect = random_line_model(rng)
        q = (0, 0, 1) if rng.random() < 0.5 else (1, 0, 2, 3)
        stable, coker = limit_stable_equiv(model, q)
        assert stable == coker == expect
