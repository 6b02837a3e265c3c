"""Acceptance suite: ten numbered criteria, one test each.

Every test prints a single pass or fail line (visible with ``pytest -s``)
and enforces its time budget.  The test names double as the report when
the suite runs under ``pytest -v``.
"""

import itertools
import random
import time
from fractions import Fraction
from math import comb

from hftvertex.chars import (LaurentPoly, RationalCharacter, VariableSet,
                             one_minus)
from hftvertex.fixedpoints import (FrozenTripleModel, enumerate_fixed,
                                   hilbert_poly, limit_stable_equiv,
                                   rank_coefficient)
from hftvertex.localize import (contribution, parse_specialization,
                                weights_of)
from hftvertex.series import (assemble_vertex, compare_rows,
                              hft_partition, one_leg_exponent, ws_text)
from hftvertex.vertexchar import total_character
from oracles import (binomiality_test, brute_partition, char_substituted,
                     edge_g_local, eq_rational, frame_part, leg_strata,
                     poly_substituted, total_character_quotient)

V1 = VariableSet(1)
V2 = VariableSet(2)
V3 = VariableSet(3)
VARS = {1: V1, 2: V2, 3: V3}


def _check(number, description, budget, body):
    start = time.monotonic()
    try:
        body()
    except BaseException:
        print("criterion %2d: FAIL (%.3fs) %s"
              % (number, time.monotonic() - start, description))
        raise
    elapsed = time.monotonic() - start
    status = "PASS" if elapsed < budget else "FAIL"
    print("criterion %2d: %s (%.3fs) %s"
          % (number, status, elapsed, description))
    assert elapsed < budget, (
        "criterion %d exceeded its %.0fs budget: %.3fs"
        % (number, budget, elapsed))


def test_criterion_01_one_leg_series_is_binomial():
    def body():
        series = assemble_vertex(1, 0, 6)
        ok, exponent = binomiality_test(1, series.coefficients)
        assert ok
        assert exponent == one_leg_exponent(1)
    _check(1, "untwisted rank 1 series is (1+q)^((s2+s3)/s1) "
              "through order 6", 1.0, body)


def _general_binomial(exponent, k):
    value = Fraction(1)
    for i in range(k):
        value *= Fraction(exponent - i, i + 1)
    return value


def _cy_collapsed_form(vars, form):
    """The linear form after s3 = -s1 - s2, as a polynomial in two
    placeholder variables."""
    assert all(c == 0 for c in form[3:])
    a, b, c = form[0] - form[2], form[1] - form[2], 0
    terms = {}
    if a:
        terms[vars.mono(t1=1)] = Fraction(a)
    if b:
        terms[vars.mono(t2=1)] = Fraction(b)
    return LaurentPoly(vars, terms)


def test_criterion_02_cy_rank_one_series_is_alternating():
    def body():
        cy = parse_specialization(1, "s3=-s1-s2,v1=1")
        for twist in range(4):
            series = assemble_vertex(1, twist, 6, "character", cy)
            for k, coeff in enumerate(series.coefficients):
                assert ws_text(coeff) == str((-1) ** k)
                # independent oracle: multiply the collapsed weight
                # forms of each fixed point straight off its character
                num = LaurentPoly.one(V1)
                den = LaurentPoly.one(V1)
                for box in leg_strata(1, k):
                    poly = total_character(V1, box, twist)
                    for sign, form in weights_of(poly):
                        factor = _cy_collapsed_form(V1, form)
                        assert not factor.is_zero()
                        if sign < 0:
                            num = num * factor
                        else:
                            den = den * factor
                assert num == den.scaled((-1) ** k)
            rows = compare_rows(1, twist, 6, cy)
            for k, row in enumerate(rows):
                want = Fraction((-1) ** k) - _general_binomial(
                    -(twist + 1), k)
                assert ws_text(row["difference_from_reference"]) == str(want)
    _check(2, "CY rank 1 coefficients are (-1)^k for twists 0..3, "
              "with per order reference differences", 1.0, body)


def test_criterion_03_partition_matches_multinomial_oracle():
    def body():
        rng = random.Random(1003)
        for _ in range(50):
            counts = {}
            for _ in range(rng.randint(1, 5)):
                counts[rng.randint(0, 7)] = Fraction(
                    rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
            twist = rng.randint(0, 3)
            rank = rng.randint(1, 4)
            order = rng.randint(0, 20)
            assert hft_partition(counts, twist, rank, order) == \
                brute_partition(counts, twist, rank, order)
    _check(3, "twisted rank r partition series equals the brute force "
              "multinomial expansion on 50 random inputs", 1.0, body)


def test_criterion_04_fixed_point_counts():
    def body():
        for rank in range(1, 5):
            parts = 2 * rank
            for total in range(9):
                boxes = enumerate_fixed(rank, total)
                assert len(boxes) == comb(total + parts - 1, parts - 1)
                # independent exhaustive generation via bar placements
                seen = set()
                for bars in itertools.combinations(
                        range(total + parts - 1), parts - 1):
                    edges = (-1,) + bars + (total + parts - 1,)
                    tup = tuple(edges[i + 1] - edges[i] - 1
                                for i in range(parts))
                    seen.add(tup)
                assert seen == {b.alpha + b.beta for b in boxes}
    _check(4, "fixed point enumeration matches the stars and bars count "
              "for ranks up to 4, totals up to 8", 1.0, body)


def _grid():
    for rank in (1, 2, 3):
        vars = VARS[rank]
        for total in range(6):
            for box in enumerate_fixed(rank, total):
                for twist in range(4):
                    yield rank, vars, box, twist


def test_criterion_05_total_characters_reduce_exactly():
    def body():
        boxes = 0
        for rank, vars, box, twist in _grid():
            if twist == 0:
                boxes += 1
            # the quotient road divides exactly, to the finite sum
            assert (total_character_quotient(vars, box, twist)
                    == total_character(vars, box, twist))
        assert boxes == 609
    _check(5, "every total character on the rank <= 3, total <= 5, "
              "twist <= 3 grid reduces to a Laurent polynomial", 10.0, body)


def test_criterion_06_contributions_are_scaling_invariant():
    def body():
        lambdas = (Fraction(2), Fraction(1, 3), Fraction(-5, 7))
        for rank, vars, box, twist in _grid():
            wf = contribution(vars, box, twist)
            assert len(wf.num) == len(wf.den)
            # powers of 100 cannot be cancelled by the small integer
            # coefficients the weight forms carry
            point = tuple(Fraction(100) ** (i + 1) for i in range(3 + rank))
            base = wf.evaluate(point)
            for lam in lambdas:
                scaled = tuple(lam * x for x in point)
                assert wf.evaluate(scaled) == base
    _check(6, "every character mode contribution on the grid is "
              "invariant under rational parameter scaling", 10.0, body)


def test_criterion_07_rank_two_edge_factor_twist_independent():
    def body():
        flip = {4: (-1, V2.mono(w=(1,)))}
        base = char_substituted(edge_g_local(V2, 0), flip)
        for twist in (7,):
            other = char_substituted(edge_g_local(V2, twist), flip)
            assert eq_rational(base, other)
        laurent = LaurentPoly.one(V2) \
            - LaurentPoly.monomial(V2, V2.mono(t2=1)) \
            - LaurentPoly.monomial(V2, V2.mono(t3=1)) \
            + LaurentPoly.monomial(V2, V2.mono(t2=1, t3=1))
        expected = RationalCharacter(
            V2, laurent.times_monomial(V2.mono(t2=-1, t3=-1)), ()) \
            + RationalCharacter(V2, LaurentPoly.one(V2),
                                (V2.mono(t2=1), V2.mono(t3=1)))
        assert eq_rational(base, expected)
    _check(7, "rank 2 edge factor with the frame identification "
              "w2 = -w1 does not depend on the twist", 1.0, body)


def test_criterion_08_limit_stability_matches_cokernel_criterion():
    def body():
        rng = random.Random(1008)
        for _ in range(120):
            rank = rng.randint(1, 4)
            lead = rank
            const = rng.randint(1, 8)
            total = (Fraction(const), Fraction(lead))
            if rng.random() < 0.5:
                image = (Fraction(rng.randint(0, const)), Fraction(lead))
                expect = True
            elif rng.random() < 0.7:
                image = (Fraction(rng.randint(0, const)),
                         Fraction(rng.randint(1, max(1, lead - 1))))
                expect = image[1] == lead
            else:
                image = (Fraction(rng.randint(1, const)),)
                expect = False
            model = FrozenTripleModel(rank, total, image)
            degree = rng.choice((2, 3))
            q = hilbert_poly([Fraction(rng.randint(-3, 3))
                              for _ in range(degree)]
                             + [Fraction(rng.randint(1, 3))])
            stable, coker_zero = limit_stable_equiv(model, q)
            assert stable == coker_zero == expect
            assert coker_zero == (
                rank_coefficient(model.p_image, model.p_total)
                == model.p_total[-1])
    _check(8, "limit stability agrees with the zero dimensional "
              "cokernel criterion on 120 random models", 1.0, body)


def _random_poly(rng, vars, nterms=4, spread=3):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(-spread, spread)
                  for _ in range(vars.nvars))
        terms[e] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return LaurentPoly(vars, terms)


def _random_monomial(rng, vars, spread=2):
    while True:
        e = tuple(rng.randint(-spread, spread)
                  for _ in range(vars.nvars))
        if any(e):
            return e


def test_criterion_09_algebra_property_families():
    def body():
        rng = random.Random(1009)
        for _ in range(1000):
            vars = VARS[rng.randint(1, 2)]
            p = _random_poly(rng, vars)
            assert p.bar().bar() == p
        for _ in range(1000):
            vars = VARS[rng.randint(1, 2)]
            num = _random_poly(rng, vars, nterms=3)
            den = tuple(_random_monomial(rng, vars)
                        for _ in range(rng.randint(0, 3)))
            rc = RationalCharacter(vars, num, den)
            once = rc.normalized()
            assert once.normalized() == once
        for _ in range(1000):
            vars = VARS[rng.randint(1, 2)]
            p = _random_poly(rng, vars, nterms=3)
            factors = tuple(_random_monomial(rng, vars)
                            for _ in range(rng.randint(0, 3)))
            blown = p
            for m in factors:
                blown = blown * one_minus(vars, m)
            assert RationalCharacter(vars, blown, factors).reduced() == p
            assert RationalCharacter(vars, p, ()).reduced() == p
        for _ in range(1000):
            vars = VARS[rng.randint(1, 2)]
            p = _random_poly(rng, vars, nterms=3, spread=2)
            q = _random_poly(rng, vars, nterms=3, spread=2)
            images = {}
            for idx in range(vars.nvars):
                if rng.random() < 0.5:
                    images[idx] = (rng.choice((1, -1)),
                                   _random_monomial(rng, vars))
            assert poly_substituted(p * q, images) == \
                poly_substituted(p, images) * poly_substituted(q, images)
    _check(9, "bar involution, normalize idempotence, reduce round "
              "trips, substitution homomorphism: 1000 cases each",
           10.0, body)


def _embed_rank_one(poly):
    terms = {}
    for e, c in poly.terms.items():
        assert e[3] == 0
        terms[(e[0], e[1], e[2], 0, 0)] = c
    return LaurentPoly(V2, terms)


def test_criterion_10_rank_two_totals_split_into_rank_one_parts():
    def body():
        for total in range(6):
            for box in enumerate_fixed(2, total):
                for twist in range(4):
                    combined = total_character(V2, box, twist)
                    projected = frame_part(combined, (0, 0))
                    parts = LaurentPoly.zero(V2)
                    for i in range(2):
                        piece = total_character(
                            V1, type(box)((box.alpha[i],), (box.beta[i],)),
                            twist)
                        parts = parts + _embed_rank_one(piece)
                    assert projected == parts
    _check(10, "frame degree zero part of each rank 2 total character "
               "is the sum of its two rank 1 constituents", 10.0, body)
