"""Fixed point combinatorics and limit stability for framed pairs.

The torus fixed points of the rank r framed pair moduli on the resolved
one line geometry are indexed by 2r nonnegative integers: for each of the
r frame summands, a box count on each of the two chart legs.  This module
enumerates those tuples and implements the stability condition as exact
asymptotic comparisons of Hilbert polynomials.

Hilbert polynomials are stored as tuples of Fractions, lowest degree
first, with no trailing zeros.  The rank of a subobject is read off as
its coefficient in the degree of the ambient polynomial.  Every
asymptotic comparison is one sign test: a combination ``sum c * p`` of
Hilbert polynomials is positive, zero or negative at all large
arguments according to the sign of its leading coefficient, which is
read off without building the combination.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import sub

from .chars import HftError

HilbertPoly = tuple[Fraction, ...]


class InvalidStabilityParameter(HftError):
    """The stability polynomial is unusable for the requested check."""


class InvalidModel(HftError):
    """A framed triple model failed validation."""


@dataclass(frozen=True)
class BoxTuple:
    """Box counts of one fixed point: a length per frame summand on each
    of the two chart legs."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...]

    def __post_init__(self) -> None:
        alpha, beta = tuple(self.alpha), tuple(self.beta)
        if len(alpha) != len(beta) or not alpha:
            raise InvalidModel("alpha and beta need equal positive length")
        # by type, so that neither a bool nor a float is read as a count
        if {*map(type, alpha + beta)} != {int} or min(alpha + beta) < 0:
            raise InvalidModel("box counts must be nonnegative integers")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def rank(self) -> int:
        return len(self.alpha)

    @property
    def total(self) -> int:
        return sum(self.alpha) + sum(self.beta)

    def __repr__(self) -> str:
        return "BoxTuple(alpha=%r, beta=%r)" % (self.alpha, self.beta)


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` nonnegative integers summing to ``total``,
    in lexicographic order."""
    if parts < 0 or total < 0:
        raise ValueError("compositions of negative data")
    if parts == 0:
        if total == 0:
            yield ()
        return
    # stars and bars: the parts are the differences of parts - 1
    # nondecreasing cuts in 0..total, which come in lexicographic order
    for cuts in combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(sub, (*cuts, total), (0, *cuts)))


def enumerate_fixed(rank: int, total: int) -> list[BoxTuple]:
    """Every fixed point box tuple of the given rank and total box count,
    in lexicographic order on the concatenated (alpha, beta) vector.

    The count is the number of weak compositions of ``total`` into 2*rank
    parts.
    """
    if rank < 1:
        raise ValueError("rank must be at least one")
    out = []
    for parts in compositions(total, 2 * rank):
        out.append(BoxTuple(parts[:rank], parts[rank:]))
    return out


def _rational(value: Fraction | int | str) -> Fraction:
    """``Fraction(value)``, refusing with ``ValueError`` a string whose
    decimal exponent exceeds the digit limit of ``int`` in magnitude:
    ``Fraction("1e3000000")`` would build that power of ten first."""
    if isinstance(value, str) and ("e" in value or "E" in value):
        limit = sys.get_int_max_str_digits()
        exponent = value.lower().rpartition("e")[2]
        if limit and abs(int(exponent)) > limit:
            raise ValueError("exponent of %r exceeds %d" % (value, limit))
    return Fraction(value)


def hilbert_poly(coeffs: Iterable[Fraction | int | str]) -> HilbertPoly:
    """Normalize a coefficient list (lowest degree first) to a tuple of
    Fractions without trailing zeros; the zero polynomial is ()."""
    cs = [_rational(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _leading_sign(*terms: tuple[Fraction | int, HilbertPoly]) -> int:
    """Sign of the leading coefficient of the sum of ``c * p`` over the
    pairs ``(c, p)``: the sign the sum takes at every sufficiently large
    argument, and 0 when the sum is the zero polynomial."""
    for i in reversed(range(max(len(p) for _, p in terms))):
        lead = sum(c * p[i] for c, p in terms if i < len(p))
        if lead:
            return 1 if lead > 0 else -1
    return 0


def rank_coefficient(p_sub: HilbertPoly, p_total: HilbertPoly) -> Fraction:
    """Coefficient of ``p_sub`` in the degree of ``p_total``: the rank of
    the subobject relative to the support of the total one."""
    p_total = hilbert_poly(p_total)
    if not p_total:
        raise InvalidModel("rank is undefined against the zero polynomial")
    deg = len(p_total) - 1
    p_sub = hilbert_poly(p_sub)
    return p_sub[deg] if deg < len(p_sub) else Fraction(0)


@dataclass(frozen=True)
class FrozenTripleModel:
    """Hilbert polynomial data of a framed triple.

    ``p_total`` is the polynomial of the framed sheaf, ``p_image`` that of
    the image of the framing map, and ``subobjects`` lists further test
    subsheaves as (polynomial, section_factors_through) pairs.  Validation
    enforces what every honest triple satisfies: the total polynomial has
    positive leading coefficient, the image is a nonzero subsheaf bounded
    by the total.
    """

    rank: int
    p_total: HilbertPoly
    p_image: HilbertPoly
    subobjects: tuple[tuple[HilbertPoly, bool], ...] = ()

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise InvalidModel("frame rank must be at least one")
        pf = hilbert_poly(self.p_total)
        pim = hilbert_poly(self.p_image)
        if not pf or pf[-1] <= 0:
            raise InvalidModel(
                "total polynomial needs a positive leading coefficient")
        if not pim:
            raise InvalidModel("the framing image must be nonzero")
        if _leading_sign((1, pim), (-1, pf)) > 0:
            raise InvalidModel("image polynomial exceeds the total one")
        subs = tuple((hilbert_poly(p), bool(flag))
                     for p, flag in self.subobjects)
        object.__setattr__(self, "p_total", pf)
        object.__setattr__(self, "p_image", pim)
        object.__setattr__(self, "subobjects", subs)

    @classmethod
    def from_json(cls, data: Mapping) -> FrozenTripleModel:
        """Read parsed JSON, refusing floats, booleans used as numbers
        and flags that are not booleans rather than converting them.
        Each refusal names the field or entry at fault."""
        def poly(value, name: str) -> HilbertPoly:
            if not isinstance(value, list) or any(
                    type(c) not in (int, str) for c in value):
                raise ValueError("%s %r is not a list of integers and "
                                 "strings" % (name, value))
            try:
                return hilbert_poly(value)
            except (ValueError, ZeroDivisionError) as err:
                raise ValueError("%s %r is not a list of rational numbers: "
                                 "%s" % (name, value, err)) from None
        entries = data.get("subobjects", [])
        if not isinstance(entries, list):
            raise ValueError("subobjects is not a list")
        subs = []
        for i, e in enumerate(entries):
            if not (isinstance(e, dict) and "p" in e
                    and isinstance(e.get("factors"), bool)):
                raise ValueError("subobjects[%d] is not an object with p "
                                 "and a boolean factors flag" % i)
            subs.append((poly(e["p"], "subobjects[%d].p" % i), e["factors"]))
        if type(data["rank"]) is not int:
            raise ValueError("bad rank %r" % (data["rank"],))
        return cls(data["rank"], poly(data["p_total"], "p_total"),
                   poly(data["p_image"], "p_image"), tuple(subs))


def tau_stability_check(model: FrozenTripleModel,
                        q_poly: Iterable) -> bool:
    """Decide stability of the model against its listed subobjects.

    ``q_poly`` is the stability polynomial and must have positive leading
    coefficient.  For a proper nonzero subobject with polynomial ``p_g``
    and relative rank ``rk_g``, instability means the failure of the
    strict asymptotic inequality

        (rk_f - rk_g)*q + rk_f*p_g - rk_g*p_f < 0

    when the framing section factors through the subobject, and

        rk_f*p_g - rk_g*(p_f + q) < 0

    when it does not.  Each margin is decided by the sign of its leading
    coefficient alone.  Subobjects equal to the whole sheaf or zero are
    skipped: the former is not proper, the latter cannot destabilize.
    """
    q = hilbert_poly(q_poly)
    if not q or q[-1] <= 0:
        raise InvalidStabilityParameter(
            "stability polynomial needs a positive leading coefficient")
    pf = model.p_total
    rk_f = pf[-1]
    for pg, factors in model.subobjects:
        if not pg or pg == pf:
            continue
        rk_g = rank_coefficient(pg, pf)
        if factors:
            margin = (rk_f - rk_g, q), (rk_f, pg), (-rk_g, pf)
        else:
            margin = (rk_f, pg), (-rk_g, pf), (-rk_g, q)
        if _leading_sign(*margin) >= 0:
            return False
    return True


def limit_stable_equiv(model: FrozenTripleModel,
                       q_poly: Iterable) -> tuple[bool, bool]:
    """Evaluate both sides of the large parameter stability criterion.

    Returns ``(stable, cokernel_zero_dimensional)`` where the first entry
    runs the stability check against the image subobject alone and the
    second asks whether the image has full rank inside the sheaf.  The
    stability polynomial must have degree at least two on top of the
    positive leading coefficient.  Whenever its degree also exceeds the
    degree of the total polynomial, the two answers agree; the models
    this theory produces are supported on a line, so their totals have
    degree one and any admissible parameter is in that regime.
    """
    q = hilbert_poly(q_poly)
    if not q or q[-1] <= 0 or len(q) - 1 < 2:
        raise InvalidStabilityParameter(
            "limit regime needs degree >= 2 and a positive leading "
            "coefficient")
    probe = FrozenTripleModel(model.rank, model.p_total, model.p_image,
                              ((model.p_image, True),))
    stable = tau_stability_check(probe, q)
    coker_zero = (rank_coefficient(model.p_image, model.p_total)
                  == model.p_total[-1])
    return (stable, coker_zero)
