"""Fixed point combinatorics and limit stability for framed pairs.

The torus fixed points of the rank r framed pair moduli on the resolved
one line geometry are indexed by 2r nonnegative integers: for each of the
r frame summands, a box count on each of the two chart legs.  This module
enumerates those tuples and implements the stability condition as exact
asymptotic comparisons of Hilbert polynomials.

Hilbert polynomials are stored as tuples of Fractions, lowest degree
first, with no trailing zeros.  The rank of a subobject is read off as
its coefficient in the degree of the ambient polynomial.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from fractions import Fraction

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
        alpha = tuple(int(x) for x in self.alpha)
        beta = tuple(int(x) for x in self.beta)
        if len(alpha) != len(beta) or not alpha:
            raise InvalidModel("alpha and beta need equal positive length")
        if any(x < 0 for x in alpha + beta):
            raise InvalidModel("box counts must be nonnegative")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def rank(self) -> int:
        return len(self.alpha)

    @property
    def total(self) -> int:
        return sum(self.alpha) + sum(self.beta)

    def to_json(self) -> dict:
        return {"rank": self.rank, "alpha": list(self.alpha),
                "beta": list(self.beta)}

    @classmethod
    def from_json(cls, data: Mapping) -> BoxTuple:
        alpha = tuple(data["alpha"])
        beta = tuple(data["beta"])
        box = cls(alpha, beta)
        if "rank" in data and int(data["rank"]) != box.rank:
            raise InvalidModel("declared rank %r does not match vectors"
                               % (data["rank"],))
        return box

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
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head, *rest)


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


def hilbert_poly(coeffs: Iterable[Fraction | int | str]) -> HilbertPoly:
    """Normalize a coefficient list (lowest degree first) to a tuple of
    Fractions without trailing zeros; the zero polynomial is ()."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_add(a: HilbertPoly, b: HilbertPoly) -> HilbertPoly:
    n = max(len(a), len(b))
    return hilbert_poly(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
        for i in range(n))


def poly_sub(a: HilbertPoly, b: HilbertPoly) -> HilbertPoly:
    return poly_add(a, poly_scale(b, -1))


def poly_scale(a: HilbertPoly, c: Fraction | int) -> HilbertPoly:
    return hilbert_poly(Fraction(c) * x for x in a)


def poly_degree(a: HilbertPoly) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(hilbert_poly(a)) - 1


def poly_compare_asymptotic(a: Iterable, b: Iterable) -> str:
    """Compare two polynomials for all sufficiently large arguments:
    returns "less", "equal", or "greater"."""
    d = poly_sub(hilbert_poly(a), hilbert_poly(b))
    if not d:
        return "equal"
    return "greater" if d[-1] > 0 else "less"


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
        if poly_compare_asymptotic(pim, pf) == "greater":
            raise InvalidModel("image polynomial exceeds the total one")
        subs = tuple((hilbert_poly(p), bool(flag))
                     for p, flag in self.subobjects)
        object.__setattr__(self, "p_total", pf)
        object.__setattr__(self, "p_image", pim)
        object.__setattr__(self, "subobjects", subs)

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "p_total": [str(c) for c in self.p_total],
            "p_image": [str(c) for c in self.p_image],
            "subobjects": [
                {"p": [str(c) for c in p], "factors": flag}
                for p, flag in self.subobjects],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> FrozenTripleModel:
        subs = tuple(
            (hilbert_poly(entry["p"]), bool(entry["factors"]))
            for entry in data.get("subobjects", ()))
        return cls(int(data["rank"]), hilbert_poly(data["p_total"]),
                   hilbert_poly(data["p_image"]), subs)


def box_model(box: BoxTuple) -> FrozenTripleModel:
    """Polynomial model of the sheaf cut out by a box tuple: rank many
    line modules plus a zero dimensional tail of the total box count, the
    framing image being the line part."""
    r, k = box.rank, box.total
    line = hilbert_poly((r, r))
    return FrozenTripleModel(r, poly_add(line, hilbert_poly((k,))), line,
                             ((line, True),))


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

    when it does not.  Subobjects equal to the whole sheaf or zero are
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
            margin = poly_add(poly_scale(q, rk_f - rk_g),
                              poly_sub(poly_scale(pg, rk_f),
                                       poly_scale(pf, rk_g)))
        else:
            margin = poly_sub(poly_scale(pg, rk_f),
                              poly_scale(poly_add(pf, q), rk_g))
        if poly_compare_asymptotic(margin, ()) != "less":
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
