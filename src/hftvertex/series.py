"""Vertex series assembly, binomial closed forms, and count series.

The vertex series collects, order by order in the box count, the sum of
fixed point contributions on the pure first leg strata: the fixed points
whose second leg carries no boxes.  Coefficients are ``WeightSum``
values: canonical tuples of weight functions, grouped by their factor
data.  Exact equality of two weight sums is decided by clearing all
denominators and comparing honest polynomials in the parameters.

The closed form counterpart raises a one line binomial series to the
rank power, and ``binomiality_test`` recognizes when an assembled series
is itself binomial.  Finally ``hft_partition`` turns a count series of
box configurations into the generating series of a twisted rank r
theory: reindex by the twist, convolve rank many times, truncate.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .chars import HftError, LaurentPoly, VariableSet
from .fixedpoints import BoxTuple, InvalidModel, compositions
from .localize import (Specialization, WeightForm, WeightFunction,
                       contribution, specialize, weight_function)

WeightSum = tuple[WeightFunction, ...]


class BinomialIneligible(HftError):
    """The exponent is not of a shape the binomial series supports."""


class InvalidCounts(InvalidModel):
    """A count series entry is not a nonnegative integer degree with an
    exact rational count."""


def weight_sum(rank: int, items: Sequence[WeightFunction]) -> WeightSum:
    """Canonical sum: group by factor data, add scalars, drop zeros,
    sort."""
    acc: dict[tuple, tuple[WeightFunction, Fraction]] = {}
    for wf in items:
        if wf.rank != rank:
            raise InvalidModel(
                "weight function of rank %d in a sum of rank %d"
                % (wf.rank, rank))
        if wf.is_zero():
            continue
        key = (wf.num, wf.den)
        old = acc.get(key)
        acc[key] = (wf, (old[1] if old else Fraction(0)) + wf.scalar)
    out = []
    for (num, den), (_, scalar) in acc.items():
        if scalar:
            out.append(weight_function(rank, scalar, num, den))
    out.sort(key=lambda w: (w.num, w.den))
    return tuple(out)


def ws_unit(rank: int) -> WeightSum:
    return (weight_function(rank, 1),)


def ws_add(rank: int, a: WeightSum, b: WeightSum) -> WeightSum:
    return weight_sum(rank, list(a) + list(b))


def ws_scale(rank: int, a: WeightSum, value: Fraction | int) -> WeightSum:
    return weight_sum(rank, [wf.scaled(value) for wf in a])


def ws_mul(rank: int, a: WeightSum, b: WeightSum) -> WeightSum:
    return weight_sum(rank, [x * y for x in a for y in b])


def ws_text(a: WeightSum) -> str:
    if not a:
        return "0"
    out = a[0].text()
    for wf in a[1:]:
        t = wf.text()
        if t.startswith("-"):
            out += " - " + t[1:]
        else:
            out += " + " + t
    return out


def ws_to_json(a: WeightSum):
    if not a:
        return {"scalar": "0", "num": [], "den": []}
    if len(a) == 1:
        return a[0].to_json()
    return [wf.to_json() for wf in a]


def _form_poly(vars: VariableSet, form: WeightForm,
               scale: Fraction | int = 1) -> LaurentPoly:
    terms = {}
    for i, c in enumerate(form):
        if c:
            e = [0] * vars.nvars
            e[i] = 1
            terms[tuple(e)] = Fraction(scale) * c
    return LaurentPoly(vars, terms)


def eq_weight_sum(rank: int, a: WeightSum, b: WeightSum) -> bool:
    """Exact value equality of two weight sums.

    The difference is put over the product of every denominator factor
    appearing in either sum and the resulting numerator, a polynomial in
    the parameters with linear forms as building blocks, is expanded and
    compared with zero.  Intended for the small sums the series
    coefficients are; cost grows with the product of all factor counts.
    """
    terms = [(Fraction(1), wf) for wf in a] + [(Fraction(-1), wf) for wf in b]
    vars = VariableSet(rank)
    total = LaurentPoly.zero(vars)
    for i, (sign, wf) in enumerate(terms):
        part = LaurentPoly.constant(vars, sign * wf.scalar)
        for f in wf.num:
            part = part * _form_poly(vars, f)
        for k, (_, other) in enumerate(terms):
            if k == i:
                continue
            for f in other.den:
                part = part * _form_poly(vars, f)
        total = total + part
    return total.is_zero()


@dataclass(frozen=True)
class VertexSeries:
    """Coefficients of a vertex series up to a given order, together
    with the configuration that produced them."""

    rank: int
    twist: int
    order: int
    mode: str
    specialization: str
    coefficients: tuple[WeightSum, ...]

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "twist": self.twist,
            "order": self.order,
            "mode": self.mode,
            "specialization": self.specialization,
            "coefficients": [
                {"k": k, "value": ws_to_json(c)}
                for k, c in enumerate(self.coefficients)],
        }

    def text(self) -> str:
        lines = ["rank %d, twist %d, mode %s%s" % (
            self.rank, self.twist, self.mode,
            ", specialized: %s" % self.specialization
            if self.specialization else "")]
        for k, c in enumerate(self.coefficients):
            lines.append("c[%d] = %s" % (k, ws_text(c)))
        return "\n".join(lines)


def leg_strata(rank: int, total: int) -> list[BoxTuple]:
    """Fixed points with all boxes on the first leg: one stratum per
    composition of the total into rank parts."""
    return [BoxTuple(parts, (0,) * rank)
            for parts in compositions(total, rank)]


def assemble_vertex(rank: int, twist: int, order: int,
                    mode: str = "character",
                    spec: Specialization | None = None) -> VertexSeries:
    """Vertex series: coefficient k sums the contributions of the first
    leg strata with k boxes.  The order zero coefficient is one.  A
    specialization, when given, applies to each contribution separately
    so error messages can name the fixed point responsible."""
    if order < 0:
        raise InvalidModel("order must be nonnegative")
    vars = VariableSet(rank)
    coeffs: list[WeightSum] = [ws_unit(rank)]
    for k in range(1, order + 1):
        items = []
        for box in leg_strata(rank, k):
            wf = contribution(vars, box, twist, mode)
            if spec is not None and not spec.is_trivial():
                wf = specialize(
                    wf, spec, "contribution of %r at twist %d"
                    % (box, twist))
            items.append(wf)
        coeffs.append(weight_sum(rank, items))
    return VertexSeries(rank, twist, order, mode,
                        spec.source if spec is not None else "",
                        tuple(coeffs))


def _binomial_factor(exponent: WeightFunction, shift: int) -> WeightFunction:
    """The weight function ``exponent - shift`` for an eligible
    exponent."""
    rank = exponent.rank
    if not exponent.num and not exponent.den:
        return weight_function(rank, exponent.scalar - shift)
    n = exponent.num[0]
    d = exponent.den[0]
    vec = [exponent.scalar * a - shift * b for a, b in zip(n, d)]
    if not any(vec):
        return weight_function(rank, 0)
    return weight_function(rank, 1, [vec], [d])


def binomial_series(exponent: WeightFunction, order: int
                    ) -> list[WeightFunction]:
    """Coefficients of (1 + q) raised to the exponent: the generalized
    binomial coefficients of a weight function.

    The exponent must be a bare scalar or a scalar times a single form
    over a single form; anything else raises ``BinomialIneligible``.
    """
    rank = exponent.rank
    shape = (len(exponent.num), len(exponent.den))
    if shape not in ((0, 0), (1, 1)):
        raise BinomialIneligible(
            "exponent %s is not scalar * form/form" % exponent.text())
    out = [weight_function(rank, 1)]
    prev = out[0]
    for k in range(1, order + 1):
        if prev.is_zero():
            out.append(prev)
            continue
        prev = (prev * _binomial_factor(exponent, k - 1)).scaled(
            Fraction(1, k))
        out.append(prev)
    return out


def binomiality_test(rank: int, coefficients: Sequence[WeightSum]
                     ) -> tuple[bool, WeightFunction | None]:
    """Decide whether a coefficient list is a generalized binomial
    series (1 + q) ** E, and if so return E.

    The order zero coefficient must be one.  The exponent candidate is
    the order one coefficient; a multi term or ineligible candidate
    fails immediately, and otherwise every higher coefficient is
    compared exactly with the corresponding binomial coefficient.
    """
    if not coefficients:
        return (False, None)
    if not eq_weight_sum(rank, coefficients[0], ws_unit(rank)):
        return (False, None)
    if len(coefficients) == 1:
        return (True, None)
    c1 = coefficients[1]
    if len(c1) > 1:
        return (False, None)
    exponent = c1[0] if c1 else weight_function(rank, 0)
    try:
        ref = binomial_series(exponent, len(coefficients) - 1)
    except BinomialIneligible:
        return (False, None)
    for k in range(2, len(coefficients)):
        if not eq_weight_sum(rank, coefficients[k],
                             weight_sum(rank, [ref[k]])):
            return (False, None)
    return (True, exponent)


def power(rank: int, coefficients: Sequence[WeightSum], exponent: int,
          order: int) -> list[WeightSum]:
    """Truncated convolution power of a coefficient list."""
    if exponent < 0:
        raise InvalidModel("negative convolution power")
    base = list(coefficients[:order + 1])
    base += [()] * (order + 1 - len(base))
    out: list[WeightSum] = [ws_unit(rank)] + [()] * order
    for _ in range(exponent):
        nxt: list[WeightSum] = [()] * (order + 1)
        for i in range(order + 1):
            if not out[i]:
                continue
            for j in range(order + 1 - i):
                if not base[j]:
                    continue
                nxt[i + j] = ws_add(rank, nxt[i + j],
                                    ws_mul(rank, out[i], base[j]))
        out = nxt
    return out


def one_leg_exponent(rank: int) -> WeightFunction:
    """The exponent (s2 + s3)/s1 of the one leg closed form, over the
    rank's parameter space."""
    num = (0, 1, 1) + (0,) * rank
    den = (1, 0, 0) + (0,) * rank
    return weight_function(rank, 1, [num], [den])


def closed_form_series(rank: int, twist: int, order: int,
                       spec: Specialization | None = None) -> VertexSeries:
    """Closed form prediction: the binomial series with exponent
    (twist + 1) * (s2 + s3)/s1, raised to the rank power."""
    if order < 0:
        raise InvalidModel("order must be nonnegative")
    exponent = one_leg_exponent(rank).scaled(twist + 1)
    if spec is not None and not spec.is_trivial():
        exponent = specialize(exponent, spec, "closed form exponent")
    line = binomial_series(exponent, order)
    coeffs = power(rank, [weight_sum(rank, [w]) for w in line], rank, order)
    return VertexSeries(rank, twist, order, "closed_form",
                        spec.source if spec is not None else "",
                        tuple(coeffs))


def reference_series(rank: int, twist: int, order: int
                     ) -> list[WeightSum]:
    """Scalar reference row: the binomial coefficients of
    (1 + q) ** (-(twist + 1) * rank), the value the closed form takes on
    the Calabi Yau slice."""
    exponent = weight_function(rank, -(twist + 1) * rank)
    return [weight_sum(rank, [w])
            for w in binomial_series(exponent, order)]


def compare_rows(rank: int, twist: int, order: int,
                 spec: Specialization | None = None) -> list[dict]:
    """Per order comparison of the two contribution modes and the
    closed form.

    Each row carries the three coefficient values, equality flags of
    the character column against the other two, and the exact
    difference of the character column from the scalar reference series
    of ``reference_series``.  Nothing is asserted here; disagreements
    are data.
    """
    char = assemble_vertex(rank, twist, order, "character", spec)
    paper = assemble_vertex(rank, twist, order, "paper", spec)
    closed = closed_form_series(rank, twist, order, spec)
    ref = reference_series(rank, twist, order)
    rows = []
    for k in range(order + 1):
        c = char.coefficients[k]
        p = paper.coefficients[k]
        f = closed.coefficients[k]
        rows.append({
            "k": k,
            "character": c,
            "paper": p,
            "closed_form": f,
            "character_equals_paper": eq_weight_sum(rank, c, p),
            "character_equals_closed_form": eq_weight_sum(rank, c, f),
            "difference_from_reference": ws_add(
                rank, c, ws_scale(rank, ref[k], -1)),
        })
    return rows


CountSeries = dict[int, Fraction]


def count_series(data: Mapping) -> CountSeries:
    """Normalize a mapping of box totals to counts: integer keys at
    least zero, exact rational values (integers, Fractions or strings
    such as ``"3/2"``), zero values dropped.  Floats and booleans are
    refused rather than converted."""
    out: CountSeries = {}
    for key, value in data.items():
        bad = isinstance(key, (bool, float)) or isinstance(
            value, (bool, float))
        try:
            m = int(key)
            c = Fraction(value)
        except (ValueError, TypeError, ZeroDivisionError):
            bad = True
        if bad:
            raise InvalidCounts("bad count entry %r: %r" % (key, value))
        if m < 0:
            raise InvalidCounts("negative degree %d in a count series" % m)
        if c:
            out[m] = out.get(m, Fraction(0)) + c
    return {m: c for m, c in out.items() if c}


def hft_partition(counts: Mapping, twist: int, rank: int,
                  order: int) -> CountSeries:
    """Generating series of the twisted rank r theory built from a one
    summand count series: reindex degrees by the twist, convolve rank
    many times, and truncate beyond the order.

    The counts go through ``count_series`` first, which raises
    ``InvalidCounts`` on a bad entry.  Twist zero collapses the
    reindexed series to a constant; an empty input gives the zero
    series.
    """
    if rank < 1:
        raise InvalidModel("rank must be at least one")
    if twist < 0:
        raise InvalidModel("twist must be nonnegative")
    if order < 0:
        raise InvalidModel("order must be nonnegative")
    base: CountSeries = {}
    for m, c in count_series(counts).items():
        key = twist * m
        base[key] = base.get(key, Fraction(0)) + c
    out: CountSeries = {0: Fraction(1)}
    for _ in range(rank):
        nxt: CountSeries = {}
        for i, a in out.items():
            for j, b in base.items():
                if i + j > order:
                    continue
                key = i + j
                nxt[key] = nxt.get(key, Fraction(0)) + a * b
        out = nxt
    return {m: c for m, c in sorted(out.items()) if c}
