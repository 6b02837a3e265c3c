"""The raw chart and edge road: an independent oracle for the closed form.

The geometry has two coordinate charts glued along a line.  Each chart
carries a full torus module whose trace is a rational character; the
pair of charts overcounts the line, and the correction is organized into
an edge term built from the restriction of the module to the overlap.

The package computes the character of a fixed point one way only: the
closed form of ``hftvertex.vertexchar.total_character``, written per
frame summand as finite geometric blocks.  This module keeps the raw
road, which takes the trace of each chart module and adds them.  For
rank one the two agree once the raw sum of the empty configuration is
subtracted; for higher rank they agree on the frame degree zero part.
The tests check both statements, and the edge identities, against it.

The quotient road to the closed form is kept as well:
``total_character_quotient`` writes each geometric block as a quotient
``(first - first*ratio^n)/(1 - ratio)`` (``geometric_quotient``), adds
the blocks in the ring of ``RationalCharacter``, and divides the
denominators back out by exact division.  The package builds the same
blocks as finite sums of monomials, with no quotient and no division.

It also keeps the first, slow roads to two exact values, so the fast
ones can be checked against them: ``eq_weight_sum_expanded`` decides
equality of two weight sums by full expansion over the product of all
denominators, and ``evaluate_fraction`` evaluates a weight function in
``Fraction`` arithmetic, factor by factor.

The whole character road to a contribution is kept as well:
``contribution_whole`` takes the Euler class of the negative of the
total character of the fixed point at once, or, in paper mode, the
printed factors of all summands in one list, each summand's factors
shifted by its own row of ``paper_shifts``.  The package builds the
share of the last frame summand only and exchanges frame parameters to
get the others.  So is the enumeration road to the vertex series:
``assemble_vertex_enumerated`` sums, order by order,
the contribution of every first leg stratum listed by ``leg_strata``,
where the package multiplies the leg series of the frame summands, and
``ws_mul`` multiplies two weight sums term by term, each product
canonicalized again by ``wf_mul``, where the package merges canonical
forms in ``_product``; and so is the whole share road
``assemble_vertex_whole``, which builds the share of a
boxes from the contribution of the a box fixed point at every order,
where the package multiplies the share of a - 1 boxes by a one box
share; it multiplies its leg series with ``series_mul``, a dense
truncated product folded from ``ws_mul``, where the package convolves
sparse series with one ``weight_sum`` per degree and reuses the terms
that meet a unit.  The first roads of
two steps of that product stay too: ``exchanged_canonicalized``
exchanges v_j and v_r in every form and canonicalizes the result again,
where the package permutes the canonical forms and fixes their signs;
``weight_sum_grouped`` groups the terms of a sum in a dict keyed by
their factor data, where the package sorts the terms and merges equal
neighbours.

The first canonicalizer of weight functions is kept too:
``weight_function_fraction`` builds the canonical form in ``Fraction``
arithmetic, one form at a time, and ``form_text_fraction`` renders a form
through ``Fraction`` coefficients.  The package builds the form in
integers and prints the coefficients it is given.  So is the first
specialization: ``specialize_stepwise`` reads the assignments again from
the source text and applies them to each factor one ``Fraction`` step at
a time, where the package composes them into integer images of the unit
forms as it parses them.

Finally it holds the tools only the tests need: ``ws_text`` and
``ws_to_json``, the text and JSON form of one weight sum, where the CLI
keeps one form cache per output; ``wf_text_reference``, the text of one
weight function with every form written again by a loop of its own;
``eq_rational``, equality of values of
rational characters; ``poly_substituted`` and
``char_substituted``, signed monomial substitutions, which the raw road
uses to change charts; ``binomiality_test``, which recognizes a binomial
coefficient list; ``binomial_series_by_products``, the first road to the
binomial coefficients, one canonical product of weight functions per
order, where the package writes each coefficient's integers directly;
``box_model``, the Hilbert polynomial model of a
fixed point; and ``brute_partition``, the multinomial expansion of a
twisted rank r count series.  The package raises that series to the
rank power by a recurrence in integers; its first road, rank - 1
truncated convolutions of the series cleared by the lcm of its
denominators, is kept as ``partition_convolved``, which reaches sizes
past the brute force.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from hftvertex.chars import (CharError, LaurentPoly, Monomial,
                             RationalCharacter, VariableSet,
                             VariableSetMismatch, ZeroDenominator,
                             one_minus)
from hftvertex.cli import _ws_json, _ws_text
from hftvertex.fixedpoints import (BoxTuple, FrozenTripleModel,
                                   InvalidModel, compositions, hilbert_poly)
from hftvertex.localize import (AffineWeight, DivisionByZero, Specialization,
                                WeightForm, WeightFunction, ZeroWeight,
                                _exchanged, _parse_affine, _var_index,
                                contribution, form_text, param_names,
                                specialize, weight_function, weights_of)
from hftvertex.series import (BinomialIneligible, WeightSum, binomial_series,
                              eq_weight_sum, weight_sum, ws_unit)
from hftvertex.vertexchar import frame_sum, total_character


@dataclass(frozen=True)
class ChartFrame:
    """Torus data of one chart: images of the three chart variables
    inside the global variables, and the twist character of the framing
    module on the chart."""

    vars: VariableSet
    t_images: tuple[Monomial, Monomial, Monomial]
    twist_char: LaurentPoly

    def images(self) -> dict[int, tuple[int, Monomial]]:
        """Substitution table sending the global torus variables to this
        chart's coordinates."""
        return {i: (1, m) for i, m in enumerate(self.t_images)}


def alpha_frame(vars: VariableSet, twist: int) -> ChartFrame:
    """Chart containing the twisted framing: coordinates are the global
    ones and the framing is twisted by t1^twist."""
    return ChartFrame(
        vars,
        (vars.mono(t1=1), vars.mono(t2=1), vars.mono(t3=1)),
        LaurentPoly.monomial(vars, vars.mono(t1=int(twist))))


def beta_frame(vars: VariableSet) -> ChartFrame:
    """Opposite chart: the line coordinate inverts and the two normal
    coordinates pick up one power of it."""
    return ChartFrame(
        vars,
        (vars.mono(t1=-1), vars.mono(t1=1, t2=1), vars.mono(t1=1, t3=1)),
        LaurentPoly.one(vars))


def frame_pair_sum(vars: VariableSet) -> LaurentPoly:
    """Product of frame and dual frame characters; its constant term is
    the rank."""
    sw = frame_sum(vars)
    return sw * sw.bar()


def geometric_quotient(vars: VariableSet, first: Monomial, ratio: Monomial,
                       count: int) -> RationalCharacter:
    """The finite sum first*(1 + ratio + ... + ratio^(count-1)) written
    as (first - first*ratio^count)/(1 - ratio); a unit ratio raises
    ``ZeroDenominator``."""
    last = tuple(a + count * b for a, b in zip(first, ratio))
    return RationalCharacter(vars, LaurentPoly.monomial(vars, first)
                             - LaurentPoly.monomial(vars, last),
                             (tuple(ratio),))


def alpha_block_quotient(vars: VariableSet, j: int, boxes: int,
                         twist: int) -> RationalCharacter:
    """The first leg block of frame summand j as quotients of geometric
    sums times the dual frame and frame characters."""
    sw = frame_sum(vars)
    return (geometric_quotient(
        vars, vars.mono(t1=-twist - 1, w=[0] * j + [1]), vars.mono(t1=-1),
        boxes) * sw.bar() - geometric_quotient(
        vars, vars.mono(t1=twist, t2=-1, t3=-1, w=[0] * j + [-1]),
        vars.mono(t1=1), boxes) * sw)


def beta_block_quotient(vars: VariableSet, j: int,
                        boxes: int) -> RationalCharacter:
    """The second leg block of frame summand j as quotients of geometric
    sums times the dual frame and frame characters."""
    sw = frame_sum(vars)
    return (geometric_quotient(
        vars, vars.mono(t1=1, w=[0] * j + [1]), vars.mono(t1=1),
        boxes) * sw.bar() - geometric_quotient(
        vars, vars.mono(t1=-2, t2=-1, t3=-1, w=[0] * j + [-1]),
        vars.mono(t1=-1), boxes) * sw)


def total_character_quotient(vars: VariableSet, box: BoxTuple,
                             twist: int) -> LaurentPoly:
    """The closed form character of a fixed point on the quotient road:
    per frame summand with boxes, the two chart blocks as quotients of
    geometric sums times the frame characters, all added as rational
    characters, and the sum reduced by exact division."""
    acc = RationalCharacter.constant(vars, 0)
    for j, (alpha, beta) in enumerate(zip(box.alpha, box.beta)):
        if alpha:
            acc = acc + alpha_block_quotient(vars, j, alpha, twist)
        if beta:
            acc = acc + beta_block_quotient(vars, j, beta)
    return acc.reduced()


def _leg(vars: VariableSet, counts: tuple[int, ...],
         sign: int) -> RationalCharacter:
    """For each frame summand j, the monomial t1^(sign*counts[j]) * wj
    over the line factor 1 - t1^-sign."""
    if len(counts) != vars.rank:
        raise VariableSetMismatch(
            "got %d box counts for rank %d" % (len(counts), vars.rank))
    num = LaurentPoly.zero(vars)
    for j, d in enumerate(counts):
        num = num + LaurentPoly.monomial(
            vars, vars.mono(t1=sign * int(d), w=[0] * j + [1]))
    return RationalCharacter(vars, num, (vars.mono(t1=-sign),))


def leg_alpha(vars: VariableSet, alpha: tuple[int, ...]) -> RationalCharacter:
    """Chart module of the first chart: for each frame summand, the line
    module extended along +t1 with alpha_j extra boxes stacked in the
    -t1 direction."""
    return _leg(vars, alpha, -1)


def leg_beta(vars: VariableSet, beta: tuple[int, ...]) -> RationalCharacter:
    """Chart module of the second chart, written in the global
    variables: support runs along -t1 and boxes stack in +t1."""
    return _leg(vars, beta, 1)


def trace_vertex(vars: VariableSet, module_char: RationalCharacter,
                 frame: ChartFrame) -> RationalCharacter:
    """Virtual trace of one chart module against a framed chart.

    With F the module character, C the twist character of the frame,
    T1, T2, T3 the chart coordinates, and W, W* the frame and dual frame
    characters, the trace is

        F*W**C^ - F^*W*C/(T1*T2*T3)
        + F*F^*(1-T1)(1-T2)(1-T3)/(T1*T2*T3)
        + (1 - W*W**C*C^)/((1-T1)(1-T2)(1-T3))

    where a hat marks variable inversion.  The result keeps explicit
    denominator factors; nothing is expanded into a series.
    """
    sw = frame_sum(vars)
    swi = sw.bar()
    c = frame.twist_char
    t1m, t2m, t3m = frame.t_images
    inv_prod = tuple(-(a + b + d) for a, b, d in zip(t1m, t2m, t3m))
    f = module_char
    fbar = f.bar()
    term1 = f * (swi * c.bar())
    term2 = (fbar * (sw * c)) * LaurentPoly.monomial(vars, inv_prod)
    term3 = (f * fbar) * (one_minus(vars, t1m) * one_minus(vars, t2m)
                          * one_minus(vars, t3m)).times_monomial(inv_prod)
    term4 = RationalCharacter(
        vars, 1 - sw * swi * c * c.bar(), (t1m, t2m, t3m))
    return term1 - term2 + term3 + term4


def two_chart_trace(vars: VariableSet, box: BoxTuple,
                    twist: int) -> RationalCharacter:
    """Sum of the two chart traces of a fixed point, before any edge
    correction or empty configuration subtraction."""
    if box.rank != vars.rank:
        raise VariableSetMismatch(
            "box tuple of rank %d over variables of rank %d"
            % (box.rank, vars.rank))
    va = trace_vertex(vars, leg_alpha(vars, box.alpha),
                      alpha_frame(vars, twist))
    vb = trace_vertex(vars, leg_beta(vars, box.beta), beta_frame(vars))
    return va + vb


def frame_part(poly: LaurentPoly, frame_exps: tuple[int, ...]) -> LaurentPoly:
    """Terms whose frame exponent vector equals ``frame_exps``."""
    vars = poly.vars
    want = tuple(int(x) for x in frame_exps)
    if len(want) != vars.rank:
        raise VariableSetMismatch(
            "frame vector of length %d for rank %d" % (len(want), vars.rank))
    kept = {e: c for e, c in poly.terms.items() if e[3:] == want}
    return LaurentPoly(vars, kept)


def frame_part_rc(char: RationalCharacter,
                  frame_exps: tuple[int, ...]) -> RationalCharacter:
    """Frame graded piece of a rational character whose denominator does
    not involve the frame variables."""
    for m in char.den:
        if any(m[3:]):
            raise CharError(
                "denominator factor depends on the frame variables")
    return RationalCharacter(char.vars, frame_part(char.num, frame_exps),
                             char.den)


def axis_fold(vars: VariableSet, axis: int) -> RationalCharacter:
    """The combination 1/(1-t) + t^-1/(1-t^-1) along one torus axis.

    It is identically zero, and the arithmetic layer proves that: the
    operator sum cancels exactly.  The edge assembly identity rests on
    this cancellation.
    """
    if axis not in (1, 2, 3):
        raise ValueError("axis must be 1, 2, or 3")
    m = [0] * vars.nvars
    m[axis - 1] = 1
    plus = tuple(m)
    minus = tuple(-x for x in m)
    return (RationalCharacter(vars, LaurentPoly.one(vars), (plus,))
            + RationalCharacter(vars, LaurentPoly.monomial(vars, minus),
                                (minus,)))


@dataclass(frozen=True)
class EdgeData:
    """Degrees of the two normal directions along the glued line; the
    resolved one line geometry has (-1, -1)."""

    normal_degrees: tuple[int, int] = (-1, -1)


def edge_shift(vars: VariableSet,
               edge: EdgeData = EdgeData()) -> dict[int, tuple[int, Monomial]]:
    """Substitution carrying the normal coordinates from one chart to
    the other: t2 -> t2*t1^-m, t3 -> t3*t1^-m' for normal degrees
    (m, m')."""
    m2, m3 = edge.normal_degrees
    return {
        1: (1, vars.mono(t1=-int(m2), t2=1)),
        2: (1, vars.mono(t1=-int(m3), t3=1)),
    }


def edge_g(vars: VariableSet, module_char: LaurentPoly,
           twist_char: LaurentPoly) -> RationalCharacter:
    """Edge analogue of the chart trace, with the two normal directions
    t2, t3 playing the role of the three chart coordinates:

        F*W**C^ - F^*W*C/(t2*t3) + F*F^*(1-t2)(1-t3)/(t2*t3)
        + (1 - W*W**C*C^)/((1-t2)(1-t3)).
    """
    sw = frame_sum(vars)
    swi = sw.bar()
    f = module_char
    c = twist_char
    fbar = f.bar()
    t2m, t3m = vars.mono(t2=1), vars.mono(t3=1)
    inv23 = vars.mono(t2=-1, t3=-1)
    term1 = f * swi * c.bar()
    term2 = (fbar * sw * c).times_monomial(inv23)
    term3 = (f * fbar * one_minus(vars, t2m)
             * one_minus(vars, t3m)).times_monomial(inv23)
    term4 = RationalCharacter(
        vars, 1 - sw * swi * c * c.bar(), (t2m, t3m))
    return RationalCharacter.from_poly(term1 - term2 + term3) + term4


def edge_g_local(vars: VariableSet, twist: int) -> RationalCharacter:
    """Edge trace of the twisted line bundle on this geometry: the
    module restricts to the bare monomial t1^-twist with trivial edge
    twist character."""
    return edge_g(vars, LaurentPoly.monomial(vars, vars.mono(t1=-int(twist))),
                  LaurentPoly.one(vars))


def triple_g(vars: VariableSet) -> RationalCharacter:
    """Correction term of a triple overlap: (1 - W*W*)/(1-t3).  Zero in
    rank one."""
    return RationalCharacter(
        vars, 1 - frame_pair_sum(vars), (vars.mono(t3=1),)).normalized()


def quad_g(vars: VariableSet) -> LaurentPoly:
    """Correction term of a quadruple overlap: 1 - W*W*.  Zero in rank
    one."""
    return 1 - frame_pair_sum(vars)


def share_alpha(vars: VariableSet, g: RationalCharacter) -> RationalCharacter:
    """The first chart's share of an edge term: g/(1-t1)."""
    return g * RationalCharacter(vars, LaurentPoly.one(vars),
                                 (vars.mono(t1=1),))


def share_beta(vars: VariableSet, g: RationalCharacter) -> RationalCharacter:
    """The second chart's share of an edge term: g/(1-t1^-1), with g
    already rewritten in that chart's coordinates."""
    return g * RationalCharacter(vars, LaurentPoly.one(vars),
                                 (vars.mono(t1=-1),))


def vertex_character(trace: RationalCharacter,
                     shares: tuple[RationalCharacter, ...] = ()
                     ) -> RationalCharacter:
    """Full character of one chart: its trace plus its shares of the
    edge terms."""
    acc = trace
    for s in shares:
        acc = acc + s
    return acc


def edge_character_raw(vars: VariableSet, g: RationalCharacter,
                       edge: EdgeData = EdgeData()) -> RationalCharacter:
    """Edge correction built from an edge trace g:

        (t1^-1 * g - g_shifted)/(1 - t1^-1)

    where g_shifted rewrites g in the coordinates of the second chart.
    A g without t1 dependence gives -g.  Adding this to the two chart
    characters cancels their shares of g exactly; the tests check that
    identity at the level of rational characters.
    """
    shifted = char_substituted(g, edge_shift(vars, edge))
    t1inv = vars.mono(t1=-1)
    moved = g * LaurentPoly.monomial(vars, t1inv)
    return (moved - shifted) * RationalCharacter(
        vars, LaurentPoly.one(vars), (t1inv,))


def edge_character(vars: VariableSet, twist: int,
                   edge: EdgeData = EdgeData()) -> LaurentPoly:
    """Reduced edge correction of the twisted line bundle.  In rank one
    this is an honest Laurent polynomial; in higher rank the reduction
    has a remainder and raises ``NotPolynomial``."""
    return edge_character_raw(vars, edge_g_local(vars, twist), edge).reduced()


def char_from_poincare(vars: VariableSet, numerator: LaurentPoly,
                       twist_char: LaurentPoly) -> RationalCharacter:
    """Full chart character from its polynomial numerator: the quotient
    ``(twist_char + numerator) / ((1-t1)(1-t2)(1-t3))``."""
    den = [vars.mono(t1=1), vars.mono(t2=1), vars.mono(t3=1)]
    return RationalCharacter(vars, twist_char + numerator, den)


def poincare_from_char(full: RationalCharacter,
                       twist_char: LaurentPoly) -> LaurentPoly:
    """Inverse of ``char_from_poincare``: clear the three chart
    denominators and subtract the twist character."""
    vars = full.vars
    cleared = full * (one_minus(vars, vars.mono(t1=1))
                      * one_minus(vars, vars.mono(t2=1))
                      * one_minus(vars, vars.mono(t3=1)))
    return cleared.reduced() - twist_char


def _form_poly(vars: VariableSet, form) -> LaurentPoly:
    terms = {}
    for i, c in enumerate(form):
        if c:
            e = [0] * vars.nvars
            e[i] = 1
            terms[tuple(e)] = Fraction(c)
    return LaurentPoly(vars, terms)


def eq_weight_sum_expanded(rank: int, a, b) -> bool:
    """Exact value equality of two weight sums by full expansion.

    The difference is put over the product of every denominator factor
    appearing in either sum, and the resulting numerator is expanded and
    compared with zero.  Cost grows with the product of all factor
    counts.
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


def euler_of_minus(rank: int, weights: list[tuple[int, WeightForm]],
                   context: str | None = None) -> WeightFunction:
    """Equivariant Euler class of the negative of a signed weight
    multiset: positive weights divide, negative weights multiply."""
    return weight_function(rank, 1,
                           [f for sign, f in weights if sign < 0],
                           [f for sign, f in weights if sign > 0], context)


def paper_shifts(rank: int, j: int) -> tuple[list[int], list[int]]:
    """Frame parts of the printed factor formulas for frame summand j,
    as coefficient vectors over (s1, s2, s3, v1, ..., vr).

    Rank one has no frame shifts.  Rank two shifts the numerator factors
    by the difference of the other frame parameter with the own one, and
    the denominator factors by the opposite difference.  Above rank two
    the printed general form is used verbatim: the numerator shift is
    the sum of all frame parameters minus the own one, the denominator
    shift the own one plus the alternating sign of the full sum.
    """
    num = [0] * (3 + rank)
    den = [0] * (3 + rank)
    if rank == 1:
        return num, den
    if rank == 2:
        other = 1 - j
        num[3 + other] += 1
        num[3 + j] -= 1
        den[3 + j] += 1
        den[3 + other] -= 1
        return num, den
    alt = 1 if (rank - 1) % 2 == 0 else -1
    for l in range(rank):
        num[3 + l] += 1
        den[3 + l] += alt
    num[3 + j] -= 1
    den[3 + j] += 1
    return num, den


def contribution_whole(vars: VariableSet, box: BoxTuple, twist: int,
                       mode: str = "character") -> WeightFunction:
    """Contribution of one fixed point from its whole character: the
    Euler class of the negative of ``total_character``, or in paper mode
    the printed factors of every summand gathered into one list."""
    context = "contribution of %r at twist %d" % (box, twist)
    if mode == "character":
        return euler_of_minus(
            vars.rank, weights_of(total_character(vars, box, twist)),
            context)
    nums = []
    dens = []
    for j in range(vars.rank):
        load = box.alpha[j] + box.beta[j]
        cross_num, cross_den = paper_shifts(vars.rank, j)
        for i in range(load):
            f = list(cross_num)
            f[0] += i + twist
            f[1] -= 1
            f[2] -= 1
            nums.append(f)
        for i in range(1, load + 1):
            f = list(cross_den)
            f[0] -= i + twist
            dens.append(f)
    return weight_function(vars.rank, 1, nums, dens, context)


def ws_text(a: WeightSum) -> str:
    """The text of ``a``, with a form cache of its own."""
    return _ws_text(a, {})


def wf_text_reference(wf: WeightFunction) -> str:
    """The text of ``wf`` from its definition, with no form cache: the
    scalar alone when there is no numerator form, else the numerator
    forms, behind the scalar and `` * `` unless the scalar is 1, then
    ``/`` and the denominator forms when there are any.  Each form is
    written here as its signed terms joined by `` + `` and each `` + -``
    then read as `` - ``, where the package writes the sign of each term
    as it goes (``localize._form_text``)."""
    names = param_names(wf.rank)

    def form(f) -> str:
        terms = ["%s%s%s" % ("-" if c < 0 else "",
                             "" if abs(c) == 1 else "%d*" % abs(c), name)
                 for name, c in zip(names, f) if c]
        return "(%s)" % " + ".join(terms).replace(" + -", " - ")

    num = "*".join(map(form, wf.num))
    if not num:
        text = str(wf.scalar)
    elif wf.scalar == 1:
        text = num
    else:
        text = "%s * %s" % (wf.scalar, num)
    if wf.den:
        text += "/" + "*".join(map(form, wf.den))
    return text


def ws_to_json(a: WeightSum):
    """The JSON form of ``a`` as a JSON reader gives it back: the forms,
    tuples in the package's document, read as lists."""
    return json.loads(json.dumps(_ws_json(a)))


def wf_mul(x: WeightFunction, y: WeightFunction) -> WeightFunction:
    """Product of two weight functions, canonicalized again by
    ``weight_function`` from the scalars' product and the concatenated
    factor lists, where the package merges the two canonical forms."""
    return weight_function(x.rank, x.scalar * y.scalar, x.num + y.num,
                           x.den + y.den)


def ws_mul(rank: int, a: WeightSum, b: WeightSum) -> WeightSum:
    """Product of two weight sums, term by term through ``wf_mul``."""
    return weight_sum(rank, [wf_mul(x, y) for x in a for y in b])


def exchanged_canonicalized(wf: WeightFunction, j: int) -> WeightFunction:
    """``wf`` with the frame parameters of summands j and r exchanged in
    every form, put through ``weight_function`` again."""
    k, r = 3 + j, 2 + wf.rank
    if k == r:
        return wf
    swap = [f[:k] + f[r:] + f[k + 1:r] + f[k:k + 1]
            for f in (*wf.num, *wf.den)]
    return weight_function(wf.rank, wf.scalar, swap[:len(wf.num)],
                           swap[len(wf.num):])


def weight_sum_grouped(rank: int, items) -> WeightSum:
    """Canonical sum by grouping: a dict from factor data to the sum of
    the scalars, zeros dropped, sorted by factor data."""
    acc: dict[tuple, Fraction] = {}
    for wf in items:
        if wf.rank != rank:
            raise InvalidModel(
                "weight function of rank %d in a sum of rank %d"
                % (wf.rank, rank))
        if wf.is_zero():
            continue
        key = (wf.num, wf.den)
        acc[key] = acc.get(key, 0) + wf.scalar
    return tuple(WeightFunction(rank, scalar, num, den)
                 for (num, den), scalar in sorted(acc.items()) if scalar)


def leg_strata(rank: int, total: int) -> list[BoxTuple]:
    """Fixed points with all boxes on the first leg: one stratum per
    composition of the total into rank parts, in lexicographic order."""
    return [BoxTuple(parts, (0,) * rank)
            for parts in compositions(total, rank)]


def assemble_vertex_enumerated(rank: int, twist: int, order: int,
                               mode: str = "character",
                               spec: Specialization | None = None
                               ) -> tuple[WeightSum, ...]:
    """The vertex series stratum by stratum: coefficient k sums the
    contribution of every first leg stratum with k boxes, each
    specialized on its own, so an error names the stratum that fails
    first in lexicographic order."""
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
    return tuple(coeffs)


def assemble_vertex_whole(rank: int, twist: int, order: int,
                          mode: str = "character",
                          spec: Specialization | None = None
                          ) -> tuple[WeightSum, ...]:
    """The vertex series from whole shares: at each order a, the share
    of the last summand is the contribution of the fixed point with a
    boxes there, built from its whole character (or all its printed
    factors), exchanged and specialized as the package does.  The leg
    series are multiplied by ``series_mul``, not by the package's
    product."""
    vars = VariableSet(rank)
    legs = [[ws_unit(rank)] for _ in range(rank)]
    zeros = (0,) * rank
    for a in range(1, order + 1):
        last = contribution(vars, BoxTuple(zeros[1:] + (a,), zeros),
                            twist, mode)
        for j in reversed(range(rank)):
            wf = _exchanged(last, j)
            if spec is not None and not spec.is_trivial():
                box = BoxTuple(zeros[:j] + (a,) + zeros[j + 1:], zeros)
                wf = specialize(wf, spec, "contribution of %r at twist %d"
                                % (box, twist))
            legs[j].append(weight_sum(rank, [wf]))
    out = legs[0]
    for leg in legs[1:]:
        out = series_mul(rank, out, leg)
    return tuple(out)


def series_mul(rank: int, a: list[WeightSum], b: list[WeightSum]
               ) -> list[WeightSum]:
    """Product of two coefficient lists of one length, cut at that
    length: coefficient k sums ``ws_mul`` of the coefficients i and
    k - i."""
    return [weight_sum(rank, [wf for i in range(k + 1)
                              for wf in ws_mul(rank, a[i], b[k - i])])
            for k in range(len(a))]


def evaluate_fraction(wf, point) -> Fraction:
    """Exact value of a weight function at a rational point, one
    ``Fraction`` operation per factor."""
    pt = [Fraction(x) for x in point]
    if len(pt) != 3 + wf.rank:
        raise VariableSetMismatch(
            "point of length %d for rank %d" % (len(pt), wf.rank))
    value = wf.scalar
    for f in wf.num:
        value *= sum(a * b for a, b in zip(f, pt))
    for f in wf.den:
        d = sum(a * b for a, b in zip(f, pt))
        if not d:
            raise DivisionByZero(
                "factor %s vanishes at the evaluation point"
                % form_text(wf.rank, f))
        value /= d
    return value


def _primitive(vec) -> tuple[Fraction, tuple[int, ...]]:
    """Write a nonzero rational vector as scale * primitive integer
    vector with positive first nonzero entry and content one."""
    fr = [Fraction(x) for x in vec]
    scale_den = lcm(*(f.denominator for f in fr)) if fr else 1
    ints = [int(f * scale_den) for f in fr]
    content = 0
    for x in ints:
        content = gcd(content, x)
    first = next(x for x in ints if x)
    if first < 0:
        content = -content
    prim = tuple(x // content for x in ints)
    return (Fraction(content, scale_den), prim)


def _primitive_forms(rank: int, forms, s: Fraction, den: bool, where: str):
    """Primitive representatives of the numerator (or, with ``den``,
    the denominator) forms, sorted, with their scales folded into the
    scalar ``s``."""
    prims = []
    for f in forms:
        vec = tuple(Fraction(x) for x in f)
        if len(vec) != 3 + rank:
            raise VariableSetMismatch(
                "form of length %d for rank %d" % (len(vec), rank))
        if not any(vec):
            if den:
                raise DivisionByZero("zero weight in a denominator%s" % where)
            raise ZeroWeight("zero weight in a numerator%s" % where)
        lam, prim = _primitive(vec)
        s = s / lam if den else s * lam
        prims.append(prim)
    prims.sort()
    return s, prims


def weight_function_fraction(rank: int, scalar, num=(), den=(),
                             context: str | None = None) -> WeightFunction:
    """The canonical weight function built in ``Fraction`` arithmetic:
    each form is rescaled to its primitive integer representative with
    its scale folded into the scalar one division at a time, and the
    factors shared by numerator and denominator cancel as multisets."""
    s = Fraction(scalar)
    where = " in %s" % context if context else ""
    if not s:
        return WeightFunction(rank, s, (), ())
    s, nn = _primitive_forms(rank, num, s, False, where)
    s, dd = _primitive_forms(rank, den, s, True, where)
    shared = Counter(nn) & Counter(dd)
    keep_n = sorted((Counter(nn) - shared).elements())
    keep_d = sorted((Counter(dd) - shared).elements())
    return WeightFunction(rank, s, tuple(keep_n), tuple(keep_d))


def form_text_fraction(rank: int, form) -> str:
    """Render a linear form with every coefficient made a ``Fraction``
    first."""
    parts = []
    for name, coeff in zip(param_names(rank), form):
        c = Fraction(coeff)
        if not c:
            continue
        mag = abs(c)
        body = name if mag == 1 else "%s*%s" % (mag, name)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((" + " if c > 0 else " - ") + body)
    return "".join(parts) if parts else "0"


def _specialize_form_stepwise(spec, form) -> tuple[Fraction, list[Fraction]]:
    """Apply the assignments of a specialization, read again from its
    source text, to a linear form one at a time: the constant part and
    the remaining linear part."""
    vec = [Fraction(x) for x in form]
    const = Fraction(0)
    for piece in spec.source.split(",") if spec.source else ():
        name, _, expr = piece.partition("=")
        target = _var_index(spec.rank, name.strip())
        step_const, *coeffs = _parse_affine(spec.rank, expr)
        c = vec[target]
        if not c:
            continue
        vec[target] = Fraction(0)
        const += c * step_const
        for i, b in enumerate(coeffs):
            if b:
                vec[i] += c * b
    return const, vec


def specialize_stepwise(wf: WeightFunction, spec,
                        context: str | None = None) -> WeightFunction:
    """Specialized weight function, one ``Fraction`` step per factor and
    assignment: kept linear factors go to ``weight_function``, constant
    ones fold into the scalar one division at a time, and the errors of
    ``localize.specialize`` are raised in its order, numerators first."""
    if spec is None or spec.is_trivial() or wf.is_zero():
        return wf
    where = " in %s" % context if context else ""
    scalar = wf.scalar
    kept: dict[bool, list] = {False: [], True: []}
    for den, forms in ((False, wf.num), (True, wf.den)):
        for f in forms:
            const, vec = _specialize_form_stepwise(spec, f)
            if any(vec):
                if const:
                    raise AffineWeight(
                        "factor %s specializes to an affine expression%s"
                        % (form_text(spec.rank, f), where))
                kept[den].append(vec)
            elif const:
                scalar = scalar / const if den else scalar * const
            elif den:
                raise DivisionByZero(
                    "denominator factor %s specializes to zero%s"
                    % (form_text(spec.rank, f), where))
            else:
                raise ZeroWeight(
                    "numerator factor %s specializes to zero%s"
                    % (form_text(spec.rank, f), where))
    return weight_function(wf.rank, scalar, kept[False], kept[True], context)


def eq_rational(a: RationalCharacter, b: RationalCharacter) -> bool:
    """Decide equality of values by cross multiplying the denominators."""
    if a.vars != b.vars:
        raise VariableSetMismatch(
            "cannot compare %r with %r" % (a.vars, b.vars))
    left, right = a.num, b.num
    for m in b.den:
        left = left * one_minus(a.vars, m)
    for m in a.den:
        right = right * one_minus(a.vars, m)
    return left == right


class InvalidReplacement(CharError):
    """A substitution image is not a signed monomial."""


def _checked_images(
    vars: VariableSet,
    images: Mapping[int, tuple[int, Monomial]],
) -> list[tuple[int, Monomial]]:
    """Fill a full substitution table, mapping unlisted variables to
    themselves, and validate every listed image."""
    full: list[tuple[int, Monomial]] = []
    for i in range(vars.nvars):
        axis = [0] * vars.nvars
        axis[i] = 1
        full.append((1, tuple(axis)))
    for i, image in images.items():
        idx = int(i)
        if not 0 <= idx < vars.nvars:
            raise InvalidReplacement("no variable with index %d" % idx)
        try:
            sign, u = image
        except (TypeError, ValueError):
            raise InvalidReplacement(
                "image must be a (sign, exponent tuple) pair") from None
        if sign not in (1, -1):
            raise InvalidReplacement(
                "sign must be +1 or -1, got %r" % (sign,))
        uu = tuple(int(x) for x in u)
        if len(uu) != vars.nvars:
            raise InvalidReplacement(
                "image exponent tuple has length %d, expected %d"
                % (len(uu), vars.nvars))
        full[idx] = (int(sign), uu)
    return full


def _signed_image(imgs: list[tuple[int, Monomial]],
                  exps: Monomial) -> tuple[int, Monomial]:
    """Image of the monomial ``exps`` under a full substitution table, as
    a sign and an exponent tuple."""
    sign = 1
    acc = [0] * len(imgs)
    for i, p in enumerate(exps):
        if not p:
            continue
        s, u = imgs[i]
        if s < 0 and p % 2:
            sign = -sign
        for k, x in enumerate(u):
            acc[k] += p * x
    return sign, tuple(acc)


def _poly_image(poly: LaurentPoly,
                imgs: list[tuple[int, Monomial]]) -> LaurentPoly:
    """Image of a Laurent polynomial under a full substitution table."""
    out: dict[Monomial, Fraction] = {}
    for e, c in poly.terms.items():
        sign, key = _signed_image(imgs, e)
        out[key] = out.get(key, Fraction(0)) + (c if sign > 0 else -c)
    return LaurentPoly(poly.vars, out)


def poly_substituted(poly: LaurentPoly,
                     images: Mapping[int, tuple[int, Monomial]]
                     ) -> LaurentPoly:
    """Apply the ring map sending each listed variable to a signed
    monomial; unlisted variables are fixed."""
    return _poly_image(poly, _checked_images(poly.vars, images))


def char_substituted(char: RationalCharacter,
                     images: Mapping[int, tuple[int, Monomial]]
                     ) -> RationalCharacter:
    """Apply a signed monomial substitution to the whole quotient.

    Denominator factors are rewritten so the result is again of the
    ``num / prod (1 - m)`` shape: an image with negative sign uses
    ``1/(1 + u) = (1 - u)/(1 - u^2)``, the constant image ``-1``
    contributes a scalar ``1/2``, and the constant image ``+1`` makes
    the factor vanish, which raises ``ZeroDenominator``.
    """
    imgs = _checked_images(char.vars, images)
    num = _poly_image(char.num, imgs)
    den: list[Monomial] = []
    scalar = Fraction(1)
    for m in char.den:
        sign, image = _signed_image(imgs, m)
        if not any(image):
            if sign > 0:
                raise ZeroDenominator(
                    "substitution sends a denominator factor to zero")
            scalar /= 2
        elif sign > 0:
            den.append(image)
        else:
            num = num * one_minus(char.vars, image)
            den.append(tuple(2 * x for x in image))
    if scalar != 1:
        num = num.scaled(scalar)
    return RationalCharacter(char.vars, num, den)


def binomial_series_by_products(exponent: WeightFunction, order: int
                                ) -> list[WeightFunction]:
    """The binomial coefficients of (1 + q) ** exponent, each the one
    before times the canonical weight function ``exponent - (k - 1)``
    over k, for a bare scalar or a scalar times a form over a form."""
    if order < 0:
        raise InvalidModel("order must be nonnegative")
    rank = exponent.rank
    shape = (len(exponent.num), len(exponent.den))
    if shape not in ((0, 0), (1, 1)):
        raise BinomialIneligible(
            "exponent %s is not scalar * form/form" % exponent.text())
    out = [weight_function(rank, 1)]
    for k in range(1, order + 1):
        shift = k - 1
        if shape == (0, 0):
            factor = weight_function(rank, exponent.scalar - shift)
        else:
            n, d = exponent.num[0], exponent.den[0]
            factor = weight_function(
                rank, 1, [[exponent.scalar * a - shift * b
                           for a, b in zip(n, d)]], [d])
        out.append((out[-1] * factor).scaled(Fraction(1, k)))
    return out


def binomiality_test(rank: int, coefficients):
    """Decide whether a coefficient list is a generalized binomial
    series (1 + q) ** E, and if so return ``(True, E)``.

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


def box_model(box: BoxTuple) -> FrozenTripleModel:
    """Polynomial model of the sheaf cut out by a box tuple: rank many
    line modules plus a zero dimensional tail of the total box count, the
    framing image being the line part."""
    r, k = box.rank, box.total
    line = hilbert_poly((r, r))
    return FrozenTripleModel(r, hilbert_poly((r + k, r)), line,
                             ((line, True),))


def brute_partition(counts: Mapping, twist: int, rank: int,
                    order: int) -> dict[int, Fraction]:
    """Multinomial expansion of a twisted rank r count series: each
    ordered choice of rank nonzero entries, repeats allowed, adds the
    product of its counts, in ``Fraction``s, at the twist times the sum
    of its degrees; degrees beyond the order and zero sums are dropped."""
    support = [(int(m), Fraction(c)) for m, c in counts.items() if c]
    out: dict[int, Fraction] = {}
    for combo in itertools.product(support, repeat=rank):
        degree = sum(twist * m for m, _ in combo)
        if degree > order:
            continue
        value = Fraction(1)
        for _, c in combo:
            value *= c
        out[degree] = out.get(degree, Fraction(0)) + value
    return {m: c for m, c in sorted(out.items()) if c}


def partition_convolved(counts: Mapping, twist: int, rank: int,
                        order: int) -> dict[int, Fraction]:
    """Twisted rank r count series by rank - 1 truncated convolutions:
    merge the counts of each degree, reindex by the twist up to the
    order, clear the denominators by their lcm L, multiply the cleared
    series by itself in integers, summing the products that land on a
    degree once, and divide by L^rank."""
    merged: Counter = Counter()
    for m, c in counts.items():
        if twist * int(m) <= order:
            merged[twist * int(m)] += Fraction(c)
    scale = lcm(1, *[c.denominator for c in merged.values()])
    base = {m: c.numerator * (scale // c.denominator)
            for m, c in merged.items() if c}
    out = dict(base)
    for _ in range(rank - 1):
        products: dict[int, list[int]] = {}
        for i, a in out.items():
            for j, b in base.items():
                if i + j <= order:
                    products.setdefault(i + j, []).append(a * b)
        out = {k: sum(p) for k, p in products.items()}
    return {m: Fraction(c, scale**rank) for m, c in sorted(out.items())
            if c}
