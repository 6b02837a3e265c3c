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
"""

from __future__ import annotations

from dataclasses import dataclass

from hftvertex.chars import (CharError, LaurentPoly, Monomial,
                             RationalCharacter, VariableSet,
                             VariableSetMismatch, one_minus)
from hftvertex.fixedpoints import BoxTuple
from hftvertex.vertexchar import frame_sum, frame_sum_inv


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
    return frame_sum(vars) * frame_sum_inv(vars)


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
    swi = frame_sum_inv(vars)
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
    swi = frame_sum_inv(vars)
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
    shifted = g.substituted(edge_shift(vars, edge))
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
