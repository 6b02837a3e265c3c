"""Exact Laurent polynomial and rational character arithmetic.

All computations in this package happen in the character ring of a rank
three torus together with a rank ``r`` frame torus.  A monomial

    t1^a * t2^b * t3^c * w1^e1 * ... * wr^er

is stored as the integer exponent tuple ``(a, b, c, e1, ..., er)``.
Exponents may be negative.  A ``LaurentPoly`` is a finite sum of such
monomials with nonzero ``Fraction`` coefficients, stored sparsely as a
dict from exponent tuple to coefficient.

The package builds fixed point characters as finite sums, with
``LaurentPoly`` addition and multiplication alone.  The quotient ring
below stays for the test oracles and for the benchmark's tracer, which
binds its names.  A ``RationalCharacter`` is a quotient
``num / prod_i (1 - m_i)`` by nonconstant monomials ``m_i``, kept
unexpanded, and cancels factors by exact division.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping
from fractions import Fraction

Monomial = tuple[int, ...]

_ZERO = Fraction(0)


class HftError(Exception):
    """Root of every error this package raises on bad mathematical
    input, so callers can catch them uniformly."""


class CharError(HftError):
    """Base class for errors raised by the character layer."""


class VariableSetMismatch(CharError):
    """Operands built over different variable sets were combined."""


class NotPolynomial(CharError):
    """An exact division left a remainder."""


class ZeroDenominator(CharError):
    """A denominator factor became the zero element."""


def grlex_key(exps: Monomial) -> tuple[int, Monomial]:
    """Sort key used everywhere terms are ordered: total degree first,
    then the exponent tuple itself."""
    return (sum(exps), exps)


class VariableSet:
    """Names and arity for the variables t1, t2, t3, w1, ..., wr.

    The three torus variables always come first and ``rank`` frame
    variables follow.  Two variable sets are interchangeable exactly when
    their ranks agree.
    """

    __slots__ = ("rank", "names")

    def __init__(self, rank: int) -> None:
        if type(rank) is not int or rank < 0:
            raise ValueError("rank must be a nonnegative integer")
        self.rank = rank
        self.names = ("t1", "t2", "t3") + tuple(
            "w%d" % (j + 1) for j in range(self.rank))

    @property
    def nvars(self) -> int:
        return 3 + self.rank

    def unit(self) -> Monomial:
        return (0,) * self.nvars

    def mono(self, t1: int = 0, t2: int = 0, t3: int = 0,
             w: Iterable[int] = ()) -> Monomial:
        """Exponent tuple with the given powers.

        ``w`` lists frame powers starting from w1; unlisted frame
        variables get power zero.
        """
        exps = (t1, t2, t3, *w)
        if len(exps) > 3 + self.rank:
            raise VariableSetMismatch("got %d frame powers for rank %d"
                                      % (len(exps) - 3, self.rank))
        if any(type(x) is not int for x in exps):
            raise ValueError("exponents must be integers: %r" % (exps,))
        return exps + (0,) * (3 + self.rank - len(exps))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VariableSet) and other.rank == self.rank

    def __hash__(self) -> int:
        return hash(("VariableSet", self.rank))

    def __repr__(self) -> str:
        return "VariableSet(rank=%d)" % self.rank


def monomial_text(vars: VariableSet, exps: Monomial) -> str:
    """Render an exponent tuple as ``t1^2*t2`` style text.

    The unit monomial renders as ``1``; exponent one is left implicit.
    """
    parts = []
    for name, p in zip(vars.names, exps):
        if p == 0:
            continue
        parts.append(name if p == 1 else "%s^%d" % (name, p))
    return "*".join(parts) if parts else "1"


class LaurentPoly:
    """Sparse Laurent polynomial with Fraction coefficients.

    Instances are treated as immutable; every operation returns a new
    object.  ``terms`` never contains a zero coefficient.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: VariableSet,
                 terms: Mapping[Monomial, Fraction | int] | None = None) -> None:
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                e = tuple(exps)
                if len(e) != vars.nvars:
                    raise VariableSetMismatch(
                        "exponent tuple %r does not fit %r" % (e, vars))
                if any(type(x) is not int for x in e):
                    raise ValueError("exponents must be integers: %r" % (e,))
                c = clean.get(e, _ZERO) + Fraction(coeff)
                if c:
                    clean[e] = c
                elif e in clean:
                    del clean[e]
        self.vars = vars
        self.terms = clean

    @classmethod
    def _raw(cls, vars: VariableSet,
             terms: dict[Monomial, Fraction]) -> LaurentPoly:
        # internal constructor: terms must already be clean
        out = object.__new__(cls)
        out.vars = vars
        out.terms = terms
        return out

    @classmethod
    def zero(cls, vars: VariableSet) -> LaurentPoly:
        return cls._raw(vars, {})

    @classmethod
    def constant(cls, vars: VariableSet, value: Fraction | int) -> LaurentPoly:
        c = Fraction(value)
        return cls._raw(vars, {vars.unit(): c} if c else {})

    @classmethod
    def one(cls, vars: VariableSet) -> LaurentPoly:
        return cls.constant(vars, 1)

    @classmethod
    def monomial(cls, vars: VariableSet, exps: Monomial,
                 coeff: Fraction | int = 1) -> LaurentPoly:
        return cls(vars, {tuple(exps): Fraction(coeff)})

    def _check(self, other: LaurentPoly) -> None:
        if self.vars != other.vars:
            raise VariableSetMismatch(
                "cannot combine %r with %r" % (self.vars, other.vars))

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps: Monomial) -> Fraction:
        return self.terms.get(tuple(exps), _ZERO)

    @property
    def constant_term(self) -> Fraction:
        return self.terms.get(self.vars.unit(), _ZERO)

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda item: grlex_key(item[0]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __add__(self, other: LaurentPoly | Fraction | int) -> LaurentPoly:
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(self.vars, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, _ZERO) + c
            if v:
                out[e] = v
            elif e in out:
                del out[e]
        return LaurentPoly._raw(self.vars, out)

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly._raw(self.vars,
                                {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: LaurentPoly | Fraction | int) -> LaurentPoly:
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(self.vars, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Fraction | int) -> LaurentPoly:
        return LaurentPoly.constant(self.vars, other) - self

    def scaled(self, value: Fraction | int) -> LaurentPoly:
        c = Fraction(value)
        if not c:
            return LaurentPoly.zero(self.vars)
        return LaurentPoly._raw(self.vars,
                                {e: c * v for e, v in self.terms.items()})

    def times_monomial(self, exps: Monomial,
                       coeff: Fraction | int = 1) -> LaurentPoly:
        """Multiply by ``coeff * x^exps`` in one pass."""
        c = Fraction(coeff)
        if not c:
            return LaurentPoly.zero(self.vars)
        m = tuple(exps)
        out = {tuple(a + b for a, b in zip(e, m)): c * v
               for e, v in self.terms.items()}
        return LaurentPoly._raw(self.vars, out)

    def __mul__(self, other: LaurentPoly | Fraction | int) -> LaurentPoly:
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        out: dict[Monomial, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                v = out.get(e, _ZERO) + ca * cb
                if v:
                    out[e] = v
                elif e in out:
                    del out[e]
        return LaurentPoly._raw(self.vars, out)

    def __rmul__(self, other: Fraction | int) -> LaurentPoly:
        return self.scaled(other)

    def bar(self) -> LaurentPoly:
        """Invert every variable, torus and frame alike."""
        return LaurentPoly._raw(
            self.vars,
            {tuple(-x for x in e): c for e, c in self.terms.items()})

    def text(self) -> str:
        """Deterministic plain text form, terms in grlex order."""
        if not self.terms:
            return "0"
        unit = self.vars.unit()
        parts: list[str] = []
        for exps, coeff in self.sorted_terms():
            mag = abs(coeff)
            if exps == unit:
                body = str(mag)
            elif mag == 1:
                body = monomial_text(self.vars, exps)
            else:
                body = "%s*%s" % (mag, monomial_text(self.vars, exps))
            if not parts:
                parts.append(body if coeff > 0 else "-" + body)
            else:
                parts.append((" + " if coeff > 0 else " - ") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return self.text()


def one_minus(vars: VariableSet, m: Monomial) -> LaurentPoly:
    """The polynomial ``1 - x^m``."""
    return LaurentPoly(vars, {vars.unit(): 1, tuple(m): -1})


def _times_factors(poly: LaurentPoly, monos: Iterable[Monomial]) -> LaurentPoly:
    for m in monos:
        poly = poly * one_minus(poly.vars, m)
    return poly


def divide_one_minus(poly: LaurentPoly, m: Monomial) -> LaurentPoly:
    """Exact division of ``poly`` by ``1 - x^m``.

    Terms are grouped along lattice lines ``rep + k*m``.  On each line the
    quotient coefficients are the running sums of the dividend
    coefficients, and the full line sum must vanish; otherwise the
    division has a remainder and ``NotPolynomial`` is raised.
    """
    n = poly.vars.nvars
    mm = tuple(int(x) for x in m)
    if len(mm) != n:
        raise VariableSetMismatch(
            "monomial %r does not fit %r" % (mm, poly.vars))
    if all(x == 0 for x in mm):
        raise ZeroDenominator("cannot divide by 1 - 1")
    if not poly.terms:
        return poly
    pivot = next(i for i, x in enumerate(mm) if x)
    lines: dict[Monomial, dict[int, Fraction]] = {}
    for e, c in poly.terms.items():
        k = e[pivot] // mm[pivot]
        rep = tuple(x - k * y for x, y in zip(e, mm))
        lines.setdefault(rep, {})[k] = c
    out: dict[Monomial, Fraction] = {}
    for rep, coeffs in lines.items():
        if sum(coeffs.values()):
            raise NotPolynomial(
                "1 - %s leaves a remainder" % monomial_text(poly.vars, mm))
        ks = sorted(coeffs)
        running = _ZERO
        for k in range(ks[0], ks[-1]):
            running += coeffs.get(k, _ZERO)
            if running:
                out[tuple(r + k * y for r, y in zip(rep, mm))] = running
    return LaurentPoly._raw(poly.vars, out)


class RationalCharacter:
    """Quotient ``num / prod_i (1 - m_i)`` over a fixed variable set.

    The denominator is a multiset of nonconstant monomials, stored as a
    sorted tuple.  A zero numerator always carries an empty denominator.
    Arithmetic operators normalize their result, so factors that divide
    the numerator exactly never linger.  Note that normalization only
    cancels whole ``1 - m`` factors; it is not a full gcd, so two equal
    characters can still differ in representation, and ``==`` compares
    representations, not values.
    """

    __slots__ = ("vars", "num", "den")

    def __init__(self, vars: VariableSet, num: LaurentPoly,
                 den: Iterable[Monomial] = ()) -> None:
        if num.vars != vars:
            raise VariableSetMismatch(
                "numerator over %r, expected %r" % (num.vars, vars))
        dd: list[Monomial] = []
        for m in den:
            mm = tuple(int(x) for x in m)
            if len(mm) != vars.nvars:
                raise VariableSetMismatch(
                    "denominator monomial %r does not fit %r" % (mm, vars))
            if all(x == 0 for x in mm):
                raise ZeroDenominator("denominator factor 1 - 1 is zero")
            dd.append(mm)
        dd.sort(key=grlex_key)
        if num.is_zero():
            dd = []
        self.vars = vars
        self.num = num
        self.den = tuple(dd)

    @classmethod
    def from_poly(cls, poly: LaurentPoly) -> RationalCharacter:
        return cls(poly.vars, poly)

    @classmethod
    def constant(cls, vars: VariableSet,
                 value: Fraction | int) -> RationalCharacter:
        return cls(vars, LaurentPoly.constant(vars, value))

    def _check(self, other: RationalCharacter) -> None:
        if self.vars != other.vars:
            raise VariableSetMismatch(
                "cannot combine %r with %r" % (self.vars, other.vars))

    def _coerce(self, value: object) -> RationalCharacter | None:
        if isinstance(value, RationalCharacter):
            return value
        if isinstance(value, LaurentPoly):
            return RationalCharacter(value.vars, value)
        if isinstance(value, (int, Fraction)):
            return RationalCharacter.constant(self.vars, value)
        return None

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalCharacter):
            return NotImplemented
        return (self.vars == other.vars and self.num == other.num
                and self.den == other.den)

    def __add__(self, other: object) -> RationalCharacter:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        self._check(rhs)
        ca, cb = Counter(self.den), Counter(rhs.den)
        union = ca | cb
        num_a = _times_factors(self.num, (union - ca).elements())
        num_b = _times_factors(rhs.num, (union - cb).elements())
        return RationalCharacter(self.vars, num_a + num_b,
                                 tuple(union.elements())).normalized()

    __radd__ = __add__

    def __neg__(self) -> RationalCharacter:
        return RationalCharacter(self.vars, -self.num, self.den)

    def __sub__(self, other: object) -> RationalCharacter:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __mul__(self, other: object) -> RationalCharacter:
        if isinstance(other, (int, Fraction)):
            return RationalCharacter(self.vars, self.num.scaled(other),
                                     self.den if Fraction(other) else ())
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        self._check(rhs)
        return RationalCharacter(self.vars, self.num * rhs.num,
                                 self.den + rhs.den).normalized()

    def bar(self) -> RationalCharacter:
        """Invert every variable in numerator and denominator alike."""
        return RationalCharacter(
            self.vars, self.num.bar(),
            [tuple(-x for x in m) for m in self.den])

    def normalized(self) -> RationalCharacter:
        """Cancel every denominator factor that divides the numerator
        exactly, repeating until none does."""
        num = self.num
        if num.is_zero():
            return RationalCharacter(self.vars, num)
        remaining = list(self.den)
        changed = True
        while changed:
            changed = False
            for i, m in enumerate(remaining):
                try:
                    q = divide_one_minus(num, m)
                except NotPolynomial:
                    continue
                num = q
                del remaining[i]
                changed = True
                break
        return RationalCharacter(self.vars, num, remaining)

    def reduced(self) -> LaurentPoly:
        """Divide out every denominator factor; raises ``NotPolynomial``
        when the character is not an honest Laurent polynomial."""
        num = self.num
        for m in self.den:
            num = divide_one_minus(num, m)
        return num

    def text(self) -> str:
        if not self.den:
            return self.num.text()
        den = "*".join("(1-%s)" % monomial_text(self.vars, m)
                       for m in self.den)
        return "(%s)/(%s)" % (self.num.text(), den)

    def __repr__(self) -> str:
        return self.text()
