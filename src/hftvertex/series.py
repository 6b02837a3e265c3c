"""Vertex series assembly, binomial closed forms, and count series.

The vertex series collects, order by order in the box count, the sum of
fixed point contributions on the pure first leg strata: the fixed points
whose second leg carries no boxes.  Coefficients are ``WeightSum``
values: canonical tuples of weight functions, one per factor data, in
sorted order.  A sum sorts its terms by factor data and merges equal
neighbours, adding scalars only where two terms share their forms.
Exact equality of two weight sums is decided in two exact steps:
integer evaluation at a few fixed points, each sum over the lcm of its
terms' denominators, where differing values prove the sums unequal,
then, only when every point agrees, integer expansion of their
canonical difference, where shared terms cancel, over its lcd.

All three series here are products of one summand series, truncated
at the order.  ``assemble_vertex`` convolves the leg series of the r
frame summands, whose coefficients are the first leg shares of
``localize``: the share of a boxes is the one of a - 1 boxes times one
box share, a closed product of linear forms built with no character,
exchanged and specialized once per summand (``localize.contribution``
still reads its shares off the character); ``closed_form_series``
raises a one line binomial series, built in integers, to the rank power
by one product per multiset of terms.  ``hft_partition`` raises a count
series reindexed by the twist to the rank power in integers, each
coefficient from the ones below it, up to the first that ``str()``
cannot print.

The series functions return their coefficients and render nothing: the
CLI writes every output, text and JSON alike.
"""

from __future__ import annotations

import operator
import sys
from collections import Counter
from collections.abc import Callable, Iterator, Mapping, Sequence
from fractions import Fraction
from math import factorial, gcd, lcm

from .chars import HftError
from .fixedpoints import BoxTuple, InvalidModel, _rational
from .localize import (Specialization, WeightForm, WeightFunction,
                       _check_mode, _exchanged, _one_box_share, _product,
                       _value_parts, specialize, weight_function)

WeightSum = tuple[WeightFunction, ...]


class BinomialIneligible(HftError):
    """The exponent is not of a shape the binomial series supports."""


class InvalidCounts(InvalidModel):
    """A count series entry is not a nonnegative integer degree with an
    exact rational count, or the series is past its size budget."""


def weight_sum(rank: int, items: Sequence[WeightFunction]) -> WeightSum:
    """Canonical sum: sort the terms by factor data, add the scalars of
    equal neighbours, drop zeros.  The factor data of a canonical term
    stays canonical under a new nonzero scalar, so a merged group
    becomes a term directly, and a term alone in its group is kept as
    it is."""
    _check_ranks(rank, items)
    terms = [wf for wf in items if wf.scalar]
    terms.sort(key=operator.attrgetter("num", "den"))
    out: list[WeightFunction] = []
    i, n = 0, len(terms)
    while i < n:
        wf = terms[i]
        j = i + 1
        while j < n and terms[j].num == wf.num and terms[j].den == wf.den:
            j += 1
        if j == i + 1:
            out.append(wf)
        else:
            scalar = sum((t.scalar for t in terms[i + 1:j]), wf.scalar)
            if scalar:
                out.append(WeightFunction(rank, scalar, wf.num, wf.den))
        i = j
    return tuple(out)


def _check_integers(**args) -> None:
    """Refuse by type, as ``BoxTuple`` does, an argument that is not an
    int, so that neither a bool, a float nor a Fraction is read as one."""
    for name, value in args.items():
        if type(value) is not int:
            raise InvalidModel("%s must be an integer, not %r"
                               % (name, value))


def _check_series(rank: int, twist: int, order: int) -> None:
    """Refuse a non-int argument, a rank below one or an order below 0."""
    _check_integers(rank=rank, twist=twist, order=order)
    if rank < 1:
        raise InvalidModel("rank must be at least one")
    if order < 0:
        raise InvalidModel("order must be nonnegative")


def _check_ranks(rank: int, items: Sequence[WeightFunction]) -> None:
    for wf in items:
        if wf.rank != rank:
            raise InvalidModel(
                "weight function of rank %d in a sum of rank %d"
                % (wf.rank, rank))


def _difference(rank: int, a: WeightSum, b: WeightSum) -> WeightSum:
    """The canonical sum ``a - b``: the terms the two share cancel."""
    return weight_sum(rank, [*a, *(wf.scaled(-1) for wf in b)])


def ws_unit(rank: int) -> WeightSum:
    return (weight_function(rank, 1),)


# One evaluation point per base: its entries are the powers base ** 1,
# base ** 2, ...  A nonzero linear form whose coefficients are smaller
# than the base in magnitude cannot vanish there, and a nonzero
# difference of two sums almost never does.
_POINT_BASES = (1000, 1009, 1013)


def _evaluation_points(rank: int) -> list[tuple[int, ...]]:
    return [tuple(base ** (i + 1) for i in range(3 + rank))
            for base in _POINT_BASES]


def eq_weight_sum(rank: int, a: WeightSum, b: WeightSum) -> bool:
    """Exact value equality of two weight sums whose terms must all have
    rank ``rank``.  Unless the sums are identical, each is evaluated in
    integers at ``_evaluation_points``, skipping a point where a
    denominator factor vanishes; differing values prove them unequal.
    When every point agrees, the canonical difference ``a - b`` is
    expanded in integers over its least common denominator."""
    _check_ranks(rank, (*a, *b))
    if a == b:
        return True
    for point in _evaluation_points(rank):
        top_a, bottom_a = _value_parts(a, point)
        top_b, bottom_b = _value_parts(b, point)
        if bottom_a and bottom_b and top_a * bottom_b != top_b * bottom_a:
            return False
    diff = _difference(rank, a, b)
    lcd: Counter = Counter()
    for wf in diff:
        lcd |= Counter(wf.den)
    scale = lcm(*(wf.scalar.denominator for wf in diff))
    total: Counter = Counter()
    for wf in diff:
        coeff = wf.scalar.numerator * (scale // wf.scalar.denominator)
        rest = (lcd - Counter(wf.den)).elements()
        total.update(_expanded(3 + rank, coeff, (*wf.num, *rest)))
    return not any(total.values())


def _expanded(nvars: int, coeff: int, forms: Sequence[WeightForm]
              ) -> dict[tuple[int, ...], int]:
    """The integer ``coeff`` times the product of the integer linear
    forms, expanded into a dict from exponent vectors to integers."""
    out = {(0,) * nvars: coeff}
    for f in forms:
        part: dict[tuple[int, ...], int] = {}
        for mono, c in out.items():
            for i, x in enumerate(f):
                if x:
                    key = mono[:i] + (mono[i] + 1,) + mono[i + 1:]
                    part[key] = part.get(key, 0) + c * x
        out = part
    return out


def assemble_vertex(rank: int, twist: int, order: int,
                    mode: str = "character",
                    spec: Specialization | None = None
                    ) -> tuple[WeightSum, ...]:
    """Vertex series coefficients 0 to the order: coefficient k sums the
    contributions of the first leg strata with k boxes, and the order
    zero coefficient is one.

    The series is the convolution product of the r leg series of the
    frame summands.  A first leg character of a boxes at twist t is the
    sum of the one box characters at twists t to t + a - 1, and so are
    the paper factors: the share of summand j at order a is the one at
    a - 1 times the one box share at twist t + a - 1 (its errors name
    the a-box point of the last summand), exchanged to j and specialized
    once, for a ascending and j descending as the strata reach them.
    The one box share is the closed product of ``_one_box_share``, with
    no character; ``contribution`` keeps the character road until it
    takes the closed product too.  No form cancels across steps (each
    numerator has an s2 coefficient of -1, no denominator an s2 term),
    so a share holds its steps' forms and fails to specialize on the
    factor the whole share would."""
    _check_series(rank, twist, order)
    _check_mode(mode)
    unit = ws_unit(rank)
    legs = [{0: unit} for _ in range(rank)]
    shares = [unit[0]] * rank
    for a in range(1, order + 1):
        step = _one_box_share(rank, twist + a - 1, mode,
                              _point_context(rank, rank - 1, a, twist))
        for j in reversed(range(rank)):
            shares[j] = _product(rank, (shares[j], specialize(
                _exchanged(step, j), spec,
                _point_context(rank, j, a, twist))))
            legs[j][a] = (shares[j],)
    out = _ws_product(rank, legs, order)
    return tuple(out.get(k, ()) for k in range(order + 1))


def _point_context(rank: int, j: int, a: int, twist: int
                   ) -> Callable[[], str]:
    """The error context of the first leg point with a boxes on summand
    j, as a function that is called only when an error is raised."""
    def context() -> str:
        zeros = (0,) * rank
        return "contribution of %r at twist %d" % (
            BoxTuple(zeros[:j] + (a,) + zeros[j + 1:], zeros), twist)
    return context


def binomial_series(exponent: WeightFunction, order: int
                    ) -> list[WeightFunction]:
    """Coefficients of (1 + q) raised to the exponent: the generalized
    binomial coefficients of a weight function, built canonical in
    integers.  The exponent must be a bare scalar p/q, whose coefficient
    k is (p - 0q)(p - 1q)...(p - (k-1)q)/(q^k k!), or p/q * n/d for
    forms n, d; anything else raises ``BinomialIneligible``.  There each
    factor e - i is g_i/q * f_i/d, with f_i the primitive form of
    p n - i q d and g_i its signed content.  Nothing cancels: n and d
    are distinct primitive forms, so independent, and no f_i is d.
    """
    _check_integers(order=order)
    if order < 0:
        raise InvalidModel("order must be nonnegative")
    shape = (len(exponent.num), len(exponent.den))
    if shape not in ((0, 0), (1, 1)):
        raise BinomialIneligible(
            "exponent %s is not scalar * form/form" % exponent.text())
    p, q = exponent.scalar.numerator, exponent.scalar.denominator
    scalar, num = Fraction(1), []
    out = [WeightFunction(exponent.rank, scalar, (), ())]
    for i in range(order):
        g = p - i * q  # the factor of a bare scalar
        if exponent.num:
            vec = [p * a - i * q * b
                   for a, b in zip(exponent.num[0], exponent.den[0])]
            g = gcd(*vec)
            if next(x for x in vec if x) < 0:
                g = -g
            num.append(tuple([x // g for x in vec]))
        scalar *= Fraction(g, q * (i + 1))  # stays reduced by small gcds
        out.append(WeightFunction(exponent.rank, scalar, tuple(sorted(num)),
                                  exponent.den * (i + 1)))
    return out


def _ws_product(rank: int, factors: Sequence[Mapping[int, WeightSum]],
                order: int) -> dict[int, WeightSum]:
    """Product of one or more sparse degree to weight sum series,
    dropping every degree beyond the order.  The term products that land
    on a degree are summed by one ``weight_sum`` call."""
    out = {k: c for k, c in factors[0].items() if k <= order}
    for factor in factors[1:]:
        terms: dict[int, list[WeightFunction]] = {}
        for i, a in out.items():
            for j, b in factor.items():
                if i + j <= order:
                    terms.setdefault(i + j, []).extend(
                        [_product(rank, (x, y)) for x in a for y in b])
        out = {k: weight_sum(rank, t) for k, t in terms.items()}
    return out


def power(rank: int, coefficients: Sequence[WeightSum], exponent: int,
          order: int) -> list[WeightSum]:
    """Truncated convolution power of a coefficient list: over each
    multiset of ``exponent`` terms within the order, their product times
    e!/(c_1! c_2! ...), the count of its orderings for multiplicities
    c_i.  That is the canonical sum of the products of all orderings,
    which ``weight_sum`` would merge, with one product per multiset.
    The first power of canonical sums is the list itself, cut or padded
    with zeros to the order."""
    _check_integers(exponent=exponent, order=order)
    if exponent < 0:
        raise InvalidModel("negative convolution power")
    if order < 0:
        raise InvalidModel("order must be nonnegative")
    if exponent == 1:
        rows = list(coefficients[:order + 1])
        return rows + [()] * (order + 1 - len(rows))
    terms = [(j, wf) for j, c in enumerate(coefficients[:order + 1])
             for wf in c]
    found: dict[int, list[WeightFunction]] = {}
    stack = [((), 0, 0)]  # nondecreasing picks, their degree, least next
    while stack:
        picks, degree, low = stack.pop()
        left = exponent - len(picks)
        if not left:
            count = factorial(exponent)
            for run in Counter(picks).values():
                count //= factorial(run)
            wf = _product(rank, [terms[i][1] for i in picks])
            found.setdefault(degree, []).append(wf.scaled(count))
            continue
        for i in range(low, len(terms)):
            if degree + left * terms[i][0] > order:  # so is every later i
                break
            stack.append(((*picks, i), degree + terms[i][0], i))
    return [weight_sum(rank, found.get(k, ())) for k in range(order + 1)]


def one_leg_exponent(rank: int) -> WeightFunction:
    """The exponent (s2 + s3)/s1 of the one leg closed form, over the
    rank's parameter space."""
    num = (0, 1, 1) + (0,) * rank
    den = (1, 0, 0) + (0,) * rank
    return weight_function(rank, 1, [num], [den])


def closed_form_series(rank: int, twist: int, order: int,
                       spec: Specialization | None = None
                       ) -> tuple[WeightSum, ...]:
    """Closed form prediction, coefficients 0 to the order: the binomial
    series with exponent (twist + 1) * (s2 + s3)/s1 to the rank power."""
    _check_series(rank, twist, order)
    exponent = specialize(one_leg_exponent(rank).scaled(twist + 1), spec,
                          "closed form exponent")
    line = binomial_series(exponent, order)
    return tuple(power(rank, [weight_sum(rank, [w]) for w in line], rank,
                       order))


def reference_series(rank: int, twist: int, order: int
                     ) -> list[WeightSum]:
    """Scalar reference row: the binomial coefficients of
    (1 + q) ** (-(twist + 1) * rank), the value the closed form takes on
    the Calabi Yau slice."""
    _check_series(rank, twist, order)
    exponent = weight_function(rank, -(twist + 1) * rank)
    return [weight_sum(rank, [w])
            for w in binomial_series(exponent, order)]


def compare_rows(rank: int, twist: int, order: int,
                 spec: Specialization | None = None) -> list[dict]:
    """Per order comparison of the two contribution modes and the closed
    form: each row carries the three coefficient values, equality flags
    of the character column against the other two, and the exact
    difference of the character column from ``reference_series``.
    Nothing is asserted here; disagreements are data.

    The rows are printed whole, so a scalar of the four weight sum
    columns that ``str()`` cannot print raises ``HftError`` before any
    equality check (see ``_check_printable``)."""
    char = assemble_vertex(rank, twist, order, "character", spec)
    paper = assemble_vertex(rank, twist, order, "paper", spec)
    closed = closed_form_series(rank, twist, order, spec)
    ref = reference_series(rank, twist, order)
    diffs = [_difference(rank, c, r) for c, r in zip(char, ref)]
    _check_printable((*char, *paper, *closed, *diffs))
    return [{
        "k": k,
        "character": c,
        "paper": p,
        "closed_form": f,
        "character_equals_paper": eq_weight_sum(rank, c, p),
        "character_equals_closed_form": eq_weight_sum(rank, c, f),
        "difference_from_reference": d,
    } for k, (c, p, f, d) in enumerate(zip(char, paper, closed, diffs))]


_OUTPUT_DIGITS = "the output holds a number of more than %d digits"


def _printable(x: Fraction) -> bool:
    """Whether ``str()`` prints ``x`` under the digit limit of
    ``sys.get_int_max_str_digits()``.  Only a number of at least 3 times
    the limit in bits is printed to find out: b bits hold fewer than
    b/3 + 1 digits."""
    limit = sys.get_int_max_str_digits()  # zero is no limit
    big = max(abs(x.numerator), x.denominator)
    if limit and big.bit_length() >= 3 * limit:
        try:
            str(x)
        except ValueError:  # str() of an int past its digit limit
            return False
    return True


def _check_printable(sums: Sequence[WeightSum]) -> None:
    """Raise ``HftError`` (``_OUTPUT_DIGITS``) if a scalar of the sums
    is not ``_printable``."""
    for ws in sums:
        for wf in ws:
            if not _printable(wf.scalar):
                raise HftError(
                    _OUTPUT_DIGITS % sys.get_int_max_str_digits())


CountSeries = dict[int, Fraction]


def _count_entries(data: Mapping) -> Iterator[tuple[int, Fraction]]:
    """Degree and count of each entry with a nonzero count, in order:
    integer keys at least zero or strings of ASCII digits (``int()``
    also reads ``"1_0"``, ``" 2 "``, ``"+3"`` and other scripts' digits),
    exact rational values (integers, Fractions or strings such as
    ``"3/2"``).  Float and boolean values, and keys of any other type
    (a bool, a float, a Fraction), are refused rather than converted."""
    for key, value in data.items():
        # refused before converting: Fraction of an infinite float raises
        # OverflowError, and int() truncates a Fraction or a Decimal key
        bad = isinstance(value, (bool, float)) or not (
            type(key) is int or isinstance(key, str) and key.isascii()
            and key.removeprefix("-").isdigit())
        if not bad:
            try:
                m = int(key)
                c = _rational(value)
            except (ValueError, TypeError, ZeroDivisionError):
                bad = True
        if bad:
            raise InvalidCounts("bad count entry %r: %r" % (key, value))
        if m < 0 or isinstance(key, str) and key[0] == "-":
            raise InvalidCounts("negative degree %s in a count series" % key)
        if c:
            yield m, c


# The size budget of a count file, about 45,000 decimal digits: over the
# counts at or below the order, the bits of each numerator plus those of
# the lcm L of their denominators, a bound on the counts cleared by L.
# At the budget, rank 16 and order 1000 take 0.3 s on even counts.
_MAX_COUNT_BITS = 150_000


def _int_power(base: Mapping[int, int], n: int, order: int
               ) -> Iterator[tuple[int, int]]:
    """Each nonzero (degree, coefficient) of the n-th power of a sparse
    integer series, cut at the order, yielded as it is made, by J.C.P.
    Miller's recurrence (Knuth, TAOCP vol. 2, 4.7).  Written as
    ``q^m0 * sum p_j q^(g*j)``, with g the gcd of the degree gaps, the
    power satisfies ``P * (P^n)' = n * P' * P^n``, so ``a_0 = p_0^n``
    and ``k * p_0 * a_k = sum ((n+1)*j - k) * p_j * a_(k-j)``, an exact
    integer division.  The walk stops at the order or the top degree."""
    m0 = min(base)
    if n * m0 > order:
        return
    p0 = base[m0]
    a = [p0**n]
    yield n * m0, a[0]
    g = gcd(*[m - m0 for m in base])
    if not g:
        return
    steps = sorted(((m - m0) // g, p) for m, p in base.items() if m != m0)
    top = min((order - n * m0) // g, n * steps[-1][0])
    for k in range(1, top + 1):
        s = 0
        for j, p in steps:
            if j > k:
                break
            s += ((n + 1) * j - k) * p * a[k - j]
        a.append(s // (k * p0))
        if a[k]:
            yield n * m0 + g * k, a[k]


def hft_partition(counts: Mapping, twist: int, rank: int,
                  order: int) -> CountSeries:
    """Generating series of the twisted rank r theory built from a one
    summand count series: reindex degrees by the twist up to the order,
    clear the denominators by their lcm L, raise the cleared series to
    the rank power in integers (``_int_power``), and divide each
    coefficient by L^rank, in ascending degree.

    A bad entry raises ``InvalidCounts`` (see ``_count_entries``), and
    so does a file past ``_MAX_COUNT_BITS``, before any long arithmetic.
    Each coefficient is checked as the power makes it: the first that
    ``str()`` cannot print (``sys.get_int_max_str_digits()``) raises
    ``HftError`` naming its degree, before any higher one is made.
    Twist zero collapses the series to a constant; empty input, to zero.
    """
    _check_series(rank, twist, order)
    if twist < 0:
        raise InvalidModel("twist must be nonnegative")
    entries = [(twist * m, c) for m, c in _count_entries(counts)
               if twist * m <= order]
    scale, bits = 1, 0
    for i, (_, c) in enumerate(entries, 1):
        scale = lcm(scale, c.denominator)
        bits += c.numerator.bit_length()
        if bits + i * scale.bit_length() > _MAX_COUNT_BITS:
            raise InvalidCounts(
                "the counts up to the order, over their least common "
                "denominator, take more than %d bits" % _MAX_COUNT_BITS)
    cleared: Counter = Counter()
    for key, c in entries:
        cleared[key] += c.numerator * (scale // c.denominator)
    base = {m: n for m, n in cleared.items() if n}
    if not base:
        return {}
    # the first power is the cleared series, already cut at the order
    terms = (_int_power(base, rank, order) if rank > 1
             else sorted(base.items()))
    denominator = scale**rank
    out: CountSeries = {}
    for m, c in terms:
        out[m] = Fraction(c, denominator)
        if not _printable(out[m]):
            raise HftError("coefficient of q^%d has more than %d digits"
                           % (m, sys.get_int_max_str_digits()))
    return out
