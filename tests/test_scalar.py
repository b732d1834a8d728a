"""Arithmetic substrate: enclosures, base parsing, root isolation, printing."""

import math
import operator
import os
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (ball_abs, ball_dot, certainly_gt, certainly_lt, contains, fraction_hull,
                     fraction_quotient, loop_power, max_abs, overlaps, poly_eval,
                     reduced_norm_sign)
from vangeo import cli, symfunc, vandinv
from vangeo.errors import DomainError, ParseError
from vangeo.scalar import (ALPHA_POLYNOMIAL, DEFAULT_PRECISION_CEILING,
                           PRECISION_CEILING_ENV, TAU_POLYNOMIAL, BaseSpec,
                           RigorousReal, ZTheta, _alpha_bounds, _ball_dot,
                           _dy_quotient, _filled, _max_abs,
                           _normalize, _power, _split, at_base,
                           certified_poly_sign, evaluate_base,
                           fraction_to_decimal, fraction_to_sci,
                           poly_eval_ball, powers, reduce_monic,
                           resolve_precision_ceiling)

# √5 to ~600 bits via integer square root, as a two-sided rational bracket.
_S = math.isqrt(5 << 1200)
SQRT5_LO = Fraction(_S, 1 << 600)
SQRT5_HI = Fraction(_S + 1, 1 << 600)
TAU_LO = (1 + SQRT5_LO) / 2
TAU_HI = (1 + SQRT5_HI) / 2

fractions_st = st.fractions(min_value=-100, max_value=100, max_denominator=1000)


class BracketError(ValueError):
    """The oracle's bracket has no sign change."""


def fraction_bisect(coeffs, lo, hi, tol, precision_bits=None):
    """Oracle: bisection with a Fraction evaluation per step, the loop that
    the integer bisection of the constants replaced."""
    lof, hif = Fraction(lo), Fraction(hi)
    tolf = Fraction(tol)
    if tolf <= 0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    if lof >= hif:
        raise BracketError("bracket endpoints must satisfy lo < hi")
    flo = poly_eval(coeffs, lof)
    fhi = poly_eval(coeffs, hif)
    if flo == 0:
        hif = lof
    elif fhi == 0:
        lof = hif
    elif (flo > 0) == (fhi > 0):
        raise BracketError(f"no sign change on [{lof}, {hif}]: f(lo)={flo}, f(hi)={fhi}")
    while hif - lof > tolf:
        mid = (lof + hif) / 2
        fm = poly_eval(coeffs, mid)
        if fm == 0:
            lof = hif = mid
            break
        if (fm > 0) == (flo > 0):
            lof, flo = mid, fm
        else:
            hif = mid
    if precision_bits is None:
        width_bits = max(1, -(tolf.numerator.bit_length() - tolf.denominator.bit_length()))
        precision_bits = max(64, width_bits + 32)
    return RigorousReal.from_interval(lof, hif, precision_bits)


def fraction_floor_log10(x):
    """Oracle: the Fraction-power loop that the printers' integer exponent
    search replaced."""
    g = math.floor(math.log10(x.numerator) - math.log10(x.denominator))
    while x >= Fraction(10) ** (g + 1):
        g += 1
    while x < Fraction(10) ** g:
        g -= 1
    return g


def fraction_power_decimal(x, digits=20):
    """Oracle: fraction_to_decimal scaling by a Fraction power of ten, the
    form that the integer numerator and denominator replaced."""
    if x == 0:
        return "0." + "0" * (digits - 1)
    sign = "-" if x < 0 else ""
    ax = abs(x)
    e10 = fraction_floor_log10(ax)
    scaled = ax * Fraction(10) ** (digits - 1 - e10)
    q, r = divmod(scaled.numerator, scaled.denominator)
    if 2 * r >= scaled.denominator:
        q += 1
    mant = str(q)
    if len(mant) > digits:
        e10 += 1
        mant = mant[:digits]
    point = e10 + 1
    if point <= 0:
        return f"{sign}0.{'0' * (-point)}{mant}"
    if point >= len(mant):
        return f"{sign}{mant}{'0' * (point - len(mant))}"
    return f"{sign}{mant[:point]}.{mant[point:]}"


def fraction_power_sci(x, digits=3):
    """Oracle: fraction_to_sci scaling by a Fraction power of ten."""
    if x == 0:
        return "0"
    sign = "-" if x < 0 else ""
    ax = abs(x)
    e10 = fraction_floor_log10(ax)
    scaled = ax * Fraction(10) ** (digits - 1 - e10)
    q, r = divmod(scaled.numerator, scaled.denominator)
    if r:
        q += 1
    mant = str(q)
    if len(mant) > digits:
        e10 += 1
        mant = mant[:digits]
    if digits == 1:
        return f"{sign}{mant}e{e10:+03d}"
    return f"{sign}{mant[0]}.{mant[1:]}e{e10:+03d}"


def outcome(isolate, *args, **kwargs):
    """(midpoint, radius, precision) of the enclosure, or the error raised."""
    try:
        ball = isolate(*args, **kwargs)
    except (BracketError, DomainError) as exc:
        return type(exc), str(exc)
    return ball.midpoint, ball.radius, ball.precision_bits


class TestRigorousReal:
    def test_exact_dyadic_is_exact(self):
        x = RigorousReal.exact(Fraction(3, 8), 64)
        assert x.is_exact and x.radius == 0 and x.midpoint == Fraction(3, 8)

    def test_exact_non_dyadic_encloses(self):
        x = RigorousReal.exact(Fraction(1, 3), 256)
        assert x.lower < Fraction(1, 3) < x.upper
        assert x.radius < Fraction(1, 2 ** 250)

    def test_from_interval_orders_endpoints(self):
        x = RigorousReal.from_interval(Fraction(1, 3), Fraction(1, 2), 128)
        assert x.lower <= Fraction(1, 3) and x.upper >= Fraction(1, 2)

    def test_abs_straddling_zero(self):
        x = RigorousReal.from_interval(-1, 2, 64)
        y = ball_abs(x)
        assert y.lower == 0 and y.upper >= 2

    def test_intersect_disjoint_raises(self):
        a = RigorousReal.from_interval(0, 1, 64)
        b = RigorousReal.from_interval(2, 3, 64)
        with pytest.raises(DomainError):
            a.intersect(b)

    def test_intersect_tightens(self):
        a = RigorousReal.from_interval(0, 2, 64)
        b = RigorousReal.from_interval(1, 3, 64)
        c = a.intersect(b)
        assert c.lower >= 1 - Fraction(1, 2 ** 60) and c.upper <= 2 + Fraction(1, 2 ** 60)

    def test_certain_comparisons(self):
        a = RigorousReal.from_interval(0, 1, 64)
        b = RigorousReal.from_interval(2, 3, 64)
        assert certainly_lt(a, b) and certainly_gt(b, a)
        assert not overlaps(a, b)
        assert overlaps(a, RigorousReal.from_interval(Fraction(1, 2), 4, 64))

    def test_sign(self):
        assert RigorousReal.from_interval(1, 2, 64).sign() == 1
        assert RigorousReal.from_interval(-2, -1, 64).sign() == -1
        assert RigorousReal.exact(0, 64).sign() == 0
        assert RigorousReal.from_interval(-1, 1, 64).sign() is None

    def test_pow_negative_exponent(self):
        x = RigorousReal.exact(2, 128)
        assert contains(x ** -3, Fraction(1, 8))

    def test_division_by_straddling_zero_raises(self):
        num = RigorousReal.exact(1, 64)
        den = RigorousReal.from_interval(-1, 1, 64)
        with pytest.raises(DomainError):
            num / den

    @given(a=fractions_st, b=fractions_st)
    @settings(max_examples=200, deadline=None)
    def test_ops_contain_exact_result(self, a, b):
        xa = RigorousReal.exact(a, 64)
        xb = RigorousReal.exact(b, 64)
        assert contains(xa + xb, a + b)
        assert contains(xa - xb, a - b)
        assert contains(xa * xb, a * b)
        if b != 0 and xb.sign() is not None and xb.sign() != 0:
            assert contains(xa / xb, Fraction(a, b))

    @given(a=fractions_st, k=st.integers(min_value=0, max_value=12))
    @settings(max_examples=100, deadline=None)
    def test_pow_contains_exact_result(self, a, k):
        xa = RigorousReal.exact(a, 96)
        assert contains(xa ** k, a ** k)

    @given(values=st.lists(fractions_st, min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_hull_contains_all(self, values):
        balls = [RigorousReal.exact(v, 64) for v in values]
        h = RigorousReal.hull(balls)
        assert all(contains(h, v) for v in values)


# ---------------------------------------------------------------------------
# Oracles: the Fraction-endpoint and divmod ball arithmetic that the dyadic
# hot paths replaced, on raw (m, e, r, f, prec) tuples.  Every ball the
# package builds must stay bit for bit what these give.
# ---------------------------------------------------------------------------


def old_frac_to_dyadic(x, prec, mode):
    """A Fraction rounded to a prec-bit dyadic mantissa on the side of mode,
    from its reduced numerator and denominator."""
    n, d = x.numerator, x.denominator
    if n == 0:
        return 0, 0
    shift = prec - (n.bit_length() - d.bit_length()) + 1
    if shift < 0:
        shift = 0
    q, r = divmod(n << shift, d)
    if mode == "ceil" and r:
        q += 1
    return q, -shift


def old_dy_add(m1, e1, m2, e2):
    if m1 == 0:
        return m2, e2
    if m2 == 0:
        return m1, e1
    e = min(e1, e2)
    return (m1 << (e1 - e)) + (m2 << (e2 - e)), e


def old_ceil_trim(m, e, bits):
    """A nonnegative dyadic rounded up so that its mantissa fits in bits."""
    bl = m.bit_length()
    if bl <= bits:
        return m, e
    s = bl - bits
    return -((-m) >> s), e + s


def old_normalize(m, e, r, f, prec):
    bl = abs(m).bit_length()
    if bl > prec:
        s = bl - prec
        q, rem = divmod(m, 1 << s)
        if rem:
            if rem >= (1 << (s - 1)):
                q += 1
            r, f = old_dy_add(r, f, 1, e + s - 1) if r else (1, e + s - 1)
        m, e = q, e + s
    if m == 0:
        e = 0
    if r == 0:
        f = 0
    elif r.bit_length() > 32:
        r, f = old_ceil_trim(r, f, 32)
    return m, e, r, f


def old_add(x, y):
    (m1, e1, r1, f1, p1), (m2, e2, r2, f2, p2) = x, y
    prec = max(p1, p2)
    m, e = old_dy_add(m1, e1, m2, e2)
    if r1 == 0 and r2 == 0:
        return (*old_normalize(m, e, 0, 0, prec), prec)
    r, f = old_dy_add(r1, f1, r2, f2)
    return (*old_normalize(m, e, r, f, prec), prec)


def old_mul(x, y):
    (m1, e1, r1, f1, p1), (m2, e2, r2, f2, p2) = x, y
    prec = max(p1, p2)
    m, e = m1 * m2, e1 + e2
    if r1 == 0 and r2 == 0:
        return (*old_normalize(m, e, 0, 0, prec), prec)
    rm, rf = old_dy_add(abs(m1) * r2, e1 + f2, abs(m2) * r1, e2 + f1)
    rm, rf = old_dy_add(rm, rf, r1 * r2, f1 + f2)
    return (*old_normalize(m, e, rm, rf, prec), prec)


def old_dot(start, xs, ys):
    acc = start
    for x, y in zip(xs, ys):
        acc = old_add(acc, old_mul(x, y))
    return acc


def old_sweep(values, upto, one):
    """The generic e_k <- e_k + x e_(k-1) loop over RigorousReal objects."""
    e = [one] + [one * 0] * upto
    for folded, x in enumerate(values, 1):
        for k in range(min(folded, upto), 0, -1):
            e[k] = e[k] + x * e[k - 1]
    return e


def old_horner(coeffs, x):
    acc = RigorousReal.exact(0, x.precision_bits)
    for c in reversed(coeffs):
        acc = acc * x + RigorousReal.exact(c, x.precision_bits)
    return acc


def ends(x):
    m, e, r, f, _ = x
    return Fraction(m) * Fraction(2) ** e - r * Fraction(2) ** f, \
        Fraction(m) * Fraction(2) ** e + r * Fraction(2) ** f


def old_from_interval(lo, hi, prec):
    (ml, el) = old_frac_to_dyadic(Fraction(lo), prec + 4, "floor")
    (mh, eh) = old_frac_to_dyadic(Fraction(hi), prec + 4, "ceil")
    e = min(el, eh) - 1
    a, b = ml << (el - e), mh << (eh - e)
    return (*old_normalize(a + b, e - 1, b - a, e - 1, prec), prec)


def old_intersect(x, y):
    lo = max(ends(x)[0], ends(y)[0])
    hi = min(ends(x)[1], ends(y)[1])
    if lo > hi:
        return DomainError
    return old_from_interval(lo, hi, max(x[4], y[4]))


def old_abs(x):
    lo, hi = ends(x)
    if lo > 0 or x[2] == 0 and x[0] >= 0:
        return x
    if hi < 0 or x[2] == 0:
        return (-x[0], *x[1:])
    return old_from_interval(0, max(-lo, hi), x[4])


def fields(x):
    return x._m, x._e, x._r, x._f, x._prec


def raw_ball(t):
    """The ball with exactly these fields: a rounded-up radius may carry 33
    bits, which RigorousReal(*t) would trim once more."""
    return _filled(*t)


def split(t):
    """The split fields (_split: the raw fields and |m|) of raw_ball(t)."""
    return _split(raw_ball(t))


# small, random, and one- or two-bit mantissas of either sign, so that exact
# rounding ties and single dropped bits come up often
mantissas = st.one_of(
    st.integers(-70, 70), st.integers(-2 ** 1200, 2 ** 1200),
    st.tuples(st.sampled_from([1, -1]), st.integers(0, 1100), st.integers(-1, 1100)).map(
        lambda t: t[0] * ((1 << t[1]) + (1 << t[2] if 0 <= t[2] < t[1] else 0))))
exponents = st.integers(-1500, 1500)
precisions = st.one_of(st.integers(4, 8), st.integers(4, 1100))


@st.composite
def balls(draw, near=None, prec=None):
    """A normalised ball, at prec bits if given; with near = (c, exponent),
    one containing c*2**exponent."""
    prec = draw(precisions) if prec is None else prec
    if near is None:
        m, e = draw(mantissas), draw(exponents)
        r, f = draw(st.one_of(st.just(0), st.integers(0, 2 ** 40))), draw(exponents)
    else:
        (c, e), d = near, draw(st.integers(-2 ** 70, 2 ** 70))
        m, r, f = c + d, abs(d) + draw(st.integers(0, 3)), e
    return (*old_normalize(m, e, r, f, prec), prec)


exact_balls = st.tuples(mantissas, exponents, precisions).map(
    lambda t: (*old_normalize(t[0], t[1], 0, 0, t[2]), t[2]))


def balls_at(prec):
    """Balls of prec bits, some exact: the operands of one fused loop."""
    return st.one_of(balls(prec=prec), st.tuples(mantissas, exponents).map(
        lambda t: (*old_normalize(t[0], t[1], 0, 0, prec), prec)))


@st.composite
def dots(draw):
    """A start and up to 6 pairs, all of one precision, with the exact unit
    1, whose product the fused loop skips, among the x."""
    prec = draw(precisions)
    x = st.one_of(balls_at(prec), st.just((1, 0, 0, 0, prec)))
    return draw(balls_at(prec)), draw(st.lists(st.tuples(x, balls_at(prec)), max_size=6))


@st.composite
def sweeps(draw):
    """Up to 12 nodes, some exact, and the unit, all of one precision; upto
    below or at the node count."""
    prec = draw(precisions)
    nodes = draw(st.lists(balls_at(prec), max_size=12))
    upto = draw(st.one_of(st.just(len(nodes)), st.integers(0, len(nodes))))
    return nodes, upto, prec


# integers wider than a small precision, and non-dyadic fractions, whose
# enclosures carry a radius
integer_coefficients = st.one_of(st.integers(-2 ** 1200, 2 ** 1200), st.integers(-70, 70))
coefficients = st.one_of(
    integer_coefficients,
    st.fractions(max_denominator=10 ** 40).filter(lambda c: c.denominator & (c.denominator - 1)))


def scaled(t, k):
    """The raw fields of the ball t times 2**k."""
    m, e, r, f, prec = t
    return m, e + k if m else 0, r, f + k if r else 0, prec


# divisors: any ball, an exact one, and one that contains 0
divisors = st.one_of(balls(), exact_balls, exponents.flatmap(lambda e: balls((0, e))))

# non-zero ints and Fractions, dyadic or not, as the other operand
numbers = st.one_of(st.integers(-2 ** 80, 2 ** 80), coefficients).filter(bool)


def quotient(divide, x, y):
    """The raw fields of divide(x, y), or DomainError when y contains 0."""
    try:
        return fields(divide(x, y))
    except DomainError:
        return DomainError


@st.composite
def overlapping_pairs(draw):
    near = (draw(st.integers(-2 ** 80, 2 ** 80)), draw(exponents))
    return draw(balls(near)), draw(balls(near))


@st.composite
def held_or_excluded(draw, prec):
    """A ball of prec bits about 0 as the residual's are: one that holds 0
    (with a zero midpoint now and then) or excludes it, on one grid of
    exponents, or a nudged copy of such a ball, whose ends nearly tie with
    its original's."""
    r, f = draw(st.integers(1, 2 ** 32 - 1)), draw(st.integers(-80, -60))
    m = draw(st.one_of(st.just(0), st.integers(-2 ** 40, 2 ** 40), st.integers(-2 ** 80, 2 ** 80)))
    m, e, r, f = old_normalize(m, f - draw(st.integers(0, 48)), r, f, prec)
    nudge = draw(st.sampled_from([0, 0, 1, -1, 1 << 20]))
    return m + nudge, e, r + (nudge > 1), f, prec


class TestDyadicOracles:
    @given(m=mantissas, e=exponents, r=st.integers(0, 2 ** 80), f=exponents,
           prec=precisions)
    @example(m=17, e=0, r=0, f=0, prec=4)           # an exact tie: rounds up
    @example(m=-17, e=0, r=0, f=0, prec=4)
    @settings(max_examples=300, deadline=None)
    def test_normalize(self, m, e, r, f, prec):
        assert _normalize(m, e, r, f, prec) == old_normalize(m, e, r, f, prec)

    @given(m=mantissas, e=exponents, prec=precisions,
           mode=st.sampled_from(["floor", "ceil"]))
    @example(m=130, e=-10, prec=4, mode="ceil")     # only the top dropped bit is set
    @example(m=-130, e=-10, prec=4, mode="ceil")
    @settings(max_examples=300, deadline=None)
    def test_dy_round(self, m, e, prec, mode):
        assert _dy_quotient(m, 1, e, prec, mode) \
            == old_frac_to_dyadic(Fraction(m) * Fraction(2) ** e, prec, mode)

    @given(n=mantissas, d=st.integers(1, 2 ** 1200), e=exponents, prec=precisions,
           mode=st.sampled_from(["floor", "ceil"]))
    @example(n=3 << 40, d=3 << 7, e=-20, prec=4, mode="ceil")   # gcd 3 * 2**7
    @example(n=-6, d=9, e=5000, prec=8, mode="floor")
    @example(n=5 << 20, d=1 << 30, e=-5000, prec=8, mode="ceil")
    @settings(max_examples=300, deadline=None)
    def test_dy_quotient(self, n, d, e, prec, mode):
        assert _dy_quotient(n, d, e, prec, mode) \
            == old_frac_to_dyadic(Fraction(n, d) * Fraction(2) ** e, prec, mode)
        x = Fraction(n, d)
        assert _dy_quotient(x.numerator, x.denominator, 0, prec, mode) \
            == old_frac_to_dyadic(x, prec, mode)

    @given(x=st.one_of(balls(), exact_balls), y=divisors,
           gap=st.sampled_from([0, 5000, -5000]))
    @example(x=(5, 0, 0, 0, 8), y=(3, 0, 0, 0, 8), gap=0)
    @example(x=(-7, -3, 1, -3, 16), y=(-3, 2, 1, 0, 8), gap=5000)
    @example(x=(7, 0, 9, 0, 16), y=(-3, 0, 1, 0, 64), gap=-5000)
    @example(x=(1, 0, 0, 0, 64), y=(1, 0, 1, 0, 64), gap=0)    # [0, 2] holds 0
    @settings(max_examples=300, deadline=None)
    def test_quotient(self, x, y, gap):
        """Ball by ball, and 1 / ball, field for field with the Fraction
        end quotients; a divisor that holds 0 raises DomainError."""
        a, b = raw_ball(x), raw_ball(scaled(y, gap))
        assert quotient(operator.truediv, a, b) == quotient(fraction_quotient, a, b)
        one = RigorousReal.exact(1, b.precision_bits)
        assert quotient(lambda _, v: 1 / v, a, b) == quotient(fraction_quotient, one, b)

    @given(x=divisors, k=numbers)
    @settings(max_examples=300, deadline=None)
    def test_quotient_with_numbers(self, x, k):
        a = raw_ball(x)
        assert quotient(operator.truediv, a, k) == quotient(fraction_quotient, a, k)
        exact_k = RigorousReal.exact(k, a.precision_bits)
        assert quotient(lambda u, v: v / u, a, k) == quotient(fraction_quotient, exact_k, a)

    @pytest.mark.parametrize("x,y", [((5, 0, 1, -4, 64), (3, 0, 0, 0, 64)),
                                     ((-5, 0, 1, -4, 64), (3, -9, 1, -12, 256)),
                                     ((5, 0, 9, 0, 64), (-3, 0, 1, -4, 128))])
    def test_quotient_builds_no_fraction(self, x, y, monkeypatch):
        from vangeo import scalar

        def no_fraction(*args):
            raise AssertionError("ball division built a Fraction")

        expected = fields(fraction_quotient(raw_ball(x), raw_ball(y)))
        monkeypatch.setattr(scalar, "Fraction", no_fraction)
        assert fields(raw_ball(x) / raw_ball(y)) == expected

    @given(x=balls(), y=balls(), k=st.integers(-10 ** 30, 10 ** 30))
    @settings(max_examples=300, deadline=None)
    def test_add_mul_neg(self, x, y, k):
        a, b = raw_ball(x), raw_ball(y)
        assert fields(a + b) == old_add(x, y)
        assert fields(a * b) == old_mul(x, y)
        assert fields(-a) == (-x[0], *x[1:])
        exact_k = (*old_normalize(k, 0, 0, 0, x[4]), x[4])
        assert fields(RigorousReal.exact(k, x[4])) == exact_k
        assert fields(a + k) == old_add(x, exact_k)
        assert fields(k * a) == old_mul(x, exact_k)

    @given(dot=dots())
    @example(dot=((0, 0, 0, 0, 64), [((5, 3, 1, -2, 64), (7, -4, 1, -9, 64))] * 3))
    @example(dot=((3, -40, 0, 0, 16), [((0, 0, 5, -3, 16), (7, 0, 1, -9, 16)),
                                       ((5, 0, 1, -9, 16), (0, 0, 3, 4, 16))]))
    @example(dot=((3, 200, 1, 170, 8), [((5, 0, 0, 0, 8), (7, 0, 0, 0, 8)),
                                        ((-9, -8, 1, -20, 8), (11, 0, 0, 0, 8))]))
    @example(dot=((1 << 64, 6, 1, 5, 64), [((1 << 64, 6, 1, 5, 64), (3, -1, 0, 0, 64))]))
    # units before carried mantissas and radii
    @example(dot=((-1, 0, 0, 0, 64), [((1, 0, 0, 0, 64), (1 << 64, 6, 1 << 32, 5, 64)),
                                      ((1, 0, 0, 0, 64), (1 << 64, 6, 1, 5, 64)),
                                      ((1, 0, 0, 0, 64), (255, -3, 0, 0, 64))]))
    @settings(max_examples=300, deadline=None)
    def test_ball_dot(self, dot):
        """The fused loop on split fields against the chained fused step it
        replaced (oracles.ball_dot) and the loop of ``*`` and ``+``, over
        balls of one precision, with exact units among the x."""
        start, pairs = dot
        xs, ys = [p[0] for p in pairs], [p[1] for p in pairs]
        expected = old_dot(start, xs, ys)
        assert fields(ball_dot(raw_ball(start), xs, ys)) == expected
        got = _ball_dot(split(start), zip(map(split, xs), map(split, ys)), start[4])
        assert got == (*expected[:4], abs(expected[0])) and expected[4] == start[4]

    @given(step=precisions.flatmap(lambda p: st.tuples(*[balls(prec=p)] * 3)))
    @example(step=((0, 0, 0, 0, 64), (5, 3, 1, -2, 64), (7, -4, 1, -9, 64)))    # exact zero acc
    @example(step=((3, 0, 1, 0, 64), (0, 0, 5, 3, 64), (7, 0, 1, -9, 64)))     # zero in x
    @example(step=((3, 0, 1, 0, 64), (7, 0, 1, -9, 64), (0, 0, 5, 3, 64)))     # zero in y
    @example(step=((3, 0, 1, 0, 64), (5, 0, 0, 0, 64), (7, 0, 0, 0, 64)))      # both radii 0
    @example(step=((3, 100, 1, 90, 64), (5, 0, 1, -10, 64), (7, 0, 1, -12, 64)))  # acc above
    @example(step=((3, -100, 1, -90, 64), (5, 0, 1, -10, 64), (7, 0, 1, -12, 64)))
    @example(step=((3, 0, 1, -90, 8), (255, 0, 1, 10, 8), (255, 0, 1, 12, 8)))   # rounded at p
    @example(step=((1 << 64, 6, 1, 5, 64), (1 << 64, 6, 1, 5, 64),              # carried mantissa
                   (1 << 64, 6, 1, 5, 64)))
    @settings(max_examples=300, deadline=None)
    def test_mul_add(self, step):
        """One step of the fused loop, over balls of one precision."""
        acc, x, y = step
        got = _ball_dot(split(acc), ((split(x), split(y)),), acc[4])
        assert (*got[:4], acc[4]) == old_add(acc, old_mul(x, y))

    def test_mul_add_is_straight_line(self):
        """The fused dot, whose steps are the fused multiply-add, calls none
        of the helpers it writes out."""
        names = set(_ball_dot.__code__.co_names)
        assert not names & {"_dy_add", "_dy_ceil_trim", "_normalize", "abs"}

    @given(sweep=sweeps())
    @settings(max_examples=150, deadline=None)
    def test_ball_sweep(self, sweep):
        """fold_balls, the sweep of the ball inverse, against the generic loop,
        in one fold and in two, the second going on from the first's state."""
        nodes, upto, prec = sweep
        one = RigorousReal.exact(1, prec)
        expected = [(*t[:4], abs(t[0])) for t in
                    map(fields, old_sweep([raw_ball(x) for x in nodes], upto, one))]
        start, half = [_split(one)] + [_split(one * 0)] * upto, len(nodes) // 2
        nodes = [split(x) for x in nodes]
        assert symfunc.fold_balls(start.copy(), nodes, 0, prec) == expected
        assert symfunc.fold_balls(symfunc.fold_balls(start, nodes[:half], 0, prec),
                                  nodes[half:], half, prec) == expected

    @given(coeffs=st.lists(integer_coefficients, max_size=12), x=balls())
    @settings(max_examples=150, deadline=None)
    def test_poly_eval_ball(self, coeffs, x):
        assert fields(poly_eval_ball(coeffs, raw_ball(x))) \
            == fields(old_horner(coeffs, raw_ball(x)))

    @given(pair=st.one_of(overlapping_pairs(), st.tuples(balls(), balls())))
    @settings(max_examples=300, deadline=None)
    def test_intersect(self, pair):
        x, y = pair
        try:
            got = fields(raw_ball(x).intersect(raw_ball(y)))
        except DomainError:
            got = DomainError
        assert got == old_intersect(x, y)

    @given(x=st.one_of(balls(), st.integers(-2 ** 80, 2 ** 80).flatmap(
        lambda c: balls((c, 0))), balls((0, -3))))
    @settings(max_examples=300, deadline=None)
    def test_abs(self, x):
        assert fields(ball_abs(raw_ball(x))) == old_abs(x)

    @given(values=st.one_of(st.lists(balls(), min_size=1, max_size=4),
                            st.lists(exponents.flatmap(lambda e: balls((1, e))),
                                     min_size=1, max_size=4)))
    @example(values=[(3, 0, 1, 0, 16), (1, 0, 1, 0, 1000), (5, 0, 0, 0, 4)])
    @example(values=[(1, 0, 2, 0, 64), (3, 0, 2, 0, 16)])           # a shared upper end
    @settings(max_examples=300, deadline=None)
    def test_hull(self, values):
        """Field for field with the Fraction ends, at mixed precisions, over
        unrelated balls and balls around one point."""
        values = [raw_ball(x) for x in values]
        assert fields(RigorousReal.hull(values)) == fields(fraction_hull(values))

    def test_hull_builds_no_fraction(self, monkeypatch):
        from vangeo import scalar

        def no_fraction(*args):
            raise AssertionError("hull built a Fraction")

        values = [raw_ball(x) for x in ((5, -3, 1, -4, 64), (-9, 7, 3, 0, 16), (1, 0, 0, 0, 256))]
        expected = fields(fraction_hull(values))
        monkeypatch.setattr(scalar, "Fraction", no_fraction)
        assert fields(RigorousReal.hull(values)) == expected

    @given(x=st.one_of(balls(), exact_balls),
           ks=st.lists(st.one_of(st.integers(0, 70), st.integers(0, 5000)), max_size=6))
    @example(x=(1 << 64, 6, 1, 5, 64), ks=[1, 2, 3])      # a carried mantissa
    @example(x=(1 << 8, 0, (1 << 32) - 1, -40, 8), ks=[1, 6])
    @settings(max_examples=200, deadline=None)
    def test_power(self, x, ks):
        """``**`` and _power over one shared chain of squares, field for field
        with binary powering that squares afresh for each power."""
        a, chain = raw_ball(x), [raw_ball(x)]
        for k in ks:
            expected = fields(loop_power(a, k))
            assert fields(a ** k) == expected
            assert fields(_power(chain, k)) == expected
        assert len(chain) == max([1] + [k.bit_length() for k in ks])

    @given(case=st.integers(4, 1100).flatmap(lambda prec: st.tuples(
        st.one_of(st.lists(balls(prec=prec), min_size=1, max_size=6),
                  st.lists(held_or_excluded(prec), min_size=1, max_size=8)), st.just(prec))))
    # of two balls that hold 0, the one with the smaller |m| 2^e + r 2^f has
    # the larger upper end of |x|: an inexact rounding adds half an ulp, which
    # the radius trim carries to the next 32-bit step
    @example(case=([(0, 0, 3557108165, 0, 64), ((1 << 64) - (1 << 30), -64, 3557108164, 0, 64)],
                   64))
    @example(case=([((1 << 64) - (1 << 30), -64, 3557108164, 0, 64), (0, 0, 3557108165, 0, 64),
                    (7, -40, 0, 0, 64)], 64))
    @example(case=([(0, 0, 3557108165, 0, 256),
                    ((1 << 64) - (1 << 30), -64, 3557108164, 0, 256)], 256))
    @settings(max_examples=300, deadline=None)
    def test_max_abs(self, case):
        """The maximum on split fields and the one of rounded balls
        (oracles.max_abs) against the Fraction ends of each |x|, over balls
        of one precision that hold 0 and balls that exclude it, and near ties
        of their ends."""
        values, prec = case
        mags = [ends(old_abs(x)) for x in values]
        expected = old_from_interval(max(max(lo for lo, _ in mags), 0),
                                     max(max(hi for _, hi in mags), 0), prec)
        assert fields(max_abs([raw_ball(x) for x in values], prec)) == expected
        assert fields(_max_abs([split(x) for x in values], prec)) == expected


@st.composite
def balls_about_one(draw):
    """Balls whose lower end is 1 exactly, one unit of 2**e above or below
    it, or anywhere near: the mantissas fit 200 bits and the radii 32, so
    the ends are exact."""
    e = draw(st.integers(-120, 0))
    r = draw(st.one_of(st.just(0), st.integers(0, 2 ** 32 - 1)))
    shift = draw(st.one_of(st.sampled_from([0, 1, -1]), st.integers(-2 ** 40, 2 ** 40)))
    return RigorousReal((1 << -e) + shift + r, e, r, e, 200)    # lower end 1 + shift*2**e


class TestBallDecisions:
    """The library decides "x > 1" and "contains 0" on a ball by its lower
    end and by its sign; the oracles decide them as the former methods did."""

    @given(x=st.one_of(balls_about_one(), balls().map(raw_ball)), n=st.integers(1, 4),
           i=st.integers(0, 3), j=st.integers(0, 3))
    @example(x=RigorousReal(5, -2, 1, -2, 64), n=3, i=1, j=2)      # [1, 3/2]
    @example(x=RigorousReal(1, 0, 1, -1, 64), n=3, i=1, j=2)       # [1/2, 3/2]
    @example(x=RigorousReal(9, -3, 1, -3, 64), n=3, i=1, j=2)      # [1, 5/4]
    @example(x=RigorousReal(3, -1, 0, 0, 64), n=3, i=1, j=2)       # 3/2 exactly
    @settings(max_examples=300, deadline=None)
    def test_sigma_routing_is_certainly_gt_one(self, x, n, i, j):
        assume(x.sign() == 1)
        i, j = i % n, j % n
        points = []
        original = symfunc.sigma_finite

        def recorded(i, j, n, x):
            points.append(x)
            return original(i, j, n, x)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(symfunc, "sigma_finite", recorded)
            symfunc.sigma_finite(i, j, n, x)
        # a query routed through the complement identity asks again at 1/x
        assert len(points) == (2 if certainly_gt(x, 1) else 1)

    @given(fields_=divisors)
    @example(fields_=(0, 0, 0, 0, 64))
    @example(fields_=(0, 0, 1, -70, 64))
    @example(fields_=(1, -70, 1, -70, 64))                      # [0, 2**-69]
    @example(fields_=(-1, -70, 1, -70, 64))                     # [-2**-69, 0]
    @example(fields_=(1, -70, 0, 0, 64))
    @settings(max_examples=200, deadline=None)
    def test_residual_line_is_contains_0(self, fields_):
        residual = raw_ball(fields_)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(vandinv, "residual_norm", lambda gv, inv: residual)
            code, output = cli.run(["inverse", "--base", "tau", "--n", "1"])
        verdict = "contains 0" if contains(residual, 0) else "EXCLUDES 0"
        assert code == 0
        assert output.splitlines()[-1].startswith(f"residual: {verdict}, upper bound ")


class TestBaseSpec:
    def test_parse_rational(self):
        assert BaseSpec.parse("7/5").value == Fraction(7, 5)
        assert BaseSpec.parse("2").value == 2

    def test_parse_decimal_is_exact(self):
        spec = BaseSpec.parse("1.2")
        assert spec.value == Fraction(6, 5)
        assert spec.text == "1.2"

    @pytest.mark.parametrize("text,value,shown", [
        ("7/3", Fraction(7, 3), "7/3"), ("14/6", Fraction(7, 3), "7/3"),
        ("+3/2", Fraction(3, 2), "3/2"), ("2", Fraction(2), "2"),
        (" 1.30 ", Fraction(13, 10), "1.30"), ("1.5", Fraction(3, 2), "1.5"),
        ("tau", None, "tau"), ("alpha", None, "alpha")])
    def test_parse_round_trip(self, text, value, shown):
        """A base's value and text as parsed, and the text parsed again gives
        an equal base."""
        spec = BaseSpec.parse(text)
        assert spec.value == value and type(spec.value) is type(value)
        assert spec.text == shown
        assert spec.is_exact is (value is not None)
        assert BaseSpec.parse(spec.text) == spec
        assert hash(BaseSpec.parse(spec.text)) == hash(spec)

    def test_equality_and_hash(self):
        """Bases are equal when their values and their texts are: a rational
        in lowest terms, a decimal as written, a constant by name."""
        parse = BaseSpec.parse
        same = [(parse("7/3"), BaseSpec.rational(14, 6)), (parse("+3/2"), BaseSpec.rational(3, 2)),
                (parse(" 1.30 "), BaseSpec.decimal("1.30")), (parse("tau"), BaseSpec.constant("tau")),
                (parse("alpha"), parse(" alpha "))]
        for a, b in same:
            assert a == b and hash(a) == hash(b)
        different = [(parse("1.5"), BaseSpec.rational(3, 2)), (parse("1.5"), parse("1.50")),
                     (parse("tau"), parse("alpha")), (parse("7/3"), parse("7/4")),
                     (parse("1.5"), parse("+1.5"))]
        for a, b in different:
            assert a != b
        assert len({a for pair in same + different for a in pair}) == 9

    def test_parse_constants(self):
        assert BaseSpec.parse("tau").minimal_polynomial() == TAU_POLYNOMIAL
        assert BaseSpec.parse("alpha").minimal_polynomial() == ALPHA_POLYNOMIAL

    def test_parse_garbage_raises(self):
        with pytest.raises(ParseError):
            BaseSpec.parse("abc")
        with pytest.raises(ParseError):
            BaseSpec.parse("1.2.3")

    def test_evaluate_base_requires_greater_than_one(self):
        with pytest.raises(DomainError):
            evaluate_base(BaseSpec.parse("1"), 64)
        with pytest.raises(DomainError):
            evaluate_base(BaseSpec.parse("1/2"), 64)

    def test_tau_matches_integer_sqrt_oracle(self):
        ball = evaluate_base(BaseSpec.parse("tau"), 256)
        assert ball.lower <= TAU_HI and TAU_LO <= ball.upper
        assert ball.radius < Fraction(1, 2 ** 200)

    def test_tau_satisfies_its_polynomial(self):
        ball = evaluate_base(BaseSpec.parse("tau"), 256)
        assert contains(poly_eval_ball(TAU_POLYNOMIAL, ball), 0)

    def test_alpha_satisfies_its_polynomial(self):
        ball = evaluate_base(BaseSpec.parse("alpha"), 256)
        assert contains(poly_eval_ball(ALPHA_POLYNOMIAL, ball), 0)

    @pytest.mark.parametrize("bits", [64, 128, 256, 512])
    def test_tau_enclosure_always_contains_truth(self, bits):
        ball = evaluate_base(BaseSpec.parse("tau"), bits)
        assert ball.lower <= TAU_HI and TAU_LO <= ball.upper

    @pytest.mark.parametrize("bits", [16, 17, 63, 64, 256, 257, 1024])
    @pytest.mark.parametrize("name, poly, lo, hi", [("tau", TAU_POLYNOMIAL, 1, 2),
                                                    ("alpha", ALPHA_POLYNOMIAL, 2, 3)])
    def test_constants_match_fraction_bisection(self, name, poly, lo, hi, bits):
        expected = outcome(fraction_bisect, poly, lo, hi, Fraction(1, 1 << bits), bits)
        assert outcome(evaluate_base, BaseSpec.parse(name), bits) == expected

    def test_constant_enclosure_is_shared(self):
        tau = BaseSpec.parse("tau")
        assert evaluate_base(tau, 256) is evaluate_base(tau, 256)
        assert evaluate_base(tau, 257) is not evaluate_base(tau, 256)

    def test_low_precision_refused_on_every_call(self):
        for _ in range(2):
            with pytest.raises(DomainError):
                evaluate_base(BaseSpec.parse("tau"), 15)


class TestRootIsolation:
    def test_alpha_to_nine_decimals(self):
        ball = evaluate_base(BaseSpec.parse("alpha"), 64)
        rounded = round(ball.midpoint, 9)
        assert rounded == Fraction("2.324717957")

    def test_certified_poly_sign(self):
        tau, alpha = BaseSpec.parse("tau"), BaseSpec.parse("alpha")
        assert certified_poly_sign(ALPHA_POLYNOMIAL, tau) == -1
        assert certified_poly_sign(TAU_POLYNOMIAL, alpha) == 1
        assert certified_poly_sign((-7, 0, 1), BaseSpec.parse("3")) == 1

    def test_certified_poly_sign_exact_zeros(self):
        # 9 b^2 - 16 vanishes at 4/3, whose non-dyadic ball straddles 0 at any
        # precision: a rational base is evaluated exactly instead
        assert certified_poly_sign((-16, 0, 9), BaseSpec.parse("4/3")) == 0
        assert certified_poly_sign((-16, 0, 9), BaseSpec.parse("3/2")) == 1
        # a polynomial that the minimal polynomial divides is an exact zero
        assert certified_poly_sign(TAU_POLYNOMIAL, BaseSpec.parse("tau")) == 0
        assert certified_poly_sign(ALPHA_POLYNOMIAL, BaseSpec.parse("alpha")) == 0
        # (b^2 - b - 1)(b^2 + 1) = b^4 - b^3 - b - 1
        assert certified_poly_sign((-1, -1, 0, -1, 1), BaseSpec.parse("tau")) == 0

    def test_certified_poly_sign_requires_base_above_one(self):
        from vangeo.limits import classify_regime
        with pytest.raises(DomainError):
            certified_poly_sign((1,), BaseSpec.parse("1"))
        with pytest.raises(DomainError):
            classify_regime(BaseSpec.parse("1/2"))

    def test_poly_eval(self):
        assert poly_eval((-1, -1, 1), Fraction(3, 2)) == Fraction(-1, 4)


def poly_remainder(dividend, divisor):
    """Oracle: remainder of polynomial division over the rationals, which the
    sign at tau and alpha used before the integer reduction replaced it."""
    den = [Fraction(c) for c in divisor]
    while den and den[-1] == 0:
        den.pop()
    rem = [Fraction(c) for c in dividend]
    dd = len(den) - 1
    lead = den[-1]
    while len(rem) - 1 >= dd and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dd:
            break
        shift = len(rem) - 1 - dd
        factor = rem[-1] / lead
        for k in range(dd + 1):
            rem[shift + k] -= factor * den[k]
        rem.pop()
    return rem


def ball_sign(coeffs, spec, ceiling=1 << 14):
    """Oracle: the sign from balls at doubling precision, the loop that the
    integer tests at tau and alpha replaced.  Fails at the ceiling."""
    modulus = spec.minimal_polynomial()
    remainder = coeffs if len(coeffs) < len(modulus) else poly_remainder(coeffs, modulus)
    # integral, since the modulus is monic: poly_eval_ball takes integers
    remainder = [int(c) for c in remainder]
    if not any(remainder):
        return 0
    precision = 64
    while True:
        sign = poly_eval_ball(remainder, evaluate_base(spec, precision)).sign()
        if sign is not None:
            return sign
        assert precision < ceiling, (coeffs, spec)
        precision *= 2


def reduced(coeffs, spec):
    """The Z[theta] element of the integer coefficients, reduced modulo the
    minimal polynomial."""
    modulus = spec.minimal_polynomial()
    return ZTheta(reduce_monic(coeffs, modulus), modulus)


def old_ztheta_mul(x, y, modulus):
    """Oracle: the Z[theta] product that vandinv's own class computed."""
    d = len(x)
    product = [0] * (2 * d - 1)
    for s, a in enumerate(x):
        for t, b in enumerate(y):
            product[s + t] += a * b
    for top in range(2 * d - 2, d - 1, -1):
        c = product.pop()
        for k in range(d):
            product[top - d + k] -= c * modulus[k]
    return tuple(product)


def trimmed(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


CONSTANTS = {name: BaseSpec.parse(name) for name in ("tau", "alpha")}


def convergents(x: Fraction, limit: int):
    """The continued-fraction convergents (N, D) of x with D < limit."""
    num, previous_num, den, previous_den = 1, 0, 0, 1
    while True:
        a = math.floor(x)
        num, previous_num = a * num + previous_num, num
        den, previous_den = a * den + previous_den, den
        if den >= limit:
            return
        yield num, den
        if x == a:
            return
        x = 1 / (x - a)


@st.composite
def wide_polynomials(draw):
    """Integer coefficients of 3 to 300 bits."""
    bits = draw(st.integers(3, 300))
    return draw(st.lists(st.integers(-(1 << bits), 1 << bits), min_size=1, max_size=7))


@st.composite
def alpha_elements(draw):
    """Z[alpha] elements: coefficients of up to 200 bits, or ones of small
    norm: a unit alpha^k or alpha^(-k), or alpha^j - alpha^h."""
    spec = CONSTANTS["alpha"]
    modulus = spec.minimal_polynomial()
    kind = draw(st.sampled_from(("wide", "power", "inverse power", "difference")))
    if kind == "wide":
        return ZTheta(draw(st.lists(st.integers(-(1 << 200), 1 << 200), min_size=3, max_size=3)),
                      modulus)
    if kind == "difference":
        j, h = draw(st.integers(0, 60)), draw(st.integers(0, 60))
        return at_base((0,) * j + (1,), spec) - at_base((0,) * h + (1,), spec)
    unit = at_base((0, 1) if kind == "power" else modulus[1:], spec)
    return unit ** draw(st.integers(0, 200))


class TestExactSigns:
    @given(st.sampled_from(sorted(CONSTANTS)), wide_polynomials())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_ball_loop(self, name, coeffs):
        sign = ball_sign(coeffs, CONSTANTS[name])
        assert certified_poly_sign(coeffs, CONSTANTS[name]) == sign
        assert reduced(coeffs, CONSTANTS[name]).sign() == sign

    def test_near_zero_at_tau(self):
        # F_(k+1) - F_k tau = (-1/tau)^k: |value| = tau^-k, about 2^-200 at k = 289
        tau, f, g = CONSTANTS["tau"], 0, 1          # F_k, F_(k+1)
        for k in range(290):
            for shift in (-1, 0, 1):
                coeffs = (g + shift, -f)
                sign = certified_poly_sign(coeffs, tau)
                assert sign == ball_sign(coeffs, tau), (k, shift)
                assert reduced(coeffs, tau).sign() == sign, (k, shift)
                if shift == 0:
                    assert sign == (-1) ** k
            f, g = g, f + g

    def test_near_zero_at_alpha(self):
        # alpha^-k is a unit whose coefficients grow while its value shrinks
        alpha = CONSTANTS["alpha"]
        modulus = alpha.minimal_polynomial()
        inverse = power = ZTheta(modulus[1:], modulus)
        for k in range(1, 200):
            x = power.coefficients
            for shift, expected in ((0, 1), (1, 1), (-1, -1)):
                coeffs = (x[0] + shift,) + x[1:]
                assert certified_poly_sign(coeffs, alpha) == ball_sign(coeffs, alpha) \
                    == reduced(coeffs, alpha).sign() == expected, (k, shift)
            power = power * inverse

    def test_alpha_filter_at_its_bounds(self):
        # x = D alpha^k - N for the convergents N/D of alpha^k (k = 1, 2):
        # |2^64 x(alpha)| < 1/D, far below the D that a bound of alpha^k 2^64
        # one unit off would shift the filter's sums by, once D > 2^32
        low1, high1, low2, high2 = _alpha_bounds()      # floors and ceilings
        assert high1 - low1 == high2 - low2 == 1
        alpha = CONSTANTS["alpha"]
        end = evaluate_base(alpha, 512).lower
        for k in (1, 2):
            pairs = list(convergents(end ** k, 1 << 100))
            assert sum(den > 1 << 40 for _, den in pairs) > 10
            for num, den in pairs:
                coeffs = (-num,) + (0,) * (k - 1) + (den,)
                x, sign = reduced(coeffs, alpha), ball_sign(coeffs, alpha)
                assert x.sign() == sign and (x * -1).sign() == -sign, (k, num, den)

    @pytest.mark.parametrize("name", sorted(CONSTANTS))
    def test_tiny_units_fall_back_to_the_norm(self, name, monkeypatch):
        # theta^(-m) has a value near theta^(-m) and coefficients that grow with
        # m, so at alpha the filter decides small m and the norm the rest
        modulus = CONSTANTS[name].minimal_polynomial()
        norms = []
        adjugate = ZTheta._adjugate
        monkeypatch.setattr(ZTheta, "_adjugate", lambda x: norms.append(x) or adjugate(x))
        inverse = ZTheta(modulus[1:], modulus)
        power, fallbacks = inverse ** 0, set()
        for m in range(121):
            before = len(norms)
            assert power.sign() == 1 and (power * -1).sign() == -1, (name, m)
            if len(norms) > before:
                fallbacks.add(m)
            power = power * inverse
        if name == "alpha":
            assert set(range(60, 121)) <= fallbacks and not fallbacks & set(range(20))
        else:
            assert not fallbacks

    @pytest.mark.parametrize("name", sorted(CONSTANTS))
    def test_exact_zero(self, name):
        # identities whose two sides are built by different products
        modulus = CONSTANTS[name].minimal_polynomial()
        theta, inverse = ZTheta((0, 1) + (0,) * (len(modulus) - 3), modulus), \
            ZTheta(modulus[1:], modulus)
        one = theta ** 0
        assert ((theta ** 6 - one) - (theta ** 3 - one) * (theta ** 3 + one)).sign() == 0
        assert (theta ** 50 * inverse ** 50 - one).sign() == 0

    @given(alpha_elements())
    @example(ZTheta((0, 0, 0), ALPHA_POLYNOMIAL))
    @settings(max_examples=400, deadline=None)
    def test_alpha_sign_matches_the_reduced_determinant(self, x):
        assert x.sign() == reduced_norm_sign(x)
        assert (x * -1).sign() == -reduced_norm_sign(x)

    @given(st.sampled_from(sorted(CONSTANTS)),
           st.lists(st.integers(-(1 << 80), 1 << 80), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_reduction_matches_poly_remainder(self, name, coeffs):
        modulus = CONSTANTS[name].minimal_polynomial()
        assert trimmed(reduce_monic(coeffs, modulus)) == trimmed(poly_remainder(coeffs, modulus))

    @given(st.sampled_from(sorted(CONSTANTS)), st.data())
    @settings(max_examples=200, deadline=None)
    def test_product_matches_the_old_multiply(self, name, data):
        modulus = CONSTANTS[name].minimal_polynomial()
        element = st.lists(st.integers(-(1 << 200), 1 << 200),
                           min_size=len(modulus) - 1, max_size=len(modulus) - 1)
        x, y = data.draw(element), data.draw(element)
        assert (ZTheta(x, modulus) * ZTheta(y, modulus)).coefficients \
            == old_ztheta_mul(x, y, modulus)

    @given(st.sampled_from(sorted(CONSTANTS)), st.data())
    @settings(max_examples=200, deadline=None)
    def test_exact_quotient_of_a_product(self, name, data):
        modulus = CONSTANTS[name].minimal_polynomial()
        element = st.lists(st.integers(-(1 << 200), 1 << 200),
                           min_size=len(modulus) - 1, max_size=len(modulus) - 1)
        x, y = ZTheta(data.draw(element), modulus), ZTheta(data.draw(element), modulus)
        assume(any(y.coefficients))
        adjugate, norm = y._adjugate()
        assert (y * adjugate).coefficients == (norm,) + (0,) * (len(modulus) - 2)
        assert ((x * y) // y).coefficients == x.coefficients

    @pytest.mark.parametrize("name", sorted(CONSTANTS))
    def test_a_remainder_raises(self, name):
        modulus = CONSTANTS[name].minimal_polynomial()
        theta = ZTheta((0, 1) + (0,) * (len(modulus) - 3), modulus)
        one = theta ** 0
        with pytest.raises(ArithmeticError):
            one // (one * 2)
        with pytest.raises(ArithmeticError):
            (theta ** 6 - one) // (theta ** 4 - one)
        assert ((theta ** 6 - one) // (theta ** 3 - one)).coefficients \
            == (theta ** 3 + one).coefficients

    @pytest.mark.parametrize("name,argmax,regime", [
        ("tau", [2], ("between_tau_alpha", True)),
        ("alpha", [0, 2], ("above_alpha", True)),
    ])
    def test_signs_build_no_ball(self, name, argmax, regime, monkeypatch):
        from vangeo import scalar
        from vangeo.extremal import n_zero, verify_argmax_box
        from vangeo.limits import _argmax, _closed_form, classify_regime
        from vangeo.vandinv import ColumnForm, GeometricVandermonde

        def no_ball(*args):
            raise AssertionError("a sign evaluated the base")

        base = CONSTANTS[name]
        monkeypatch.setattr(scalar, "evaluate_base", no_ball)
        # printing the maximum is the one ball a report builds
        monkeypatch.setattr(ColumnForm, "value", lambda self, num, pi, bits: None)
        assert certified_poly_sign((-5, 0, 0, 1), base) == (-1 if name == "tau" else 1)
        top = n_zero(base)
        forms = [_closed_form(i, j) for j in range(top + 1) for i in range(j + 1)]
        assert _argmax(forms, base) == argmax
        assert classify_regime(base) == regime
        assert verify_argmax_box(GeometricVandermonde(base, 12)).passed


@st.composite
def theta_elements(draw):
    """(name, x): a Z[theta] element at tau or alpha, with coefficients of up
    to 200 bits, or theta^j - theta^h, a factor of pi_{j,n} before abs."""
    name = draw(st.sampled_from(sorted(CONSTANTS)))
    spec = CONSTANTS[name]
    if draw(st.booleans()):
        j, h = draw(st.integers(0, 40)), draw(st.integers(0, 40))
        return name, at_base((0,) * j + (1,), spec) - at_base((0,) * h + (1,), spec)
    modulus = spec.minimal_polynomial()
    coeffs = draw(st.lists(st.integers(-(1 << 200), 1 << 200),
                           min_size=len(modulus) - 1, max_size=len(modulus) - 1))
    return name, ZTheta(coeffs, modulus)


class TestZThetaRing:
    """``**`` and ``abs`` of ZTheta, which the ring-generic helpers use."""

    @given(st.sampled_from(sorted(CONSTANTS)), st.integers(0, 80))
    @example("tau", 0)
    @example("alpha", 0)
    @settings(max_examples=100, deadline=None)
    def test_power_of_theta_matches_powers(self, name, k):
        theta = at_base((0, 1), CONSTANTS[name])
        assert (theta ** k).coefficients == powers(theta, k + 1)[-1].coefficients

    @given(theta_elements())
    @settings(max_examples=100, deadline=None)
    def test_power_is_a_repeated_product(self, case):
        # binary powering against one product per unit of the exponent
        name, x = case
        product = at_base((1,), CONSTANTS[name])
        for k in range(65):
            assert (x ** k).coefficients == product.coefficients, (name, k)
            product = product * x

    @pytest.mark.parametrize("name", sorted(CONSTANTS))
    def test_negative_exponents_are_refused(self, name):
        with pytest.raises(TypeError):
            at_base((0, 1), CONSTANTS[name]) ** -1


@st.composite
def printed_rationals(draw):
    """Signed rationals for the printers: magnitudes in [10^-60, 10^60],
    zero, exact powers of ten and their neighbours, and values whose next
    digit is exactly 5 (the round-half case) at some width up to 80."""
    kind = draw(st.sampled_from(("any", "zero", "power", "half")))
    if kind == "zero":
        return Fraction(0)
    if kind == "any":
        x = draw(st.fractions(min_value=Fraction(1, 10 ** 60), max_value=10 ** 60))
        assume(x > 0)
    elif kind == "power":
        x = Fraction(10) ** draw(st.integers(-60, 60))
        x += draw(st.sampled_from((0, 1, -1))) * x / 10 ** draw(st.integers(1, 85))
    else:
        width = draw(st.integers(1, 80))
        mantissa = draw(st.integers(10 ** (width - 1), 10 ** width - 1))
        x = (10 * mantissa + 5) * Fraction(10) ** draw(st.integers(-60 - width, 60 - width))
    return -x if draw(st.booleans()) else x


class TestPrinting:
    @pytest.mark.parametrize("value,digits,expected", [
        (Fraction(1, 3), 5, "0.33333"),
        (Fraction(2, 3), 5, "0.66667"),
        (Fraction(19999, 10000), 4, "2.000"),
        (Fraction(-1, 8), 3, "-0.125"),
        (Fraction(4223498, 10), 7, "422349.8"),
        (Fraction(0), 5, "0.0000"),
        (Fraction(95, 10), 1, "10"),
    ])
    def test_fraction_to_decimal(self, value, digits, expected):
        assert fraction_to_decimal(value, digits) == expected

    def test_fraction_to_sci_rounds_up(self):
        assert fraction_to_sci(Fraction(1, 3)) == "3.34e-01"
        assert fraction_to_sci(Fraction(0)) == "0"

    @given(x=st.fractions(min_value=Fraction(1, 10 ** 60), max_value=10 ** 60),
           digits=st.integers(1, 40))
    @example(x=Fraction(1), digits=1)
    @settings(max_examples=300, deadline=None)
    def test_rounded_digits_match_fraction_powers(self, x, digits):
        """The printers' decimal exponent floor(log10 x), guessed from bit
        lengths and confirmed by the scaled integer part, against the
        Fraction-power loop."""
        assume(x > 0)
        assert fraction_to_sci(x) == fraction_power_sci(x, 3)
        assert fraction_to_decimal(x, digits) == fraction_power_decimal(x, digits)

    @pytest.mark.parametrize("k", [-5000, -4301, -45, -20, -3, -1, 0, 1, 2, 7, 30, 61,
                                   4301, 5000])
    def test_rounded_digits_at_powers_of_ten(self, k):
        """The printers' decimal exponent floor(log10 x) at and next to 10^k,
        where it changes."""
        for x in (Fraction(10) ** k, Fraction(10) ** k + 1, Fraction(10) ** k - 1,
                  Fraction(10 ** abs(k) + 1, 10 ** abs(k)) * Fraction(10) ** k,
                  Fraction(10 ** abs(k) - 1, 10 ** abs(k)) * Fraction(10) ** k):
            if x > 0:
                assert fraction_to_sci(x) == fraction_power_sci(x, 3)
                for digits in (1, 3, 20):
                    assert fraction_to_decimal(x, digits) == fraction_power_decimal(x, digits)

    @given(x=printed_rationals(), digits=st.integers(1, 80))
    @example(x=Fraction(0), digits=1)
    @example(x=Fraction(-5, 100), digits=1)
    @example(x=Fraction(995, 1000), digits=2)
    @example(x=Fraction(10) ** 60, digits=80)
    @example(x=Fraction(1, 10 ** 60), digits=80)
    @settings(max_examples=500, deadline=None)
    def test_integer_scaling_matches_fraction_powers(self, x, digits):
        assert fraction_to_decimal(x, digits) == fraction_power_decimal(x, digits)
        assert fraction_to_sci(x) == fraction_power_sci(x, 3)

    def test_past_the_int_to_str_digit_limit(self):
        # more than the interpreter's 4300 digits in the denominator, then
        # in the numerator: the printers convert no such integer to a string
        x = Fraction(1, 3 * 10 ** 4400)
        assert fraction_to_decimal(x, 5) == "0." + "0" * 4400 + "33333"
        assert fraction_to_sci(x) == "3.34e-4401"
        assert fraction_to_decimal(1 / x, 5) == "3" + "0" * 4400
        assert fraction_to_sci(1 / x) == "3.00e+4400"

    def test_sci_never_understates(self):
        for num, den in [(1, 3), (2, 7), (355, 113), (1, 10 ** 40)]:
            text = fraction_to_sci(Fraction(num, den))
            mantissa, exp = text.split("e")
            assert Fraction(mantissa) * Fraction(10) ** int(exp) >= Fraction(num, den)


class TestPrecisionCeiling:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(PRECISION_CEILING_ENV, raising=False)
        assert resolve_precision_ceiling() == DEFAULT_PRECISION_CEILING

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(PRECISION_CEILING_ENV, "8192")
        assert resolve_precision_ceiling() == 8192

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(PRECISION_CEILING_ENV, "8192")
        assert resolve_precision_ceiling(2048) == 2048

    def test_invalid_rejected(self, monkeypatch):
        monkeypatch.delenv(PRECISION_CEILING_ENV, raising=False)
        with pytest.raises(DomainError):
            resolve_precision_ceiling(8)
