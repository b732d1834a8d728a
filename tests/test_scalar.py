"""Arithmetic substrate: enclosures, base parsing, root isolation, printing."""

import math
import os
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vangeo.errors import BracketError, DomainError, ParseError
from vangeo.scalar import (ALPHA_POLYNOMIAL, DEFAULT_PRECISION_CEILING,
                           PRECISION_CEILING_ENV, TAU_POLYNOMIAL, BaseSpec,
                           RigorousReal, bisect_root, certified_poly_sign,
                           evaluate_base, fraction_to_decimal, fraction_to_sci,
                           poly_eval, poly_eval_ball,
                           resolve_precision_ceiling)

# √5 to ~600 bits via integer square root, as a two-sided rational bracket.
_S = math.isqrt(5 << 1200)
SQRT5_LO = Fraction(_S, 1 << 600)
SQRT5_HI = Fraction(_S + 1, 1 << 600)
TAU_LO = (1 + SQRT5_LO) / 2
TAU_HI = (1 + SQRT5_HI) / 2

fractions_st = st.fractions(min_value=-100, max_value=100, max_denominator=1000)


def fraction_bisect(coeffs, lo, hi, tol, precision_bits=None):
    """Oracle: bisection with a Fraction evaluation per step, the loop that
    bisect_root's integer grid replaced."""
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
        y = abs(x)
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
        assert a.certainly_lt(b) and b.certainly_gt(a)
        assert not a.overlaps(b)
        assert a.overlaps(RigorousReal.from_interval(Fraction(1, 2), 4, 64))

    def test_sign(self):
        assert RigorousReal.from_interval(1, 2, 64).sign() == 1
        assert RigorousReal.from_interval(-2, -1, 64).sign() == -1
        assert RigorousReal.exact(0, 64).sign() == 0
        assert RigorousReal.from_interval(-1, 1, 64).sign() is None

    def test_pow_negative_exponent(self):
        x = RigorousReal.exact(2, 128)
        assert (x ** -3).contains(Fraction(1, 8))

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
        assert (xa + xb).contains(a + b)
        assert (xa - xb).contains(a - b)
        assert (xa * xb).contains(a * b)
        if b != 0 and xb.sign() is not None and xb.sign() != 0:
            assert (xa / xb).contains(Fraction(a, b))

    @given(a=fractions_st, k=st.integers(min_value=0, max_value=12))
    @settings(max_examples=100, deadline=None)
    def test_pow_contains_exact_result(self, a, k):
        xa = RigorousReal.exact(a, 96)
        assert (xa ** k).contains(a ** k)

    @given(values=st.lists(fractions_st, min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_hull_contains_all(self, values):
        balls = [RigorousReal.exact(v, 64) for v in values]
        h = RigorousReal.hull(balls)
        assert all(h.contains(v) for v in values)


class TestBaseSpec:
    def test_parse_rational(self):
        assert BaseSpec.parse("7/5").exact_value() == Fraction(7, 5)
        assert BaseSpec.parse("2").exact_value() == 2

    def test_parse_decimal_is_exact(self):
        spec = BaseSpec.parse("1.2")
        assert spec.exact_value() == Fraction(6, 5)
        assert spec.display() == "1.2"

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
        assert poly_eval_ball(TAU_POLYNOMIAL, ball).contains(0)

    def test_alpha_satisfies_its_polynomial(self):
        ball = evaluate_base(BaseSpec.parse("alpha"), 256)
        assert poly_eval_ball(ALPHA_POLYNOMIAL, ball).contains(0)

    @pytest.mark.parametrize("bits", [64, 128, 256, 512])
    def test_tau_enclosure_always_contains_truth(self, bits):
        ball = evaluate_base(BaseSpec.parse("tau"), bits)
        assert ball.lower <= TAU_HI and TAU_LO <= ball.upper

    @pytest.mark.parametrize("bits", [16, 17, 63, 64, 256, 257, 1024])
    @pytest.mark.parametrize("name, poly, lo, hi", [("tau", TAU_POLYNOMIAL, 1, 2),
                                                    ("alpha", ALPHA_POLYNOMIAL, 2, 3)])
    def test_constants_match_fraction_bisection(self, name, poly, lo, hi, bits):
        expected = outcome(fraction_bisect, poly, lo, hi, Fraction(1, 1 << bits), bits)
        assert outcome(bisect_root, poly, lo, hi, Fraction(1, 1 << bits), bits) == expected
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
    def test_sqrt2(self):
        s = math.isqrt(2 << 400)
        lo, hi = Fraction(s, 1 << 200), Fraction(s + 1, 1 << 200)
        ball = bisect_root((-2, 0, 1), 1, 2, Fraction(1, 10 ** 30))
        assert ball.lower <= hi and lo <= ball.upper
        assert ball.radius <= Fraction(1, 10 ** 30)

    def test_root_at_endpoint(self):
        ball = bisect_root((-2, 1), 2, 3, Fraction(1, 10 ** 6))
        assert ball.is_exact and ball.midpoint == 2

    def test_no_sign_change_raises(self):
        with pytest.raises(BracketError):
            bisect_root((1, 0, 1), 0, 1, Fraction(1, 100))

    def test_alpha_to_nine_decimals(self):
        ball = bisect_root(ALPHA_POLYNOMIAL, 2, 3, Fraction(1, 10 ** 12))
        rounded = round(ball.midpoint, 9)
        assert rounded == Fraction("2.324717957")

    def test_certified_poly_sign(self):
        tau, alpha = BaseSpec.parse("tau"), BaseSpec.parse("alpha")
        assert certified_poly_sign(ALPHA_POLYNOMIAL, tau, 4096) == -1
        assert certified_poly_sign(TAU_POLYNOMIAL, alpha, 4096) == 1
        assert certified_poly_sign((-7, 0, 1), BaseSpec.parse("3"), 4096) == 1

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

    @given(st.integers(min_value=2, max_value=50))
    @settings(max_examples=30, deadline=None)
    def test_square_roots_property(self, k):
        if math.isqrt(k) ** 2 == k:
            return
        ball = bisect_root((-k, 0, 1), 0, k, Fraction(1, 10 ** 12))
        assert ball.lower ** 2 <= k <= ball.upper ** 2

    @given(st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=12),
                    min_size=2, max_size=5),
           st.fractions(min_value=-10, max_value=10, max_denominator=9),
           st.fractions(min_value=Fraction(1, 9), max_value=20, max_denominator=9),
           st.fractions(min_value=0, max_value=1, max_denominator=64),
           st.fractions(min_value=-1, max_value=1, max_denominator=100),
           st.fractions(min_value=Fraction(1, 10 ** 30), max_value=4,
                        max_denominator=10 ** 30))
    @example([-2, 1], 2, 1, 0, 0, Fraction(1, 10 ** 6))         # root at lo
    @example([0, 0, 1], 0, 16, Fraction(1, 4), 0, Fraction(1, 10 ** 12))   # x^2 - 16
    @example([0, 0, 1], 0, 9, Fraction(1, 3), 0, Fraction(1, 10 ** 12))    # x^2 - 9
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_bisection(self, coeffs, lo, width, at, shift, tol):
        # the constant term plants a root at lo + at*width, moved by shift; a
        # shift of 0 keeps it rational, a grid point when at is dyadic
        coeffs = list(coeffs)
        coeffs[0] += shift - poly_eval(coeffs, lo + at * width)
        assert outcome(bisect_root, coeffs, lo, lo + width, tol) == \
            outcome(fraction_bisect, coeffs, lo, lo + width, tol)

    def test_poly_eval(self):
        assert poly_eval((-1, -1, 1), Fraction(3, 2)) == Fraction(-1, 4)


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
        assert fraction_to_sci(Fraction(1, 3), 2) == "3.4e-01"
        assert fraction_to_sci(Fraction(0), 2) == "0"

    def test_sci_never_understates(self):
        for num, den in [(1, 3), (2, 7), (355, 113), (1, 10 ** 40)]:
            text = fraction_to_sci(Fraction(num, den), 3)
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
