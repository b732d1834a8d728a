"""Power sums sigma_{i,j,n}(x): recurrence vs. brute force, identities."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import contains, overlaps, sigma_bruteforce, sigma_complement_pair
from vangeo.errors import DomainError, SizeError
from vangeo.scalar import BaseSpec, RigorousReal, at_base, evaluate_base, poly_eval_ball
from vangeo.symfunc import elementary_symmetric, sigma_finite

SRC = Path(__file__).resolve().parent.parent / "src"

RATIONAL_GRID = [Fraction(2), Fraction(3), Fraction(3, 2), Fraction(1, 2),
                 Fraction(7, 5)]


class TestFrozenValues:
    """Hand-checked small cases."""

    @pytest.mark.parametrize("i,j,n,x,expected", [
        # empty tuple convention
        (0, 0, 5, 2, 1),
        (0, 2, 7, 5, 1),
        # subsets of {0,2,3} of size 2 at x=2: 2^2 + 2^3 + 2^5
        (2, 1, 4, 2, 44),
        # i = n-1 takes all remaining exponents: x^(0+1+...+(n-1) - j)
        (3, 1, 4, 2, 32),
        (3, 2, 4, 2, 2 ** (6 - 2)),
        # x = 1 counts subsets
        (2, 0, 4, 1, 3),
        (2, 0, 5, 1, math.comb(4, 2)),
        # hand enumerations
        (1, 0, 3, 3, 12),
        (1, 0, 3, 2, 6),
        (2, 1, 5, 2, 252),
        (1, 1, 4, Fraction(1, 2), Fraction(1) + Fraction(1, 4) + Fraction(1, 8)),
    ])
    def test_values(self, i, j, n, x, expected):
        assert sigma_finite(i, j, n, x) == expected

    def test_bruteforce_agrees_on_frozen_case(self):
        q = (2, 3, 5, 2)     # exponents {0,1,2,4}
        # pairs: 0+1,0+2,0+4,1+2,1+4,2+4 -> 2+4+16+8+32+64 = 126
        assert sigma_finite(*q) == 126
        assert sigma_bruteforce(*q) == 126


class TestValidation:
    def test_bad_indices(self):
        with pytest.raises(DomainError):
            sigma_finite(-1, 0, 3, 2)
        with pytest.raises(DomainError):
            sigma_finite(0, 3, 3, 2)
        with pytest.raises(DomainError):
            sigma_finite(3, 0, 3, 2)
        with pytest.raises(DomainError):
            sigma_finite(0, 0, 0, 2)

    def test_nonpositive_x(self):
        with pytest.raises(DomainError):
            sigma_finite(1, 0, 3, 0)
        with pytest.raises(DomainError):
            sigma_finite(1, 0, 3, Fraction(-1, 2))

    def test_ambiguous_sign_ball_rejected(self):
        straddle = RigorousReal.from_interval(-1, 1, 64)
        with pytest.raises(DomainError):
            sigma_finite(1, 0, 3, straddle)

    def test_bruteforce_size_guard(self):
        with pytest.raises(SizeError):
            sigma_bruteforce(10, 0, 25, 2)


class TestOracle:
    def test_recurrence_equals_bruteforce_full_grid(self):
        for x in RATIONAL_GRID:
            for n in range(1, 11):
                for j in range(n):
                    for i in range(n):
                        q = (i, j, n, x)
                        assert sigma_finite(*q) == sigma_bruteforce(*q), (i, j, n, x)

    def test_counting_specialization(self):
        for n in range(1, 13):
            for j in range(n):
                for i in range(n):
                    assert sigma_finite(i, j, n, 1) == math.comb(n - 1, i)

    @given(st.integers(min_value=1, max_value=9), st.data())
    @settings(max_examples=60, deadline=None)
    def test_recurrence_equals_bruteforce_random_rational(self, n, data):
        i = data.draw(st.integers(min_value=0, max_value=n - 1))
        j = data.draw(st.integers(min_value=0, max_value=n - 1))
        x = data.draw(st.fractions(min_value=Fraction(1, 20), max_value=20,
                                   max_denominator=50))
        q = (i, j, n, x)
        assert sigma_finite(*q) == sigma_bruteforce(*q)


class TestElementarySymmetric:
    def test_small(self):
        # e_k of {2, 3, 5}
        assert elementary_symmetric([2, 3, 5], 3, 1) == [1, 10, 31, 30]

    def test_truncation(self):
        assert elementary_symmetric([2, 3, 5], 1, 1) == [1, 10]

    @given(st.lists(st.integers(min_value=-5, max_value=5), min_size=0, max_size=7))
    @settings(max_examples=60, deadline=None)
    def test_matches_polynomial_expansion(self, values):
        # prod (1 + v*t) has coefficient e_k at t^k
        coeffs = [1]
        for v in values:
            coeffs = [c + (coeffs[k - 1] * v if k else 0)
                      for k, c in enumerate(coeffs)] + [coeffs[-1] * v]
        e = elementary_symmetric(values, len(values), 1)
        assert e == coeffs[:len(values) + 1]

    def test_ball_unit_with_int_and_fraction_values(self):
        # the generic recurrence coerces a non-ball value through RigorousReal.__rmul__
        values = [2, Fraction(1, 3), RigorousReal.exact(5, 64)]
        e = elementary_symmetric(values, 3, RigorousReal.exact(1, 64))
        assert all(isinstance(t, RigorousReal) for t in e)
        for t, exact in zip(e, [1, Fraction(22, 3), Fraction(37, 3), Fraction(10, 3)]):
            assert contains(t, exact)


class TestStructure:
    def test_j_monotonicity_both_directions(self):
        """Swapping the omitted index j for j+1 trades exponent j for j+1 in
        the ground set, which raises every term when x > 1 and lowers it
        when x < 1."""
        for x, increasing in [(Fraction(2), True), (Fraction(7, 5), True),
                              (Fraction(1, 2), False), (Fraction(5, 7), False)]:
            for n in range(2, 9):
                for i in range(n):
                    vals = [sigma_finite(i, j, n, x) for j in range(n)]
                    for j in range(n - 1):
                        if increasing:
                            assert vals[j] >= vals[j + 1], (x, n, i, j)
                        else:
                            assert vals[j] <= vals[j + 1], (x, n, i, j)

    def test_complement_pair_frozen_cases(self):
        assert sigma_complement_pair(0, 0, 2, Fraction(2)) == (1, 1)
        lhs, rhs = sigma_complement_pair(1, 1, 4, Fraction(2))
        assert lhs == rhs == Fraction(11, 8)

    def test_complement_identity_exact(self):
        for b in [Fraction(2), Fraction(3, 2), Fraction(6, 5)]:
            for n in range(1, 11):
                for j in range(n):
                    for i in range(n):
                        lhs, rhs = sigma_complement_pair(i, j, n, b)
                        assert lhs == rhs, (b, n, i, j)

    def test_complement_identity_rigorous_overlap(self):
        b = RigorousReal.exact(Fraction(8, 5), 128)
        for n in range(1, 7):
            for j in range(n):
                for i in range(n):
                    lhs, rhs = sigma_complement_pair(i, j, n, b)
                    assert overlaps(lhs, rhs)

    def test_positivity(self):
        for n in range(1, 8):
            for j in range(n):
                for i in range(n):
                    assert sigma_finite(i, j, n, Fraction(7, 5)) > 0

    def test_ball_encloses_exact(self):
        x = Fraction(7, 5)
        ball_x = RigorousReal.exact(x, 128)
        for n in range(1, 9):
            for j in range(n):
                for i in range(n):
                    exact = sigma_finite(i, j, n, x)
                    ball = sigma_finite(i, j, n, ball_x)
                    assert contains(ball, exact), (i, j, n)


class TestOverZTheta:
    """sigma_finite at theta and theta^(-1) in Z[theta], as verify's
    complement check at tau and alpha evaluates it."""

    @pytest.mark.parametrize("name", ["tau", "alpha"])
    def test_matches_bruteforce_and_the_balls(self, name):
        spec = BaseSpec.parse(name)
        theta_ball = evaluate_base(spec, 128)
        points = ((at_base((0, 1), spec), theta_ball),
                  (at_base(spec.minimal_polynomial()[1:], spec), 1 / theta_ball))
        for x, x_ball in points:
            for n in range(1, 9):
                for j in range(n):
                    for i in range(n):
                        q = (i, j, n, x)
                        value = sigma_finite(*q)
                        assert value.coefficients == sigma_bruteforce(*q).coefficients
                        ball = sigma_finite(i, j, n, x_ball)
                        assert overlaps(poly_eval_ball(value.coefficients, theta_ball), ball), \
                            (name, i, j, n)

    @pytest.mark.parametrize("name", ["tau", "alpha"])
    def test_query_signs_the_point_exactly(self, name):
        spec = BaseSpec.parse(name)
        with pytest.raises(DomainError):
            sigma_finite(0, 0, 2, at_base((1, -1), spec))       # 1 - theta < 0
        with pytest.raises(DomainError):
            sigma_finite(0, 0, 2, at_base((0,), spec))

    def test_rejected_point_is_named_by_its_coefficients(self):
        # the message names the ZTheta by its value, not by an address that
        # changes from run to run
        script = ("from vangeo.scalar import BaseSpec, at_base\n"
                  "from vangeo.symfunc import sigma_finite\n"
                  "try:\n"
                  "    sigma_finite(0, 0, 2, at_base((1, -1), BaseSpec.parse('tau')))\n"
                  "except ValueError as exc:\n"
                  "    print(type(exc).__name__, exc)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        runs = [subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                               env=env, timeout=60).stdout for _ in range(2)]
        assert runs[0] == runs[1] == ("DomainError x must be certifiably positive, "
                                      "got ZTheta((1, -1), (-1, -1, 1))\n")
        assert "object at 0x" not in runs[0]
