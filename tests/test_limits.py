"""Entry limits: infinite power sums, Euler-type products, regimes."""

import json
from fractions import Fraction

import pytest

from vangeo.errors import DomainError
from vangeo.limits import (base2_product_identity, classify_regime,
                           crossover_values, finite_j_product,
                           inverse_q_product, limit_entry, limit_max,
                           sigma_infinite)
from vangeo.scalar import BaseSpec, evaluate_base
from vangeo.symfunc import SigmaQuery, sigma_finite

TOL15 = Fraction(1, 10 ** 15)
TOL20 = Fraction(1, 10 ** 20)


def assert_matches_printed(ball, literal: str):
    """The enclosure must agree with a printed decimal to half a last-digit unit."""
    frac_digits = len(literal.split(".")[1])
    half_ulp = Fraction(1, 2 * 10 ** frac_digits)
    assert abs(ball.midpoint - Fraction(literal)) <= half_ulp + ball.radius


class TestSigmaInfinite:
    def test_empty_subset(self):
        assert sigma_infinite(0, 0, Fraction(1, 2), TOL15).contains(1)
        assert sigma_infinite(0, 5, Fraction(1, 3), TOL15).contains(1)

    def test_geometric_series_cases(self):
        # i=1, j=0: sum_{h>=1} 2^-h = 1
        ball = sigma_infinite(1, 0, Fraction(1, 2), TOL20)
        assert abs(ball.midpoint - 1) <= ball.radius + TOL20
        # i=1, j=1: 1 + sum_{h>=2} 2^-h = 3/2
        ball = sigma_infinite(1, 1, Fraction(1, 2), TOL20)
        assert abs(ball.midpoint - Fraction(3, 2)) <= ball.radius + TOL20

    def test_tolerance_honored(self):
        for tol in [Fraction(1, 10 ** 6), TOL15, Fraction(1, 10 ** 30)]:
            ball = sigma_infinite(3, 2, Fraction(5, 7), tol)
            assert ball.radius <= tol

    def test_finite_n_convergence_oracle(self):
        # sigma_{2,1,n}(1/2) increases to sigma_{2,1,inf}(1/2); n=60 is within 2^-50
        inf = sigma_infinite(2, 1, Fraction(1, 2), TOL20)
        fin = sigma_finite(SigmaQuery(2, 1, 60, Fraction(1, 2)))
        assert fin <= inf.upper
        assert fin >= inf.lower - Fraction(1, 2 ** 50)

    def test_divergent_q_rejected(self):
        with pytest.raises(DomainError):
            sigma_infinite(1, 0, Fraction(3, 2), TOL15)
        with pytest.raises(DomainError):
            sigma_infinite(1, 0, Fraction(1), TOL15)


class TestInverseQProduct:
    def test_base_two_against_partial_product_oracle(self):
        ball = inverse_q_product(Fraction(2), TOL15)
        partial = Fraction(1)
        for t in range(1, 201):
            partial /= 1 - Fraction(1, 2 ** t)
        # partial underestimates the infinite product by far less than tol
        assert partial <= ball.upper
        assert abs(ball.midpoint - partial) <= ball.radius + Fraction(1, 2 ** 150)
        assert_matches_printed(ball, "3.462746619455064")

    def test_base_three_is_the_table_row(self):
        ball = inverse_q_product(Fraction(3), Fraction(1, 10 ** 27))
        assert_matches_printed(ball, "1.785312341998534190367486")

    def test_huge_base_leading_order(self):
        # 1 + q + 2q^2 + 3q^3 + ... at q = 10^-6
        ball = inverse_q_product(Fraction(10 ** 6), Fraction(1, 10 ** 10))
        assert abs(ball.midpoint - (1 + Fraction(1, 10 ** 6))) \
            <= Fraction(3, 10 ** 12) + ball.radius
        assert_matches_printed(ball, "1.000001000002000003")

    def test_tolerance_honored(self):
        ball = inverse_q_product(Fraction(6, 5), TOL15)
        assert ball.radius <= TOL15

    def test_base_at_most_one_rejected(self):
        with pytest.raises(DomainError):
            inverse_q_product(Fraction(1), TOL15)


class TestFiniteJProduct:
    def test_values(self):
        assert finite_j_product(0, Fraction(2)) == 1
        assert finite_j_product(1, Fraction(2)) == 1
        assert finite_j_product(2, Fraction(3, 2)) == Fraction(8, 5)

    def test_negative_j_rejected(self):
        with pytest.raises(DomainError):
            finite_j_product(-1, Fraction(2))


class TestLimitEntry:
    def test_l00_base3(self):
        lv = limit_entry(0, 0, BaseSpec.parse("3"), Fraction(1, 10 ** 27))
        assert_matches_printed(lv.value, "1.785312341998534190367486")

    def test_l11_base2(self):
        lv = limit_entry(1, 1, BaseSpec.parse("2"), TOL20)
        assert_matches_printed(lv.value, "5.194119929182595417")

    def test_l00_base2_equals_q_product(self):
        lv = limit_entry(0, 0, BaseSpec.parse("2"), TOL20)
        qp = inverse_q_product(Fraction(2), TOL20)
        assert lv.value.overlaps(qp)

    def test_symmetry_spot_check(self):
        a = limit_entry(0, 1, BaseSpec.parse("2"), TOL20)
        b = limit_entry(1, 0, BaseSpec.parse("2"), TOL20)
        assert a.value.overlaps(b.value)

    def test_tolerance_honored(self):
        for tol in [Fraction(1, 10 ** 5), TOL15]:
            lv = limit_entry(2, 2, BaseSpec.parse("13/10"), tol)
            assert lv.value.radius <= tol

    def test_constant_base(self):
        lv = limit_entry(1, 1, BaseSpec.parse("tau"), TOL20)
        assert_matches_printed(lv.value, "26.788216012030303413")

    def test_monotone_enclosure_under_refinement(self):
        base = BaseSpec.parse("7/5")
        previous = None
        for exponent in [4, 8, 12, 16]:
            lv = limit_entry(1, 1, base, Fraction(1, 10 ** exponent))
            if previous is not None:
                assert previous.contains(lv.value.midpoint)
            previous = lv.value

    def test_negative_indices_rejected(self):
        with pytest.raises(DomainError):
            limit_entry(-1, 0, BaseSpec.parse("2"), TOL15)


class TestLimitMax:
    def test_base2(self):
        report = limit_max(BaseSpec.parse("2"), TOL20)
        assert report.argmax == ((1, 1),)
        assert_matches_printed(report.value, "5.194119929182595417")
        assert report.regime == "between_tau_alpha"
        assert not report.boundary

    def test_tau(self):
        report = limit_max(BaseSpec.parse("tau"), TOL20)
        assert_matches_printed(report.value, "26.788216012030303413")
        assert report.n_zero == 1
        assert report.regime == "between_tau_alpha"
        assert report.boundary

    def test_six_fifths(self):
        report = limit_max(BaseSpec.parse("6/5"), Fraction(1, 10 ** 4))
        assert report.n_zero == 4
        assert_matches_printed(report.value, "422349.8")
        assert report.regime == "below_tau"

    def test_only_upper_triangle_computed(self):
        report = limit_max(BaseSpec.parse("13/10"), Fraction(1, 10 ** 6))
        assert all(i <= j for _, (i, j) in
                   ((None, (e.i, e.j)) for e in report.entries))
        assert len(report.entries) == sum(range(report.n_zero + 2))

    def test_near_alpha_is_not_a_tie(self):
        # alpha truncated to 50 decimals lies just below alpha, where l_{1,1}
        # is strictly larger; only the exact comparison can tell
        text = "2.32471795724474602596090885447809734073440405690173"
        report = limit_max(BaseSpec.parse(text), TOL20)
        assert report.argmax == ((1, 1),)
        assert report.regime == "between_tau_alpha"
        assert not report.boundary

    def test_exact_tie_at_alpha(self):
        report = limit_max(BaseSpec.parse("alpha"), TOL20)
        assert report.argmax == ((0, 0), (1, 1))
        assert report.regime == "above_alpha" and report.boundary

    def test_json_schema(self):
        report = limit_max(BaseSpec.parse("3"), TOL15)
        payload = json.loads(report.to_json())
        assert set(payload) == {"base", "n_zero", "entries", "max", "argmax", "regime"}
        entry = payload["entries"][0]
        assert set(entry) == {"i", "j", "value", "radius", "sigma_cutoff",
                              "product_cutoff"}


class TestClosedFormOracle:
    """The closed form N/(D (q;q)_inf) against the truncated series
    sigma_infinite * finite_j_product * inverse_q_product."""

    TOL30 = Fraction(1, 10 ** 30)

    @pytest.mark.parametrize("text", ["2", "3/2", "6/5", "13/10", "7/3", "tau"])
    def test_matches_truncated_series(self, text):
        spec = BaseSpec.parse(text)
        b = spec.exact_value()
        if b is None:
            b = evaluate_base(spec, 256)
        product = inverse_q_product(b, self.TOL30)
        for i in range(4):
            for j in range(4):
                oracle = sigma_infinite(i, j, 1 / b, self.TOL30) \
                    * finite_j_product(j, b) * product
                closed = limit_entry(i, j, spec, self.TOL30).value
                assert closed.radius <= self.TOL30
                assert closed.overlaps(oracle), (text, i, j)


class TestRegimesAndCrossover:
    @pytest.mark.parametrize("text,regime,boundary", [
        ("3", "above_alpha", False),
        ("7/3", "above_alpha", False),
        ("2", "between_tau_alpha", False),
        ("5/3", "between_tau_alpha", False),
        ("3/2", "below_tau", False),
        ("6/5", "below_tau", False),
        ("tau", "between_tau_alpha", True),
        ("alpha", "above_alpha", True),
    ])
    def test_classification(self, text, regime, boundary):
        assert classify_regime(BaseSpec.parse(text)) == (regime, boundary)

    def test_crossover_base3(self):
        report = crossover_values(BaseSpec.parse("3"), TOL20)
        assert report.regime == "above_alpha"
        assert report.l00.certainly_gt(report.l11)
        assert_matches_printed(report.l00, "1.785312341998534190367486")

    def test_crossover_base2(self):
        report = crossover_values(BaseSpec.parse("2"), TOL20)
        assert report.regime == "between_tau_alpha"
        assert report.l11.certainly_gt(report.l00)
        assert_matches_printed(report.l11, "5.194119929182595417")

    def test_crossover_at_alpha(self):
        report = crossover_values(BaseSpec.parse("alpha"), Fraction(1, 10 ** 16))
        assert report.boundary
        assert report.l00.overlaps(report.l11)
        assert_matches_printed(report.l00, "2.4862447382651613433")
        assert_matches_printed(report.l11, "2.4862447382651613433")

    def test_prefactor_contains_one_at_alpha(self):
        b = evaluate_base(BaseSpec.parse("alpha"), 256)
        one = b ** 0
        prefactor = (b * b - b + one) / (b * (b - one) ** 2)
        assert prefactor.contains(1)

    def test_limit_max_agrees_with_crossover_forms(self):
        for text in ["5/3", "2", "7/3", "3", "4", "tau", "alpha"]:
            base = BaseSpec.parse(text)
            report = crossover_values(base, TOL15)
            bigger = report.l00 if report.l00.midpoint >= report.l11.midpoint \
                else report.l11
            assert limit_max(base, TOL15).value.overlaps(bigger), text


class TestFactorization:
    def test_gap_product_factorization(self):
        """prod_{h != j} |b^(j-h) - 1| splits into the growing and decaying
        parts used by the limit formula."""
        for text in ["2", "3/2", "6/5"]:
            b = BaseSpec.parse(text).exact_value()
            for n in range(1, 21):
                for j in range(n):
                    full = Fraction(1)
                    for h in range(n):
                        if h != j:
                            full *= abs(b ** (j - h) - 1)
                    grow = Fraction(1)
                    for s in range(1, j + 1):
                        grow *= b ** s - 1
                    decay = Fraction(1)
                    for t in range(1, n - j):
                        decay *= 1 - Fraction(1, b ** t)
                    assert full == grow * decay, (text, n, j)


class TestBase2ProductIdentity:
    def test_eleven_digit_value(self):
        ball = base2_product_identity(Fraction(1, 10 ** 13))
        assert_matches_printed(ball, "5.19411992918")

    def test_agrees_with_limit_entry(self):
        ball = base2_product_identity(Fraction(1, 10 ** 16))
        lv = limit_entry(1, 1, BaseSpec.parse("2"), Fraction(1, 10 ** 16))
        assert ball.overlaps(lv.value)
        assert abs(ball.midpoint - lv.value.midpoint) <= TOL15

    def test_partial_product_from_first_factor(self):
        # truncating at i=2 gives 3 * (1 + 1/3) = 4 exactly
        assert 3 * (1 + Fraction(1, 2 ** 2 - 1)) == 4
