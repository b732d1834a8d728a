"""Largest inverse entry: n0 threshold, argmax localization, scans."""

import json
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import ball_abs, contains, loop_maximal_ratios, overlaps
from vangeo import cli
from vangeo.errors import DomainError, SizeError
from vangeo.extremal import (compare_ratios, conjecture_scan, max_entry, maximal_ratios,
                             n_zero, verify_argmax_box, verify_leading_diagonal_max)
from vangeo.scalar import BaseSpec, at_base, evaluate_base, powers
from vangeo.symfunc import sigma_finite
import vangeo.extremal as extremal
import vangeo.vandinv as vandinv
from vangeo.vandinv import ColumnForm, GeometricVandermonde


@pytest.fixture
def no_inverse(monkeypatch):
    """Fail any attempt to build an inverse matrix, exact or ball."""
    def refuse(*args, **kwargs):
        raise AssertionError("extremal decisions must not build an inverse")
    for module, name in ((extremal, "inverse_matrix"), (vandinv, "inverse_matrix"),
                         (vandinv, "_inverse_entries_exact"),
                         (vandinv, "_inverse_entries_rigorous")):
        monkeypatch.setattr(module, name, refuse)


def max_json(*argv):
    """The payload of ``vangeo max ... --format json``."""
    code, output = cli.run(["max", *argv, "--format", "json"])
    assert code == 0, output
    return json.loads(output)


def _n_zero_by_powers(b: Fraction) -> int:
    """The definition, one power at a time: the least m >= 1 with b^m >= 1 + 1/b."""
    threshold = 1 + 1 / b
    power, m = b, 1
    while power < threshold:
        m += 1
        power *= b
    return m


class TestNZero:
    @pytest.mark.parametrize("b,expected", [
        (Fraction(2), 1),
        (Fraction(3), 1),
        (Fraction(6, 5), 4),
        (Fraction(13, 10), 3),
        (Fraction(7, 5), 2),
        (Fraction(3, 2), 2),
        (Fraction(13, 8), 1),      # 169/64 >= 168/64: just above tau
        (Fraction(8, 5), 2),       # 64/25 < 65/25: just below tau
    ])
    def test_rational(self, b, expected):
        assert n_zero(b) == expected

    def test_boundary_constants_via_minimal_polynomial(self):
        assert n_zero(BaseSpec.parse("tau")) == 1     # tau^1 = 1 + 1/tau exactly
        assert n_zero(BaseSpec.parse("alpha")) == 1

    def test_threshold_characterization(self):
        # n_zero(b) == 1 iff b^2 >= b + 1
        for num, den in [(13, 8), (21, 13), (2, 1), (5, 3), (8, 5), (3, 2)]:
            b = Fraction(num, den)
            assert (n_zero(b) == 1) == (b * b >= b + 1), b

    def test_agrees_with_log_characterization(self):
        import math
        for num, den in [(6, 5), (13, 10), (7, 5), (3, 2), (2, 1), (3, 1)]:
            b = Fraction(num, den)
            by_log = math.ceil(math.log(1 + 1 / float(b), float(b)))
            assert n_zero(b) == max(1, by_log), b

    def test_requires_base_above_one(self):
        with pytest.raises(DomainError):
            n_zero(Fraction(1))

    @given(st.integers(min_value=1, max_value=10 ** 4).flatmap(
        lambda q: st.tuples(st.integers(min_value=q + 1, max_value=4 * q), st.just(q))))
    @example((10001, 10000))
    @example((13, 8))
    @example((8, 5))
    @settings(max_examples=100, deadline=None)
    def test_estimate_confirmed_exactly(self, pq):
        b = Fraction(*pq)
        assert n_zero(b) == _n_zero_by_powers(b)

    def test_near_one_is_fast(self):
        b = Fraction("1.00001")
        start = time.monotonic()
        m = n_zero(b)
        assert time.monotonic() - start < 1.0
        assert b ** m >= 1 + 1 / b > b ** (m - 1)

    def test_refuses_a_base_too_close_to_one(self):
        with pytest.raises(SizeError):
            n_zero(Fraction("1.0000001"))
        with pytest.raises(SizeError):
            n_zero(Fraction(10 ** 400 + 1, 10 ** 400))


class TestMaxEntry:
    def test_frozen_two_by_two(self):
        spec = BaseSpec.parse("2")
        report = max_entry(GeometricVandermonde(spec, 2))
        assert report.max_value == 2
        assert report.argmax == ((0, 0),)
        assert report.n_zero == 1
        assert report.within_n_zero_box and report.diagonal_argmax
        assert max_json("--base", "2", "--n", "2")["tie"] is False

    def test_frozen_three_halves(self):
        report = max_entry(GeometricVandermonde(BaseSpec.parse("3/2"), 2))
        assert report.max_value == 3
        assert report.argmax == ((0, 0),)

    def test_base_two_n40_near_limit(self):
        spec = BaseSpec.parse("2")
        report = max_entry(GeometricVandermonde(spec, 40))
        assert set(report.argmax) <= {(0, 0), (0, 1), (1, 0), (1, 1)}
        limit = Fraction("5.194119929182595417")
        assert abs(report.max_value - limit) < Fraction(1, 10 ** 9)

    def test_argmax_attains_max(self, cached_inverse):
        for text in ["2", "7/5"]:
            spec = BaseSpec.parse(text)
            for n in [3, 6, 9]:
                inv = cached_inverse(spec, n)
                report = max_entry(GeometricVandermonde(spec, n))
                for i, j in report.argmax:
                    assert abs(inv.entries[i][j]) == report.max_value
                assert report.max_value == max(
                    abs(inv.entries[i][j]) for i in range(n) for j in range(n))

    def test_argmax_mirror_closed(self):
        spec = BaseSpec.parse("6/5")
        for n in [5, 9, 13]:
            report = max_entry(GeometricVandermonde(spec, n))
            pairs = set(report.argmax)
            assert {(j, i) for i, j in pairs} == pairs

    def test_rigorous_resolves_argmax(self):
        report = max_entry(GeometricVandermonde(BaseSpec.parse("tau"), 12), 256)
        assert report.argmax == ((1, 1),)
        assert report.max_value.radius < Fraction(1, 10 ** 40)
        # --digits 64 sets the same 256 bits
        payload = max_json("--base", "tau", "--n", "12", "--digits", "64")
        assert payload["tie"] is False and payload["backend"] == "rigorous"
        assert payload["argmax"] == [[1, 1]]
        assert payload["max"] == report.max_value.decimal(64)

    def test_escalation_resolves_alpha(self, no_inverse):
        # at 16 bits the ball kernel's (0,0) and (1,1) enclosures overlap at
        # n = 12; the exact comparison needs no inverse at any precision
        report = max_entry(GeometricVandermonde(BaseSpec.parse("alpha"), 12), 16)
        assert report.argmax == ((0, 0),)
        assert report.max_value.precision_bits == 16

    def test_tie_at_the_ceiling(self, no_inverse):
        # at 16 bits the ball kernel left (0,0) and (1,1) tied: the
        # Z[alpha] sign decides it exactly, and prints at those 16 bits
        report = max_entry(GeometricVandermonde(BaseSpec.parse("alpha"), 12), 16)
        assert report.argmax == ((0, 0),)
        assert contains(report.max_value, report.max_value.midpoint)
        payload = max_json("--base", "alpha", "--n", "12")
        assert payload["argmax"] == [[0, 0]] and payload["tie"] is False

    def test_exact_tie_is_final(self, no_inverse, monkeypatch):
        # no rational base p/q <= 4 with q <= 12 has an exact tie between two
        # symmetry orbits for n <= 10, so one is planted in the column form:
        # |c_00| = x^2/x and |c_11| = x/1, with x = 3 over Z (equal
        # cross-products) and x = theta over Z[theta] (a zero tuple)
        for text in ["2", "tau"]:
            gv = GeometricVandermonde(BaseSpec.parse(text), 2)
            one, x = (1, 3) if gv.is_exact else ColumnForm(gv).nodes
            planted = {0: ([x * x], x), 1: ([one, x], one)}
            monkeypatch.setattr(ColumnForm, "magnitudes", lambda self, j, rows: planted[j])
            report = max_entry(gv, 64)
            assert report.argmax == ((0, 0), (1, 1)), text
            payload = max_json("--base", text, "--n", "2")
            assert payload["argmax"] == [[0, 0], [1, 1]] and payload["tie"] is False, text
            if gv.is_exact:
                assert report.max_value == 3
            else:
                assert overlaps(report.max_value, evaluate_base(gv.base, 64))

    @pytest.mark.parametrize("name", ["tau", "alpha"])
    def test_constant_max_matches_a_ball_kernel_scan(self, name, cached_inverse):
        spec = BaseSpec.parse(name)
        for n in range(2, 31):
            magnitudes = {(i, j): ball_abs(v) for i, row in enumerate(cached_inverse(spec, n).entries)
                          for j, v in enumerate(row)}
            floor = max(v.lower for v in magnitudes.values())
            argmax = tuple(sorted(p for p, v in magnitudes.items() if v.upper >= floor))
            report = max_entry(GeometricVandermonde(spec, n))
            assert report.argmax == argmax, (name, n)
            assert report.max_value.decimal(20) == magnitudes[argmax[0]].decimal(20), (name, n)

    def test_max_report_json_schema(self):
        payload = max_json("--base", "6/5", "--n", "12")
        assert set(payload) == {"base", "n", "n_zero", "max", "argmax", "within_n_zero_box",
                                "diagonal_argmax", "tie", "backend"}
        assert payload["n_zero"] == 4
        assert payload["argmax"] == [[3, 3]]
        assert payload["within_n_zero_box"] is True


@st.composite
def ratio_runs(draw):
    """(key, (A, pi)) items in runs that share one pi object, over Z (theta
    = 2) or Z[theta] at tau and alpha.  A run's pi is c theta^k and its
    numerators are a theta^(k+d), so the ratio a theta^d / c ties often,
    inside a run and across runs."""
    name = draw(st.sampled_from(["2", "tau", "alpha"]))
    spec = BaseSpec.parse(name)
    theta = 2 if spec.is_exact else at_base((0, 1), spec)
    theta_powers = powers(theta, 4)
    items = []
    for run, (c, k) in enumerate(draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 2)),
                                                max_size=6))):
        pi = theta_powers[k] * c
        for a, d in draw(st.lists(st.tuples(st.integers(1, 4), st.integers(-1, 1)),
                                  min_size=1, max_size=5)):
            items.append(((run, len(items)), (theta_powers[k + d] * a, pi)))
    return name, items


class Unmultiplied(int):
    """A positive integer that refuses to be multiplied."""

    def __mul__(self, other):
        raise AssertionError("multiplied")

    __rmul__ = __mul__


def unmultiplied(ratio):
    return tuple(map(Unmultiplied, ratio))


class TestCompareRatios:
    # bitlen A_a + bitlen pi_b - bitlen A_b - bitlen pi_a; pi objects distinct
    @pytest.mark.parametrize("a,b,sign", [
        ((4, 3), (2, 4), 1),        # gap 2: 6 bits against 4
        ((2, 4), (4, 3), -1),
        ((255, 1), (1, 64), 1),     # gap 9
    ])
    def test_a_gap_of_two_decides_without_products(self, a, b, sign):
        assert compare_ratios(unmultiplied(a), unmultiplied(b)) == sign
        assert sign == (Fraction(*a) > Fraction(*b)) - (Fraction(*a) < Fraction(*b))

    @pytest.mark.parametrize("a,b,sign", [
        ((4, 3), (7, 4), -1),       # gap 1: 6 bits against 5, and the other way round
        ((7, 4), (4, 3), 1),
        ((7, 3), (4, 4), 1),
        ((4, 3), (5, 3), -1),       # gap 0
    ])
    def test_a_gap_of_one_multiplies(self, a, b, sign):
        assert compare_ratios(a, b) == sign
        with pytest.raises(AssertionError, match="multiplied"):
            compare_ratios(unmultiplied(a), unmultiplied(b))

    @given(st.lists(st.integers(1, 1 << 80), min_size=4, max_size=4))
    @example([4, 3, 7, 4])
    @settings(max_examples=300, deadline=None)
    def test_matches_fractions(self, values):
        num_a, pi_a, num_b, pi_b = values
        difference = Fraction(num_a, pi_a) - Fraction(num_b, pi_b)
        assert compare_ratios((num_a, pi_a), (num_b, pi_b)) == (difference > 0) - (difference < 0)

    @pytest.mark.parametrize("text", ["7/3", "tau", "alpha"])
    def test_an_exact_tie(self, text):
        spec = BaseSpec.parse(text)
        theta = 7 if spec.is_exact else at_base((0, 1), spec)
        num, pi = theta ** 30 * 5, theta ** 12 * 3
        assert compare_ratios((num * theta, pi * theta), (num, pi)) == 0
        assert compare_ratios((num * theta, pi * theta), (num * 2, pi)) == -1


class TestMaximalRatios:
    @given(case=ratio_runs())
    @example(case=("2", []))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_single_loop(self, case):
        """The same first maximal item, by identity, and the same tied keys
        in order as the loop that compares every item with the running best."""
        name, items = case
        best, top = maximal_ratios(iter(items))
        expected_best, expected_top = loop_maximal_ratios(items)
        assert best is expected_best, name
        assert top == expected_top, name

    @pytest.mark.parametrize("text", ["7/3", "tau"])
    def test_one_cross_multiplication_per_column(self, text, monkeypatch):
        calls = []
        compare = extremal.compare_ratios

        def counted(a, b):
            calls.append(a[1] is not b[1])
            return compare(a, b)

        monkeypatch.setattr(extremal, "compare_ratios", counted)
        n = 12
        max_entry(GeometricVandermonde(BaseSpec.parse(text), n))
        assert sum(calls) == n - 1
        assert len(calls) == n * (n + 1) // 2 - 1


class TestArgmaxBox:
    def test_vacuous_one_by_one(self):
        report = verify_argmax_box(GeometricVandermonde(BaseSpec.parse("3"), 1))
        assert report.passed

    def test_exact_cases(self):
        for text in ["2", "6/5"]:
            spec = BaseSpec.parse(text)
            for n in [10, 12]:
                report = verify_argmax_box(GeometricVandermonde(spec, n))
                assert report.passed, (text, n)
                assert not report.witnesses

    def test_rigorous_case(self):
        report = verify_argmax_box(GeometricVandermonde(BaseSpec.parse("alpha"), 10), 256)
        assert report.passed

    @pytest.mark.parametrize("name", ["tau", "alpha"])
    def test_constant_checks_build_no_inverse(self, name, no_inverse):
        gv = GeometricVandermonde(BaseSpec.parse(name), 12)
        assert verify_argmax_box(gv).passed
        assert verify_leading_diagonal_max(GeometricVandermonde(gv.base, 12)) is True

    def test_report_carries_max_report(self):
        spec = BaseSpec.parse("13/10")
        report = verify_argmax_box(GeometricVandermonde(spec, 9))
        assert report.max_report.n_zero == 3
        assert report.max_report.n == 9


class TestLeadingDiagonal:
    def test_passes_on_grid(self):
        for text in ["2", "5/3", "3", "4"]:
            spec = BaseSpec.parse(text)
            for n in [2, 6, 11]:
                # the argmax and the sigma top step both hold
                assert verify_leading_diagonal_max(GeometricVandermonde(spec, n)) is True, (text, n)

    def test_precondition_below_golden(self):
        with pytest.raises(DomainError):
            verify_leading_diagonal_max(GeometricVandermonde(BaseSpec.parse("3/2"), 4))

    def test_boundary_tau_allowed(self):
        assert verify_leading_diagonal_max(GeometricVandermonde(BaseSpec.parse("tau"), 6), 192)

    def test_requires_n_at_least_two(self):
        with pytest.raises(DomainError):
            verify_leading_diagonal_max(GeometricVandermonde(BaseSpec.parse("2"), 1))


class TestSigmaExpansions:
    """The two closed-form expansions used to prove the diagonal step."""

    def test_term_for_term(self):
        for text in ["2", "3", "3/2", "7/5", "13/10", "6/5"]:
            b = BaseSpec.parse(text).value
            for n in range(2, 13):
                top = n * (n - 1) // 2 - 1
                assert sigma_finite(n - 1, 1, n, b) == b ** top
                lo = (n - 1) * (n - 2) // 2 - 1
                expansion = b ** top + sum(b ** i for i in range(lo, top - 1))
                assert sigma_finite(n - 2, 1, n, b) == expansion, (text, n)


class TestConjectureScan:
    def test_range_validation(self):
        with pytest.raises(DomainError):
            conjecture_scan(BaseSpec.parse("2"), 1, 5)
        with pytest.raises(DomainError):
            conjecture_scan(BaseSpec.parse("2"), 6, 5)

    def test_scan_records_and_json(self):
        records = conjecture_scan(BaseSpec.parse("2"), 2, 8)
        assert [r.n for r in records] == list(range(2, 9))
        code, output = cli.run(["conjecture", "--base", "2", "--range", "2:8", "--format", "json"])
        payload = json.loads(output)
        assert code == 0 and len(payload) == 7
        assert set(payload[0]) == {"n", "n_zero", "max", "argmax", "diagonal"}
        assert all(r["diagonal"] for r in payload)

    def test_non_diagonal_collection_consistent(self):
        records = conjecture_scan(BaseSpec.parse("13/10"), 2, 12)
        from_records = [r.n for r in records if not r.diagonal_argmax]
        code, output = cli.run(["conjecture", "--base", "13/10", "--range", "2:12"])
        assert code == 0
        assert output.splitlines()[-1] == (
            f"summary: {len(from_records)} of 11 sizes lack a diagonal argmax"
            + (f" (n = {', '.join(map(str, from_records))})" if from_records else ""))

    @given(st.sampled_from(["2", "3", "6/5", "13/10"]),
           st.integers(min_value=2, max_value=9))
    @settings(max_examples=15, deadline=None)
    def test_scan_matches_max_entry(self, text, n):
        base = BaseSpec.parse(text)
        assert conjecture_scan(base, n, n) == (max_entry(GeometricVandermonde(base, n)),)
