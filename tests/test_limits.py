"""Entry limits: infinite power sums, Euler-type products, regimes."""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (base2_product_identity, certainly_gt, contains, finite_j_product, overlaps,
                     pentagonal_prefix, sigma_infinite)
from vangeo import cli, limits
from vangeo.errors import DomainError, UndecidableComparisonError
from vangeo.extremal import n_zero
from vangeo.limits import (_argmax, _closed_form, _inverse_q_product,
                           _PentagonalSeries, _pentagonal_series, classify_regime,
                           limit_entry, limit_max)
from vangeo.scalar import (BaseSpec, RigorousReal, _dy_fraction, certified_poly_sign,
                           evaluate_base)
from vangeo.symfunc import sigma_finite

TOL15 = Fraction(1, 10 ** 15)
TOL20 = Fraction(1, 10 ** 20)


def assert_matches_printed(ball, literal: str):
    """The enclosure must agree with a printed decimal to half a last-digit unit."""
    frac_digits = len(literal.split(".")[1])
    half_ulp = Fraction(1, 2 * 10 ** frac_digits)
    assert abs(ball.midpoint - Fraction(literal)) <= half_ulp + ball.radius


def q_product(b: Fraction, tol):
    """1/(q;q)_inf at a rational base, which is l_{0,0}."""
    return limit_entry(0, 0, BaseSpec.rational(b.numerator, b.denominator), tol).value


def diagonal_limits(base, tol):
    """(l_{0,0}, l_{1,1}), the two closed forms of the crossover."""
    return tuple(limit_entry(k, k, base, tol).value for k in (0, 1))


class TestSigmaInfinite:
    def test_empty_subset(self):
        assert contains(sigma_infinite(0, 0, Fraction(1, 2), TOL15), 1)
        assert contains(sigma_infinite(0, 5, Fraction(1, 3), TOL15), 1)

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
        fin = sigma_finite(2, 1, 60, Fraction(1, 2))
        assert fin <= inf.upper
        assert fin >= inf.lower - Fraction(1, 2 ** 50)

    def test_divergent_q_rejected(self):
        with pytest.raises(DomainError):
            sigma_infinite(1, 0, Fraction(3, 2), TOL15)
        with pytest.raises(DomainError):
            sigma_infinite(1, 0, Fraction(1), TOL15)


class TestInverseQProduct:
    def test_base_two_against_partial_product_oracle(self):
        ball = q_product(Fraction(2), TOL15)
        partial = Fraction(1)
        for t in range(1, 201):
            partial /= 1 - Fraction(1, 2 ** t)
        # partial underestimates the infinite product by far less than tol
        assert partial <= ball.upper
        assert abs(ball.midpoint - partial) <= ball.radius + Fraction(1, 2 ** 150)
        assert_matches_printed(ball, "3.462746619455064")

    def test_base_three_is_the_table_row(self):
        ball = q_product(Fraction(3), Fraction(1, 10 ** 27))
        assert_matches_printed(ball, "1.785312341998534190367486")

    def test_huge_base_leading_order(self):
        # 1 + q + 2q^2 + 3q^3 + ... at q = 10^-6
        ball = q_product(Fraction(10 ** 6), Fraction(1, 10 ** 10))
        assert abs(ball.midpoint - (1 + Fraction(1, 10 ** 6))) \
            <= Fraction(3, 10 ** 12) + ball.radius
        assert_matches_printed(ball, "1.000001000002000003")

    def test_tolerance_honored(self):
        ball = q_product(Fraction(6, 5), TOL15)
        assert ball.radius <= TOL15

    def test_base_at_most_one_rejected(self):
        with pytest.raises(DomainError):
            q_product(Fraction(1), TOL15)


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
        qp, _, _ = loop_inverse_q_product(evaluate_base(BaseSpec.parse("2"), 256), TOL20)
        assert overlaps(lv.value, qp)

    def test_symmetry_spot_check(self):
        a = limit_entry(0, 1, BaseSpec.parse("2"), TOL20)
        b = limit_entry(1, 0, BaseSpec.parse("2"), TOL20)
        assert overlaps(a.value, b.value)

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
                assert contains(previous, lv.value.midpoint)
            previous = lv.value

    def test_negative_indices_rejected(self):
        with pytest.raises(DomainError):
            limit_entry(-1, 0, BaseSpec.parse("2"), TOL15)

    def test_ceiling_below_16_rejected(self):
        with pytest.raises(DomainError, match="^precision ceiling must be >= 16 bits, got 8$"):
            limit_entry(0, 0, BaseSpec.parse("2"), TOL15, precision_ceiling=8)

    def test_escalation_and_ceiling(self):
        """At 1.03 and 1e-10, l_(3,5) fails its tolerance at 97 and 194
        bits: the ceilings 128 and 256 refuse it and name themselves, and
        512 lets it return from its second doubling, at 388 bits.  The
        digest pins the value's fields, cutoff and the series' tail bound
        at that cutoff."""
        base = BaseSpec.parse("1.03")
        for ceiling in (128, 256):
            with pytest.raises(UndecidableComparisonError, match=f"within the {ceiling}-bit"):
                limit_entry(3, 5, base, "1e-10", ceiling)
        lv = limit_entry(3, 5, base, "1e-10", 512)
        assert lv.value.precision_bits == 388
        tail = series_tail(evaluate_base(base, lv.value.precision_bits), lv.product_cutoff)
        got = [(fields(lv.value), lv.product_cutoff, tail)]
        assert hashlib.sha256(repr(got).encode()).hexdigest()[:16] == "ad5c0cc2c9143976"

    def test_radius_between_half_tol_and_tol_is_accepted(self):
        """l_(2,4) at 1.1 meets 1e-10 at its first precision, 97 bits, with a
        radius above tol / 2: a radius test off by one bit either way moves
        this entry to another precision."""
        tol = Fraction(1, 10 ** 10)
        lv = limit_entry(2, 4, BaseSpec.parse("1.1"), tol)
        assert lv.value.precision_bits == 97
        assert tol / 2 < lv.value.radius <= tol


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
        code, output = cli.run(["limit", "--base", "3", "--tol", "1e-15", "--format", "json"])
        assert code == 0
        payload = json.loads(output)
        assert set(payload) == {"base", "n_zero", "entries", "max", "argmax", "regime"}
        entry = payload["entries"][0]
        assert set(entry) == {"i", "j", "value", "radius", "sigma_cutoff",
                              "product_cutoff"}


class TestClosedFormOracle:
    """The closed form N/(D (q;q)_inf) against the truncated series
    sigma_infinite * finite_j_product times the restarted pentagonal loop."""

    TOL30 = Fraction(1, 10 ** 30)

    @pytest.mark.parametrize("text", ["2", "3/2", "6/5", "13/10", "7/3", "tau"])
    def test_matches_truncated_series(self, text):
        spec = BaseSpec.parse(text)
        ball = evaluate_base(spec, 256)
        b = spec.value
        if b is None:
            b = ball
        product, _, _ = loop_inverse_q_product(ball, self.TOL30)
        for i in range(4):
            for j in range(4):
                oracle = sigma_infinite(i, j, 1 / b, self.TOL30) \
                    * finite_j_product(j, b) * product
                closed = limit_entry(i, j, spec, self.TOL30).value
                assert closed.radius <= self.TOL30
                assert overlaps(closed, oracle), (text, i, j)


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
        base = BaseSpec.parse("3")
        l00, l11 = diagonal_limits(base, TOL20)
        assert classify_regime(base)[0] == "above_alpha"
        assert certainly_gt(l00, l11)
        assert_matches_printed(l00, "1.785312341998534190367486")

    def test_crossover_base2(self):
        base = BaseSpec.parse("2")
        l00, l11 = diagonal_limits(base, TOL20)
        assert classify_regime(base)[0] == "between_tau_alpha"
        assert certainly_gt(l11, l00)
        assert_matches_printed(l11, "5.194119929182595417")

    def test_crossover_at_alpha(self):
        base = BaseSpec.parse("alpha")
        l00, l11 = diagonal_limits(base, Fraction(1, 10 ** 16))
        assert classify_regime(base)[1]
        assert overlaps(l00, l11)
        assert_matches_printed(l00, "2.4862447382651613433")
        assert_matches_printed(l11, "2.4862447382651613433")

    def test_prefactor_contains_one_at_alpha(self):
        b = evaluate_base(BaseSpec.parse("alpha"), 256)
        one = b ** 0
        prefactor = (b * b - b + one) / (b * (b - one) ** 2)
        assert contains(prefactor, 1)

    def test_limit_max_agrees_with_crossover_forms(self):
        for text in ["5/3", "2", "7/3", "3", "4", "tau", "alpha"]:
            base = BaseSpec.parse(text)
            l00, l11 = diagonal_limits(base, TOL15)
            bigger = l00 if l00.midpoint >= l11.midpoint else l11
            assert overlaps(limit_max(base, TOL15).value, bigger), text


class TestFactorization:
    def test_gap_product_factorization(self):
        """prod_{h != j} |b^(j-h) - 1| splits into the growing and decaying
        parts used by the limit formula."""
        for text in ["2", "3/2", "6/5"]:
            b = BaseSpec.parse(text).value
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
        assert overlaps(ball, lv.value)
        assert abs(ball.midpoint - lv.value.midpoint) <= TOL15

    def test_partial_product_from_first_factor(self):
        # truncating at i=2 gives 3 * (1 + 1/3) = 4 exactly
        assert 3 * (1 + Fraction(1, 2 ** 2 - 1)) == 4


# ---------------------------------------------------------------------------
# oracles: the per-call pentagonal loop and the dense-product argmax that the
# shared series and the reduced closed forms replaced
# ---------------------------------------------------------------------------


def loop_inverse_q_product(b, tol):
    """The pentagonal series restarted at k = 1 on every call."""
    if not b.lower > 1:
        raise DomainError("base must be certifiably > 1")
    q = 1 / b
    total = RigorousReal.exact(1, b.precision_bits)
    k = 1
    while True:
        a = k * (3 * k - 1) // 2
        pair = q ** a + q ** (a + k)
        tail = pair.upper
        floor = total.lower - tail
        if (floor > 0 and 4 * tail <= tol * floor * floor) or tail <= total.radius:
            break
        total = total - pair if k % 2 else total + pair
        k += 1
    if floor <= 0:
        return None, k - 1, tail
    euler = RigorousReal.from_interval(floor, total.upper + tail, b.precision_bits)
    return 1 / euler, k - 1, tail


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for k, x in enumerate(a):
        for m, y in enumerate(b):
            out[k + m] += x * y
    return out


def poly_sub(a, b):
    out = list(a) + [0] * (len(b) - len(a))
    for k, y in enumerate(b):
        out[k] -= y
    return out


def dense_closed_form(i, j):
    """N and D by dense products against b^s - 1."""
    num = [1]
    for m in range(1, i + 1):
        num = poly_sub([0] * ((j + 1) * m) + [1], poly_mul([-1] + [0] * (m - 1) + [1], num))
    den = [0] * (i * j) + [1]
    for s in [*range(1, i + 1), *range(1, j + 1)]:
        den = poly_mul(den, [-1] + [0] * (s - 1) + [1])
    return num, den


def dense_argmax(pairs, base):
    """The argmax from the sign of N_a D_b - N_b D_a multiplied out."""
    forms = [dense_closed_form(i, j) for i, j in pairs]
    best = [0]
    for k in range(1, len(pairs)):
        (num_k, den_k), (num_b, den_b) = forms[k], forms[best[0]]
        sign = certified_poly_sign(
            poly_sub(poly_mul(num_k, den_b), poly_mul(num_b, den_k)), base)
        if sign > 0:
            best = [k]
        elif sign == 0:
            best.append(k)
    return best


def box(base):
    top = n_zero(base)
    return [(i, j) for j in range(top + 1) for i in range(j + 1)]


def fields(x):
    return x._m, x._e, x._r, x._f, x._prec


def outcome(result):
    value, pairs, tail = result
    return (None if value is None else (value.midpoint, value.radius)), pairs, tail


@st.composite
def enclosures(draw):
    """A base enclosure: p/q in [1.05, 4], tau or alpha, at 64-1024 bits."""
    precision = draw(st.integers(64, 1024))
    kind = draw(st.sampled_from(("rational", "tau", "alpha")))
    if kind != "rational":
        return evaluate_base(BaseSpec.constant(kind), precision)
    value = draw(st.fractions(min_value=Fraction(21, 20), max_value=4, max_denominator=1000))
    return evaluate_base(BaseSpec.rational(value.numerator, value.denominator), precision)


def series_tail(b, pairs):
    """The bound on the remainder of the pentagonal series at the enclosure
    b after that many pairs, the tail its stopping test read, as a Fraction."""
    series = _pentagonal_series(b._m, b._e, b._r, b._f, b.precision_bits)
    return _dy_fraction(*series.step(pairs + 1)[0])


def inverse_q_product(b, tol, scale=1):
    """_inverse_q_product at the Fraction tol, passed as the integer pair
    (numerator, denominator) times scale, with its tail as a Fraction."""
    value, pairs = _inverse_q_product(b, tol.numerator * scale, tol.denominator * scale)
    return value, pairs, series_tail(b, pairs)


# common factors for an unreduced tolerance pair: limit_entry passes one
scales = st.one_of(st.just(1), st.builds(lambda k, odd: odd << k, st.integers(0, 300),
                                         st.sampled_from((1, 3, 5 ** 40))))


class TestPentagonalSeries:
    @given(b=enclosures(), exponents=st.lists(st.integers(5, 120), min_size=1, max_size=5),
           scale=scales)
    @example(b=evaluate_base(BaseSpec.parse("2"), 64), exponents=[5, 120, 5], scale=1)
    @example(b=evaluate_base(BaseSpec.parse("2"), 64), exponents=[5, 120, 5], scale=3 << 40)
    @example(b=evaluate_base(BaseSpec.parse("tau"), 256), exponents=[30, 60], scale=3 << 300)
    @settings(max_examples=60, deadline=None)
    def test_matches_the_restarted_loop(self, b, exponents, scale):
        """Tolerances in the drawn, rising and falling order, each from an
        empty cache: a cutoff below the series' length reuses its prefix,
        one beyond it extends the series.  A tolerance pair scaled by a
        common factor gives the same outcome as its lowest terms."""
        tols = [Fraction(1, 10 ** e) for e in exponents]
        for order in (tols, sorted(tols), sorted(tols, reverse=True)):
            _pentagonal_series.cache_clear()
            for tol in order:
                assert outcome(inverse_q_product(b, tol, scale)) \
                    == outcome(loop_inverse_q_product(b, tol))

    def test_precision_too_low_gives_none(self):
        b = evaluate_base(BaseSpec.parse("1.01"), 64)
        for scale in (1, 3, 3 << 64, 7 ** 30 << 5):
            _pentagonal_series.cache_clear()
            for exponent in (5, 20, 10):
                tol = Fraction(1, 10 ** exponent)
                result = inverse_q_product(b, tol, scale)
                assert result[0] is None and result[1] == 50
                assert outcome(result) == outcome(loop_inverse_q_product(b, tol))

    @given(b=enclosures(), count=st.integers(1, 40))
    @example(b=evaluate_base(BaseSpec.parse("1.01"), 64), count=60)
    @settings(max_examples=40, deadline=None)
    def test_steps_match_fresh_powers(self, b, count):
        """Every step and partial sum, field for field, against pairs built
        from two fresh powers of q each."""
        series = _PentagonalSeries(b)
        series.step(count)
        steps, totals = pentagonal_prefix(b, count)
        assert series.steps == steps
        assert [fields(t) for t in series.totals] == [fields(t) for t in totals]

    def test_base_straddling_one_is_refused(self):
        b = RigorousReal.from_interval(Fraction(99, 100), Fraction(101, 100), 64)
        with pytest.raises(DomainError):
            _PentagonalSeries(b)
        with pytest.raises(DomainError):
            _inverse_q_product(b, 1, 10 ** 10)

    def test_each_pair_is_built_once(self, monkeypatch):
        """One limit_max at 13/10: each (enclosure, k) pair is built once,
        so there are two powers per pair walked on the largest cutoff, and
        all of them read one chain of squares.  The ball products are the
        chain's squarings plus popcount(a) - 1 per power a.  Its ten entries
        each evaluate the base afresh, so this also fails if the series is
        keyed on the enclosure object."""
        calls, chains, products = [], [], [0]
        inside = [False]
        power, mul = limits._power, RigorousReal.__mul__

        def counted_power(squares, exponent):
            calls.append((fields(squares[0]), exponent))
            chains.append(squares)
            inside[0] = True
            try:
                return power(squares, exponent)
            finally:
                inside[0] = False

        def counted_mul(self, other):
            products[0] += inside[0]
            return mul(self, other)

        monkeypatch.setattr(limits, "_power", counted_power)
        monkeypatch.setattr(RigorousReal, "__mul__", counted_mul)
        _pentagonal_series.cache_clear()
        report = limit_max(BaseSpec.parse("13/10"), Fraction(1, 10 ** 30))
        assert len(calls) == len(set(calls))
        assert _pentagonal_series.cache_info().currsize == 1     # one enclosure
        walked = max(e.product_cutoff for e in report.entries) + 1
        assert len(calls) == 2 * walked
        assert all(chain is chains[0] for chain in chains)
        assert products[0] == len(chains[0]) - 1 + sum(
            bin(a).count("1") - 1 for _, a in calls)
        assert _pentagonal_series.cache_info().maxsize is not None


class TestReducedArgmax:
    def test_closed_forms_match_dense_products(self):
        for i in range(12):
            for j in range(12):
                assert _closed_form(i, j) == dense_closed_form(i, j), (i, j)

    @given(b=st.fractions(min_value=Fraction(21, 20), max_value=3, max_denominator=50))
    @example(b=Fraction(21, 20))
    @example(b=Fraction(2))
    @settings(max_examples=15, deadline=None)
    def test_rational_bases(self, b):
        base = BaseSpec.rational(b.numerator, b.denominator)
        pairs = box(base)
        assert _argmax([_closed_form(i, j) for i, j in pairs], base) == dense_argmax(pairs, base)

    @pytest.mark.parametrize("text", [
        "tau", "alpha", "2.32471795724474602596090885447809734073440405690173"])
    def test_constants_and_just_below_alpha(self, text):
        base = BaseSpec.parse(text)
        pairs = box(base)
        best = _argmax([_closed_form(i, j) for i, j in pairs], base)
        assert best == dense_argmax(pairs, base)
        if text == "alpha":
            assert [pairs[k] for k in best] == [(0, 0), (1, 1)]
