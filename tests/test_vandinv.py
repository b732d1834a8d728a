"""Inverse-matrix closed form: identities, oracle equality, serialization."""

import functools
import json
import math
import operator
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import vangeo.symfunc as symfunc
from vangeo import cli
import vangeo.vandinv as vandinv
from vangeo.errors import DomainError
from vangeo.extremal import compare_ratios
from vangeo.scalar import BaseSpec, ZTheta, at_base, evaluate_base, exact_sign, poly_eval_ball
from vangeo.symfunc import sigma_finite
from vangeo.vandinv import (ColumnForm, GeometricVandermonde, InverseMatrix,
                            gaussian_inverse, inverse_matrix, pi_product,
                            residual_norm)

GRID = [BaseSpec.parse(t) for t in ["2", "3", "3/2", "7/5", "13/10", "6/5"]]


class TestConstruction:
    def test_n_must_be_positive(self):
        with pytest.raises(DomainError):
            GeometricVandermonde(BaseSpec.parse("2"), 0)

    def test_base_must_exceed_one(self):
        with pytest.raises(DomainError):
            GeometricVandermonde(BaseSpec.parse("9/10"), 3)
        with pytest.raises(DomainError):
            GeometricVandermonde(BaseSpec.parse("1"), 3)

    def test_vandermonde_rows_are_geometric(self):
        v = oracles.vandermonde_matrix(GeometricVandermonde(BaseSpec.parse("3"), 4))
        assert list(v[2]) == [1, 9, 81, 729]     # row i holds (b^i)^k


# Fraction points below 1, integer-valued and above 1
NODE_POINTS = [Fraction(2, 3), Fraction(1, 4), Fraction(2), Fraction(5), Fraction(7, 3),
               Fraction(13, 10), Fraction(9, 4)]


class TestOnIntegerNodes:
    """At a Fraction point, pi_product and sigma_finite run over the integer
    nodes p^h q^(n-1-h) and divide once by the scale: each must equal its
    old body over the Fraction powers (oracles), at every j, 0 and n-1
    included, and stay a Fraction."""

    @pytest.mark.parametrize("b", NODE_POINTS, ids=str)
    def test_pi_product(self, b):
        for n in range(1, 10):
            for j in range(n):
                value = pi_product(j, n, b)
                assert type(value) is Fraction, (b, n, j)
                assert value == oracles.powers_pi_product(j, n, b), (b, n, j)

    @pytest.mark.parametrize("b", NODE_POINTS, ids=str)
    def test_sigma_finite(self, b):
        for n in range(1, 10):
            for j in range(n):
                for i in range(n):
                    value = sigma_finite(i, j, n, b)
                    assert type(value) is Fraction, (b, n, i, j)
                    assert value == oracles.powers_sigma_finite(i, j, n, b), (b, n, i, j)


class TestPiProduct:
    @pytest.mark.parametrize("j,n,b,expected", [
        (0, 2, Fraction(2), 1),
        (1, 3, Fraction(2), 2),
        (2, 4, Fraction(3, 2), Fraction(135, 128)),
    ])
    def test_frozen(self, j, n, b, expected):
        assert pi_product(j, n, b) == expected

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            pi_product(3, 3, Fraction(2))

    def test_direct_product_oracle(self):
        for spec in GRID:
            b = spec.value
            for n in range(1, 9):
                pows = [b ** k for k in range(n)]
                for j in range(n):
                    expected = Fraction(1)
                    for h in range(n):
                        if h != j:
                            expected *= abs(pows[j] - pows[h])
                    assert pi_product(j, n, b) == expected

    @pytest.mark.parametrize("name", ["tau", "alpha"])
    def test_over_z_theta(self, name):
        # at theta > 1 the factor |x^j - x^h| is x^max(j,h) - x^min(j,h); no
        # abs in the direct product
        spec = BaseSpec.parse(name)
        theta_ball = evaluate_base(spec, 128)
        x = at_base((0, 1), spec)
        for n in range(1, 9):
            pows = [x ** k for k in range(n)]
            for j in range(n):
                expected = x ** 0
                for h in range(n):
                    if h != j:
                        low, high = sorted((j, h))
                        expected = expected * (pows[high] - pows[low])
                pi = pi_product(j, n, x)
                assert pi.coefficients == expected.coefficients, (name, n, j)
                assert oracles.overlaps(poly_eval_ball(pi.coefficients, theta_ball),
                                       pi_product(j, n, theta_ball)), (name, n, j)

    @pytest.mark.parametrize("name", ["7/3", "tau", "alpha"])
    def test_equals_the_norm_signed_product(self, name):
        # ordering each factor by j - h gives the product that signing each
        # factor by its value gave, over Fractions and over Z[theta]
        spec = BaseSpec.parse(name)
        b = at_base((0, 1), spec)
        for n in range(1, 16):
            for j in range(n):
                new, old = pi_product(j, n, b), oracles.norm_signed_pi_product(j, n, b)
                if isinstance(b, ZTheta):
                    new, old = new.coefficients, old.coefficients
                assert new == old, (name, n, j)

    @pytest.mark.parametrize("point", ["3", "7/3", "4/1", "tau", "ball"])
    def test_equals_the_plain_product(self, point):
        # an int, a Fraction above 1, a ZTheta and a ball each give the plain
        # product, of the point's own type, with every factor taken as
        # b^max(j,h) - b^min(j,h) > 0
        tau = BaseSpec.parse("tau")
        special = {"3": 3, "tau": at_base((0, 1), tau), "ball": evaluate_base(tau, 128)}
        b = special[point] if point in special else Fraction(point)
        for n in range(1, 9):
            pows = [b ** 0]
            for _ in range(n - 1):
                pows.append(pows[-1] * b)
            for j in range(n):
                expected = pows[0]
                for h in range(n):
                    if h != j:
                        expected = expected * (pows[max(j, h)] - pows[min(j, h)])
                pi = pi_product(j, n, b)
                assert type(pi) is type(expected), (point, n, j)
                if point == "tau":
                    assert pi.coefficients == expected.coefficients, (n, j)
                elif point == "ball":
                    assert oracles.fields(pi) == oracles.fields(expected), (n, j)
                else:
                    assert pi == expected, (point, n, j)

    def test_ratio_identity(self):
        for spec in GRID:
            b = spec.value
            for n in range(2, 13):
                for j in range(n - 1):
                    lhs = pi_product(j + 1, n, b) / pi_product(j, n, b)
                    rhs = (b ** (n + j - 1) - b ** (n - 2)) / (b ** (n - 1) - b ** j)
                    assert lhs == rhs, (b, n, j)


class TestFrozenInverses:
    def test_two_by_two_base_two(self):
        inv = inverse_matrix(GeometricVandermonde(BaseSpec.parse("2"), 2))
        assert inv.entries == ((2, -1), (-1, 1))

    def test_one_by_one(self):
        inv = inverse_matrix(GeometricVandermonde(BaseSpec.parse("3/2"), 1))
        assert inv.entries == ((1,),)

    def test_entry_matches_oracle_case(self):
        gv = GeometricVandermonde(BaseSpec.parse("2"), 3)
        assert inverse_matrix(gv).entries[1][1] == gaussian_inverse(gv).entries[1][1]


class TestExactInvariants:
    def test_inversion_identity(self, cached_inverse):
        for spec in GRID:
            for n in range(1, 17):
                gv = GeometricVandermonde(spec, n)
                assert residual_norm(gv, cached_inverse(spec, n)) == 0, (spec, n)

    def test_oracle_equivalence(self, cached_inverse):
        for spec in GRID:
            for n in range(1, 13):
                gv = GeometricVandermonde(spec, n)
                oracle = gaussian_inverse(gv)
                assert oracle.entries == cached_inverse(spec, n).entries, (spec, n)

    def test_symmetry(self, cached_inverse):
        for spec in GRID:
            for n in range(1, 17):
                e = cached_inverse(spec, n).entries
                assert all(e[i][j] == e[j][i]
                           for i in range(n) for j in range(n)), (spec, n)

    def test_checkerboard_signs(self, cached_inverse):
        for spec in GRID:
            for n in range(1, 13):
                e = cached_inverse(spec, n).entries
                for i in range(n):
                    for j in range(n):
                        assert (e[i][j] > 0) == ((i + j) % 2 == 0), (spec, n, i, j)

    def test_magnitude_formula(self, cached_inverse):
        for spec in GRID[:3]:
            b = spec.value
            for n in range(1, 11):
                e = cached_inverse(spec, n).entries
                for j in range(n):
                    pi_j = pi_product(j, n, b)
                    for i in range(n):
                        sigma = sigma_finite(n - 1 - i, j, n, b)
                        assert abs(e[i][j]) * pi_j == sigma, (spec, n, i, j)

    def test_pi_monotonicity_above_threshold(self):
        from vangeo.extremal import n_zero
        for spec in GRID:
            b = spec.value
            n0 = n_zero(b)
            for n in range(2, 21):
                for j in range(n0, n - 1):
                    assert pi_product(j, n, b) <= pi_product(j + 1, n, b), (spec, n, j)

    @given(st.integers(min_value=1, max_value=20),
           st.one_of(st.integers(min_value=2, max_value=3).map(Fraction),
                     st.fractions(min_value=1, max_value=3, max_denominator=50)
                     .filter(lambda b: b > 1)))
    @example(20, Fraction(2))
    @example(20, Fraction(3))
    @example(20, Fraction(51, 50))
    @settings(max_examples=40, deadline=None)
    def test_identity_random_bases(self, n, b):
        spec = BaseSpec.rational(b.numerator, b.denominator)
        gv = GeometricVandermonde(spec, n)
        inv = inverse_matrix(gv)
        assert inv.entries == gaussian_inverse(gv).entries
        assert residual_norm(gv, inv) == 0

    @pytest.mark.parametrize("text", ["2", "6/5"])
    def test_residual_detects_wrong_entry(self, text, cached_inverse):
        spec = BaseSpec.parse(text)
        n = 8
        gv = GeometricVandermonde(spec, n)
        entries = [list(row) for row in cached_inverse(spec, n).entries]
        entries[3][5] += Fraction(1, 7)
        wrong = InverseMatrix(n=n, base=spec, backend="exact",
                              entries=tuple(tuple(row) for row in entries))
        v = oracles.vandermonde_matrix(gv)
        expected = max(abs(sum(Fraction(v[i][k]) * entries[k][j] for k in range(n))
                           - (1 if i == j else 0))
                       for i in range(n) for j in range(n))
        assert expected != 0
        assert residual_norm(gv, wrong) == expected


# p/q with q <= 13 in each band of the bench's finite_exact workload
_BAND_BASES = st.one_of(*(
    st.sampled_from(sorted({Fraction(p, q) for q in range(1, 14) for p in range(q + 1, 3 * q + 1)
                            if low <= Fraction(p, q) <= high}))
    for low, high in [(Fraction(6, 5), Fraction(8, 5)), (Fraction(33, 20), Fraction(11, 5)),
                      (Fraction(11, 5), Fraction(3))]))


def _edited(inv, edit):
    """inv with edit applied to a mutable copy of its rows."""
    rows = [list(row) for row in inv.entries]
    edit(rows)
    return InverseMatrix(n=inv.n, base=inv.base, backend=inv.backend,
                         entries=tuple(tuple(row) for row in rows))


class TestIdentityResidual:
    """The exact residual decides each column by one polynomial identity in
    O(n) and scans only the failing columns; it must equal the n^2 dot
    products of oracles.residual_loop on true and faulty inverses."""

    @given(_BAND_BASES, st.integers(min_value=1, max_value=20), st.data())
    @example(Fraction(7, 3), 20, None)
    @example(Fraction(6, 5), 2, None)
    @settings(max_examples=60, deadline=None)
    def test_equals_the_loop(self, b, n, data):
        gv = GeometricVandermonde(BaseSpec.rational(b.numerator, b.denominator), n)
        inv = inverse_matrix(gv)
        if data is None:
            i, j, factor = n - 1, 0, Fraction(-1)
        else:
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            factor = data.draw(st.sampled_from([Fraction(-1), Fraction(2), Fraction(1, 3),
                                                Fraction(10 ** 9 + 1, 10 ** 9)]))
        wrong = _edited(inv, lambda rows: rows[i].__setitem__(j, rows[i][j] * factor))
        scanned, scan = [], vandinv._worst_entry

        def recorded(b, n, failed):
            scanned.append([column for column, _, _ in failed])
            return scan(b, n, failed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(vandinv, "_worst_entry", recorded)
            assert residual_norm(gv, inv) == oracles.residual_loop(gv, inv) == 0
            residual = residual_norm(gv, wrong)
        assert residual == oracles.residual_loop(gv, wrong)
        assert residual > 0
        # the identity alone passes every true column and fails only column j
        assert scanned == [[], [j]]

    @pytest.mark.parametrize("text", ["2", "7/3", "13/10"])
    def test_a_column_off_by_a_multiple_of_the_identity(self, text):
        """A column scaled as a whole is still a multiple of the Lagrange
        column, and must fail by its scale: the check must not divide it away."""
        spec, n = BaseSpec.parse(text), 6
        gv = GeometricVandermonde(spec, n)

        def triple_column(rows):
            for row in rows:
                row[2] *= 3
        wrong = _edited(inverse_matrix(gv), triple_column)
        assert residual_norm(gv, wrong) == oracles.residual_loop(gv, wrong) == 2


@pytest.mark.parametrize("text,other", [("7/3", "2"), ("tau", "alpha")])
def test_residual_rejects_a_mismatched_inverse(text, other):
    """An exact and a ball inverse of size 5: a matrix of another size or
    another base raises DomainError; its own matrix does not."""
    inv = inverse_matrix(GeometricVandermonde(BaseSpec.parse(text), 5), 64)
    for n, base in ((4, text), (6, text), (5, other)):
        with pytest.raises(DomainError, match="^inverse does not match the given matrix$"):
            residual_norm(GeometricVandermonde(BaseSpec.parse(base), n), inv)
    residual_norm(GeometricVandermonde(BaseSpec.parse(text), 5), inv)


class TestEliminationOracle:
    """The fraction-free oracle against Gauss-Jordan over Fractions."""

    def test_grid(self):
        for spec in GRID:
            for n in range(1, 13):
                gv = GeometricVandermonde(spec, n)
                assert gaussian_inverse(gv).entries == oracles.gauss_jordan_inverse(gv), (spec, n)

    @given(st.integers(min_value=1, max_value=9),
           st.fractions(min_value=1, max_value=4, max_denominator=30).filter(lambda b: b > 1))
    @example(9, Fraction(31, 30))
    @settings(max_examples=25, deadline=None)
    def test_random_bases(self, n, b):
        gv = GeometricVandermonde(BaseSpec.rational(b.numerator, b.denominator), n)
        assert gaussian_inverse(gv).entries == oracles.gauss_jordan_inverse(gv)


class TestRigorousBackend:
    def test_residual_contains_zero_tau(self):
        gv = GeometricVandermonde(BaseSpec.parse("tau"), 6)
        inv = inverse_matrix(gv, 128)
        residual = residual_norm(gv, inv)
        assert oracles.contains(residual, 0)
        assert residual.upper < Fraction(1, 10 ** 20)

    def test_entries_enclose_exact_computation(self, cached_inverse):
        # run the rigorous path on a rational base and compare with exact
        spec = BaseSpec.parse("7/5")
        exact = cached_inverse(spec, 8).entries
        gv = GeometricVandermonde(spec, 8)
        rig = inverse_matrix(gv, 192)
        from vangeo.vandinv import _inverse_entries_rigorous
        entries = _inverse_entries_rigorous(gv, 192)
        for i in range(8):
            for j in range(8):
                assert oracles.contains(entries[i][j], exact[i][j]), (i, j)
        assert rig.backend == "exact"            # rational bases stay exact

    def test_symmetric_enclosures_overlap(self):
        inv = inverse_matrix(GeometricVandermonde(BaseSpec.parse("alpha"), 7), 128)
        e = inv.entries
        for i in range(7):
            for j in range(7):
                assert oracles.overlaps(e[i][j], e[j][i])

    def test_ball_sweeps_share_their_prefixes(self, monkeypatch):
        # column j folds q^(j+1)..q^(n-1), f steps for the f-th node, into the
        # state after q^0..q^(j-1), which grows by one node per column:
        # sum_j sum_{f > j} f = (n-1)n(2n-1)/6 steps, plus n(n-1)/2 for the
        # prefixes, against n * n(n-1)/2 for n independent sweeps
        n, steps, original = 18, [], symfunc._ball_dot

        def counted(acc, pairs, prec):
            pairs = list(pairs)
            steps.extend(pairs)
            return original(acc, pairs, prec)
        monkeypatch.setattr(symfunc, "_ball_dot", counted)
        inverse_matrix(GeometricVandermonde(BaseSpec.parse("tau"), n))
        assert len(steps) == (n - 1) * n * (2 * n - 1) // 6 + n * (n - 1) // 2 == 1938

    def test_signs_certified(self):
        inv = inverse_matrix(GeometricVandermonde(BaseSpec.parse("tau"), 9), 256)
        for i in range(9):
            for j in range(9):
                assert inv.entries[i][j].sign() == (-1) ** ((i + j) % 2)

    def test_gaussian_oracle_rejects_irrational(self):
        with pytest.raises(DomainError, match="^gaussian_inverse requires an exact rational base$"):
            gaussian_inverse(GeometricVandermonde(BaseSpec.parse("tau"), 3))


class TestSerialization:
    """The inverse as the CLI prints it (cli formats every report)."""

    def test_csv_base_two(self, cached_inverse):
        inv = cached_inverse(BaseSpec.parse("2"), 2)
        code, output = cli.run(["inverse", "--base", "2", "--n", "2", "--format", "csv"])
        assert code == 0 and output == "2,-1\n-1,1"
        assert output == "\n".join(",".join(map(str, row)) for row in inv.entries)

    def test_json_schema(self):
        code, output = cli.run(["inverse", "--base", "3/2", "--n", "3", "--format", "json"])
        payload = json.loads(output)
        assert code == 0
        assert set(payload) == {"n", "base", "backend", "entries"}
        assert payload["n"] == 3
        assert payload["base"] == "3/2"
        assert payload["backend"] == "exact"
        assert len(payload["entries"]) == 9
        assert payload["entries"][0] == "27/5"

    def test_format_entry(self):
        assert cli._format_entry(Fraction(-3, 4), 20) == "-3/4"
        assert cli._format_entry(Fraction(2), 20) == "2"
        from vangeo.scalar import RigorousReal
        ball = RigorousReal.exact(Fraction(1, 3), 128)
        text = cli._format_entry(ball, 10)
        assert "±" in text and text.startswith("0.3333333333")

    @pytest.mark.parametrize("text", ["7/3", "tau"])
    def test_each_mirrored_pair_is_formatted_once(self, text, monkeypatch):
        n, calls, original = 8, [], cli._format_entry
        inv = inverse_matrix(GeometricVandermonde(BaseSpec.parse(text), n))
        expected = [[original(v, 12) for v in row] for row in inv.entries]
        monkeypatch.setattr(cli, "_format_entry",
                            lambda value, digits: calls.append(value) or original(value, digits))
        assert cli._entry_strings(inv, 12) == expected
        assert len(calls) == n * (n + 1) // 2
        code, output = cli.run(["inverse", "--base", text, "--n", str(n), "--digits", "12",
                                "--format", "json"])
        assert json.loads(output)["entries"] == [cell for row in expected for cell in row]

    def test_unshared_entries_print_their_own_values(self, cached_inverse):
        spec = BaseSpec.parse("7/3")
        closed = cached_inverse(spec, 4)
        rows = [list(row) for row in closed.entries]
        rows[0][2] = Fraction(5, 7)                     # planted above, not below
        planted = InverseMatrix(n=4, base=spec, backend="exact",
                                entries=tuple(tuple(row) for row in rows))
        cells = cli._entry_strings(planted, 20)
        assert cells[0][2] == "5/7" and cells[2][0] == cli._format_entry(closed.entries[2][0], 20)
        # the oracle builds every entry on its own: equal values, equal strings
        oracle = gaussian_inverse(GeometricVandermonde(spec, 4))
        assert oracle.entries[0][1] is not oracle.entries[1][0]
        assert cli._entry_strings(oracle, 20) == cli._entry_strings(closed, 20)


class TestColumnForm:
    """|c_{i,j,n}| = A_{i,j} / pi_j over Z or Z[theta], against the oracles."""

    def test_rational_grid_equals_elimination(self):
        for spec in GRID:
            for n in range(1, 11):
                gv = GeometricVandermonde(spec, n)
                form = ColumnForm(gv)
                oracle = gaussian_inverse(gv).entries
                for j in range(n):
                    nums, pi = form.magnitudes(j, range(n))
                    signed = [Fraction(-a if (i + j) % 2 else a, pi) for i, a in enumerate(nums)]
                    assert signed == [oracle[i][j] for i in range(n)], (spec, n, j)

    @pytest.mark.parametrize("spec", GRID + [BaseSpec.parse("tau"), BaseSpec.parse("alpha")],
                             ids=lambda spec: spec.text)
    def test_master_polynomial_equals_the_sweep(self, spec):
        # the q-binomial recurrence, with its exact divisions, against e_k of
        # the nodes by the O(n^2) elementary-symmetric sweep
        for n in range(1, 41):
            form = ColumnForm(GeometricVandermonde(spec, n))
            one = 1 if spec.is_exact else form.nodes[0]
            swept = symfunc.elementary_symmetric(form.nodes, n, one)
            if spec.is_exact:
                assert form.master == swept, n
            else:
                assert [e.coefficients for e in form.master] \
                    == [e.coefficients for e in swept], n

    @pytest.mark.parametrize("spec", GRID + [BaseSpec.parse("tau"), BaseSpec.parse("alpha")],
                             ids=lambda spec: spec.text)
    def test_bounds_are_the_largest_master_terms(self, spec):
        # column j's bound is the largest E_(n-1-i) s^(i+1) over the rows
        # i <= j, with E by the sweep and s = q^(n-1), over s pi_j; no entry
        # of the column exceeds it
        by_value = functools.cmp_to_key(lambda a, b: exact_sign(a - b))
        value = (lambda x: x) if spec.is_exact else operator.attrgetter("coefficients")
        for n in range(1, 25):
            form = ColumnForm(GeometricVandermonde(spec, n))
            one = 1 if spec.is_exact else form.nodes[0]
            master = symfunc.elementary_symmetric(form.nodes, n, one)
            s = spec.value.denominator ** (n - 1) if spec.is_exact else 1
            terms = [master[n - 1 - i] * s ** (i + 1) for i in range(n)]
            for j, bound in enumerate(form.bounds()):
                top, scaled_pi = bound
                assert value(top) == value(max(terms[:j + 1], key=by_value)), (n, j)
                assert value(scaled_pi) == value(form.pis[j] * s), (n, j)
                nums, pi = form.magnitudes(j, range(j + 1))
                assert all(compare_ratios((a, pi), bound) <= 0 for a in nums), (n, j)

    @pytest.mark.parametrize("name", ["tau", "alpha"])
    def test_constant_images_overlap_the_ball_kernel(self, name, cached_inverse):
        spec = BaseSpec.parse(name)
        for n in range(1, 17):
            form = ColumnForm(GeometricVandermonde(spec, n))
            entries = cached_inverse(spec, n).entries
            for j in range(n):
                nums, pi = form.magnitudes(j, range(n))
                for i, a in enumerate(nums):
                    assert oracles.overlaps(form.value(a, pi), oracles.ball_abs(entries[i][j])), \
                        (name, n, i, j)

    @pytest.mark.parametrize("name", ["tau", "alpha"])
    def test_constant_form_matches_sigma_and_pi_in_z_theta(self, name):
        # q = 1 at tau and alpha: A_{i,j} = sigma_{n-1-i,j,n}(theta), and pi_j
        # is pi_product at theta, both taken in Z[theta], coefficient for coefficient
        spec = BaseSpec.parse(name)
        theta = at_base((0, 1), spec)
        for n in range(1, 11):
            form = ColumnForm(GeometricVandermonde(spec, n))
            for j in range(n):
                nums, pi = form.magnitudes(j, range(n))
                assert pi.coefficients == pi_product(j, n, theta).coefficients, (name, n, j)
                for i, a in enumerate(nums):
                    sigma = sigma_finite(n - 1 - i, j, n, theta)
                    assert a.coefficients == sigma.coefficients, (name, n, i, j)

    @pytest.mark.parametrize("spec", GRID + [BaseSpec.parse("tau"), BaseSpec.parse("alpha")],
                             ids=lambda spec: spec.text)
    def test_pi_table_equals_the_plain_product(self, spec):
        # at p/q the nodes are q^(n-1) b^h, so the table holds q^((n-1)^2) times
        # the plain product; at tau and alpha (q = 1) the same element of Z[theta]
        value = spec.value
        b = at_base((0, 1), spec) if value is None else value
        for n in range(1, 31):
            pis = ColumnForm(GeometricVandermonde(spec, n)).pis
            assert len(pis) == n
            for j, pi in enumerate(pis):
                plain = pi_product(j, n, b)
                if value is None:
                    assert pi.coefficients == plain.coefficients, (n, j)
                else:
                    assert pi == plain * value.denominator ** ((n - 1) ** 2), (n, j)

    def test_inverse_matrix_reads_the_cached_form(self, monkeypatch):
        # every exact inverse of one matrix object shares its column form
        built = []
        original = ColumnForm.__init__

        def counted(form, gv):
            built.append(gv.n)
            original(form, gv)
        monkeypatch.setattr(ColumnForm, "__init__", counted)
        gv = GeometricVandermonde(BaseSpec.parse("7/3"), 12)
        first = inverse_matrix(gv).entries
        assert inverse_matrix(gv).entries == first
        assert built == [12]
        assert first == gaussian_inverse(gv).entries

    def test_inverse_matrix_deflates_each_column_once(self, monkeypatch):
        # two exact inverses of one matrix object cost one deflation per column
        spec = BaseSpec.parse("7/3")
        expected = [list(row) for row in inverse_matrix(GeometricVandermonde(spec, 12)).entries]
        calls = []
        original = ColumnForm.magnitudes

        def counted(form, j, rows):
            calls.append(j)
            return original(form, j, rows)
        monkeypatch.setattr(ColumnForm, "magnitudes", counted)
        gv = GeometricVandermonde(spec, 12)
        entries = [[list(row) for row in inverse_matrix(gv).entries] for _ in range(2)]
        assert entries == [expected, expected]
        assert sorted(calls) == list(range(12))


# composite p and q, q = 1, a decimal literal and a base near 1
LOWEST_TERMS_BASES = ["6/5", "9/4", "25/12", "2", "3", "1.5", "1001/1000"]


@st.composite
def rational_bases(draw):
    """One of LOWEST_TERMS_BASES, or p/q in lowest terms with 1 <= q <= 40 and
    q < p <= 3q."""
    if draw(st.booleans()):
        return BaseSpec.parse(draw(st.sampled_from(LOWEST_TERMS_BASES)))
    q = draw(st.integers(1, 40))
    p = draw(st.integers(q + 1, 3 * q).filter(lambda p: math.gcd(p, q) == 1))
    return BaseSpec.parse(f"{p}/{q}")


def _cofactors(p: int, q: int, n: int):
    """d_j = D_j D_(n-1-j) with D_d = prod_{s=1}^{d} (p^s - q^s), by products."""
    gap_products = [math.prod(p ** s - q ** s for s in range(1, d + 1)) for d in range(n)]
    return [gap_products[j] * gap_products[n - 1 - j] for j in range(n)]


class TestLowestTerms:
    """The exact inverse reduced through pi_j = p^(a_j) q^(a_(n-1-j)) d_j:
    the same Fractions as one gcd of A_{i,j} and pi_j, with one gcd against
    d_j per entry pair and no second normalisation."""

    @given(rational_bases(), st.integers(1, 30))
    @example(BaseSpec.parse("25/12"), 30)
    @example(BaseSpec.parse("1001/1000"), 30)
    @example(BaseSpec.parse("3"), 30)
    @settings(max_examples=60, deadline=None)
    def test_entries_equal_the_one_gcd_reduction(self, spec, n):
        entries = inverse_matrix(GeometricVandermonde(spec, n)).entries
        expected = oracles.one_gcd_inverse_entries(GeometricVandermonde(spec, n))
        for row, expected_row in zip(entries, expected):
            for x, y in zip(row, expected_row):
                assert type(x) is Fraction
                assert (x.numerator, x.denominator) == (y.numerator, y.denominator), (spec, n)

    @pytest.mark.parametrize("text", LOWEST_TERMS_BASES + ["23/8", "7/3"])
    def test_the_split_is_prime_to_pq(self, text):
        # A_{i,j} = p^mu q^nu U with mu, nu the sums of the n-1-i smallest h
        # and n-1-h over h != j (nu plus the row scale (n-1)i), and pi_j =
        # p^(a_j) q^(a_(n-1-j)) d_j, with U and d_j prime to pq
        p, q = BaseSpec.parse(text).value.as_integer_ratio()
        for n in range(1, 21):
            form = ColumnForm(GeometricVandermonde(BaseSpec.parse(text), n))
            cofactors = _cofactors(p, q, n)
            for j in range(n):
                a_p, a_q = j * (2 * n - 3 - j) // 2, (n - 1 - j) * (n - 2 + j) // 2
                assert form.pis[j] == p ** a_p * q ** a_q * cofactors[j], (text, n, j)
                assert math.gcd(cofactors[j], p * q) == 1, (text, n, j)
                exponents = sorted(h for h in range(n) if h != j)
                nums, _ = form.magnitudes(j, range(j + 1))
                for i, a in enumerate(nums):
                    k = n - 1 - i
                    mu = sum(exponents[:k])
                    nu = sum(sorted(n - 1 - h for h in exponents)[:k]) + (n - 1) * i
                    u, rest = divmod(a, p ** mu * q ** nu)
                    assert rest == 0 and math.gcd(u, p * q) == 1, (text, n, i, j)

    @pytest.mark.parametrize("text,n", [("23/8", 14), ("25/12", 9), ("3", 10)])
    def test_one_small_gcd_per_entry_pair(self, text, n, monkeypatch):
        # the gcds of one exact inverse: one per pair i <= j, column by column,
        # each called from vandinv against the cofactor d_j, shorter than pi_j,
        # and none from Fraction's own normalisation
        spec = BaseSpec.parse(text)
        p, q = spec.value.as_integer_ratio()
        cofactors = _cofactors(p, q, n)
        pis = ColumnForm(GeometricVandermonde(spec, n)).pis
        calls = []
        gcd = math.gcd

        def counted(*args):
            calls.append((sys._getframe(1).f_globals["__name__"], args))
            return gcd(*args)
        monkeypatch.setattr(math, "gcd", counted)
        inverse_matrix(GeometricVandermonde(spec, n))
        monkeypatch.undo()
        columns = [j for j in range(n) for _ in range(j + 1)]
        assert len(calls) == len(columns)
        for j, (caller, args) in zip(columns, calls):
            assert caller == "vangeo.vandinv" and len(args) == 2, (caller, j)
            assert args[1].bit_length() <= cofactors[j].bit_length(), j
        assert all(d.bit_length() < pi.bit_length() for d, pi in zip(cofactors[1:], pis[1:]))

    @pytest.mark.parametrize("num,den", [(5, 7), (-12, 35), (1, 1), (-(3 ** 90), 2 ** 70 * 5 ** 11)])
    def test_filled_fraction_is_the_constructed_one(self, num, den):
        # the entries fill Fraction's two slots from a coprime pair; they must
        # behave as Fraction(num, den) does, or the slots have changed
        filled, built = vandinv._fraction(num, den), Fraction(num, den)
        assert type(filled) is Fraction
        assert filled == built and hash(filled) == hash(built) and str(filled) == str(built)
        assert (filled.numerator, filled.denominator) == (built.numerator, built.denominator)
        third = Fraction(1, 3)
        assert filled * third + 1 == built * third + 1
        assert str(filled * third + 1) == str(built * third + 1)
