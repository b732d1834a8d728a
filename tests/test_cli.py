"""Command-line contract: outputs, formats, exit codes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from vangeo import cli, vandinv
from vangeo.scalar import BaseSpec, ZTheta, evaluate_base

SRC = Path(__file__).resolve().parent.parent / "src"


def run_ok(argv):
    code, output = cli.run(argv)
    assert code == 0, output
    return output


class TestInverse:
    def test_csv_base_two(self):
        assert run_ok(["inverse", "--base", "2", "--n", "2", "--format", "csv"]) \
            == "2,-1\n-1,1"

    def test_text_one_by_one(self):
        assert run_ok(["inverse", "--base", "3/2", "--n", "1"]) == "1"

    def test_rigorous_tau_has_residual_line(self):
        output = run_ok(["inverse", "--base", "tau", "--n", "3", "--digits", "30"])
        assert "±" in output
        assert "residual: contains 0" in output

    def test_faulty_ball_inverse_excludes_0(self, monkeypatch):
        # a doubled ball entry leaves V*C - I far from 0, beyond every radius
        scale_entry(4, 0, 0, 2)(monkeypatch)
        output = run_ok(["inverse", "--base", "tau", "--n", "4"])
        assert output.splitlines()[-1].startswith("residual: EXCLUDES 0, upper bound ")

    def test_json_schema(self):
        payload = json.loads(run_ok(
            ["inverse", "--base", "2", "--n", "3", "--format", "json"]))
        assert payload["n"] == 3 and payload["backend"] == "exact"
        assert payload["entries"][0] == "8/3"

    def test_decimal_base_uses_exact_backend(self):
        payload = json.loads(run_ok(
            ["inverse", "--base", "1.2", "--n", "2", "--format", "json"]))
        assert payload["backend"] == "exact"
        assert payload["base"] == "1.2"


class TestSigma:
    def test_frozen_integer(self):
        assert run_ok(["sigma", "--i", "2", "--j", "1", "--n", "4", "--x", "2"]) == "44"

    def test_frozen_fraction(self):
        assert run_ok(["sigma", "--i", "1", "--j", "1", "--n", "4", "--x", "1/2"]) \
            == "11/8"

    def test_constant_point(self):
        output = run_ok(["sigma", "--i", "1", "--j", "0", "--n", "3", "--x", "tau",
                         "--digits", "12"])
        # tau + tau^2 = 1 + 2*tau = 2 + sqrt(5) = 4.23606797749978969...
        assert output.startswith("4.2360679775")
        assert "±" in output

    def test_json(self):
        payload = json.loads(run_ok(
            ["sigma", "--i", "1", "--j", "0", "--n", "3", "--x", "3",
             "--format", "json"]))
        assert payload == {"i": 1, "j": 0, "n": 3, "x": "3", "value": "12"}


class TestMax:
    def test_text(self):
        output = run_ok(["max", "--base", "2", "--n", "2"])
        assert "max = 2.0000000000000000000" in output
        assert "argmax = (0,0)" in output
        assert "n0 = 1" in output

    def test_csv(self):
        line = run_ok(["max", "--base", "6/5", "--n", "12", "--format", "csv",
                       "--digits", "10"])
        assert line == "6/5,12,4,74647.76654,3:3,true,false"

    def test_json_roundtrip(self):
        payload = json.loads(run_ok(
            ["max", "--base", "1.2", "--n", "12", "--format", "json"]))
        assert payload["n_zero"] == 4 and payload["within_n_zero_box"]

    def test_digits_beyond_the_default_precision(self):
        # 120 digits need more than the default 256 bits: the max is printed
        # at 4 bits a digit, and must round like a 1024-bit image of the entry
        lines = run_ok(["max", "--base", "tau", "--n", "10", "--digits", "120"]).splitlines()
        assert lines[1] == "argmax = (1,1)"
        gv = vandinv.GeometricVandermonde(BaseSpec.parse("tau"), 10)
        image = oracles.ball_abs(vandinv.inverse_matrix(gv, 1024).entries[1][1])
        assert lines[0] == f"max = {image.decimal(120)}"


class TestLimit:
    def test_json_schema(self):
        payload = json.loads(run_ok(
            ["limit", "--base", "2", "--tol", "1e-18", "--format", "json"]))
        assert payload["argmax"] == [[1, 1]]
        assert payload["max"].startswith("5.19411992918259541")

    def test_regime_line(self):
        output = run_ok(["limit", "--base", "3", "--tol", "1e-10"])
        assert "regime = above_alpha" in output

    def test_boundary_flag(self):
        output = run_ok(["limit", "--base", "alpha", "--tol", "1e-10"])
        assert "regime = above_alpha (boundary)" in output


class TestTable:
    def test_all_rows_match(self):
        output = run_ok(["table"])
        lines = output.splitlines()
        assert len(lines) == 9      # header + 8 rows
        assert all(line.endswith("match") for line in lines[1:])

    def test_csv_row_values(self):
        output = run_ok(["table", "--format", "csv"])
        rows = [line.split(",") for line in output.splitlines()]
        assert [r[0] for r in rows] == ["3", "alpha", "2", "tau", "1.5", "1.4",
                                        "1.3", "1.2"]
        for row in rows:
            assert row[1] == row[2] and row[3] == "match"

    def test_wrong_reference_is_flagged_mismatch(self):
        # a reference off by 10 ulps must certify as mismatch, not uncertified
        _, status, _ = cli._certify_row("2", "5.194119929182595427")
        assert status == "mismatch"

    def test_mismatch_exits_one(self, monkeypatch):
        corrupted = (("2", "5.194119929182595427"),)
        monkeypatch.setattr(cli, "REFERENCE_TABLE", corrupted)
        code, output = cli.run(["table"])
        assert code == 1
        assert "mismatch" in output


class TestVerify:
    def test_exact_base_passes(self):
        code, output = cli.run(["verify", "--base", "2", "--n-max", "8"])
        assert code == 0
        assert "[FAIL]" not in output
        assert "all checks passed" in output

    def test_below_golden_skips_diagonal(self):
        code, output = cli.run(["verify", "--base", "6/5", "--n-max", "6"])
        assert code == 0
        assert "[skip] leading-diagonal max" in output

    def test_rigorous_base_passes(self):
        code, output = cli.run(["verify", "--base", "tau", "--n-max", "5"])
        assert code == 0
        assert "residual enclosure contains 0" in output

    @pytest.mark.parametrize("base", ["7/3", "tau"])
    def test_one_inverse_per_size(self, base, monkeypatch):
        # the suites and the diagonal-argmax line share one inverse per n
        from vangeo import extremal, vandinv
        sizes = []
        original = vandinv.inverse_matrix

        def counted(gv, *args, **kwargs):
            sizes.append(gv.n)
            return original(gv, *args, **kwargs)
        monkeypatch.setattr(vandinv, "inverse_matrix", counted)
        monkeypatch.setattr(extremal, "inverse_matrix", counted)
        code, output = cli.run(["verify", "--base", base, "--n-max", "5"])
        assert code == 0
        assert sorted(sizes) == [1, 2, 3, 4, 5]
        assert "[info] diagonal-argmax scan: 0 of 4 sizes non-diagonal" in output

    @pytest.mark.parametrize("base,n_max", [("7/3", 10), ("alpha", 6)])
    def test_one_pi_per_size(self, base, n_max, monkeypatch):
        # the magnitude, pi ratio and pi monotonicity checks share one pi table
        from collections import Counter
        calls = Counter()
        original = vandinv.pi_product

        def counted(j, n, b):
            calls[j, n] += 1
            return original(j, n, b)
        monkeypatch.setattr(vandinv, "pi_product", counted)
        code, _ = cli.run(["verify", "--base", base, "--n-max", str(n_max)])
        assert code == 0
        assert calls and max(calls.values()) == 1

    @pytest.mark.parametrize("base,first", [("7/3", 1), ("3/2", 1), ("tau", 2), ("alpha", 2)])
    def test_one_column_form_per_size(self, base, first, monkeypatch):
        # the exact inverse, the box check and the diagonal check read the
        # matrix object's cached column form; the ball inverse builds none,
        # so at tau and alpha only the box checks (n >= 2) build one
        sizes = []
        original = vandinv.ColumnForm.__init__

        def counted(form, gv):
            sizes.append(gv.n)
            original(form, gv)
        monkeypatch.setattr(vandinv.ColumnForm, "__init__", counted)
        code, _ = cli.run(["verify", "--base", base, "--n-max", "7"])
        assert code == 0
        assert sorted(sizes) == list(range(first, 8))

    @pytest.mark.parametrize("base", ["7/3", "tau", "alpha", "3/2"])
    def test_one_max_entry_per_size(self, base, monkeypatch):
        # one full argmax scan per size, the box check's, over every entry
        # i <= j; the leading-diagonal check reads its max report
        from vangeo import extremal
        sizes = []
        original = extremal.maximal_ratios

        def counted(items, *args):
            items = list(items)
            n = items[-1][0][1] + 1
            assert len(items) == n * (n + 1) // 2
            sizes.append(n)
            return original(items, *args)
        monkeypatch.setattr(extremal, "maximal_ratios", counted)
        code, _ = cli.run(["verify", "--base", base, "--n-max", "5"])
        assert code == 0
        assert sizes == [2, 3, 4, 5]

    def test_diagonal_check_rejects_another_size_report(self):
        from vangeo import extremal, vandinv
        from vangeo.errors import DomainError
        from vangeo.scalar import BaseSpec
        base = BaseSpec.parse("2")
        box = extremal.verify_argmax_box(vandinv.GeometricVandermonde(base, 4))
        with pytest.raises(DomainError):
            extremal.verify_leading_diagonal_max(vandinv.GeometricVandermonde(base, 5),
                                                 max_report=box.max_report)


SIGMA_CHECKS = ("magnitude formula |c|*pi = sigma (n <= 12)",
                "sigma j-monotonicity (n <= 10)", "complement identity (n <= 10)")


def old_exact_sigma_checks(base, n_max, matrices):
    """The exact suite's sigma checks as they were, one sigma_finite sweep per
    (i, j): the oracle of the shared rows.  Returns {name: (ok, witness)}."""
    from vangeo import symfunc
    b = base.value

    def check_magnitude():
        for n in range(1, min(n_max, 12) + 1):
            e = matrices[n].entries
            for j in range(n):
                pi_j = vandinv.pi_product(j, n, b)
                for i in range(n):
                    sig = symfunc.sigma_finite(n - 1 - i, j, n, b)
                    if abs(e[i][j]) * pi_j != sig:
                        return False, f"|c|*pi != sigma at n={n}, ({i},{j})"
        return True, ""

    def check_sigma_monotone():
        for n in range(2, min(n_max, 10) + 1):
            for x, increasing in ((b, False), (1 / b, True)):
                for i in range(n):
                    values = [symfunc.sigma_finite(i, j, n, x)
                              for j in range(n)]
                    for j in range(n - 1):
                        ok = values[j] <= values[j + 1] if increasing \
                            else values[j] >= values[j + 1]
                        if not ok:
                            return False, f"sigma j-monotonicity at n={n}, i={i}, j={j}"
        return True, ""

    def check_complement():
        for n in range(1, min(n_max, 10) + 1):
            for i in range(n):
                for j in range(n):
                    lhs, rhs = oracles.sigma_complement_pair(i, j, n, b)
                    if lhs != rhs:
                        return False, f"complement identity at n={n}, ({i},{j})"
        return True, ""

    return dict(zip(SIGMA_CHECKS, (check_magnitude(), check_sigma_monotone(),
                                   check_complement())))


def old_rigorous_complement(base, n_max):
    """The constant-base complement check as it was.  At b > 1, sigma_finite
    takes both sides from the same sweep at 1/b, so it cannot fail."""
    b = evaluate_base(base, 64)
    for n in range(1, min(n_max, 10) + 1):
        for i in range(n):
            for j in range(n):
                lhs, rhs = oracles.sigma_complement_pair(i, j, n, b)
                if not oracles.overlaps(lhs, rhs):
                    return False, f"complement identity at n={n}, ({i},{j})"
    return True, ""


def suite_results(base, n_max, matrices=None):
    """{name: (ok, witness)} of the verify suite at the base."""
    from vangeo import extremal
    sizes = {n: vandinv.GeometricVandermonde(base, n) for n in range(1, n_max + 1)}
    if matrices is None:
        matrices = {n: vandinv.inverse_matrix(gv) for n, gv in sizes.items()}
    boxes = {n: extremal.verify_argmax_box(sizes[n]) for n in range(2, n_max + 1)}
    return {name: (ok, witness)
            for name, ok, witness in cli._verify_suite(base, sizes, matrices, boxes)}


def with_entry(inv, i, j, value):
    entries = [list(row) for row in inv.entries]
    entries[i][j] = value
    return vandinv.InverseMatrix(n=inv.n, base=inv.base, backend=inv.backend,
                                 entries=tuple(tuple(row) for row in entries))


def drop_last_node(original):
    def sweep(values, upto, one):
        return original(list(values)[:-1] if len(values) >= 3 else values, upto, one)
    return sweep


def double_e2(original):
    def sweep(values, upto, one):
        e = original(values, upto, one)
        if upto >= 2:
            e[2] = e[2] * 2
        return e
    return sweep


def corrupt_top_node(original):
    def powers(x, n, skip):
        pows = original(x, n, skip)
        if pows:
            pows[-1] = pows[-1] * 2
        return pows
    return powers


class TestVerifySigmaRows:
    """The shared sigma rows of verify against the per-(i, j) sigma_finite
    loops they replaced: same pass/fail, same first witness."""

    @pytest.mark.parametrize("text", ["2", "7/3", "3/2", "6/5"])
    @pytest.mark.parametrize("fault", [(3, 0, 2, 2), (5, 1, 1, 1), (6, 4, 2, -1),
                                       (4, 3, 3, 0), (1, 0, 0, Fraction(1, 7))])
    def test_injected_matrix_fault(self, text, fault):
        # fault (n, i, j, factor): entry (i, j) of the size-n inverse times factor
        base = BaseSpec.parse(text)
        n, i, j, factor = fault
        matrices = {m: vandinv.inverse_matrix(vandinv.GeometricVandermonde(base, m))
                    for m in range(1, 7)}
        matrices[n] = with_entry(matrices[n], i, j, matrices[n].entries[i][j] * factor)
        new = suite_results(base, 6, matrices)
        old = old_exact_sigma_checks(base, 6, matrices)
        assert {name: new[name] for name in SIGMA_CHECKS} == old
        failed = abs(factor) != 1
        assert new[SIGMA_CHECKS[0]][0] is not failed

    @pytest.mark.parametrize("text", ["2", "7/3", "6/5"])
    @pytest.mark.parametrize("corrupt", [drop_last_node, double_e2])
    def test_corrupted_sweep(self, text, corrupt, monkeypatch):
        from vangeo import symfunc
        base = BaseSpec.parse(text)
        matrices = {m: vandinv.inverse_matrix(vandinv.GeometricVandermonde(base, m))
                    for m in range(1, 8)}
        monkeypatch.setattr(symfunc, "elementary_symmetric",
                            corrupt(symfunc.elementary_symmetric))
        new = suite_results(base, 7, matrices)
        old = old_exact_sigma_checks(base, 7, matrices)
        assert {name: new[name] for name in SIGMA_CHECKS} == old
        assert not all(ok for ok, _ in old.values())

    @pytest.mark.parametrize("text", ["tau", "alpha"])
    def test_constant_complement_agrees_when_sound(self, text):
        base = BaseSpec.parse(text)
        name = "complement identity (enclosure overlap, n <= 10)"
        assert suite_results(base, 7)[name] == old_rigorous_complement(base, 7) == (True, "")

    @pytest.mark.parametrize("text", ["tau", "alpha"])
    def test_constant_complement_catches_a_corrupted_node(self, text, monkeypatch):
        from vangeo import symfunc
        monkeypatch.setattr(symfunc, "_node_powers", corrupt_top_node(symfunc._node_powers))
        # the old check read both sides from one sweep at 1/b and passed
        assert old_rigorous_complement(BaseSpec.parse(text), 5) == (True, "")
        code, output = cli.run(["verify", "--base", text, "--n-max", "5"])
        assert code == 1
        assert ("[FAIL] complement identity (enclosure overlap, n <= 10): "
                "complement identity at n=2, (1,0)") in output

    def test_one_sweep_per_node_set(self, monkeypatch):
        # verify --base 7/3 --n-max 10 sweeps the nodes of b once per (n, j),
        # and those of 1/b never: the row of 1/b without node j is the row
        # of b without node n-1-j; sigma_finite runs only for the sigma top step
        from collections import Counter
        from vangeo import symfunc
        sweeps, queries, depth = [], [], []
        sweep, sigma = symfunc.elementary_symmetric, symfunc.sigma_finite

        def counted_sweep(values, upto, one):
            if not depth:
                sweeps.append(tuple(values))
            return sweep(values, upto, one)

        def counted_sigma(i, j, n, x):
            queries.append((i, j, n))
            depth.append(x)
            try:
                return sigma(i, j, n, x)
            finally:
                depth.pop()
        monkeypatch.setattr(symfunc, "elementary_symmetric", counted_sweep)
        monkeypatch.setattr(symfunc, "sigma_finite", counted_sigma)
        code, _ = cli.run(["verify", "--base", "7/3", "--n-max", "10"])
        assert code == 0
        longer = [nodes for nodes in sweeps if len(nodes) >= 2]
        assert len(set(longer)) == len(longer)
        assert Counter(len(nodes) + 1 for nodes in sweeps) == {n: n for n in range(1, 11)}
        # every node list is p^h q^(n-1-h) without one h, in increasing h
        for nodes in sweeps:
            n = len(nodes) + 1
            full = [7 ** h * 3 ** (n - 1 - h) for h in range(n)]
            assert any(list(nodes) == full[:j] + full[j + 1:] for j in range(n))
        assert sorted(queries) == sorted(q for n in range(2, 11)
                                         for q in ((n - 1, 1, n), (n - 2, 1, n)))


class TestVerifyInZTheta:
    """At tau and alpha, verify decides its identities in Z[theta]."""

    @pytest.mark.parametrize("text", ["tau", "alpha"])
    def test_sigma_and_pi_get_no_ball(self, text, monkeypatch):
        from vangeo import symfunc
        points = {"sigma_finite": [], "pi_product": []}
        sigma, pi = symfunc.sigma_finite, vandinv.pi_product

        def recorded_sigma(i, j, n, x):
            points["sigma_finite"].append(x)
            return sigma(i, j, n, x)

        def recorded_pi(j, n, b):
            points["pi_product"].append(b)
            return pi(j, n, b)
        monkeypatch.setattr(symfunc, "sigma_finite", recorded_sigma)
        monkeypatch.setattr(vandinv, "pi_product", recorded_pi)
        code, _ = cli.run(["verify", "--base", text, "--n-max", "5"])
        assert code == 0
        assert points["sigma_finite"] and points["pi_product"]
        for name, values in points.items():
            assert all(isinstance(x, ZTheta) for x in values), name


def scale_entry(n, i, j, factor):
    """Fault: entry (i, j) of the size-n inverse times factor."""
    def plant(monkeypatch):
        original = vandinv.inverse_matrix

        def faulty(gv, *args, **kwargs):
            inv = original(gv, *args, **kwargs)
            return with_entry(inv, i, j, inv.entries[i][j] * factor) if gv.n == n else inv
        monkeypatch.setattr(vandinv, "inverse_matrix", faulty)
    return plant


def scale_pi(n, j, factor):
    """Fault: pi_{j,n} times factor."""
    def plant(monkeypatch):
        original = vandinv.pi_product

        def faulty(jj, nn, b):
            value = original(jj, nn, b)
            return value * factor if (jj, nn) == (j, n) else value
        monkeypatch.setattr(vandinv, "pi_product", faulty)
    return plant


def scale_magnitude(n, i, j, factor):
    """Fault: A_{i,j} of the size-n column form times factor."""
    def plant(monkeypatch):
        original = vandinv.ColumnForm.magnitudes

        def faulty(form, jj, rows):
            nums, pi = original(form, jj, rows)
            rows = list(rows)
            if (form.n, jj) == (n, j) and i in rows:
                nums = list(nums)
                nums[rows.index(i)] *= factor
            return nums, pi
        monkeypatch.setattr(vandinv.ColumnForm, "magnitudes", faulty)
    return plant


def scale_cofactor(n, i, j, factor):
    """Fault: the cofactor U_(n-1-i) of column j of the size-n exact inverse
    times factor, leaving the column form's A_{i,j} as it is."""
    def plant(monkeypatch):
        original = vandinv.ColumnForm.cofactors

        def faulty(form, jj):
            u = original(form, jj)
            if (form.n, jj) == (n, j):
                u[i] *= factor
            return u
        monkeypatch.setattr(vandinv.ColumnForm, "cofactors", faulty)
    return plant


VERIFY_FAULTS = {
    "flip": scale_entry(4, 1, 2, -1),
    "double": scale_entry(3, 0, 0, 2),
    "pi": scale_pi(5, 2, 1000),
    "box": scale_magnitude(5, 3, 3, 1000),
    "diagonal": scale_magnitude(4, 0, 1, 1000),
    "cofactor": scale_cofactor(5, 1, 3, 1000),
}

_IDENTITY = "inversion identity V*C = I: V*C != I at n={}"
_ORACLE = "elimination-oracle equality (n <= 12): closed form != elimination oracle at n={}"
_MAGNITUDE = "magnitude formula |c|*pi = sigma (n <= 12): |c|*pi != sigma at n={}, ({},{})"
_RESIDUAL = "residual enclosure contains 0: residual enclosure excludes 0 at n={}"
_SYMMETRY = "symmetry: entry (1,2) != (2,1) at n=4"
_SIGNS = "checkerboard signs{}: sign of entry (1,2) at n=4"
_PI = "pi monotonicity above n0{}: pi monotonicity at n=5, j=2"
_BOX = "argmax box localization{}: argmax box at n=5: witnesses ((3, 3),)"
_DIAGONAL = "leading-diagonal max{}: leading-diagonal max at n={}"
_GOLDEN = " (base >= golden ratio)"
_CERTIFIED = " (certified)"

VERIFY_FAULT_LINES = [
    ("7/3", "flip", (_IDENTITY.format(4), _ORACLE.format(4), _SYMMETRY, _SIGNS.format(""))),
    ("3/2", "flip", (_IDENTITY.format(4), _ORACLE.format(4), _SYMMETRY, _SIGNS.format(""))),
    ("tau", "flip", (_RESIDUAL.format(4), _SIGNS.format(_CERTIFIED))),
    ("alpha", "flip", (_RESIDUAL.format(4), _SIGNS.format(_CERTIFIED))),
    ("7/3", "double", (_IDENTITY.format(3), _ORACLE.format(3), _MAGNITUDE.format(3, 0, 0))),
    ("3/2", "double", (_IDENTITY.format(3), _ORACLE.format(3), _MAGNITUDE.format(3, 0, 0))),
    ("tau", "double", (_RESIDUAL.format(3),)),
    ("alpha", "double", (_RESIDUAL.format(3),)),
    ("7/3", "pi", (_MAGNITUDE.format(5, 0, 2), "pi ratio identity: pi ratio identity at n=5, j=1",
                   _PI.format(""))),
    ("3/2", "pi", (_MAGNITUDE.format(5, 0, 2), "pi ratio identity: pi ratio identity at n=5, j=1",
                   _PI.format(""))),
    ("tau", "pi", (_PI.format(_CERTIFIED),)),
    ("alpha", "pi", (_PI.format(_CERTIFIED),)),
    # at p/q the exact inverse comes from the cofactors, not from A: the
    # magnitude check sets the inverse against the planted A_{i,j} / pi_j
    ("7/3", "box", (_MAGNITUDE.format(5, 3, 3), _BOX.format(""), _DIAGONAL.format(_GOLDEN, 5))),
    ("3/2", "box", (_MAGNITUDE.format(5, 3, 3), _BOX.format(""))),
    ("tau", "box", (_BOX.format(_CERTIFIED), _DIAGONAL.format(_CERTIFIED, 5))),
    ("alpha", "box", (_BOX.format(_CERTIFIED), _DIAGONAL.format(_CERTIFIED, 5))),
    ("7/3", "diagonal", (_MAGNITUDE.format(4, 0, 1), _DIAGONAL.format(_GOLDEN, 4))),
    ("3/2", "diagonal", (_MAGNITUDE.format(4, 0, 1),)),
    ("tau", "diagonal", (_DIAGONAL.format(_CERTIFIED, 4),)),
    ("alpha", "diagonal", (_DIAGONAL.format(_CERTIFIED, 4),)),
    # a wrong cofactor is a wrong exact inverse whose A table is right
    ("7/3", "cofactor", (_IDENTITY.format(5), _ORACLE.format(5), _MAGNITUDE.format(5, 3, 1))),
    ("3/2", "cofactor", (_IDENTITY.format(5), _ORACLE.format(5), _MAGNITUDE.format(5, 3, 1))),
]


class TestVerifyFaults:
    """Every [FAIL] line of verify under a planted fault: name, witness and
    order at each kind of base."""

    @pytest.mark.parametrize("text,fault,expected", VERIFY_FAULT_LINES,
                             ids=[f"{t}-{f}" for t, f, _ in VERIFY_FAULT_LINES])
    def test_fail_lines(self, text, fault, expected, monkeypatch):
        VERIFY_FAULTS[fault](monkeypatch)
        code, output = cli.run(["verify", "--base", text, "--n-max", "5"])
        assert code == 1
        lines = tuple(line[len("  [FAIL] "):] for line in output.splitlines()
                      if line.startswith("  [FAIL] "))
        assert lines == expected
        assert output.endswith(f"result: {len(expected)} check(s) FAILED")


class TestConjecture:
    def test_json_well_formed(self):
        payload = json.loads(run_ok(
            ["conjecture", "--base", "2", "--range", "2:10", "--format", "json"]))
        assert [record["n"] for record in payload] == list(range(2, 11))
        for record in payload:
            assert set(record) == {"n", "n_zero", "max", "argmax", "diagonal"}

    def test_text_summary(self):
        output = run_ok(["conjecture", "--base", "1.3", "--range", "2:6"])
        assert "n0=3" in output
        assert output.splitlines()[-1].startswith("summary:")


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ["inverse", "--base", "1", "--n", "3"],
        ["inverse", "--base", "abc", "--n", "3"],
        ["inverse", "--base", "0.5", "--n", "3"],
        ["sigma", "--i", "9", "--j", "0", "--n", "4", "--x", "2"],
        ["limit", "--base", "2", "--tol", "0"],
        ["limit", "--base", "2", "--tol", "xyz"],
        ["conjecture", "--base", "2", "--range", "9:2"],
        ["conjecture", "--base", "2", "--range", "bad"],
        ["verify", "--base", "2", "--n-max", "1"],
    ])
    def test_domain_errors_exit_two(self, argv, capsys):
        assert cli.main(argv) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("base,message", [
        ("1", "base must be > 1, got 1"),
        ("0.5", "base must be > 1, got 1/2"),
        ("-3/2", "base must be > 1, got -3/2"),
        ("1/0", "zero denominator in base '1/0'"),
        ("abc", "cannot parse base 'abc'; expected p/q, a finite decimal, tau, or alpha"),
        ("pi", "cannot parse base 'pi'; expected p/q, a finite decimal, tau, or alpha"),
    ])
    @pytest.mark.parametrize("command", ["inverse", "max", "limit", "verify", "conjecture"])
    def test_bad_base_message(self, command, base, message, capsys):
        rest = {"inverse": ["--n", "3"], "max": ["--n", "3"], "limit": ["--tol", "1e-6"],
                "verify": ["--n-max", "3"], "conjecture": ["--range", "2:3"]}[command]
        assert cli.main([command, f"--base={base}", *rest]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("x,shown", [("0", "0"), ("-1/2", "-1/2"), ("-3/2", "-3/2")])
    def test_sigma_names_a_nonpositive_point_as_written(self, x, shown, capsys):
        assert cli.main(["sigma", "--i", "1", "--j", "0", "--n", "3", f"--x={x}"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: x must be certifiably positive, got {shown}\n"

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["inverse", "--n", "3"])      # missing --base
        assert exc.value.code == 2

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bogus"])
        assert exc.value.code == 2

    def test_success_exit_zero(self, capsys):
        assert cli.main(["sigma", "--i", "0", "--j", "0", "--n", "2",
                         "--x", "2"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_limit_near_one_fails_before_its_box_takes_memory(self):
        """At 1.0001 the box has n0 = 6932, about 2.4e7 pairs, and its first
        entry passes the precision ceiling: limit must exit 2 with the
        ceiling message, not build the box first.  The child alone runs
        with its address space capped at 1 GiB."""
        import resource
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

        def cap():
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, hard))
        proc = subprocess.run([sys.executable, "-m", "vangeo.cli", "limit", "--base", "1.0001"],
                              capture_output=True, text=True, env=env, timeout=120,
                              preexec_fn=cap)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == ("error: cannot reach tolerance 1/400000000000000000000 for "
                               "l_(0,0) at base 1.0001 within the 4096-bit precision ceiling\n")


class TestPrecisionCeiling:
    """The ceiling bounds limit's precision doublings, and only the flag sets it."""

    ARGV = ["limit", "--base", "1.05", "--tol", "1e-10"]

    def test_default_reaches_tolerance(self, capsys):
        assert cli.main(self.ARGV) == 0
        assert capsys.readouterr().err == ""

    def test_flag_caps_the_doublings(self, capsys):
        assert cli.main(self.ARGV + ["--precision-ceiling", "64"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "within the 64-bit precision ceiling" in err

    def test_environment_is_ignored(self, monkeypatch, capsys):
        """VANGEO_<OPTION>=64 for every option of limit, a ceiling that would
        refuse this command, leaves its exit status and stdout as they are."""
        assert cli.main(self.ARGV) == 0
        expected = capsys.readouterr().out
        for option in _subcommand_options()["limit"]:
            monkeypatch.setenv("VANGEO_" + option[2:].upper().replace("-", "_"), "64")
        assert cli.main(self.ARGV) == 0
        assert capsys.readouterr().out == expected


class TestLongNumbers:
    """Output past the interpreter's 4300-digit limit on int to str conversion."""

    @staticmethod
    def main_at_the_default_limit(argv):
        """cli.main(argv), checking that the limit is lifted for it only."""
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code = cli.main(argv)
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(previous)
        return code

    def test_limit_at_a_tiny_tolerance(self, capsys):
        assert self.main_at_the_default_limit(["limit", "--base", "2", "--tol", "1e-4300"]) == 0
        out, err = capsys.readouterr()
        assert "max = 5.1941199291825954173\n" in out
        assert err == ""

    def test_inverse_with_long_exact_entries(self, capsys):
        base = "1000000000007/1000000000000"
        assert self.main_at_the_default_limit(["inverse", "--base", base, "--n", "24"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        gv = vandinv.GeometricVandermonde(BaseSpec.parse(base), 24)
        (a,), pi = vandinv.ColumnForm(gv).magnitudes(0, [0])
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = str(Fraction(a, pi))
        finally:
            sys.set_int_max_str_digits(previous)
        assert len(expected) > 4300
        assert out.split()[0] == expected


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["inverse", "--base", "tau", "--n", "4", "--digits", "25"],
        ["limit", "--base", "13/10", "--tol", "1e-12"],
        ["max", "--base", "alpha", "--n", "9", "--format", "json"],
        ["table", "--format", "csv"],
    ])
    def test_byte_identical_reruns(self, argv):
        assert cli.run(argv) == cli.run(argv)

    def test_digits_flag_changes_width(self):
        short = run_ok(["limit", "--base", "2", "--tol", "1e-22", "--digits", "8"])
        long = run_ok(["limit", "--base", "2", "--tol", "1e-22", "--digits", "24"])
        assert "max = 5.1941199" in short
        assert "max = 5.1941199291825954173069" in long

    @pytest.mark.parametrize("argv", [
        ["inverse", "--base", "2", "--n", "3", "--precision-ceiling", "2048"],
        ["sigma", "--i", "0", "--j", "0", "--n", "2", "--x", "2", "--precision-ceiling", "2048"],
        ["max", "--base", "tau", "--n", "6", "--precision-ceiling", "2048"],
        ["table", "--precision-ceiling", "2048"],
        ["verify", "--base", "2", "--n-max", "3", "--precision-ceiling", "2048"],
        ["conjecture", "--base", "2", "--range", "2:3", "--precision-ceiling", "2048"],
        ["table", "--digits", "5"],
    ], ids=lambda argv: f"{argv[0]} {argv[-2]}")
    def test_options_limit_alone_takes_are_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert "unrecognized arguments" in err and "Traceback" not in err

    def test_shared_parser_keeps_no_options(self):
        # the parser is built once per process; a json run must not leave its
        # --format behind for the next command
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        fresh = subprocess.run([sys.executable, "-m", "vangeo.cli", "max", "--base", "2",
                                "--n", "4"], capture_output=True, text=True, env=env,
                               timeout=60)
        run_ok(["max", "--base", "2", "--n", "4", "--format", "json"])
        assert run_ok(["max", "--base", "2", "--n", "4"]) + "\n" == fresh.stdout


class TestClosedPipe:
    def test_reader_gone_before_output(self):
        """`vangeo table | head -4` must not print a traceback when the reader
        exits first; the pipe here is closed before the command writes."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "vangeo.cli", "limit", "--base", "2", "--format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert stderr == b""


_SIZES = st.integers(min_value=-1, max_value=8).map(str)
# --n also reaches 24, where the ball inverse prints a residual of long dot
# products; --n-max stays small, since verify checks every size up to it
_DIMENSIONS = st.one_of(_SIZES, st.just("24"))
_BASES = st.sampled_from(["2", "3/2", "6/5", "tau", "alpha", "1", "1/2", "-1", "abc", "1e3"])
_VALUES = {
    "--base": _BASES, "--x": _BASES, "--n": _DIMENSIONS, "--i": _SIZES, "--j": _SIZES,
    "--n-max": _SIZES,
    "--tol": st.sampled_from(["1e-12", "1e-20", "1e-60", "1/3", "0", "-1", "x"]),
    "--range": st.sampled_from(["2:5", "1:4", "-1:3", "5:2", "a:b", "3"]),
    "--format": st.sampled_from(["text", "json", "csv", "xml"]),
    "--digits": st.sampled_from(["0", "1", "12", "40", "1001"]),
    "--precision-ceiling": st.sampled_from(["8", "16", "64", "4096"]),
}
_OPTIONS = {
    "inverse": ("--base", "--n", "--format", "--digits"),
    "sigma": ("--i", "--j", "--n", "--x", "--format", "--digits"),
    "max": ("--base", "--n", "--format", "--digits"),
    "limit": ("--base", "--tol", "--format", "--digits", "--precision-ceiling"),
    "table": ("--format",),
    "verify": ("--base", "--n-max"),
    "conjecture": ("--base", "--range", "--format", "--digits"),
}


def _subcommand_options():
    """{subcommand: the set of option strings its parser accepts, less --help}."""
    actions = cli._build_parser()._subparsers._group_actions[0].choices
    return {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
            for name, p in actions.items()}


def test_fuzz_draws_every_option_of_the_parser():
    """The fuzz below draws each command's options from _OPTIONS: it must
    list exactly what the parser accepts."""
    assert {name: set(flags) for name, flags in _OPTIONS.items()} == _subcommand_options()


@st.composite
def _argv(draw):
    """A command with most of its own options and, now and then, a foreign one."""
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    flags = [flag for flag in _OPTIONS[command] if draw(st.integers(0, 9))]
    flags += draw(st.lists(st.sampled_from(sorted(_VALUES)), max_size=1))
    argv = [command]
    for flag in flags:
        argv += [flag, draw(_VALUES[flag])]
    return argv


class TestFuzz:
    @given(_argv())
    @settings(max_examples=150, deadline=None)
    def test_exit_status_without_traceback(self, argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except SystemExit as exc:          # argparse usage errors
                code = exc.code
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in stderr.getvalue(), argv
