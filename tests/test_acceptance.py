"""Acceptance gate: the eleven end-to-end criteria for this package.

Each test prints exactly one ``criterion NN [PASS|FAIL]`` line on the real
terminal (bypassing capture) so a full run shows the per-criterion verdicts,
then asserts, so pytest status and the printed verdict always agree.
"""

import json
import math
import time
from fractions import Fraction

from oracles import base2_product_identity, overlaps, sigma_bruteforce
from vangeo import cli
from vangeo.extremal import max_entry, verify_argmax_box, verify_leading_diagonal_max
from vangeo.limits import classify_regime, limit_entry
from vangeo.scalar import BaseSpec, evaluate_base
from vangeo.symfunc import sigma_finite
from vangeo.vandinv import (GeometricVandermonde, gaussian_inverse, pi_product,
                            residual_norm)

RATIONAL_GRID = ["2", "3", "3/2", "7/5", "13/10", "6/5"]


def report(capsys, number, passed, label):
    with capsys.disabled():
        print(f"criterion {number:2d} [{'PASS' if passed else 'FAIL'}] {label}")


def test_criterion_01_exact_inversion_identity(capsys, cached_inverse):
    start = time.monotonic()
    failures = []
    for text in RATIONAL_GRID:
        spec = BaseSpec.parse(text)
        for n in range(1, 17):
            gv = GeometricVandermonde(spec, n)
            if residual_norm(gv, cached_inverse(spec, n)) != 0:
                failures.append((text, n))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 10.0
    report(capsys, 1, ok,
           f"V*C = I bit-exact, 6 rational bases, n <= 16 ({elapsed:.2f}s < 10s)")
    assert not failures, failures
    assert elapsed < 10.0, f"runtime target exceeded: {elapsed:.2f}s"


def test_criterion_02_gaussian_oracle_equivalence(capsys, cached_inverse):
    failures = []
    for text in RATIONAL_GRID:
        spec = BaseSpec.parse(text)
        for n in range(1, 13):
            oracle = gaussian_inverse(GeometricVandermonde(spec, n))
            if oracle.entries != cached_inverse(spec, n).entries:
                failures.append((text, n))
    report(capsys, 2, not failures,
           "closed form equals Gaussian-elimination oracle, n <= 12, bit-exact")
    assert not failures, failures


def test_criterion_03_sigma_oracle_equivalence(capsys):
    failures = []
    for x in [Fraction(2), Fraction(3), Fraction(3, 2), Fraction(1, 2),
              Fraction(7, 5)]:
        for n in range(1, 11):
            for j in range(n):
                for i in range(n):
                    q = (i, j, n, x)
                    if sigma_finite(*q) != sigma_bruteforce(*q):
                        failures.append((i, j, n, x))
    for n in range(1, 13):
        for j in range(n):
            for i in range(n):
                if sigma_finite(i, j, n, 1) != math.comb(n - 1, i):
                    failures.append(("count", i, j, n))
    report(capsys, 3, not failures,
           "sigma recurrence equals brute force (n <= 10) and counts subsets at x=1")
    assert not failures, failures[:10]


def test_criterion_04_reference_table(capsys):
    start = time.monotonic()
    code, output = cli.cmd_table(cli.OutputFormat(kind="csv"))
    elapsed = time.monotonic() - start
    rows = [line.split(",") for line in output.splitlines()]
    statuses = {row[0]: row[3] for row in rows}
    ok = code == 0 and len(rows) == 8 and \
        all(status == "match" for status in statuses.values()) and elapsed < 60.0
    report(capsys, 4, ok,
           f"all 8 reference limits certified digit-for-digit ({elapsed:.2f}s < 60s)")
    assert code == 0 and len(rows) == 8, output
    assert all(status == "match" for status in statuses.values()), statuses
    assert elapsed < 60.0, f"runtime target exceeded: {elapsed:.2f}s"


def test_criterion_05_base2_product_identity(capsys):
    tol = Fraction(1, 10 ** 16)
    product = base2_product_identity(tol)
    entry = limit_entry(1, 1, BaseSpec.parse("2"), tol).value
    gap = abs(product.midpoint - entry.midpoint)
    radii = product.radius + entry.radius
    eleven = Fraction("5.19411992918")
    half_ulp = Fraction(1, 2 * 10 ** 11)
    ok = (gap <= radii + Fraction(1, 10 ** 15)
          and radii <= Fraction(1, 10 ** 15)
          and abs(product.midpoint - eleven) <= half_ulp + product.radius
          and abs(entry.midpoint - eleven) <= half_ulp + entry.radius)
    report(capsys, 5, ok,
           "3*prod(1+1/(2^i-1)) meets l_{1,1}(2) within 1e-15; both print 5.19411992918")
    assert ok, (gap, radii)


def test_criterion_06_argmax_box(capsys):
    failures = []
    for text in ["6/5", "13/10", "7/5", "3/2", "tau", "2", "alpha", "3"]:
        spec = BaseSpec.parse(text)
        for n in range(2, 41):
            result = verify_argmax_box(GeometricVandermonde(spec, n), 256)
            if not result.passed:
                failures.append((text, n, result.witnesses))
    report(capsys, 6, not failures,
           "argmax confined to [0,n0]^2 with (n0,n0) dominating, 8 bases, n <= 40")
    assert not failures, failures[:5]


def test_criterion_07_leading_diagonal_max(capsys):
    failures = []
    for text in ["tau", "5/3", "2", "alpha", "3", "4"]:
        spec = BaseSpec.parse(text)
        for n in range(2, 41):
            if not verify_leading_diagonal_max(GeometricVandermonde(spec, n), 256):
                failures.append((text, n))
    report(capsys, 7, not failures,
           "max attained at (0,0) or (1,1) for bases >= golden ratio, n <= 40")
    assert not failures, failures[:5]


def test_criterion_08_structural_identities(capsys, cached_inverse):
    failures = []
    for text in RATIONAL_GRID:
        spec = BaseSpec.parse(text)
        b = spec.value
        from vangeo.extremal import n_zero
        n0 = n_zero(b)
        for n in range(1, 13):
            entries = cached_inverse(spec, n).entries
            # symmetry (matrix equals its transpose)
            for i in range(n):
                for j in range(i + 1, n):
                    if entries[i][j] != entries[j][i]:
                        failures.append(("symmetry", text, n, i, j))
            # checkerboard sign rule
            for i in range(n):
                for j in range(n):
                    if ((entries[i][j] > 0) - (entries[i][j] < 0)) != (-1) ** (i + j):
                        failures.append(("sign", text, n, i, j))
            # j-monotonicity of the power sums, both directions
            for x, decreasing in ((b, True), (1 / b, False)):
                for i in range(n):
                    values = [sigma_finite(i, j, n, x) for j in range(n)]
                    for j in range(n - 1):
                        ok = values[j] >= values[j + 1] if decreasing \
                            else values[j] <= values[j + 1]
                        if not ok:
                            failures.append(("sigma-monotone", text, n, i, j))
            # node-gap product: ratio identity and monotonicity above n0
            for j in range(n - 1):
                lhs = pi_product(j + 1, n, b) / pi_product(j, n, b)
                rhs = (b ** (n + j - 1) - b ** (n - 2)) / (b ** (n - 1) - b ** j)
                if lhs != rhs:
                    failures.append(("pi-ratio", text, n, j))
            for j in range(n0, n - 1):
                if pi_product(j, n, b) > pi_product(j + 1, n, b):
                    failures.append(("pi-monotone", text, n, j))
            # dropping the top exponent from the full subset cannot grow sigma,
            # and both closed-form expansions hold term for term
            if n >= 2:
                top = n * (n - 1) // 2 - 1
                s_full = sigma_finite(n - 1, 1, n, b)
                s_next = sigma_finite(n - 2, 1, n, b)
                if s_full > s_next:
                    failures.append(("sigma-step", text, n))
                if s_full != b ** top:
                    failures.append(("sigma-top-form", text, n))
                lo = (n - 1) * (n - 2) // 2 - 1
                if s_next != b ** top + sum(b ** k for k in range(lo, top - 1)):
                    failures.append(("sigma-next-form", text, n))
    report(capsys, 8, not failures,
           "symmetry, signs, monotonicity and expansion identities, exhaustive n <= 12")
    assert not failures, failures[:10]


def test_criterion_09_crossover_constant(capsys):
    alpha = evaluate_base(BaseSpec.parse("alpha"), 64)
    nine_decimals = round(alpha.midpoint, 9)
    base, tol = BaseSpec.parse("alpha"), Fraction(1, 10 ** 16)
    l00 = limit_entry(0, 0, base, tol).value
    l11 = limit_entry(1, 1, base, tol).value
    ok = (nine_decimals == Fraction("2.324717957")
          and classify_regime(base) == ("above_alpha", True)
          and overlaps(l00, l11)
          and l00.radius <= Fraction(1, 10 ** 15)
          and l11.radius <= Fraction(1, 10 ** 15))
    report(capsys, 9, ok,
           "alpha = 2.324717957 to 9 decimals; l00 and l11 enclosures overlap at 1e-15")
    assert ok, (nine_decimals, l00, l11)


def test_criterion_10_convergence_spot_check(capsys):
    spec = BaseSpec.parse("2")
    limit = Fraction("5.194119929182595417")
    gaps = []
    for n in [10, 20, 40, 60]:
        value = max_entry(GeometricVandermonde(spec, n)).max_value
        gaps.append(abs(value - limit))
    monotone = all(gaps[k] > gaps[k + 1] for k in range(len(gaps) - 1))
    close = gaps[-1] < Fraction(1, 10 ** 6)
    bounded = True
    for n in range(1, 65):
        value = max_entry(GeometricVandermonde(spec, n)).max_value
        if value > 34:
            bounded = False
    ok = monotone and close and bounded
    report(capsys, 10, ok,
           "M_2(n) approaches the limit monotonically; within 1e-6 at n=60; <= 34 up to n=64")
    assert monotone, gaps
    assert close, gaps[-1]
    assert bounded


def test_criterion_11_conjecture_scan(capsys):
    problems = []
    for text in ["2", "3", "6/5"]:
        code, output = cli.run(["conjecture", "--base", text, "--range", "2:30",
                                "--format", "json"])
        if code != 0:
            problems.append((text, "exit status", code))
            continue
        payload = json.loads(output)
        if [record["n"] for record in payload] != list(range(2, 31)):
            problems.append((text, "n coverage"))
        for record in payload:
            if set(record) != {"n", "n_zero", "max", "argmax", "diagonal"}:
                problems.append((text, record.get("n"), "keys"))
                break
            if not isinstance(record["diagonal"], bool) or \
                    not isinstance(record["argmax"], list):
                problems.append((text, record["n"], "types"))
                break
    report(capsys, 11, not problems,
           "diagonal-argmax scan completes with well-formed JSON, b in {2, 3, 6/5}, n <= 30")
    assert not problems, problems
