"""Extremal structure of the inverse entries: the threshold index n0, the
maximal entry M_b(n) with full argmax localization, verifiers for the two
proven localization statements, and an empirical scan of the open
diagonal-argmax question.

n0 is the least positive integer m with b^m >= 1 + 1/b.  The argmax of
|c_{i,j,n}| always lies in the box [0, n0]^2; for b at or above the golden
ratio the maximum is attained at (0,0) or (1,1).  Both statements are checked
here on concrete instances, and every decision is an exact sign in
integers; no comparison builds a ball.  Thresholds on the base come from
certified_poly_sign.  Entries are compared on the column form
|c_{i,j,n}| = A_{i,j} / pi_j: |c_a| - |c_b| has the sign of A_a pi_b - A_b pi_a,
an integer, or at tau and alpha a Z[theta] element that signs itself
(ZTheta.sign; a zero element is an exact tie).  maximal_ratios is the one
argmax over such ratios, for the finite maximum here and for the limit
maximum in limits.  Balls appear only in the value of the maximum at tau and
alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

from .errors import DomainError, SizeError
from .scalar import (DEFAULT_PRECISION_BITS, TAU_POLYNOMIAL, BaseSpec, Numeric,
                     certified_poly_sign, exact_sign)
# inverse_matrix is not called here; bench/tracing.py expects this module to bind it
from .vandinv import GeometricVandermonde, inverse_matrix  # noqa: F401

IndexPair = Tuple[int, int]

_N_ZERO_MAX_BITS = 1 << 22     # n0 * log2(p): the size of the powers confirming n0 of p/q


# ---------------------------------------------------------------------------
# n0
# ---------------------------------------------------------------------------


def n_zero(b: Union[int, Fraction, BaseSpec]) -> int:
    """Least positive integer m with b^m >= 1 + 1/b.

    Rational bases estimate m by logarithms and confirm it with exact integer
    powers, refusing (SizeError) a base too close to 1 to confirm.  At tau
    and alpha the threshold is the exact sign of x^{m+1} - x - 1 at the base.
    """
    if isinstance(b, BaseSpec):
        value = b.value
        if value is not None:
            return n_zero(value)
        m = 1
        # b^m >= 1 + 1/b  <=>  b^(m+1) - b - 1 >= 0   (b > 0)
        while certified_poly_sign([-1, -1] + [0] * (m - 1) + [1], b) < 0:
            m += 1
        return m
    bf = Fraction(b)
    if bf <= 1:
        raise DomainError(f"base must be > 1, got {bf}")
    p, q = bf.numerator, bf.denominator
    # m ~ log(1 + 1/b) / log(b), then exact: b^m >= 1 + 1/b <=> p^(m+1) >= q^m (p+q).
    # log b is capped at log 2 (any b >= 2 has m = 1) so the quotient stays a float.
    log_b = math.log1p(min(p - q, q) / q)
    estimate = math.log1p(q / p) / log_b if log_b else math.inf
    if estimate * p.bit_length() > _N_ZERO_MAX_BITS:
        raise SizeError(f"n0 of base {bf} is about {estimate:.3g}; confirming it needs "
                        f"powers of more than {_N_ZERO_MAX_BITS} bits")
    m = max(1, math.ceil(estimate))
    p_m, q_m = p ** m, q ** m
    while m > 1 and p_m * q >= q_m * (p + q):          # m - 1 passes
        m, p_m, q_m = m - 1, p_m // p, q_m // q
    while p_m * p < q_m * (p + q):                     # m fails
        m, p_m, q_m = m + 1, p_m * p, q_m * q
    return m


# ---------------------------------------------------------------------------
# exact comparisons on the column form
# ---------------------------------------------------------------------------


def compare_ratios(a: tuple, b: tuple) -> int:
    """Exact sign of A_a / pi_a - A_b / pi_b for positive numerators and
    denominators, i.e. of A_a pi_b - A_b pi_a: rationals at a rational base,
    Z[theta] elements at tau and alpha.  Integers are first compared by bit
    length: bitlen(x y) is bitlen x + bitlen y or one less, so when the two
    products' sums differ by 2 or more, that decides the sign with no
    product taken."""
    (num_a, pi_a), (num_b, pi_b) = a, b
    if pi_a is pi_b:
        return exact_sign(num_a - num_b)
    if isinstance(num_a, int):
        gap = num_a.bit_length() + pi_b.bit_length() - num_b.bit_length() - pi_a.bit_length()
        if not -1 <= gap <= 1:
            return 1 if gap > 0 else -1
    return exact_sign(num_a * pi_b - num_b * pi_a)


def _run_maxima(items):
    """For each run of consecutive (key, (A, pi)) items that share one pi
    object, its first largest ratio and the keys that attain it, in order.
    Within a run, compare_ratios compares the numerators alone."""
    best = None
    for key, ratio in items:
        if best is not None and ratio[1] is best[1]:
            order = compare_ratios(ratio, best)
            if order > 0:
                best, top = ratio, [key]
            elif order == 0:
                top.append(key)
            continue
        if best is not None:
            yield best, top
        best, top = ratio, [key]
    if best is not None:
        yield best, top


def maximal_ratios(items) -> Tuple[tuple, list]:
    """The largest of the ratios in (key, (A, pi)) items, by exact comparison,
    and the keys of every item that attains it, ties included, in order; the
    ratio returned is the first item that attains it.  Each run of items
    sharing one pi (a column of the column form) is reduced first, so it costs
    one cross-multiplication A_a pi_b - A_b pi_a per run, not per item."""
    best, top = None, []
    for ratio, keys in _run_maxima(items):
        order = 1 if best is None else compare_ratios(ratio, best)
        if order > 0:
            best, top = ratio, keys
        elif order == 0:
            top.extend(keys)
    return best, top


# ---------------------------------------------------------------------------
# max entry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MaxReport:
    """Location and value of M_b(n) = max |c_{i,j,n}|."""

    base: BaseSpec
    n: int
    n_zero: int
    max_value: Numeric
    argmax: Tuple[IndexPair, ...]
    within_n_zero_box: bool
    diagonal_argmax: bool


def max_entry(gv: GeometricVandermonde,
              precision_bits: int = DEFAULT_PRECISION_BITS) -> MaxReport:
    """Scan the entries with i <= j for the maximum absolute value by exact
    comparisons, and mirror the argmax (the inverse is symmetric), so every
    maximal entry is reported, ties included.  The maximum is a Fraction at a
    rational base and, at tau and alpha, the ball image of its exact ratio at
    precision_bits; no comparison reads it."""
    n0 = n_zero(gv.base)
    best, top = maximal_ratios(gv.column_form.upper_triangle.items())
    argmax = tuple(sorted({pair for i, j in top for pair in ((i, j), (j, i))}))
    return MaxReport(
        base=gv.base, n=gv.n, n_zero=n0,
        max_value=gv.column_form.value(*best, precision_bits),
        argmax=argmax, within_n_zero_box=all(i <= n0 and j <= n0 for i, j in argmax),
        diagonal_argmax=any(i == j for i, j in argmax))


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoxCheckReport:
    """Outcome of the argmax-box check: every entry with both indices >= n0
    is dominated by the (n0, n0) entry, and the argmax lies in [0, n0]^2.
    Only a failing check prints its witnesses."""

    passed: bool
    witnesses: Tuple[IndexPair, ...]       # entries exceeding (n0, n0)
    max_report: MaxReport


def verify_argmax_box(gv: GeometricVandermonde,
                      precision_bits: int = DEFAULT_PRECISION_BITS) -> BoxCheckReport:
    """Check that the dominant entry cannot escape the [0, n0]^2 box: no
    entry with both indices >= n0 exceeds the (n0, n0) entry.  Witnesses are
    listed row-major, both orientations of a symmetric pair included."""
    report = max_entry(gv, precision_bits)
    n, n0, table = gv.n, report.n_zero, gv.column_form.upper_triangle
    above = {pair for pair, magnitude in table.items() if min(pair) >= n0
             and compare_ratios(magnitude, table[n0, n0]) > 0}
    witnesses = tuple((i, j) for i in range(n0, n) for j in range(n0, n)
                      if (min(i, j), max(i, j)) in above)
    return BoxCheckReport(passed=not witnesses and report.within_n_zero_box,
                          witnesses=witnesses, max_report=report)


def verify_leading_diagonal_max(gv: GeometricVandermonde,
                                precision_bits: int = DEFAULT_PRECISION_BITS,
                                max_report: Optional[MaxReport] = None) -> bool:
    """Whether M_b(n) is attained at entry (0,0) or (1,1) and the supporting
    step sigma_{n-1,1,n} <= sigma_{n-2,1,n} holds; requires
    b >= (1+sqrt(5))/2 and n >= 2.  A max_report already computed for the
    same (base, n), such as a box check's, is used instead of a new scan."""
    if gv.n < 2:
        raise DomainError(f"requires n >= 2, got n={gv.n}")
    if max_report is not None and (max_report.base, max_report.n) != (gv.base, gv.n):
        raise DomainError(f"max_report is not for base {gv.base.text}, n={gv.n}")
    # b >= tau  <=>  b^2 - b - 1 >= 0   (b > 1)
    if certified_poly_sign(TAU_POLYNOMIAL, gv.base) < 0:
        raise DomainError(f"requires base >= (1+sqrt(5))/2; {gv.base.text} is below")
    report = max_report or max_entry(gv, precision_bits)
    diagonal_ok = any(pair in ((0, 0), (1, 1)) for pair in report.argmax)
    # |c_{i,1,n}| = sigma_{n-1-i,1,n}(b) / pi_{1,n}, so dropping the largest
    # admissible exponent never loses mass iff |c_{0,1}| <= |c_{1,1}|
    table = gv.column_form.upper_triangle
    return diagonal_ok and compare_ratios(table[0, 1], table[1, 1]) <= 0


# ---------------------------------------------------------------------------
# conjecture scan
# ---------------------------------------------------------------------------


def conjecture_scan(base: BaseSpec, n_min: int, n_max: int,
                    precision_bits: int = DEFAULT_PRECISION_BITS) -> Tuple[MaxReport, ...]:
    """The MaxReport of every n in [n_min, n_max], in order; each one's
    diagonal_argmax tells whether its argmax has a diagonal entry.

    Empirical output only: the eventual-diagonal-argmax statement is an open
    question, so the scan reports and never asserts.
    """
    if not 2 <= n_min <= n_max:
        raise DomainError(f"need 2 <= n_min <= n_max, got {n_min}..{n_max}")
    return tuple(max_entry(GeometricVandermonde(base, n), precision_bits)
                 for n in range(n_min, n_max + 1))
