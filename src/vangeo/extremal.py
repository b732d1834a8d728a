"""Extremal structure of the inverse entries: the threshold index n0, the
maximal entry M_b(n) with full argmax localization, verifiers for the two
proven localization statements, and an empirical scan of the open
diagonal-argmax question.

n0 is the least positive integer m with b^m >= 1 + 1/b.  The argmax of
|c_{i,j,n}| always lies in the box [0, n0]^2; for b at or above the golden
ratio the maximum is attained at (0,0) or (1,1).  Both statements are checked
here on concrete instances.  Thresholds on the base (n0 at tau and alpha, the
golden-ratio requirement) are exact signs from certified_poly_sign.  Entry
comparisons run one loop over (lower, upper) bounds: an exact entry is its
own zero-width enclosure and decides at once, and enclosures double the
working precision until they separate or reach the ceiling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple, Union

from .errors import DomainError, UndecidableComparisonError
from .scalar import (DEFAULT_PRECISION_BITS, TAU_POLYNOMIAL, BaseSpec, Numeric,
                     RigorousReal, certified_poly_sign, fraction_to_decimal,
                     resolve_precision_ceiling)
from .symfunc import SigmaQuery, sigma_finite
from .vandinv import GeometricVandermonde, InverseMatrix, inverse_matrix

IndexPair = Tuple[int, int]


def _decimal(value: Numeric, digits: int) -> str:
    if isinstance(value, RigorousReal):
        return value.decimal(digits)
    return fraction_to_decimal(Fraction(value), digits)


def _bounds(value: Numeric) -> Tuple[Fraction, Fraction]:
    """(lower, upper) of an enclosure; an exact value is its own zero-width
    enclosure."""
    if isinstance(value, RigorousReal):
        return value.lower, value.upper
    return value, value


def _inverse_at(gv: GeometricVandermonde, precision: int,
                inv: Optional[InverseMatrix]) -> InverseMatrix:
    """inv when it was computed at this working precision (an exact inverse
    has none), else a fresh inverse."""
    if inv is None or inv.precision_bits != (None if gv.is_exact else precision):
        inv = inverse_matrix(gv, precision)
    return inv


# ---------------------------------------------------------------------------
# n0
# ---------------------------------------------------------------------------


def n_zero(b: Union[int, Fraction, BaseSpec, RigorousReal],
           precision_ceiling: Optional[int] = None) -> int:
    """Least positive integer m with b^m >= 1 + 1/b.

    Rational bases decide by exact comparison of successive powers.  At tau
    and alpha the threshold is the exact sign of x^{m+1} - x - 1 at the base.
    Plain enclosures are compared directly and raise if their width cannot
    decide the threshold.
    """
    if isinstance(b, BaseSpec):
        value = b.exact_value()
        if value is not None:
            return n_zero(value)
        m = 1
        # b^m >= 1 + 1/b  <=>  b^(m+1) - b - 1 >= 0   (b > 0)
        while certified_poly_sign([-1, -1] + [0] * (m - 1) + [1], b, precision_ceiling) < 0:
            m += 1
        return m
    if isinstance(b, RigorousReal):
        if not b.certainly_gt(RigorousReal.exact(1, b.precision_bits)):
            raise DomainError("base must be certifiably > 1")
        threshold = 1 + 1 / b
        power = b
        m = 1
        while True:
            if power.certainly_ge(threshold):
                return m
            if power.certainly_lt(threshold):
                m += 1
                power = power * b
                continue
            raise UndecidableComparisonError(
                f"enclosure of b^{m} straddles 1 + 1/b; re-evaluate the base at "
                f"higher precision or pass a BaseSpec")
    bf = Fraction(b)
    if bf <= 1:
        raise DomainError(f"base must be > 1, got {bf}")
    threshold = 1 + 1 / bf
    power = bf
    m = 1
    while power < threshold:
        m += 1
        power *= bf
    return m


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
    tie: bool                      # enclosure tie unresolved at the ceiling
    backend: str
    precision_bits: Optional[int] = None

    def to_json_dict(self, digits: int = 20) -> dict:
        return {
            "base": self.base.display(),
            "n": self.n,
            "n_zero": self.n_zero,
            "max": _decimal(self.max_value, digits),
            "argmax": [list(p) for p in self.argmax],
            "within_n_zero_box": self.within_n_zero_box,
            "diagonal_argmax": self.diagonal_argmax,
            "tie": self.tie,
            "backend": self.backend,
        }

    def to_json(self, digits: int = 20) -> str:
        return json.dumps(self.to_json_dict(digits), separators=(", ", ": "))


def _orbit(pair: IndexPair) -> Tuple[IndexPair, ...]:
    i, j = pair
    return ((i, j),) if i == j else tuple(sorted({(i, j), (j, i)}))


def max_entry(gv: GeometricVandermonde,
              precision_bits: int = DEFAULT_PRECISION_BITS,
              precision_ceiling: Optional[int] = None,
              inv: Optional[InverseMatrix] = None) -> MaxReport:
    """Scan all n^2 entries for the maximum absolute value.

    The candidates are the entries whose upper bound reaches the largest
    lower bound.  Exact entries are zero-width, so the candidates are exactly
    the maximal entries (mirror pairs and ties included) and the scan never
    escalates.  Enclosures double the working precision until a single
    symmetry orbit of candidates remains or the ceiling is reached; in the
    latter case the full candidate set is reported with the tie flag set.
    """
    n0 = n_zero(gv.base, precision_ceiling)
    precision = precision_bits
    inv = _inverse_at(gv, precision, inv)
    while True:
        magnitudes = {(i, j): abs(v) for i, row in enumerate(inv.entries)
                      for j, v in enumerate(row)}
        bounds = {p: _bounds(v) for p, v in magnitudes.items()}
        floor = max(lower for lower, _ in bounds.values())
        candidates = tuple(p for p, (_, upper) in bounds.items() if upper >= floor)
        settled = gv.is_exact or len({_orbit(p) for p in candidates}) == 1
        if settled or 2 * precision > resolve_precision_ceiling(precision_ceiling):
            break
        precision *= 2
        inv = inverse_matrix(gv, precision)
    best = [magnitudes[p] for p in candidates]
    argmax = tuple(sorted(candidates))
    return MaxReport(
        base=gv.base, n=gv.n, n_zero=n0,
        max_value=RigorousReal.hull(best) if inv.backend == "rigorous" else best[0],
        argmax=argmax, within_n_zero_box=all(i <= n0 and j <= n0 for i, j in argmax),
        diagonal_argmax=any(i == j for i, j in argmax),
        tie=not settled, backend=inv.backend, precision_bits=inv.precision_bits)


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoxCheckReport:
    """Outcome of the argmax-box check: every entry with both indices >= n0
    is dominated by the (n0, n0) entry, and the argmax lies in [0, n0]^2."""

    base: BaseSpec
    n: int
    n_zero: int
    passed: bool
    argmax_within_box: bool
    witnesses: Tuple[IndexPair, ...]       # provable violations
    undecided: Tuple[IndexPair, ...]       # comparisons ambiguous at ceiling
    max_report: MaxReport


def verify_argmax_box(gv: GeometricVandermonde,
                      precision_bits: int = DEFAULT_PRECISION_BITS,
                      precision_ceiling: Optional[int] = None,
                      inv: Optional[InverseMatrix] = None) -> BoxCheckReport:
    """Check that the dominant entry cannot escape the [0, n0]^2 box."""
    report = max_entry(gv, precision_bits, precision_ceiling, inv=inv)
    n, n0 = gv.n, report.n_zero
    witnesses, undecided = _box_check(gv, n0, precision_bits, precision_ceiling, inv)
    passed = not witnesses and not undecided and report.within_n_zero_box
    return BoxCheckReport(base=gv.base, n=n, n_zero=n0, passed=passed,
                          argmax_within_box=report.within_n_zero_box,
                          witnesses=tuple(witnesses), undecided=tuple(undecided),
                          max_report=report)


def _box_check(gv: GeometricVandermonde, n0: int, precision: int,
               precision_ceiling: Optional[int], inv: Optional[InverseMatrix]):
    """Entries with both indices >= n0 that provably exceed the (n0, n0)
    entry, and those still undecided at the ceiling; only enclosures that
    overlap the reference are re-examined at doubled precision."""
    n = gv.n
    pending = [(i, j) for i in range(n0, n) for j in range(n0, n) if (i, j) != (n0, n0)]
    witnesses: List[IndexPair] = []
    if not pending:                     # n0 >= n - 1: nothing outside the box
        return witnesses, pending
    inv = _inverse_at(gv, precision, inv)
    while True:
        ref_lower, ref_upper = _bounds(abs(inv.entries[n0][n0]))
        unresolved: List[IndexPair] = []
        for i, j in pending:
            lower, upper = _bounds(abs(inv.entries[i][j]))
            if upper <= ref_lower:
                continue
            if lower > ref_upper:
                witnesses.append((i, j))
                continue
            unresolved.append((i, j))
        if not unresolved or 2 * precision > resolve_precision_ceiling(precision_ceiling):
            return witnesses, unresolved
        precision *= 2
        inv = inverse_matrix(gv, precision)
        pending = unresolved


@dataclass(frozen=True)
class DiagonalCheckReport:
    """Outcome of the leading-diagonal check (bases at or above the golden
    ratio): the maximum is attained at (0,0) or (1,1), and the supporting
    step sigma_{n-1,1,n} <= sigma_{n-2,1,n} holds."""

    base: BaseSpec
    n: int
    passed: bool
    max_on_leading_diagonal: bool
    sigma_step_holds: bool
    tie: bool
    max_report: MaxReport


def verify_leading_diagonal_max(gv: GeometricVandermonde,
                                precision_bits: int = DEFAULT_PRECISION_BITS,
                                precision_ceiling: Optional[int] = None,
                                inv: Optional[InverseMatrix] = None,
                                max_report: Optional[MaxReport] = None) -> DiagonalCheckReport:
    """Check that M_b(n) is attained at entry (0,0) or (1,1); requires
    b >= (1+sqrt(5))/2 and n >= 2.  A max_report already computed for the
    same (base, n), such as a box check's, is used instead of a new scan."""
    ceiling = resolve_precision_ceiling(precision_ceiling)
    if gv.n < 2:
        raise DomainError(f"requires n >= 2, got n={gv.n}")
    if max_report is not None and (max_report.base, max_report.n) != (gv.base, gv.n):
        raise DomainError(f"max_report is not for base {gv.base.display()}, n={gv.n}")
    # b >= tau  <=>  b^2 - b - 1 >= 0   (b > 1)
    if certified_poly_sign(TAU_POLYNOMIAL, gv.base, ceiling) < 0:
        raise DomainError(f"requires base >= (1+sqrt(5))/2; {gv.base.display()} is below")
    report = max_report or max_entry(gv, precision_bits, precision_ceiling, inv=inv)
    diagonal_ok = any(pair in ((0, 0), (1, 1)) for pair in report.argmax)
    sigma_ok = _sigma_step_holds(gv, precision_bits, ceiling)
    passed = diagonal_ok and sigma_ok
    return DiagonalCheckReport(base=gv.base, n=gv.n, passed=passed,
                               max_on_leading_diagonal=diagonal_ok,
                               sigma_step_holds=sigma_ok, tie=report.tie,
                               max_report=report)


def _sigma_step_holds(gv: GeometricVandermonde, precision: int, ceiling: int) -> bool:
    """sigma_{n-1,1,n}(b) <= sigma_{n-2,1,n}(b): dropping the largest
    admissible exponent from the full product never loses mass."""
    n = gv.n
    value = gv.base.exact_value()
    while True:
        b = value if value is not None else gv.base.evaluate(precision)
        top_lower, top_upper = _bounds(sigma_finite(SigmaQuery(n - 1, 1, n, b)))
        next_lower, next_upper = _bounds(sigma_finite(SigmaQuery(n - 2, 1, n, b)))
        if top_upper <= next_lower:
            return True
        if next_upper < top_lower:
            return False
        if 2 * precision > ceiling:
            raise UndecidableComparisonError(
                f"sigma step comparison for n={n} at base {gv.base.display()} "
                f"is ambiguous at the {ceiling}-bit ceiling")
        precision *= 2


# ---------------------------------------------------------------------------
# conjecture scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanRecord:
    n: int
    n_zero: int
    max_value: Numeric
    argmax: Tuple[IndexPair, ...]
    diagonal: bool
    tie: bool


@dataclass(frozen=True)
class ConjectureScan:
    """Per-n record of whether a diagonal entry attains the maximum.

    Empirical output only: the eventual-diagonal-argmax statement is an open
    question, so the scan reports and never asserts.
    """

    base: BaseSpec
    n_min: int
    n_max: int
    records: Tuple[ScanRecord, ...]
    non_diagonal: Tuple[int, ...]

    def to_json_array(self, digits: int = 20) -> list:
        return [{"n": r.n, "n_zero": r.n_zero, "max": _decimal(r.max_value, digits),
                 "argmax": [list(p) for p in r.argmax], "diagonal": r.diagonal}
                for r in self.records]

    def to_json(self, digits: int = 20) -> str:
        return json.dumps(self.to_json_array(digits), separators=(", ", ": "))

    def to_text(self, digits: int = 12) -> str:
        lines = [f"base {self.base.display()}: diagonal-argmax scan, "
                 f"n from {self.n_min} to {self.n_max}"]
        for r in self.records:
            pairs = " ".join(f"({i},{j})" for i, j in r.argmax)
            flag = "diagonal" if r.diagonal else "NON-DIAGONAL"
            tie = " tie" if r.tie else ""
            lines.append(f"  n={r.n:3d}  n0={r.n_zero}  max={_decimal(r.max_value, digits)}"
                         f"  argmax {pairs}  {flag}{tie}")
        lines.append(f"summary: {len(self.non_diagonal)} of {len(self.records)} sizes "
                     f"lack a diagonal argmax"
                     + (f" (n = {', '.join(map(str, self.non_diagonal))})"
                        if self.non_diagonal else ""))
        return "\n".join(lines)


def conjecture_scan(base: BaseSpec, n_min: int, n_max: int,
                    precision_bits: int = DEFAULT_PRECISION_BITS,
                    precision_ceiling: Optional[int] = None) -> ConjectureScan:
    """Record the argmax structure for every n in [n_min, n_max]."""
    if not 2 <= n_min <= n_max:
        raise DomainError(f"need 2 <= n_min <= n_max, got {n_min}..{n_max}")
    records = []
    non_diagonal = []
    for n in range(n_min, n_max + 1):
        report = max_entry(GeometricVandermonde(base, n), precision_bits, precision_ceiling)
        records.append(ScanRecord(n=n, n_zero=report.n_zero, max_value=report.max_value,
                                  argmax=report.argmax, diagonal=report.diagonal_argmax,
                                  tie=report.tie))
        if not report.diagonal_argmax:
            non_diagonal.append(n)
    return ConjectureScan(base=base, n_min=n_min, n_max=n_max,
                          records=tuple(records), non_diagonal=tuple(non_diagonal))
