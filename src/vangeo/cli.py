"""Command-line front end.

Subcommands expose every library operation:

* ``inverse``     full signed inverse matrix (exact fractions or enclosures)
* ``sigma``       one power-sum value sigma_{i,j,n}(x)
* ``max``         M_b(n) with argmax localization
* ``limit``       entry limits l_{i,j}, their max, and the regime
* ``table``       recompute the reference table of limit values and certify
                  every printed digit against the expected strings
* ``verify``      run the full invariant/verification suite up to an n bound
* ``conjecture``  diagonal-argmax scan (report only, never a failure)

``verify`` runs one suite whose checks are each written once; each base kind
(p/q, or the constants tau and alpha) has its own ordered list of checks.
Identities are decided exactly, over Fractions or in Z[theta]; at tau and
alpha only the residual and sign checks read the printed ball inverse.

This module formats every report; the library returns values.  A command's
text, JSON and CSV are written here from the fields of the library's reports.

Exit status: 0 all checks pass, 1 a verification check failed, 2 usage or
domain error.  Output is deterministic: identical flags give identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from . import extremal, limits, symfunc, vandinv
from .errors import DomainError, ParseError, VangeoError
from .scalar import (DEFAULT_PRECISION_BITS, TAU_POLYNOMIAL, BaseSpec, Numeric, RigorousReal,
                     at_base, certified_poly_sign, evaluate_base, exact_sign,
                     fraction_to_decimal, fraction_to_sci, powers)

_FORMATS = ("text", "json", "csv")


@dataclass(frozen=True)
class OutputFormat:
    kind: str = "text"
    digits: int = 20

    def __post_init__(self):
        if not 1 <= self.digits <= 1000:
            raise DomainError(f"digits must be in [1, 1000], got {self.digits}")

    @property
    def precision_bits(self) -> int:
        """The working precision of the balls a command prints: 4 bits per
        printed digit, and never below the default."""
        return max(DEFAULT_PRECISION_BITS, 4 * self.digits)


def _parse_tol(text: str) -> Fraction:
    try:
        tol = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"cannot parse tolerance {text!r}") from None
    if tol <= 0:
        raise DomainError(f"tolerance must be positive, got {text}")
    return tol


def _parse_range(text: str) -> Tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ParseError(f"range must look like lo:hi, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"range bounds must be integers, got {text!r}") from None
    return lo, hi


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------


def _json(payload) -> str:
    return json.dumps(payload, separators=(", ", ": "))


def _format_entry(value: Numeric, digits: int) -> str:
    """Exact values render as fraction strings p or p/q; enclosures render
    as midpoint±radius."""
    if isinstance(value, RigorousReal):
        rad = "0" if value.is_exact else fraction_to_sci(value.radius)
        return f"{value.decimal(digits)}±{rad}"
    return str(value)       # an int's digits, or a Fraction's p or p/q


def _format_decimal(value: Numeric, digits: int) -> str:
    """A maximum as printed: digits significant decimals of a Fraction or a ball."""
    if isinstance(value, RigorousReal):
        return value.decimal(digits)
    return fraction_to_decimal(Fraction(value), digits)


def _format_pairs(pairs) -> str:
    """Index pairs as printed: "(0,0) (1,1)"."""
    return " ".join(f"({i},{j})" for i, j in pairs)


def _max_csv(report: extremal.MaxReport, digits: int) -> str:
    """The CSV fields max and conjecture share: n0, max, argmax, diagonal."""
    pairs = ";".join(f"{i}:{j}" for i, j in report.argmax)
    return (f"{report.n_zero},{_format_decimal(report.max_value, digits)},{pairs},"
            f"{str(report.diagonal_argmax).lower()}")


def _entry_strings(inv: vandinv.InverseMatrix, digits: int) -> List[List[str]]:
    """_format_entry of every entry, row-major.  An entry below the diagonal
    that is the same object as its mirror above it (as in every closed-form
    inverse) reuses the mirror's string, so a symmetric pair is formatted
    once."""
    entries, cells = inv.entries, []
    for i, row in enumerate(entries):
        cells.append([cells[j][i] if j < i and entries[j][i] is v else _format_entry(v, digits)
                      for j, v in enumerate(row)])
    return cells


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_inverse(base: BaseSpec, n: int, fmt: OutputFormat) -> Tuple[int, str]:
    gv = vandinv.GeometricVandermonde(base, n)
    inv = vandinv.inverse_matrix(gv, fmt.precision_bits)
    cells = _entry_strings(inv, fmt.digits)
    if fmt.kind == "json":
        return 0, _json({"n": n, "base": base.text, "backend": inv.backend,
                         "entries": [cell for row in cells for cell in row]})
    if fmt.kind == "csv":
        return 0, "\n".join(",".join(row) for row in cells)
    widths = [max(len(cells[i][j]) for i in range(n)) for j in range(n)]
    lines = ["  ".join(cells[i][j].rjust(widths[j]) for j in range(n)) for i in range(n)]
    if inv.backend == "rigorous":
        residual = vandinv.residual_norm(gv, inv)
        # a ball contains 0 exactly when its sign is 0 or undecided
        contains = "contains 0" if residual.sign() in (0, None) else "EXCLUDES 0"
        lines.append(f"residual: {contains}, upper bound {fraction_to_sci(residual.upper)}")
    return 0, "\n".join(lines)


def cmd_sigma(i: int, j: int, n: int, x_spec: BaseSpec, fmt: OutputFormat) -> Tuple[int, str]:
    x = x_spec.value
    if x is None:
        x = evaluate_base(x_spec, fmt.precision_bits)
    value = symfunc.sigma_finite(i, j, n, x)
    rendered = _format_entry(value, fmt.digits)
    if fmt.kind == "json":
        return 0, _json({"i": i, "j": j, "n": n, "x": x_spec.text, "value": rendered})
    if fmt.kind == "csv":
        return 0, f"{i},{j},{n},{x_spec.text},{rendered}"
    return 0, rendered


def cmd_max(base: BaseSpec, n: int, fmt: OutputFormat) -> Tuple[int, str]:
    gv = vandinv.GeometricVandermonde(base, n)
    report = extremal.max_entry(gv, fmt.precision_bits)
    if fmt.kind == "json":
        return 0, _json({
            "base": base.text,
            "n": n,
            "n_zero": report.n_zero,
            "max": _format_decimal(report.max_value, fmt.digits),
            "argmax": [list(p) for p in report.argmax],
            "within_n_zero_box": report.within_n_zero_box,
            "diagonal_argmax": report.diagonal_argmax,
            "tie": False,           # comparisons are exact; kept for the output schema
            "backend": "exact" if base.is_exact else "rigorous",
        })
    if fmt.kind == "csv":
        return 0, f"{base.text},{n},{_max_csv(report, fmt.digits)},false"
    lines = [f"max = {_format_decimal(report.max_value, fmt.digits)}",
             f"argmax = {_format_pairs(report.argmax)}",
             f"n0 = {report.n_zero}",
             f"diagonal = {str(report.diagonal_argmax).lower()}"]
    return 0, "\n".join(lines)


def cmd_limit(base: BaseSpec, tol: Fraction, fmt: OutputFormat,
              precision_ceiling: int) -> Tuple[int, str]:
    report = limits.limit_max(base, tol, precision_ceiling)
    entries = [(e, e.value.decimal(fmt.digits), fraction_to_sci(e.value.radius))
               for e in report.entries]
    if fmt.kind == "json":
        return 0, _json({
            "base": base.text,
            "n_zero": report.n_zero,
            "entries": [{"i": e.i, "j": e.j, "value": value, "radius": radius,
                         "sigma_cutoff": e.sigma_cutoff, "product_cutoff": e.product_cutoff}
                        for e, value, radius in entries],
            "max": report.value.decimal(fmt.digits),
            "argmax": [list(p) for p in report.argmax],
            "regime": report.regime,
        })
    if fmt.kind == "csv":
        return 0, "\n".join(f"{e.i},{e.j},{value},{radius},{e.sigma_cutoff},{e.product_cutoff}"
                            for e, value, radius in entries)
    lines = [f"l({e.i},{e.j}) = {value} (radius {radius}, "
             f"cutoffs sigma {e.sigma_cutoff}, product {e.product_cutoff})"
             for e, value, radius in entries]
    lines.append(f"n0 = {report.n_zero}")
    lines.append(f"max = {report.value.decimal(fmt.digits)}")
    lines.append(f"argmax = {_format_pairs(report.argmax)}")
    lines.append(f"regime = {report.regime}" + (" (boundary)" if report.boundary else ""))
    return 0, "\n".join(lines)


# Reference limit values to certify: (base text, expected digits).  Each
# computed enclosure must round to the expected string with half-ulp slack.
REFERENCE_TABLE: Tuple[Tuple[str, str], ...] = (
    ("3", "1.785312341998534190367486"),
    ("alpha", "2.4862447382651613433"),
    ("2", "5.194119929182595417"),
    ("tau", "26.788216012030303413"),
    ("1.5", "67.3672156"),
    ("1.4", "282.398"),
    ("1.3", "3069.44"),
    ("1.2", "422349.8"),
)


def _certify_row(base_text: str, expected: str) -> Tuple[str, str, str]:
    """Returns (computed string, status, radius string) for one table row."""
    base = BaseSpec.parse(base_text)
    frac_digits = len(expected.split(".")[1]) if "." in expected else 0
    sig_digits = len(expected.replace(".", "").lstrip("-0")) or 1
    half_ulp = Fraction(1, 2) / Fraction(10) ** frac_digits
    tol = half_ulp / 20
    value = limits.limit_max(base, tol).value
    computed = value.decimal(sig_digits)
    gap = abs(value.midpoint - Fraction(expected))
    if gap + value.radius <= half_ulp:
        status = "match"
    elif gap - value.radius > half_ulp:
        status = "mismatch"
    else:
        status = "uncertified"
    return computed, status, fraction_to_sci(value.radius)


def cmd_table(fmt: OutputFormat) -> Tuple[int, str]:
    rows = []
    for base_text, expected in REFERENCE_TABLE:
        computed, status, radius = _certify_row(base_text, expected)
        rows.append({"base": base_text, "computed": computed, "expected": expected,
                     "status": status, "radius": radius})
    failed = any(r["status"] != "match" for r in rows)
    if fmt.kind == "json":
        return (1 if failed else 0), _json(rows)
    if fmt.kind == "csv":
        lines = [f"{r['base']},{r['computed']},{r['expected']},{r['status']},{r['radius']}"
                 for r in rows]
        return (1 if failed else 0), "\n".join(lines)
    width_b = max(len(r["base"]) for r in rows)
    width_c = max(len(r["computed"]) for r in rows)
    width_e = max(len(r["expected"]) for r in rows)
    lines = [f"{'base'.ljust(width_b)}  {'computed'.ljust(width_c)}  "
             f"{'expected'.ljust(width_e)}  status"]
    for r in rows:
        lines.append(f"{r['base'].ljust(width_b)}  {r['computed'].ljust(width_c)}  "
                     f"{r['expected'].ljust(width_e)}  {r['status']}")
    return (1 if failed else 0), "\n".join(lines)


def _sigma_rows(node_lists, one) -> dict:
    """rows[n][j][k] = e_k of the n nodes without node j, for each list of n
    nodes: one elementary_symmetric sweep per (n, j) gives every k at once.

    The integer nodes p^h q^(n-1-h) of b = p/q give q^((n-1)k) sigma_{k,j,n}(b);
    the powers b^h give sigma_{k,j,n}(b) itself.
    """
    return {len(nodes): [symfunc.elementary_symmetric(nodes[:j] + nodes[j + 1:],
                                                      len(nodes) - 1, one)
                         for j in range(len(nodes))]
            for nodes in node_lists}


def _verify_suite(base: BaseSpec, sizes, matrices, boxes):
    """The invariant suite for one base.  Yields (name, ok, witness).

    Each check is written once.  A base kind picks one ordered tuple of
    (name, check): the checks it runs, in the order it prints them.  sizes,
    matrices and boxes hold the matrix, its inverse and its box report for
    each n.  b is a Fraction at p/q and theta in Z[theta] at tau and alpha,
    so identities are decided by exact signs; only the residual and sign
    checks at tau and alpha read balls, those of the printed ball inverse.

    At p/q every check is an integer identity over the nodes p^h q^(n-1-h).
    The inversion identity takes O(n) ring operations per column
    (vandinv.residual_norm); the oracle check cross-multiplies the integer
    output of the fraction-free elimination with each entry of the closed
    form; pi_product and sigma_finite take their products and sweeps over
    the integer nodes and divide once by the scale.  The magnitude, sigma
    j-monotonicity and complement checks read one table of integer sigma
    rows, one sweep per (n, j).  The nodes of 1/b, scaled by p^(n-1), are
    those of b, scaled by q^(n-1), in reverse order, so the row of 1/b
    without node j is the row of b without node n-1-j: the complement check
    reads both sides from that table, and the j-monotonicity of sigma at
    1/b is the one at b read backwards.  At tau and alpha the
    complement check sets a Z[theta] sweep at theta against sigma_finite at
    theta^(-1), different ring elements, and the first minus theta^t times
    the second must be an exact zero.  The pi checks read one lazily filled
    table: vandinv.pi_product runs at most once per (j, n).  At p/q the
    exact inverse comes from the column form's cofactor deflation, and the
    box and diagonal checks from its table of A_{i,j}, so the magnitude
    check also cross-multiplies each |c_{i,j}|, i <= j, with A_{i,j} / pi_j:
    a wrong A fails it as a wrong inverse does.
    """
    n_max = len(sizes)
    n0 = extremal.n_zero(base)
    b = at_base((0, 1), base)
    if base.is_exact:
        p, q = b.numerator, b.denominator
        rows_b = _sigma_rows((symfunc.integer_nodes(b, n)
                              for n in range(1, min(n_max, 12) + 1)), 1)
        sign, residual_witness = exact_sign, "V*C != I"
    else:
        pows = powers(b, min(n_max, 10))
        rows_b = _sigma_rows((pows[:n] for n in range(1, len(pows) + 1)), pows[0])
        sign, residual_witness = RigorousReal.sign, "residual enclosure excludes 0"

    pi = functools.cache(lambda j, n: vandinv.pi_product(j, n, b))

    def check_residual():
        # a ball contains 0 exactly when its sign is 0 or undecided
        for n in range(1, n_max + 1):
            if sign(vandinv.residual_norm(sizes[n], matrices[n])) not in (0, None):
                return False, f"{residual_witness} at n={n}"
        return True, ""

    def check_signs():
        for n in range(1, n_max + 1):
            e = matrices[n].entries
            for i in range(n):
                for j in range(n):
                    if sign(e[i][j]) != (-1 if (i + j) % 2 else 1):
                        return False, f"sign of entry ({i},{j}) at n={n}"
        return True, ""

    def check_pi_monotone():
        for n in range(2, n_max + 1):
            for j in range(n0, n - 1):
                if exact_sign(pi(j + 1, n) - pi(j, n)) < 0:
                    return False, f"pi monotonicity at n={n}, j={j}"
        return True, ""

    def check_box():
        for n, report in boxes.items():
            if not report.passed:
                return False, f"argmax box at n={n}: witnesses {report.witnesses}"
        return True, ""

    def check_diagonal():
        for n in range(2, n_max + 1):
            if not extremal.verify_leading_diagonal_max(sizes[n],
                                                        max_report=boxes[n].max_report):
                return False, f"leading-diagonal max at n={n}"
        return True, ""

    def diagonal(name):
        # b >= golden ratio  <=>  b^2 - b - 1 >= 0   (b > 1)
        if certified_poly_sign(TAU_POLYNOMIAL, base) >= 0:
            return name, check_diagonal
        return "leading-diagonal max", lambda: (None, "skipped: base below the golden ratio")

    def check_oracle():
        # the elimination's c_ik = W_ik s_k / det, det > 0, cross-multiplied
        for n in range(1, min(n_max, 12) + 1):
            work, scales, det = vandinv.fraction_free_inverse(sizes[n])
            if any(w * s * c.denominator != c.numerator * det
                   for row, entries in zip(work, matrices[n].entries)
                   for w, s, c in zip(row, scales, entries)):
                return False, f"closed form != elimination oracle at n={n}"
        return True, ""

    def check_symmetry():
        for n in range(1, n_max + 1):
            e = matrices[n].entries
            for i in range(n):
                for j in range(i + 1, n):
                    if e[i][j] != e[j][i]:
                        return False, f"entry ({i},{j}) != ({j},{i}) at n={n}"
        return True, ""

    def check_magnitude():
        # |c| * pi = a/d * u/v against sigma_k(b) = rows_b[n][j][k] / q^((n-1)k),
        # and for i <= j, |c| against the column form's ratio A_{i,j} / pi_j
        for n in range(1, min(n_max, 12) + 1):
            e, table = matrices[n].entries, sizes[n].column_form.upper_triangle
            for j in range(n):
                pi_j = pi(j, n)
                for i in range(n):
                    k = n - 1 - i
                    c = abs(e[i][j])
                    if (c.numerator * pi_j.numerator * q ** ((n - 1) * k)
                            != rows_b[n][j][k] * c.denominator * pi_j.denominator
                            or i <= j and c.numerator * table[i, j][1]
                            != table[i, j][0] * c.denominator):
                        return False, f"|c|*pi != sigma at n={n}, ({i},{j})"
        return True, ""

    def check_pi_ratio():
        # pi_{j+1}/pi_j = (b^(n+j-1) - b^(n-2)) / (b^(n-1) - b^j), scaled by q^(n+j-1)
        for n in range(2, n_max + 1):
            for j in range(n - 1):
                low, high = pi(j, n), pi(j + 1, n)
                num = p ** (n + j - 1) - p ** (n - 2) * q ** (j + 1)
                den = p ** (n - 1) * q ** j - p ** j * q ** (n - 1)
                if high.numerator * low.denominator * den != low.numerator * high.denominator * num:
                    return False, f"pi ratio identity at n={n}, j={j}"
        return True, ""

    def check_sigma_monotone():
        # a row's scale depends on (n, i) only, so scaled values compare as
        # sigma; at 1/b sigma_{i,j,n} is rows_b[n][n-1-j][i] / p^((n-1)i), so
        # its increase in j is this decrease, read backwards
        for n in range(2, min(n_max, 10) + 1):
            for i in range(n):
                values = [rows_b[n][j][i] for j in range(n)]
                for j in range(n - 1):
                    if values[j] < values[j + 1]:
                        return False, f"sigma j-monotonicity at n={n}, i={i}, j={j}"
        return True, ""

    def check_complement():
        # sigma_{n-1-i,j,n}(b) = b^t sigma_{i,j,n}(1/b), t = n(n-1)/2 - j, with
        # the scales q^((n-1)(n-1-i)) and p^((n-1)i) cross-multiplied; the
        # row of 1/b without node j is the row of b without node n-1-j
        for n in range(1, min(n_max, 10) + 1):
            for i in range(n):
                for j in range(n):
                    t = n * (n - 1) // 2 - j
                    lhs = rows_b[n][j][n - 1 - i] * q ** t * p ** ((n - 1) * i)
                    rhs = rows_b[n][n - 1 - j][i] * p ** t * q ** ((n - 1) * (n - 1 - i))
                    if lhs != rhs:
                        return False, f"complement identity at n={n}, ({i},{j})"
        return True, ""

    def check_complement_theta():
        inv_b = at_base(base.minimal_polynomial()[1:], base)
        for n, rows in rows_b.items():
            scales = [b ** (n * (n - 1) // 2 - j) for j in range(n)]
            for i in range(n):
                for j in range(n):
                    rhs = symfunc.sigma_finite(i, j, n, inv_b)
                    if exact_sign(rows[j][n - 1 - i] - scales[j] * rhs) != 0:
                        return False, f"complement identity at n={n}, ({i},{j})"
        return True, ""

    def check_sigma_step():
        for n in range(2, n_max + 1):
            s_top = symfunc.sigma_finite(n - 1, 1, n, b)
            s_next = symfunc.sigma_finite(n - 2, 1, n, b)
            if s_top > s_next:
                return False, f"sigma step at n={n}"
        return True, ""

    if base.is_exact:
        checks = (("inversion identity V*C = I", check_residual),
                  ("elimination-oracle equality (n <= 12)", check_oracle),
                  ("symmetry", check_symmetry),
                  ("checkerboard signs", check_signs),
                  ("magnitude formula |c|*pi = sigma (n <= 12)", check_magnitude),
                  ("pi ratio identity", check_pi_ratio),
                  ("pi monotonicity above n0", check_pi_monotone),
                  ("sigma j-monotonicity (n <= 10)", check_sigma_monotone),
                  ("complement identity (n <= 10)", check_complement),
                  ("argmax box localization", check_box),
                  ("sigma top step (dropping the largest exponent)", check_sigma_step),
                  diagonal("leading-diagonal max (base >= golden ratio)"))
    else:
        checks = (("residual enclosure contains 0", check_residual),
                  ("checkerboard signs (certified)", check_signs),
                  ("argmax box localization (certified)", check_box),
                  diagonal("leading-diagonal max (certified)"),
                  ("complement identity (enclosure overlap, n <= 10)",
                   check_complement_theta),
                  ("pi monotonicity above n0 (certified)", check_pi_monotone))
    for name, check in checks:
        yield name, *check()


def cmd_verify(base: BaseSpec, n_max: int) -> Tuple[int, str]:
    if n_max < 2:
        raise DomainError(f"need n_max >= 2, got {n_max}")
    # each matrix object (with its column form), inverse and box report (with
    # its max_entry) is built once and shared by the suite and the scan line
    sizes = {n: vandinv.GeometricVandermonde(base, n) for n in range(1, n_max + 1)}
    matrices = {n: vandinv.inverse_matrix(gv) for n, gv in sizes.items()}
    boxes = {n: extremal.verify_argmax_box(sizes[n]) for n in range(2, n_max + 1)}
    lines = [f"verification suite for base {base.text}, n up to {n_max}"]
    failures = 0
    for name, ok, witness in _verify_suite(base, sizes, matrices, boxes):
        if ok is None:
            lines.append(f"  [skip] {name}: {witness}")
        elif ok:
            lines.append(f"  [pass] {name}")
        else:
            failures += 1
            lines.append(f"  [FAIL] {name}: {witness}")
    non_diagonal = sum(not box.max_report.diagonal_argmax for box in boxes.values())
    lines.append(f"  [info] diagonal-argmax scan: {non_diagonal} of "
                 f"{len(boxes)} sizes non-diagonal (excluded from exit status)")
    lines.append("result: " + ("all checks passed" if failures == 0
                               else f"{failures} check(s) FAILED"))
    return (1 if failures else 0), "\n".join(lines)


def cmd_conjecture(base: BaseSpec, n_min: int, n_max: int,
                   fmt: OutputFormat) -> Tuple[int, str]:
    records = extremal.conjecture_scan(base, n_min, n_max, fmt.precision_bits)
    if fmt.kind == "json":
        return 0, _json([{"n": r.n, "n_zero": r.n_zero,
                          "max": _format_decimal(r.max_value, fmt.digits),
                          "argmax": [list(p) for p in r.argmax], "diagonal": r.diagonal_argmax}
                         for r in records])
    if fmt.kind == "csv":
        return 0, "\n".join(f"{r.n},{_max_csv(r, fmt.digits)}" for r in records)
    digits = min(fmt.digits, 12)
    lines = [f"base {base.text}: diagonal-argmax scan, n from {n_min} to {n_max}"]
    for r in records:
        flag = "diagonal" if r.diagonal_argmax else "NON-DIAGONAL"
        lines.append(f"  n={r.n:3d}  n0={r.n_zero}  max={_format_decimal(r.max_value, digits)}"
                     f"  argmax {_format_pairs(r.argmax)}  {flag}")
    non_diagonal = [r.n for r in records if not r.diagonal_argmax]
    lines.append(f"summary: {len(non_diagonal)} of {len(records)} sizes "
                 f"lack a diagonal argmax"
                 + (f" (n = {', '.join(map(str, non_diagonal))})" if non_diagonal else ""))
    return 0, "\n".join(lines)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)      # built on first use; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vangeo",
        description="Exact and rigorous inverses of geometric Vandermonde "
                    "matrices, their extremal entries, and entry limits.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, base=True, n=False, tol=None, rng=False, nmax=False, fmt=True, digits=True):
        if base:
            p.add_argument("--base", required=True,
                           help="base b > 1: p/q, a finite decimal, tau, or alpha")
        if n:
            p.add_argument("--n", type=int, required=True, help="matrix dimension")
        if tol is not None:
            p.add_argument("--tol", default=tol,
                           help=f"target enclosure radius (default {tol})")
        if rng:
            p.add_argument("--range", required=True, metavar="LO:HI",
                           help="dimension range lo:hi, inclusive")
        if nmax:
            p.add_argument("--n-max", type=int, required=True,
                           help="largest dimension to verify")
        if fmt:
            p.add_argument("--format", choices=_FORMATS, default="text")
        if digits:
            p.add_argument("--digits", type=int, default=20,
                           help="significant decimal digits to print (default 20)")

    p = sub.add_parser("inverse", help="full signed inverse matrix")
    common(p, n=True)
    p = sub.add_parser("sigma", help="one power sum sigma_{i,j,n}(x)")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    common(p, base=False, n=True)
    p.add_argument("--x", required=True,
                   help="evaluation point > 0: p/q, a finite decimal, tau, or alpha")
    p = sub.add_parser("max", help="maximal entry M_b(n) and its argmax")
    common(p, n=True)
    p = sub.add_parser("limit", help="entry limits, their max, and the regime")
    common(p, tol="1e-20")
    p.add_argument("--precision-ceiling", type=int, default=limits.DEFAULT_PRECISION_CEILING,
                   help="bits the precision doublings of each entry may reach, at least 16; "
                        "the first round runs at the precision the tolerance sets "
                        f"(default {limits.DEFAULT_PRECISION_CEILING})")
    p = sub.add_parser("table", help="recompute and certify the reference limit table")
    common(p, base=False, digits=False)
    p = sub.add_parser("verify", help="run the invariant suite for one base")
    common(p, nmax=True, fmt=False, digits=False)
    p = sub.add_parser("conjecture", help="diagonal-argmax scan over a range of n")
    common(p, rng=True)
    return parser


def run(argv: Optional[List[str]] = None) -> Tuple[int, str]:
    args = _build_parser().parse_args(argv)
    if args.command == "verify":
        return cmd_verify(BaseSpec.parse(args.base), args.n_max)
    if args.command == "table":
        return cmd_table(OutputFormat(kind=args.format))
    fmt = OutputFormat(kind=args.format, digits=args.digits)
    if args.command == "inverse":
        return cmd_inverse(BaseSpec.parse(args.base), args.n, fmt)
    if args.command == "sigma":
        return cmd_sigma(args.i, args.j, args.n, BaseSpec.parse(args.x), fmt)
    if args.command == "max":
        return cmd_max(BaseSpec.parse(args.base), args.n, fmt)
    if args.command == "limit":
        return cmd_limit(BaseSpec.parse(args.base), _parse_tol(args.tol), fmt,
                         args.precision_ceiling)
    if args.command == "conjecture":
        lo, hi = _parse_range(args.range)
        return cmd_conjecture(BaseSpec.parse(args.base), lo, hi, fmt)
    raise ParseError(f"unknown command {args.command!r}")       # unreachable


def main(argv: Optional[List[str]] = None) -> int:
    # exact p/q entries can pass the interpreter's 4300-digit limit on int
    # to str conversion; lift it for this command only, so that library
    # callers in the same process keep their own setting
    str_digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code, output = run(argv)
    except VangeoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(str_digits)
    if output:
        try:
            print(output, flush=True)
        except BrokenPipeError:
            # the reader left early (`vangeo table | head -4`); devnull keeps
            # the interpreter's flush at exit from reporting it as well
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
