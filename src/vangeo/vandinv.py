"""Closed-form inverses of geometric Vandermonde matrices.

For nodes b^0, b^1, ..., b^{n-1} (b > 1) the inverse entries have the exact
form

    |c_{i,j,n}| = sigma_{n-1-i,j,n}(b) / pi_{j,n},      sign = (-1)^{i+j},

where pi_{j,n} = prod_{h != j} |b^j - b^h|.  The exact backend evaluates this
over the integers: with b = p/q in lowest terms it scales the nodes to
N_h = p^h q^{n-1-h}, builds the master polynomial prod_h (1 + N_h t) in O(n)
from the q-binomial theorem, and deflates one node out of it per column in
O(n) (Traub 1966; Bjorck & Pereyra 1970).  That is O(n^2) integer operations
in total and one normalising gcd per symmetric pair of entries.  The rigorous
backend works in the reciprocal formulation

    |c_{i,j,n}| = sigma_{i,j,n}(1/b) / ( prod_{s=1}^{j} (b^s - 1)
                                       * prod_{t=1}^{n-1-j} (1 - b^{-t}) ),

whose factors all have moderate magnitude, so ball radii stay tight.  An
independent exact Gaussian-elimination oracle and a residual check are
included for differential testing.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .errors import (DimensionError, DomainError, SizeError,
                     UnsupportedBackendError)
from .scalar import (DEFAULT_PRECISION_BITS, BaseSpec, Numeric, RigorousReal,
                     fraction_to_decimal, fraction_to_sci)
from .symfunc import elementary_symmetric

_GAUSSIAN_MAX_N = 64


@dataclass(frozen=True)
class GeometricVandermonde:
    """The n x n Vandermonde matrix V[i][j] = b^(i*j) at geometric nodes."""

    base: BaseSpec
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"n must be positive, got {self.n}")
        value = self.base.exact_value()
        if value is not None and value <= 1:
            raise DomainError(f"base must be > 1, got {value}")

    @property
    def is_exact(self) -> bool:
        return self.base.is_exact


@dataclass(frozen=True)
class InverseMatrix:
    """A computed inverse with its provenance.

    entries is row-major; exact backend holds Fractions, rigorous backend
    holds RigorousReal enclosures.  Inverses of geometric Vandermonde
    matrices are symmetric with checkerboard signs (-1)^(i+j).
    """

    n: int
    base: BaseSpec
    backend: str                    # "exact" | "rigorous"
    provenance: str                 # "closed_form" | "gaussian_oracle"
    entries: Tuple[Tuple[Numeric, ...], ...]
    precision_bits: Optional[int] = None

    def entry(self, i: int, j: int) -> Numeric:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise DomainError(f"index ({i},{j}) out of range for n={self.n}")
        return self.entries[i][j]

    def entry_strings(self, digits: int = 20) -> List[List[str]]:
        return [[format_entry(v, digits) for v in row] for row in self.entries]

    def to_json_dict(self, digits: int = 20) -> dict:
        flat = [format_entry(v, digits) for row in self.entries for v in row]
        return {"n": self.n, "base": self.base.display(), "backend": self.backend,
                "entries": flat}

    def to_json(self, digits: int = 20) -> str:
        return json.dumps(self.to_json_dict(digits), separators=(", ", ": "))

    def to_csv(self, digits: int = 20) -> str:
        rows = self.entry_strings(digits)
        return "\n".join(",".join(row) for row in rows)


def format_entry(value: Numeric, digits: int = 20) -> str:
    """Exact values render as fraction strings p or p/q; enclosures render
    as midpoint±radius."""
    if isinstance(value, RigorousReal):
        rad = "0" if value.is_exact else fraction_to_sci(value.radius, 3)
        return f"{value.decimal(digits)}±{rad}"
    v = Fraction(value)
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


def _exact_base(gv: GeometricVandermonde) -> Union[int, Fraction]:
    value = gv.base.exact_value()
    if value is None:
        raise UnsupportedBackendError(
            f"operation requires an exact rational base, got {gv.base.display()}")
    return value.numerator if value.denominator == 1 else value


def _base_powers(b, n: int) -> List:
    pows = [b ** 0]
    for _ in range(1, n):
        pows.append(pows[-1] * b)
    return pows


def vandermonde_matrix(gv: GeometricVandermonde,
                       precision_bits: int = DEFAULT_PRECISION_BITS) -> List[List[Numeric]]:
    """The forward matrix V[i][j] = b^(i*j), exact when the base is."""
    if gv.is_exact:
        b = _exact_base(gv)
    else:
        b = gv.base.evaluate(precision_bits)
    pows = _base_powers(b, (gv.n - 1) * (gv.n - 1) + 1)
    return [[pows[i * j] for j in range(gv.n)] for i in range(gv.n)]


def pi_product(j: int, n: int, b: Numeric) -> Numeric:
    """pi_{j,n} = prod over h != j of |b^j - b^h| (> 0 for b > 1)."""
    if not 0 <= j < n:
        raise DomainError(f"j must satisfy 0 <= j < n, got j={j}, n={n}")
    pows = _base_powers(b, n)
    prod = None
    for h in range(n):
        if h == j:
            continue
        factor = abs(pows[j] - pows[h])
        prod = factor if prod is None else prod * factor
    if prod is None:
        return b ** 0
    return prod


def inverse_matrix(gv: GeometricVandermonde,
                   precision_bits: int = DEFAULT_PRECISION_BITS) -> InverseMatrix:
    """Closed-form inverse.  Exact bases take O(n^2) integer operations (one
    master polynomial, one deflation per column, upper triangle mirrored);
    the rigorous backend runs one symmetric-function sweep per column."""
    if gv.is_exact:
        entries = _inverse_entries_exact(gv)
        return InverseMatrix(n=gv.n, base=gv.base, backend="exact",
                             provenance="closed_form", entries=entries)
    entries = _inverse_entries_rigorous(gv, precision_bits)
    return InverseMatrix(n=gv.n, base=gv.base, backend="rigorous",
                         provenance="closed_form", entries=entries,
                         precision_bits=precision_bits)


def inverse_entry(i: int, j: int, gv: GeometricVandermonde,
                  precision_bits: int = DEFAULT_PRECISION_BITS) -> Numeric:
    """Single signed entry c_{i,j,n}; prefer inverse_matrix for whole tables."""
    if not (0 <= i < gv.n and 0 <= j < gv.n):
        raise DomainError(f"index ({i},{j}) out of range for n={gv.n}")
    if gv.is_exact:
        return _IntegerNodes(_exact_base(gv), gv.n).column(j, [i])[0]
    return _inverse_entries_rigorous(gv, precision_bits)[i][j]


class _IntegerNodes:
    """The nodes b^h of an exact base b = p/q (lowest terms) scaled to the
    integers N_h = p^h q^(n-1-h) = q^(n-1) b^h, with the coefficients
    E_k = e_k(N_0, ..., N_{n-1}), k = 0..n, of prod_h (1 + N_h t).

    The q-binomial theorem gives e_k(1, b, ..., b^(n-1)) =
    b^(k(k-1)/2) [n choose k]_b, hence the O(n) recurrence
    E_k = E_{k-1} (pq)^(k-1) (p^(n-k+1) - q^(n-k+1)) / (p^k - q^k),
    whose division is exact.
    """

    def __init__(self, b: Union[int, Fraction], n: int):
        p, q = b.numerator, b.denominator
        self.n, self.q = n, q
        self.nodes = [p ** h * q ** (n - 1 - h) for h in range(n)]
        self.master = [1]
        for k in range(1, n + 1):
            self.master.append(self.master[-1] * (p * q) ** (k - 1)
                               * (p ** (n - k + 1) - q ** (n - k + 1))
                               // (p ** k - q ** k))

    def column(self, j: int, rows: Iterable[int]) -> List[Fraction]:
        """Signed entries c_{i,j,n} for i in rows.

        Deflating N_j out of the master polynomial gives
        F_k = e_k(N_h : h != j) = q^((n-1)k) sigma_{k,j,n}(b), and
        pi_j(N) = q^((n-1)^2) pi_{j,n}(b), so
        c_{i,j,n} = (-1)^(i+j) F_{n-1-i} q^((n-1)i) / pi_j(N).
        """
        n, node = self.n, self.nodes[j]
        deflated = [0] * n
        deflated[n - 1] = self.master[n] // node
        for m in range(n - 1, 0, -1):
            deflated[m - 1] = (self.master[m] - deflated[m]) // node
        pi = 1
        for h, other in enumerate(self.nodes):
            if h != j:
                pi *= abs(node - other)
        entries = []
        for i in rows:
            magnitude = Fraction(deflated[n - 1 - i] * self.q ** ((n - 1) * i), pi)
            entries.append(-magnitude if (i + j) % 2 else magnitude)
        return entries


def _inverse_entries_exact(gv: GeometricVandermonde) -> Tuple[Tuple[Fraction, ...], ...]:
    n = gv.n
    nodes = _IntegerNodes(_exact_base(gv), n)
    grid: List[List[Fraction]] = [[Fraction(0)] * n for _ in range(n)]
    # the inverse is symmetric: fill i <= j and mirror
    for j in range(n):
        for i, value in enumerate(nodes.column(j, range(j + 1))):
            grid[i][j] = grid[j][i] = value
    return tuple(tuple(row) for row in grid)


def _inverse_entries_rigorous(gv: GeometricVandermonde,
                              precision_bits: int) -> Tuple[Tuple[RigorousReal, ...], ...]:
    n = gv.n
    b = gv.base.evaluate(precision_bits)
    one = RigorousReal.exact(1, precision_bits)
    q = 1 / b
    qpows = _base_powers(q, n)
    bpows = _base_powers(b, n)
    # denominator factorization: prod_{h != j} |b^(j-h) - 1|
    #   = prod_{s=1}^{j} (b^s - 1) * prod_{t=1}^{n-1-j} (1 - b^-t)
    grow = [one]        # grow[j]  = prod_{s=1}^{j}   (b^s - 1)
    for s in range(1, n):
        grow.append(grow[-1] * (bpows[s] - one))
    decay = [one]       # decay[k] = prod_{t=1}^{k}   (1 - q^t)
    for t in range(1, n):
        decay.append(decay[-1] * (one - qpows[t]))
    columns: List[List[RigorousReal]] = []
    for j in range(n):
        nodes = [qpows[h] for h in range(n) if h != j]
        e = elementary_symmetric(nodes, n - 1, one)
        inv_denominator = one / (grow[j] * decay[n - 1 - j])
        col = []
        for i in range(n):
            magnitude = e[i] * inv_denominator
            col.append(-magnitude if (i + j) % 2 else magnitude)
        columns.append(col)
    grid = [[columns[j][i] for j in range(n)] for i in range(n)]
    # the true inverse is symmetric; intersecting the independently computed
    # (i,j) and (j,i) enclosures is sound and tightens both
    for i in range(n):
        for j in range(i + 1, n):
            tight = grid[i][j].intersect(grid[j][i])
            grid[i][j] = tight
            grid[j][i] = tight
    return tuple(tuple(row) for row in grid)


def gaussian_inverse(gv: GeometricVandermonde) -> InverseMatrix:
    """Independent oracle: exact Gauss-Jordan inversion with partial
    pivoting.  Exact rational bases only, n <= 64."""
    if not gv.is_exact:
        raise UnsupportedBackendError("gaussian_inverse requires an exact rational base")
    if gv.n > _GAUSSIAN_MAX_N:
        raise SizeError(f"gaussian_inverse limited to n <= {_GAUSSIAN_MAX_N}, got {gv.n}")
    n = gv.n
    v = vandermonde_matrix(gv)
    work = [[Fraction(v[i][j]) for j in range(n)] +
            [Fraction(1 if k == i else 0) for k in range(n)] for i in range(n)]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(work[r][col]))
        if work[pivot_row][col] == 0:
            raise DomainError("matrix is singular")  # unreachable for b > 1
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col][col]
        work[col] = [x / pivot for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [a - factor * p for a, p in zip(work[r], work[col])]
    entries = tuple(tuple(work[i][n + j] for j in range(n)) for i in range(n))
    return InverseMatrix(n=n, base=gv.base, backend="exact",
                         provenance="gaussian_oracle", entries=entries)


def residual_norm(gv: GeometricVandermonde, inv: InverseMatrix,
                  precision_bits: Optional[int] = None) -> Numeric:
    """Max-entry absolute value of V * inv - I.

    Exactly 0 in exact mode; in rigorous mode an enclosure whose lower bound
    is 0 (the true residual) and whose upper bound certifies tightness.
    """
    if inv.n != gv.n or inv.base != gv.base:
        raise DimensionError("inverse does not match the given matrix")
    n = gv.n
    if inv.backend == "exact":
        # Row i of V times q^(i(n-1)) (b = p/q) and column j of inv times the
        # lcm of its denominators are integer, so every entry of V * inv - I
        # is an integer dot product over a known denominator, with no gcd
        # unless the entry is non-zero.
        b = _exact_base(gv)
        p_pows = _base_powers(b.numerator, (n - 1) * (n - 1) + 1)
        q_pows = _base_powers(b.denominator, (n - 1) * (n - 1) + 1)
        rows = [[p_pows[i * k] * q_pows[i * (n - 1 - k)] for k in range(n)]
                for i in range(n)]
        worst = Fraction(0)
        for j in range(n):
            column = [inv.entries[k][j] for k in range(n)]
            scale = math.lcm(*(c.denominator for c in column))
            scaled = [c.numerator * (scale // c.denominator) for c in column]
            for i in range(n):
                denominator = q_pows[i * (n - 1)] * scale
                excess = sum(map(operator.mul, rows[i], scaled))
                if i == j:
                    excess -= denominator
                if excess:
                    worst = max(worst, Fraction(abs(excess), denominator))
        return worst
    prec = precision_bits if precision_bits is not None else (inv.precision_bits
                                                              or DEFAULT_PRECISION_BITS)
    v = vandermonde_matrix(gv, prec)
    lo = Fraction(0)
    hi = Fraction(0)
    for i in range(n):
        for j in range(n):
            acc = RigorousReal.exact(-1 if i == j else 0, prec)
            for k in range(n):
                acc = acc + v[i][k] * inv.entries[k][j]
            mag = abs(acc)
            lo = max(lo, mag.lower)
            hi = max(hi, mag.upper)
    return RigorousReal.from_interval(lo, hi, prec)
