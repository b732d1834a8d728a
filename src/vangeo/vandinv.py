"""Closed-form inverses of geometric Vandermonde matrices.

For nodes b^0, b^1, ..., b^{n-1} (b > 1) the inverse entries have the exact
form

    |c_{i,j,n}| = sigma_{n-1-i,j,n}(b) / pi_{j,n},      sign = (-1)^{i+j},

where pi_{j,n} = prod_{h != j} |b^j - b^h|.  ColumnForm holds every
magnitude as an exact ratio A_{i,j} / pi_j over Z (b = p/q) or over Z[theta]
(tau, alpha; the integer arithmetic of scalar.ZTheta): one master polynomial
from the q-binomial theorem in O(n) ring operations, one O(n) deflation per
column (Traub 1966; Bjorck & Pereyra 1970), and every pi_j in closed form
from one table of gap products.  The exact backend turns it into Fractions;
the extremal scans compare its ratios by exact signs.  The rigorous backend,
which encloses the entries of `inverse` at tau and alpha, works in the
reciprocal formulation

    |c_{i,j,n}| = sigma_{i,j,n}(1/b) / ( prod_{s=1}^{j} (b^s - 1)
                                       * prod_{t=1}^{n-1-j} (1 - b^{-t}) ),

whose factors all have moderate magnitude, so ball radii stay tight; its
column sweeps share their prefixes of nodes.  An independent fraction-free
(Bareiss) elimination oracle and a residual check, which decides V C = I
at p/q in O(n) integer operations per column, are included for
differential testing.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Sequence, Tuple, Union

from .errors import DomainError, SizeError
from .scalar import (DEFAULT_PRECISION_BITS, BaseSpec, Numeric, RigorousReal, ZTheta,
                     _ball_dot, _filled, _max_abs, _split, at_base, evaluate_base,
                     exact_sign, poly_eval_ball, powers)
from .symfunc import fold_balls, integer_nodes
# elementary_symmetric is not called here; bench/tracing.py's EXPECTED_BINDINGS
# expects this module to bind it
from .symfunc import elementary_symmetric  # noqa: F401

_GAUSSIAN_MAX_N = 64


@dataclass(frozen=True)
class GeometricVandermonde:
    """The n x n Vandermonde matrix V[i][j] = b^(i*j) at geometric nodes."""

    base: BaseSpec
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"n must be positive, got {self.n}")
        value = self.base.value
        if value is not None and value <= 1:
            raise DomainError(f"base must be > 1, got {value}")

    @property
    def is_exact(self) -> bool:
        return self.base.is_exact

    @functools.cached_property
    def column_form(self) -> "ColumnForm":
        """The exact column form of the inverse, shared by the checks on this matrix."""
        return ColumnForm(self)


@dataclass(frozen=True)
class InverseMatrix:
    """A computed inverse.

    entries is row-major; exact backend holds Fractions, rigorous backend
    holds RigorousReal enclosures.  Inverses of geometric Vandermonde
    matrices are symmetric with checkerboard signs (-1)^(i+j).
    """

    n: int
    base: BaseSpec
    backend: str                    # "exact" | "rigorous"
    entries: Tuple[Tuple[Numeric, ...], ...]


def pi_product(j: int, n: int, b: Numeric) -> Numeric:
    """pi_{j,n} = prod over h != j of |b^j - b^h| > 0, for b > 1, where the
    factor is b^j - b^h for h < j and b^h - b^j for h > j: no sign is taken.
    A Fraction b = p/q takes the product over the integer nodes
    p^h q^(n-1-h) = q^(n-1) b^h and divides once by the n-1 factors' scale
    q^((n-1)^2); any other point, over its powers."""
    if not 0 <= j < n:
        raise DomainError(f"j must satisfy 0 <= j < n, got j={j}, n={n}")
    exact = isinstance(b, Fraction)
    nodes = integer_nodes(b, n) if exact else powers(b, n)
    factors = [nodes[j] - x for x in nodes[:j]] + [x - nodes[j] for x in nodes[j + 1:]]
    if exact:
        return Fraction(math.prod(factors), b.denominator ** ((n - 1) ** 2))
    return math.prod(factors, start=nodes[0])


def inverse_matrix(gv: GeometricVandermonde,
                   precision_bits: int = DEFAULT_PRECISION_BITS) -> InverseMatrix:
    """Closed-form inverse.  Exact bases take O(n^2) integer operations (one
    master polynomial, one deflation per column, upper triangle mirrored);
    the rigorous backend finishes one symmetric-function sweep per column
    from the state its prefix of nodes shares with the columns before it."""
    if gv.is_exact:
        return InverseMatrix(n=gv.n, base=gv.base, backend="exact",
                             entries=_inverse_entries_exact(gv))
    return InverseMatrix(n=gv.n, base=gv.base, backend="rigorous",
                         entries=_inverse_entries_rigorous(gv, precision_bits))


class ColumnForm:
    """|c_{i,j,n}| = A_{i,j} / pi_j with A, pi > 0 in Z (b = p/q in lowest
    terms, nodes N_h = p^h q^(n-1-h) = q^(n-1) b^h) or in Z[theta] (nodes
    theta^h, p = theta, q = 1).  E_k = e_k(N_0, ..., N_{n-1}) comes from the
    q-binomial theorem, E_k = E_{k-1} (pq)^(k-1) (p^(n-k+1) - q^(n-k+1)) / (p^k - q^k),
    in O(n) ring operations; the division is exact over Z and in Z[theta]
    (ZTheta.__floordiv__).  Deflating N_j out gives F_k = e_k(N_h : h != j)
    = q^((n-1)k) sigma_{k,j,n}(b), so A_{i,j} = F_{n-1-i} q^((n-1)i).  theta
    is a unit: theta^(-1) is the minimal polynomial without its constant
    term, so the deflation's division by theta^j is a multiplication by
    theta^(-j).

    pis holds every pi_j = prod_{h != j} |N_j - N_h| in closed form, from
    O(n) ring products.  For h < j, N_j - N_h = p^h q^(n-1-j) (p^(j-h) - q^(j-h)),
    so pi_j = p^(a_j) q^(a_(n-1-j)) D_j D_(n-1-j), with a_j = j(2n-3-j)/2 and
    the gap products D_d = prod_{s=1}^{d} (p^s - q^s); the monomials are
    running products, one step per column.
    """

    def __init__(self, gv: GeometricVandermonde):
        n, value = gv.n, gv.base.value
        self.base, self.n = gv.base, n
        if value is not None:
            p, q = value.numerator, value.denominator
            self.nodes = integer_nodes(value, n)
            gaps = [p ** s - q ** s for s in range(n + 1)]
            # p^(a_j) q^(a_(n-1-j)) as a running product: a_(j+1) - a_j = n-2-j
            # and a_(n-1-j) - a_(n-2-j) = j, so a step multiplies by p^(n-2-j)
            # and divides exactly by q^j
            ps, qs = powers(p, n), powers(q, n)
            monomials = [q ** ((n - 1) * (n - 2) // 2)]
            for j in range(n - 1):
                monomials.append(monomials[-1] * ps[n - 2 - j] // qs[j])
            # the deflation divides by N_j: exactly over Z, by theta^(-j) over Z[theta]
            self._divisors, self._divide = self.nodes, operator.floordiv
            self._scale = q ** (n - 1)
        else:
            modulus = gv.base.minimal_polynomial()
            p, q = at_base((0, 1), gv.base), 1
            thetas = powers(p, n + 1)
            self.nodes = thetas[:n]
            gaps = [x - thetas[0] for x in thetas]
            # theta^(a_j) as a running product: a_(j+1) - a_j = n-2-j
            monomials = [self.nodes[0]]
            for j in range(n - 1):
                monomials.append(monomials[-1] * self.nodes[n - 2 - j])
            self._divisors = powers(at_base(modulus[1:], gv.base), n)
            self._divide = operator.mul
            self._scale = 1
        shifts = powers(p * q, n)           # (pq)^(k-1), from the unit on
        self.master = [shifts[0]]
        for k in range(1, n + 1):
            self.master.append(self.master[-1] * shifts[k - 1] * gaps[n - k + 1] // gaps[k])
        # E_m s^(n-m), s = q^(n-1): the deflation's terms with the row scales built in
        self._terms = self.master if self._scale == 1 else [
            e * s for e, s in zip(self.master, reversed(powers(self._scale, n + 1)))]
        products = [self.master[0]]         # products[d] = D_d
        for gap in gaps[1:n]:
            products.append(products[-1] * gap)
        self.pis = [monomial * products[j] * products[n - 1 - j]
                    for j, monomial in enumerate(monomials)]

    def magnitudes(self, j: int, rows: Sequence[int]) -> Tuple[List, Union[int, ZTheta]]:
        """([A_{i,j} for i in rows], pi_j).  The deflation runs on the
        row-scaled G_m = F_m s^(n-1-m), s = q^(n-1), so that it ends at
        A_{i,j} = G_(n-1-i) with no product by a large q^((n-1)i):
        G_(n-1) = E_n / N_j and G_(m-1) = (E_m s^(n-m) - G_m s) / N_j, each
        division exact.  At q = 1 (tau, alpha and integer bases) s is 1, and
        its products, a measurable share of a ZTheta column, are skipped."""
        n, divisor, divide = self.n, self._divisors[j], self._divide
        terms, scale = self._terms, self._scale
        deflated = [0] * n
        deflated[n - 1] = divide(terms[n], divisor)
        for m in range(n - 1, n - 1 - max(rows), -1):
            carried = deflated[m] if scale == 1 else deflated[m] * scale
            deflated[m - 1] = divide(terms[m] - carried, divisor)
        return [deflated[n - 1 - i] for i in rows], self.pis[j]

    def bounds(self) -> Iterator[tuple]:
        """(U_j s, s pi_j) for each column j in order, U_j s the largest term
        E_(n-1-i) s^(i+1) of magnitudes over the rows i <= j: the nodes are
        positive, so E_k = F_k + N_j F_(k-1) >= F_k, and A_{i,j} / pi_j <= U_j / pi_j."""
        terms, scale, top = self._terms, self._scale, None
        for j, pi in enumerate(self.pis):
            term = terms[self.n - 1 - j]
            if top is None or exact_sign(term - top) > 0:
                top = term
            yield top, pi if scale == 1 else pi * scale

    @functools.cached_property
    def upper_triangle(self) -> dict:
        """{(i, j): (A_{i,j}, pi_j)} for i <= j; one pi object per column."""
        table = {}
        for j in range(self.n):
            nums, pi = self.magnitudes(j, range(j + 1))
            table.update(((i, j), (a, pi)) for i, a in enumerate(nums))
        return table

    def value(self, num: Union[int, ZTheta], pi: Union[int, ZTheta],
              precision_bits: int = DEFAULT_PRECISION_BITS) -> Numeric:
        """num / pi: a Fraction over Z, its ball image at the base over Z[theta]."""
        if isinstance(num, int):
            return Fraction(num, pi)
        theta = evaluate_base(self.base, precision_bits)
        return poly_eval_ball(num.coefficients, theta) / poly_eval_ball(pi.coefficients, theta)


def _inverse_entries_exact(gv: GeometricVandermonde) -> Tuple[Tuple[Fraction, ...], ...]:
    n = gv.n
    grid: List[List[Fraction]] = [[Fraction(0)] * n for _ in range(n)]
    # the inverse is symmetric: fill i <= j and mirror; c_{i,j,n} = (-1)^(i+j) A_{i,j} / pi_j
    for (i, j), (a, pi) in gv.column_form.upper_triangle.items():
        grid[i][j] = grid[j][i] = Fraction(-a if (i + j) % 2 else a, pi)
    return tuple(tuple(row) for row in grid)


def _inverse_entries_rigorous(gv: GeometricVandermonde,
                              precision_bits: int) -> Tuple[Tuple[RigorousReal, ...], ...]:
    n = gv.n
    b = evaluate_base(gv.base, precision_bits)
    one = RigorousReal.exact(1, precision_bits)
    q = 1 / b
    qpows = powers(q, n)
    bpows = powers(b, n)
    # denominator factorization: prod_{h != j} |b^(j-h) - 1|
    #   = prod_{s=1}^{j} (b^s - 1) * prod_{t=1}^{n-1-j} (1 - b^-t)
    grow = [one]        # grow[j]  = prod_{s=1}^{j}   (b^s - 1)
    for s in range(1, n):
        grow.append(grow[-1] * (bpows[s] - one))
    decay = [one]       # decay[k] = prod_{t=1}^{k}   (1 - q^t)
    for t in range(1, n):
        decay.append(decay[-1] * (one - qpows[t]))
    # column j sweeps q^0..q^(j-1), then q^(j+1)..q^(n-1); prefix holds the
    # state after the first j nodes, which every later column shares
    nodes = [_split(x) for x in qpows]
    prefix = [_split(one)] + [_split(one * 0)] * (n - 1)
    columns: List[List[RigorousReal]] = []
    for j in range(n):
        if j:
            fold_balls(prefix, nodes[j - 1:j], j - 1, precision_bits)
        e = fold_balls(prefix.copy(), nodes[j + 1:], j, precision_bits)
        inv_denominator = one / (grow[j] * decay[n - 1 - j])
        col = []
        for i in range(n):
            magnitude = _filled(*e[i][:4], precision_bits) * inv_denominator
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


def fraction_free_inverse(gv: GeometricVandermonde) -> Tuple[List[List[int]], List[int], int]:
    """Fraction-free (Bareiss) Gauss-Jordan on the integer
    V' = diag(q^(i(n-1))) V at b = p/q.  Its leading minors are positive, so no
    pivot is zero and each division by the previous pivot is exact; the identity
    block ends as W = det(V') V'^(-1).  Returns (W, scales, det) with
    V^(-1)[i][k] = W[i][k] scales[k] / det, scales[k] = q^(k(n-1)) and det > 0.
    Exact rational bases only, n <= 64."""
    if not gv.is_exact:
        raise DomainError("gaussian_inverse requires an exact rational base")
    if gv.n > _GAUSSIAN_MAX_N:
        raise SizeError(f"gaussian_inverse limited to n <= {_GAUSSIAN_MAX_N}, got {gv.n}")
    n, (p, q) = gv.n, gv.base.value.as_integer_ratio()
    work = [[p ** (i * k) * q ** (i * (n - 1 - k)) for k in range(n)] +
            [int(k == i) for k in range(n)] for i in range(n)]
    previous = 1
    for col in range(n):
        pivot_row, pivot = work[col], work[col][col]
        work = [row if r == col else [(pivot * a - row[col] * x) // previous
                                      for a, x in zip(row, pivot_row)]
                for r, row in enumerate(work)]
        previous = pivot
    return [row[n:] for row in work], powers(q ** (n - 1), n), previous


def gaussian_inverse(gv: GeometricVandermonde) -> InverseMatrix:
    """Independent oracle: fraction_free_inverse's output as one Fraction per entry."""
    work, scales, det = fraction_free_inverse(gv)
    entries = tuple(tuple(Fraction(w * s, det) for w, s in zip(row, scales)) for row in work)
    return InverseMatrix(n=gv.n, base=gv.base, backend="exact", entries=entries)


def residual_norm(gv: GeometricVandermonde, inv: InverseMatrix) -> Numeric:
    """Max-entry absolute value of V * inv - I.

    Exactly 0 in exact mode; in rigorous mode an enclosure whose lower bound
    is 0 (the true residual) and whose upper bound certifies tightness: at
    the precision that the inverse's balls carry, one fused dot per entry on
    split fields, with the bits of ``*`` and ``+``, and one ball for their
    maximum of |x|.

    Exact mode decides each column in O(n) integer operations.  Let
    b = p/q, N_h = p^h q^(n-1-h) = s b^h with s = q^(n-1), M = prod_h (x - N_h)
    and w_j = prod_{h != j} (N_j - N_h), which is non-zero.  Scale column j by
    the lcm L of its denominators into P_j(x) = sum_k L c_{k,j} s^(n-1-k) x^k,
    an integer polynomial of degree < n with P_j(N_h) = L s^(n-1) (V C)_{h,j}.
    Claim: column j of V C is e_j exactly when

        (x - N_j) P_j(x) w_j = L s^(n-1) M(x)   coefficient by coefficient.

    If it holds, cancel x - N_j in Q[x]: P_j w_j = L s^(n-1) prod_{h != j} (x - N_h),
    which vanishes at N_h for h != j and is L s^(n-1) w_j at N_j, so
    (V C)_{h,j} = delta_{hj}.  Conversely, if (V C)_{h,j} = delta_{hj}, then
    P_j and L s^(n-1) prod_{h != j} (x - N_h) / w_j have degree < n and agree
    at the n distinct nodes, so they are equal, and the identity follows.
    Its x^n coefficient reads P_{j,n-1} w_j = L s^(n-1), so it can hold only
    when w_j divides L s^(n-1); the check tests that first, then compares
    (x - N_j) P_j = (L s^(n-1) / w_j) M, the identity divided by w_j, whose
    products are smaller.  M is built from its linear factors, so the check
    shares no step with the column form's master polynomial or deflation.
    Only a column that fails pays for its n dot products, which give the
    worst entry.
    """
    if inv.n != gv.n or inv.base != gv.base:
        raise DomainError("inverse does not match the given matrix")
    n = gv.n
    if inv.backend == "exact":
        b = gv.base.value
        nodes = integer_nodes(b, n)
        master = [1]                        # M's coefficients, x^0 first
        for node in nodes:
            master = [a - node * c for a, c in zip([0] + master, master + [0])]
        scales = powers(b.denominator ** (n - 1), n)
        failed = []
        for j, column in enumerate(zip(*inv.entries)):
            lcm = math.lcm(*(c.denominator for c in column))
            poly = [c.numerator * (lcm // c.denominator) * s
                    for c, s in zip(column, reversed(scales))]
            node = nodes[j]
            weight = math.prod(node - other for h, other in enumerate(nodes) if h != j)
            ratio, rest = divmod(lcm * scales[n - 1], weight)
            if rest or not all(low - node * high == ratio * m
                               for low, high, m in zip([0] + poly, poly + [0], master)):
                failed.append((j, column, lcm))
        return _worst_entry(b, n, failed)
    prec = inv.entries[0][0].precision_bits
    # the forward matrix V[i][j] = b^(i*j) at the base's enclosure
    pows = [_split(x) for x in powers(evaluate_base(gv.base, prec), (n - 1) * (n - 1) + 1)]
    rows = [[pows[i * j] for j in range(n)] for i in range(n)]
    columns = [list(map(_split, column)) for column in zip(*inv.entries)]
    starts = ((0, 0, 0, 0, 0), (-1, 0, 0, 0, 1))
    return _max_abs((_ball_dot(starts[i == j], zip(row, column), prec)
                     for i, row in enumerate(rows) for j, column in enumerate(columns)), prec)


def _worst_entry(b: Fraction, n: int, failed: Sequence[tuple]) -> Fraction:
    """The largest |(V C - I)_{i,j}| over the given (j, column j, lcm of its
    denominators) triples, 0 for none.  Row i of V times q^(i(n-1)) and column j
    times its lcm are integer, so each entry is an integer dot product over a
    known denominator, with no gcd unless the entry is non-zero."""
    worst = Fraction(0)
    if not failed:
        return worst
    p_pows = powers(b.numerator, (n - 1) * (n - 1) + 1)
    q_pows = powers(b.denominator, (n - 1) * (n - 1) + 1)
    rows = [[p_pows[i * k] * q_pows[i * (n - 1 - k)] for k in range(n)] for i in range(n)]
    for j, column, lcm in failed:
        scaled = [c.numerator * (lcm // c.denominator) for c in column]
        for i, row in enumerate(rows):
            denominator = q_pows[i * (n - 1)] * lcm
            excess = sum(map(operator.mul, row, scaled))
            if i == j:
                excess -= denominator
            if excess:
                worst = max(worst, Fraction(abs(excess), denominator))
    return worst
