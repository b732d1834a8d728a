"""Large-n limits of the inverse entries, in closed form.

As n grows, |c_{i,j,n}| converges to

    l_{i,j} = sigma_{i,j,inf}(q) * prod_{s=1}^{j} (b^s - 1)^{-1} / (q;q)_inf,

with q = 1/b and (q;q)_inf = prod_{t>=1} (1 - q^t); sigma_{i,j,inf}(q) is the
coefficient of t^i in prod_{h >= 0, h != j} (1 + q^h t).  By Euler's identity
(Andrews, The Theory of Partitions, ch. 2) the elementary symmetric sums of
all the nodes q^h are e_m = q^{m(m-1)/2} / (q;q)_m = b^m / G_m, with
G_m = prod_{s<=m} (b^s - 1).  Removing the node q^j is the deflation
f_m = e_m - q^j f_{m-1}, and sigma_{i,j,inf} = f_i.  Hence

    l_{i,j} = N_{i,j}(b) / (D_{i,j}(b) * (q;q)_inf),
    N_{i,j} = sum_{m=0}^{i} (-1)^{i-m} b^{(j+1)m} prod_{s=m+1}^{i} (b^s - 1),
    D_{i,j} = b^{ij} G_i G_j > 0,

with integer polynomials N and D.  Only 1/(q;q)_inf is irrational; Euler's
pentagonal number theorem sums it as

    (q;q)_inf = 1 + sum_{k>=1} (-1)^k (q^{k(3k-1)/2} + q^{k(3k+1)/2}),

whose pairs alternate in sign and shrink, so the remainder after k pairs is
below the next pair, 2 q^{(k+1)(3k+2)/2}.  Each enclosure of b has one such
series, summed once and extended on demand; every entry at that enclosure
reads its own cutoff from it.  Since 1/(q;q)_inf > 0, l_a > l_b exactly when
N_a / D_a > N_b / D_b at b.  N and D are taken once per pair by
scalar.at_base, which reduces them modulo the minimal polynomial of b over Q
(q x - p at p/q, which leaves the value at p/q; x^2 - x - 1 or
x^3 - 3x^2 + 2x - 1 at tau and alpha, which leaves a Z[theta] element), so
the argmax of lim M_b(n) over the [0, n0]^2 box (computed over i <= j by
symmetry) is the ratio argmax of the finite maximum, extremal.maximal_ratios,
and the regime of b is decided by the signs of integer polynomials at b.
Precision escalates only in limit_entry, which the precision ceiling bounds.

1/(q;q)_inf itself is l_{0,0} = limit_entry(0, 0, ...), and the crossover of
l_{0,0} and l_{1,1} is classify_regime with limit_entry at (0,0) and (1,1).
The independent oracles (the truncated series sigma_{i,j,inf} times
prod_{s<=j} (b^s - 1)^{-1}, and 3 * prod_{i>=2} (1 + 1/(2^i - 1)), which
equals l_{1,1} at b = 2) live in tests/oracles.py.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import DomainError, UndecidableComparisonError
from .extremal import maximal_ratios, n_zero
from .scalar import (ALPHA_POLYNOMIAL, TAU_POLYNOMIAL, BaseSpec, RigorousReal,
                     _dy_add, _dy_cmp, _from_dyadic_ends, _power, at_base,
                     certified_poly_sign, evaluate_base, poly_eval_ball,
                     resolve_precision_ceiling)

IndexPair = Tuple[int, int]
Poly = List[int]
Dyadic = Tuple[int, int]        # (m, e), the value m * 2**e

REGIME_ABOVE = "above_alpha"
REGIME_BETWEEN = "between_tau_alpha"
REGIME_BELOW = "below_tau"


def _to_tol(tol) -> Fraction:
    t = Fraction(tol)
    if t <= 0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    return t


def _prec_for_tol(tol: Fraction) -> int:
    bits = tol.denominator.bit_length() - tol.numerator.bit_length()
    return max(64, bits + 64)


# ---------------------------------------------------------------------------
# the infinite product  1 / (q;q)_inf = prod (1 - b^-t)^-1
# ---------------------------------------------------------------------------


class _PentagonalSeries:
    """Euler's pentagonal series for (q;q)_inf at one enclosure b, q = 1/b,
    summed once and extended on demand.

    Step k >= 1 keeps what the stopping test of _inverse_q_product reads at
    cutoff k - 1, with tail_k and floor_k as dyadics (m, e), m * 2**e, so
    that the test runs on integers: the remainder bound tail_k (the upper
    end of the pair q^a + q^(a+k), a = k(3k-1)/2, which bounds all later
    pairs), floor_k (the lower end of the sum after k - 1 pairs minus
    tail_k), and whether tail_k is at most that sum's radius, its rounding
    error.  The powers of q come from one chain of squares q, q^2, q^4, ...
    (scalar._power), grown as the exponents need it, so each power costs
    popcount(a) - 1 multiplications and gives the bits of q ** a.  The
    enclosure of 1/(q;q)_inf is kept for each cutoff that a caller stopped
    at.
    """

    def __init__(self, b: RigorousReal):
        if not b.lower > 1:
            raise DomainError("base must be certifiably > 1")
        self.squares = [1 / b]                                    # q, q^2, q^4, ...
        self.totals = [RigorousReal.exact(1, b.precision_bits)]   # sum after k pairs
        self.steps: List[Tuple[Dyadic, Dyadic, bool]] = []
        self.inverses = {}

    def step(self, k: int) -> Tuple[Dyadic, Dyadic, bool]:
        """(tail_k, floor_k, settled_k), summing pairs up to k as needed."""
        while len(self.steps) < k:
            m = len(self.steps) + 1
            a = m * (3 * m - 1) // 2
            pair = _power(self.squares, a) + _power(self.squares, a + m)
            tail, total = pair._end(1), self.totals[-1]
            floor = _dy_add(*total._end(-1), -tail[0], tail[1])
            self.steps.append((tail, floor, _dy_cmp(*tail, total._r, total._f) <= 0))
            self.totals.append(total - pair if m % 2 else total + pair)
        return self.steps[k - 1]

    def inverse(self, k: int) -> Optional[RigorousReal]:
        """1/(q;q)_inf from the first k - 1 pairs and tail_k; None when the
        lower end of (q;q)_inf is not positive."""
        if k not in self.inverses:
            tail, floor, _ = self.steps[k - 1]
            total = self.totals[k - 1]
            self.inverses[k] = None if floor[0] <= 0 else 1 / _from_dyadic_ends(
                floor, _dy_add(*total._end(1), *tail), total.precision_bits)
        return self.inverses[k]


# bounded: --tol sets the precision, so the enclosures are open-ended.  Keyed
# on the enclosure's fields, not its identity: a rational base builds a fresh
# enclosure on every evaluate.
@functools.lru_cache(maxsize=64)
def _pentagonal_series(m: int, e: int, r: int, f: int, precision: int) -> _PentagonalSeries:
    return _PentagonalSeries(RigorousReal(m, e, r, f, precision))


def _inverse_q_product(b: RigorousReal, tol_num: int, tol_den: int):
    """1/(q;q)_inf at the precision of b, to tol = tol_num / tol_den > 0:
    returns (enclosure, number of pentagonal pairs summed).

    Pairs are summed until the next one is small enough for the enclosure of
    1/(q;q)_inf to meet tol, or until it falls below the rounding error of
    the partial sum; in the second case the radius can exceed tol, and the
    enclosure is None when that precision cannot separate (q;q)_inf from 0.
    The stopping test is homogeneous in (tol_num, tol_den), so the pair need
    not be in lowest terms.  The series itself is shared by every call at
    the same enclosure.
    """
    series = _pentagonal_series(b._m, b._e, b._r, b._f, b.precision_bits)
    k = 1
    while True:
        tail, (floor, floor_e), settled = series.step(k)
        # 1/x near (q;q)_inf has about the radius of x over (q;q)_inf^2:
        # 4 tail <= tol floor^2, in integers
        if settled or (floor > 0 and _dy_cmp(4 * tol_den * tail[0], tail[1],
                                             tol_num * floor * floor, 2 * floor_e) <= 0):
            return series.inverse(k), k - 1
        k += 1


# ---------------------------------------------------------------------------
# entry limits
# ---------------------------------------------------------------------------


def _closed_form(i: int, j: int) -> Tuple[Poly, Poly]:
    """Integer coefficient lists (ascending) of N_{i,j} and D_{i,j}, with
    l_{i,j} = N_{i,j}(b) / (D_{i,j}(b) * (q;q)_inf).

    N_m = b^{jm} G_m f_m obeys the deflation recurrence
    N_m = b^{(j+1)m} - (b^m - 1) N_{m-1} with N_0 = 1.  Each factor
    b^s - 1 is one shift by s and one subtraction.
    """
    num: Poly = [1]
    for m in range(1, i + 1):
        num = [x - y for x, y in zip(num + [0] * m, [0] * m + num)]
        top = (j + 1) * m
        num += [0] * (top + 1 - len(num))
        num[top] += 1
    den: Poly = [0] * (i * j) + [1]
    for s in [*range(1, i + 1), *range(1, j + 1)]:
        den = [x - y for x, y in zip([0] * s + den, den + [0] * s)]
    return num, den


@dataclass(frozen=True)
class LimitValue:
    """One entry limit l_{i,j} = N_{i,j}(b) / (D_{i,j}(b) * (q;q)_inf).

    sigma_cutoff is i: sigma_{i,j,inf} is the exact deflation sum of i + 1
    terms, with nothing truncated.  product_cutoff is the number of pentagonal
    pairs summed for (q;q)_inf; value.radius includes the bound on the
    remainder of that series.  closed_form holds the coefficient lists (N, D)
    the value was evaluated from.
    """

    i: int
    j: int
    value: RigorousReal
    sigma_cutoff: int
    product_cutoff: int
    closed_form: Tuple[Poly, Poly] = field(repr=False, compare=False)


def limit_entry(i: int, j: int, base: BaseSpec, tol,
                precision_ceiling: Optional[int] = None) -> LimitValue:
    """l_{i,j} to enclosure radius <= tol, from the closed form evaluated over
    enclosures of the base at doubling precision."""
    if i < 0 or j < 0:
        raise DomainError(f"need i, j >= 0, got i={i}, j={j}")
    tolf = _to_tol(tol)
    tol_num, tol_den = tolf.numerator, tolf.denominator
    num, den = _closed_form(i, j)
    ceiling = resolve_precision_ceiling(precision_ceiling)
    precision = _prec_for_tol(tolf)
    while True:
        b = evaluate_base(base, precision)
        num_b, den_b = poly_eval_ball(num, b), poly_eval_ball(den, b)
        # N(b) and D(b) are positive; balls that do not show it need more bits
        if num_b.sign() == den_b.sign() == 1:
            ratio = num_b / den_b
            # tol / (2 ratio.upper) as an unreduced integer pair
            up, up_e = ratio._end(1)
            product, pairs = _inverse_q_product(
                b, tol_num << max(0, -up_e), 2 * tol_den * up << max(0, up_e))
            value = None if product is None else ratio * product
            # radius <= tol, in integers
            if value is not None and _dy_cmp(value._r * tol_den, value._f, tol_num, 0) <= 0:
                return LimitValue(i=i, j=j, value=value, sigma_cutoff=i,
                                  product_cutoff=pairs, closed_form=(num, den))
        if 2 * precision > ceiling:
            raise UndecidableComparisonError(
                f"cannot reach tolerance {tolf} for l_({i},{j}) at base "
                f"{base.text} within the {ceiling}-bit precision ceiling")
        precision *= 2


# ---------------------------------------------------------------------------
# limit of the maximum
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LimitReport:
    """lim M_b(n): the maximal entry limit over the [0, n0]^2 box.  argmax
    lists every pair whose limit equals the maximum exactly."""

    n_zero: int
    value: RigorousReal
    argmax: Tuple[IndexPair, ...]
    entries: Tuple[LimitValue, ...]
    regime: str
    boundary: bool


def _argmax(closed_forms: Sequence[Tuple[Poly, Poly]], base: BaseSpec) -> List[int]:
    """Indices of the closed forms (N, D) whose limit is the largest, by exact
    comparison: l_a > l_b exactly when N_a / D_a > N_b / D_b at the base.  N
    and D are taken at_base once per pair, and a zero difference is an
    exact tie."""
    forms = ((at_base(num, base), at_base(den, base)) for num, den in closed_forms)
    return maximal_ratios(enumerate(forms))[1]


def limit_max(base: BaseSpec, tol, precision_ceiling: Optional[int] = None) -> LimitReport:
    """Evaluate l_{i,j} over 0 <= i <= j <= n0 (symmetry covers i > j) and
    pick the argmax by exact comparison of the closed forms: l_a > l_b exactly
    when N_a D_b - N_b D_a > 0 at the base.  Each pair's N and D are built
    once, by limit_entry, and the argmax reads them and the pair from its
    entries.  No list of the box's pairs is built, so an entry past the
    precision ceiling fails before the box takes any memory."""
    tolf = _to_tol(tol)
    box = n_zero(base)
    entries = [limit_entry(i, j, base, tolf / 4, precision_ceiling)
               for j in range(box + 1) for i in range(j + 1)]
    top = [entries[k] for k in _argmax([e.closed_form for e in entries], base)]
    value = RigorousReal.hull([e.value for e in top])
    argmax = sorted({pair for e in top for pair in ((e.i, e.j), (e.j, e.i))})
    regime, boundary = classify_regime(base)
    return LimitReport(n_zero=box, value=value, argmax=tuple(argmax),
                       entries=tuple(entries), regime=regime, boundary=boundary)


# ---------------------------------------------------------------------------
# the regime of the base
# ---------------------------------------------------------------------------


def classify_regime(base: BaseSpec) -> Tuple[str, bool]:
    """Classify b against the golden ratio and the crossover constant.

    Returns (regime, boundary).  Bases exactly on a threshold carry
    boundary=True and are assigned to the regime whose closed form remains
    valid there: the golden ratio belongs to the between band, the crossover
    constant to the above band (where the two closed forms agree).
    """
    # tau and alpha are the only roots above 1 of their minimal polynomials,
    # which are negative below them: the signs at b place b against each
    golden = certified_poly_sign(TAU_POLYNOMIAL, base)
    if golden < 0:
        return REGIME_BELOW, False
    if golden == 0:
        return REGIME_BETWEEN, True
    crossover = certified_poly_sign(ALPHA_POLYNOMIAL, base)
    return (REGIME_ABOVE if crossover >= 0 else REGIME_BETWEEN), crossover == 0
