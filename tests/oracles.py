"""Independent oracles for the power sums and the entry limits.

No library code calls these; the tests compare the library against them.
The module name does not match ``test_*.py``, so pytest does not collect it,
and the test modules import it as ``oracles``.

* ``sigma_bruteforce`` enumerates every i-subset of the node exponents.
* ``sigma_complement_pair`` returns both sides of the complement identity

      sigma_{n-1-i,j,n}(b) / b^{n(n-1)/2 - j} = sigma_{i,j,n}(1/b).

* ``sigma_infinite`` with ``finite_j_product`` is the truncated series for
  the entry limits, l_{i,j} = sigma_{i,j,inf}(1/b) * prod_{s<=j} (b^s - 1)^-1
  / (q;q)_inf, which the closed form N / (D (q;q)_inf) replaced.
* ``base2_product_identity`` evaluates 3 * prod_{i>=2} (1 + 1/(2^i - 1)),
  which equals l_{1,1} at b = 2.
* ``fraction_quotient`` is ball division by exact Fraction end quotients,
  the body of ``RigorousReal.__truediv__`` before it divided in integers.
* ``fraction_hull`` is ``RigorousReal.hull`` by Fraction ends, as it was
  before it compared dyadics.
* ``loop_power`` is binary powering that squares afresh for every power, the
  body of ``RigorousReal.__pow__`` before the chain of squares, and
  ``pentagonal_prefix`` sums the pentagonal pairs with it, as
  ``limits._PentagonalSeries.step`` did.
* ``loop_maximal_ratios`` is the ratio argmax as one loop that compares
  every item with the running best, the body of
  ``extremal.maximal_ratios`` before it reduced each run of one shared pi
  first.
* ``gauss_jordan_inverse`` is Gauss-Jordan inversion over Fractions with
  partial pivoting, one gcd per element update, the body of
  ``vandinv.gaussian_inverse`` before it became fraction-free, on the exact
  forward matrix ``vandermonde_matrix``, the former library function of
  that name at a rational base.
* ``residual_loop`` is the exact residual of V * inv - I as n^2 integer dot
  products, the body of ``vandinv.residual_norm`` at a rational base before
  it decided each column by one polynomial identity in O(n).
* ``one_gcd_inverse_entries`` is the exact inverse with each entry built
  as ``Fraction(A_{i,j}, pi_j)``, one gcd against the whole of pi_j, the
  body of the former ``vandinv._inverse_entries_exact`` (now
  ``ColumnForm.exact_entries``) before it reduced each pair
  through pi_j's split over p, q and a cofactor prime to pq.
* ``powers_pi_product`` and ``powers_sigma_finite`` are pi_{j,n} and
  sigma_{i,j,n} over the powers of a Fraction point, the bodies of
  ``vandinv.pi_product`` and ``symfunc.sigma_finite`` before they ran on
  the integer nodes p^h q^(n-1-h).
* ``norm_signed_pi_product`` is pi_{j,n} with every factor |b^j - b^h|
  signed by its value (``ZTheta.sign``, a norm determinant at alpha), the
  body of ``vandinv.pi_product`` before it ordered each factor by j - h.
* ``ball_mul_add`` is the fused ball step acc + x*y on raw fields, the former
  ``scalar._ball_mul_add``; ``ball_dot`` chains it, the former
  ``scalar.ball_dot``, and ``max_abs`` with ``ball_abs`` is the former
  ``scalar.max_abs`` over ``RigorousReal.__abs__``, one rounded ball per
  value.  They are the oracles of ``scalar._ball_dot``, the one fused loop
  on split fields, and of ``scalar._max_abs``.
* ``overlaps`` tells whether two enclosures share a point, the body of the
  former ``RigorousReal.overlaps``, which no library code called.
  ``contains``, ``certainly_lt`` and ``certainly_gt`` are the bodies of the
  former ``RigorousReal`` methods of those names: the library decides the
  same questions by ``sign()`` and by ``lower``.
* ``poly_eval`` is Horner's rule over Fractions, the former
  ``scalar.poly_eval``, with which the tests' Fraction bisection checks the
  integer bisection that encloses tau and alpha.
* ``reduced_norm_sign`` is the sign of a Z[alpha] element's norm
  determinant with its rows alpha x and alpha^2 x taken by ``reduce_monic``,
  the body of ``ZTheta.sign`` at a cubic before it formed them straight-line.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

from vangeo.errors import DomainError, SizeError
from vangeo.extremal import compare_ratios
from vangeo.limits import _prec_for_tol, _to_tol
from vangeo.scalar import (_RAD_BITS, Numeric, RigorousReal, ZTheta, _coerce, _dy_add, _dy_cmp,
                           _filled, _from_dyadic_ends, exact_sign, powers, reduce_monic)
from vangeo.symfunc import elementary_symmetric, sigma_finite
from vangeo.vandinv import GeometricVandermonde, InverseMatrix

_BRUTEFORCE_MAX_N = 20
_BRUTEFORCE_MAX_SUBSETS = 10 ** 6


# ---------------------------------------------------------------------------
# power sums
# ---------------------------------------------------------------------------


def sigma_bruteforce(i: int, j: int, n: int, x: Numeric) -> Numeric:
    """Independent oracle: explicit enumeration of all i-subsets.

    Guarded to n <= 20 and at most 10^6 subsets; exists only for testing.
    """
    if n > _BRUTEFORCE_MAX_N:
        raise SizeError(f"brute-force oracle limited to n <= {_BRUTEFORCE_MAX_N}, got n={n}")
    count = math.comb(n - 1, i)
    if count > _BRUTEFORCE_MAX_SUBSETS:
        raise SizeError(f"brute-force oracle limited to {_BRUTEFORCE_MAX_SUBSETS} subsets, "
                        f"got C({n - 1},{i}) = {count}")
    exponents = [h for h in range(n) if h != j]
    total = x ** 0 * 0
    for combo in itertools.combinations(exponents, i):
        total = total + x ** sum(combo)
    if i == 0:
        total = x ** 0
    return total


def sigma_complement_pair(i: int, j: int, n: int, b: Numeric) -> Tuple[Numeric, Numeric]:
    """The two sides of the complement identity, returned unreduced:

        (sigma_{n-1-i,j,n}(b) / b^{n(n-1)/2 - j},  sigma_{i,j,n}(1/b))

    They agree exactly in rational mode and within summed radii in rigorous
    mode; subset complementation inside {0,...,n-1}\\{j} is the bijection.
    """
    if isinstance(b, int):
        b = Fraction(b)
    lhs_sigma = sigma_finite(n - 1 - i, j, n, b)
    lhs = lhs_sigma / b ** (n * (n - 1) // 2 - j)
    rhs = sigma_finite(i, j, n, 1 / b)
    return lhs, rhs


# ---------------------------------------------------------------------------
# entry limits: the truncated series and the product at base 2
# ---------------------------------------------------------------------------


def sigma_infinite(i: int, j: int, q: Numeric, tol) -> RigorousReal:
    """Enclosure of sigma_{i,j,inf}(q) for 0 < q < 1, truncation tail <= tol.

    The series is truncated at h <= H, with H doubled until the tail bound
    e_i(full) - e_i(trunc) <= sum_{m=1}^{i} e_{i-m}(trunc) T^m / m!, with
    T = q^{H+1}/(1-q), meets tol: the dropped elements have e_m <= T^m/m!.
    """
    tol = _to_tol(tol)
    if i < 0 or j < 0:
        raise DomainError(f"need i, j >= 0, got i={i}, j={j}")
    rigorous = isinstance(q, RigorousReal)
    if rigorous:
        if not (q.lower > 0 and q.upper < 1):
            raise DomainError("q must be certifiably inside (0, 1)")
        q_up = q.upper
        one = RigorousReal.exact(1, q.precision_bits)
    else:
        q = Fraction(q)
        if not 0 < q < 1:
            raise DomainError(f"q must lie in (0, 1), got {q}")
        q_up = q
        one = Fraction(1)
    prec = _prec_for_tol(tol)
    if i == 0:
        return RigorousReal.exact(1, prec)
    e = [one] + [one * 0] * i
    qh = one                      # q^h for the next h to fold
    h = 0
    folded = 0
    cutoff = max(16, 2 * i + j + 4)
    while True:
        while h <= cutoff:
            if h != j:
                folded += 1
                for k in range(min(folded, i), 0, -1):
                    e[k] = e[k] + qh * e[k - 1]
            qh = qh * q
            h += 1
        # qh now holds q^(cutoff+1); bound the dropped elements
        big_t = (q_up ** (cutoff + 1)) / (1 - q_up)
        e_up = [(v.upper if rigorous else v) for v in e]
        tail = sum((e_up[i - m] * big_t ** m / math.factorial(m)
                    for m in range(1, i + 1)), Fraction(0))
        if tail <= tol:
            break
        cutoff *= 2
    if rigorous:
        return RigorousReal.from_interval(e[i].lower, e[i].upper + tail, prec)
    return RigorousReal.from_interval(e[i], e[i] + tail, prec)


def finite_j_product(j: int, b: Numeric) -> Numeric:
    """prod_{s=1}^{j} (b^s - 1)^-1; the empty product (j = 0) is 1."""
    if j < 0:
        raise DomainError(f"need j >= 0, got {j}")
    if isinstance(b, RigorousReal):
        one = RigorousReal.exact(1, b.precision_bits)
    else:
        b = Fraction(b)
        if b <= 1:
            raise DomainError(f"base must be > 1, got {b}")
        one = Fraction(1)
    result = one
    power = one
    for _ in range(j):
        power = power * b
        result = result / (power - one)
    return result


def base2_product_identity(tol) -> RigorousReal:
    """3 * prod_{i>=2} (1 + 1/(2^i - 1)), which equals l_{1,1} at base 2.

    The log tail past i = I is below sum_{i>I} 2^(1-i) = 2^(1-I), so the full
    product sits in [P_I, P_I * (1 + 2^(2-I))].
    """
    tolf = _to_tol(tol)
    prec = _prec_for_tol(tolf)
    partial = Fraction(3)
    i = 1
    cutoff = 8
    while True:
        while i < cutoff:
            i += 1
            partial *= 1 + Fraction(1, (1 << i) - 1)
        tail = partial * Fraction(1, 1 << (cutoff - 2))
        if tail <= tolf:
            break
        cutoff *= 2
    return RigorousReal.from_interval(partial, partial + tail, prec)


# ---------------------------------------------------------------------------
# ball division
# ---------------------------------------------------------------------------


def fraction_quotient(self: RigorousReal, other) -> RigorousReal:
    """self / other from the four end quotients as Fractions, the smallest
    and the largest rounded outward by from_interval."""
    other = _coerce(other, self._prec)
    if other is NotImplemented:
        return NotImplemented
    prec = max(self._prec, other._prec)
    if other.sign() in (0, None):
        raise DomainError("division by an enclosure containing zero")
    # off the hot path: exact endpoint quotients, then outward rounding
    a_lo, a_hi = self.lower, self.upper
    b_lo, b_hi = other.lower, other.upper
    quots = (a_lo / b_lo, a_lo / b_hi, a_hi / b_lo, a_hi / b_hi)
    return RigorousReal.from_interval(min(quots), max(quots), prec)


def fraction_hull(values: Sequence[RigorousReal]) -> RigorousReal:
    """Smallest ball containing every given enclosure."""
    if not values:
        raise DomainError("hull of an empty collection")
    lo = min(v.lower for v in values)
    hi = max(v.upper for v in values)
    return RigorousReal.from_interval(lo, hi, max(v.precision_bits for v in values))


def contains(x: RigorousReal, value) -> bool:
    """Whether the enclosure x holds the number value, or every point of the
    ball value."""
    if isinstance(value, RigorousReal):
        return x.lower <= value.lower and value.upper <= x.upper
    v = Fraction(value)
    return x.lower <= v <= x.upper


def certainly_lt(x: RigorousReal, other) -> bool:
    """True only when every point of x is < every point of other."""
    other = _coerce(other, x.precision_bits)
    dm, de = _dy_add(x._m, x._e, x._r, x._f)                       # x.upper
    om, oe = _dy_add(other._m, other._e, -other._r, other._f)      # other.lower
    return _dy_cmp(dm, de, om, oe) < 0


def certainly_gt(x: RigorousReal, other) -> bool:
    """True only when every point of x is > every point of other."""
    return certainly_lt(_coerce(other, x.precision_bits), x)


def overlaps(x: RigorousReal, other) -> bool:
    """True unless one enclosure lies certainly below the other."""
    other = _coerce(other, x.precision_bits)
    return not (certainly_lt(x, other) or certainly_gt(x, other))


# ---------------------------------------------------------------------------
# the ball residual's dot products and maximum
# ---------------------------------------------------------------------------

Fields = Tuple[int, int, int, int, int]

# the raw (m, e, r, f, prec) fields of a ball
fields = operator.attrgetter("_m", "_e", "_r", "_f", "_prec")


def ball_mul_add(acc: Fields, x: Fields, y: Fields) -> Fields:
    """Raw fields of acc + x*y, with the roundings of RigorousReal's ``*``
    then ``+``: the product is normalised at p, the larger of x's and y's
    precisions, then the sum at the larger of p and acc's."""
    m, e, r, f, prec = acc
    xm, xe, xr, xf, p = x
    ym, ye, yr, yf, yp = y
    if yp > p:
        p = yp
    if p > prec:
        prec = p
    pm, pe = xm * ym, xe + ye
    # |x*y - mx*my| <= |mx|*ry + |my|*rx + rx*ry, as in __mul__: the sum of
    # the non-zero terms at the least of their exponents.  A zero rm may carry
    # any exponent, since nothing below reads the exponent of a zero radius.
    if xr:
        rm, rf = (ym if ym >= 0 else -ym) * xr, ye + xf
        if yr:
            t, g = xr * yr, xf + yf
            if not rm:
                rm, rf = t, g
            elif rf <= g:
                rm += t << (g - rf)
            else:
                rm, rf = (rm << (rf - g)) + t, g
    else:
        rm, rf = 0, 0
    if yr and xm:
        t, g = (xm if xm >= 0 else -xm) * yr, xe + yf
        if not rm:
            rm, rf = t, g
        elif rf <= g:
            rm += t << (g - rf)
        else:
            rm, rf = (rm << (rf - g)) + t, g
    # the product normalised at p: round the midpoint to nearest, half an ulp into rm
    bl = pm.bit_length()
    if bl > p:
        s = bl - p
        q, rem = pm >> s, pm & ((1 << s) - 1)
        if rem:
            q += rem >> (s - 1)
            g = pe + s - 1
            if not rm:
                rm, rf = 1, g
            elif rf <= g:
                rm += 1 << (g - rf)
            else:
                rm, rf = (rm << (rf - g)) + 1, g
        pm, pe = q, pe + s
    bl = rm.bit_length()
    if bl > _RAD_BITS:
        s = bl - _RAD_BITS
        rm, rf = -((-rm) >> s), rf + s
    # the sum: a zero pm or rm keeps its exponent, and a zero sum is normalised below
    if not m:
        m, e = pm, pe
    elif pm:
        if e <= pe:
            m += pm << (pe - e)
        else:
            m, e = (m << (e - pe)) + pm, pe
    if not r:
        r, f = rm, rf
    elif rm:
        if f <= rf:
            r += rm << (rf - f)
        else:
            r, f = (r << (f - rf)) + rm, rf
    # the sum normalised at prec
    bl = m.bit_length()
    if bl > prec:
        s = bl - prec
        q, rem = m >> s, m & ((1 << s) - 1)
        if rem:
            q += rem >> (s - 1)
            g = e + s - 1
            if not r:
                r, f = 1, g
            elif f <= g:
                r += 1 << (g - f)
            else:
                r, f = (r << (f - g)) + 1, g
        m, e = q, e + s
    if not m:
        e = 0
    if not r:
        f = 0
    else:
        bl = r.bit_length()
        if bl > _RAD_BITS:
            s = bl - _RAD_BITS
            r, f = -((-r) >> s), f + s
    return m, e, r, f, prec


def ball_dot(start: RigorousReal, xs: Sequence[Fields], ys: Sequence[Fields]) -> RigorousReal:
    """start + x_0*y_0 + x_1*y_1 + ..., left to right, over the raw fields
    of the balls x_k and y_k: the same roundings as the loop of ``*`` and
    ``+``, building only the final ball."""
    acc = fields(start)
    for x, y in zip(xs, ys):
        acc = ball_mul_add(acc, x, y)
    return _filled(*acc)


def ball_abs(x: RigorousReal) -> RigorousReal:
    """|x|: x or -x when its sign is certain, else from 0 to |m| + r."""
    s = x.sign()
    if s is not None:
        return x if s >= 0 else -x
    # straddles zero: |x| lies in [0, max(|lower|, |upper|)] = [0, |m| + r]
    return _from_dyadic_ends((0, 0), _dy_add(abs(x._m), x._e, x._r, x._f), x._prec)


def max_abs(values: Iterable[RigorousReal], prec: int) -> RigorousReal:
    """Enclosure of max |x| over the values, at prec bits: from the largest
    lower end to the largest upper end of the |x|, compared as dyadics."""
    lo = hi = (0, 0)
    for x in values:
        mag = ball_abs(x)
        low, high = mag._end(-1), mag._end(1)
        if _dy_cmp(*low, *lo) > 0:
            lo = low
        if _dy_cmp(*high, *hi) > 0:
            hi = high
    return _from_dyadic_ends(lo, hi, prec)


# ---------------------------------------------------------------------------
# powers and the pentagonal series
# ---------------------------------------------------------------------------


def loop_power(x: RigorousReal, exponent: int) -> RigorousReal:
    """x ** exponent (exponent >= 0): right-to-left binary powering from
    exact 1, squaring x afresh."""
    result = RigorousReal.exact(1, x.precision_bits)
    base = x
    k = exponent
    while k:
        if k & 1:
            result = result * base
        k >>= 1
        if k:
            base = base * base
    return result


def pentagonal_prefix(b: RigorousReal, count: int) -> Tuple[List, List[RigorousReal]]:
    """The first count steps (tail_k, floor_k, settled_k) of the pentagonal
    series at b and the partial sums after 0..count pairs, each pair built
    from two fresh powers of q = 1/b."""
    q = 1 / b
    steps, totals = [], [RigorousReal.exact(1, b.precision_bits)]
    for m in range(1, count + 1):
        a = m * (3 * m - 1) // 2
        pair = loop_power(q, a) + loop_power(q, a + m)
        tail, total = pair._end(1), totals[-1]
        floor = _dy_add(*total._end(-1), -tail[0], tail[1])
        steps.append((tail, floor, _dy_cmp(*tail, total._r, total._f) <= 0))
        totals.append(total - pair if m % 2 else total + pair)
    return steps, totals


# ---------------------------------------------------------------------------
# the ratio argmax
# ---------------------------------------------------------------------------


def loop_maximal_ratios(items) -> Tuple[tuple, list]:
    """The largest of the ratios in (key, (A, pi)) items, by exact comparison,
    and the keys of every item that attains it, ties included, in order."""
    best, top = None, []
    for key, ratio in items:
        order = 1 if best is None else compare_ratios(ratio, best)
        if order > 0:
            best, top = ratio, [key]
        elif order == 0:
            top.append(key)
    return best, top


# ---------------------------------------------------------------------------
# the elimination oracle
# ---------------------------------------------------------------------------


def vandermonde_matrix(gv: GeometricVandermonde) -> List[List[Fraction]]:
    """The forward matrix V[i][j] = b^(i*j) at a rational base, exactly."""
    pows = powers(gv.base.value, (gv.n - 1) * (gv.n - 1) + 1)
    return [[pows[i * j] for j in range(gv.n)] for i in range(gv.n)]


def gauss_jordan_inverse(gv: GeometricVandermonde) -> Tuple[Tuple[Fraction, ...], ...]:
    """The entries of V^(-1), row-major, by exact Gauss-Jordan inversion with
    partial pivoting over Fractions."""
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
    return tuple(tuple(work[i][n + j] for j in range(n)) for i in range(n))


def one_gcd_inverse_entries(gv: GeometricVandermonde) -> Tuple[Tuple[Fraction, ...], ...]:
    """The entries of V^(-1), row-major, each (-1)^(i+j) A_{i,j} / pi_j from
    the column form, reduced by Fraction's one gcd of A_{i,j} and pi_j."""
    n = gv.n
    grid = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), (a, pi) in gv.column_form.upper_triangle.items():
        grid[i][j] = grid[j][i] = Fraction(-a if (i + j) % 2 else a, pi)
    return tuple(tuple(row) for row in grid)


def residual_loop(gv: GeometricVandermonde, inv: InverseMatrix) -> Fraction:
    """max |(V * inv - I)_{i,j}| at a rational base, by n^2 dot products:
    row i of V times q^(i(n-1)) and column j times the lcm of its
    denominators are integer, so each entry is an integer dot product over
    a known denominator."""
    n, b = gv.n, gv.base.value
    p_pows = powers(b.numerator, (n - 1) * (n - 1) + 1)
    q_pows = powers(b.denominator, (n - 1) * (n - 1) + 1)
    rows = [[p_pows[i * k] * q_pows[i * (n - 1 - k)] for k in range(n)] for i in range(n)]
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


def powers_pi_product(j: int, n: int, b: Fraction) -> Fraction:
    """pi_{j,n} as the product of b^j - b^h (h < j) and b^h - b^j (h > j)
    over the Fraction powers of b."""
    pows = powers(b, n)
    factors = [pows[j] - x for x in pows[:j]] + [x - pows[j] for x in pows[j + 1:]]
    return math.prod(factors, start=pows[0])


def powers_sigma_finite(i: int, j: int, n: int, x: Fraction) -> Fraction:
    """sigma_{i,j,n}(x) by the elementary-symmetric sweep over the Fraction
    powers x^h, h != j."""
    pows = powers(x, n)
    return elementary_symmetric(pows[:j] + pows[j + 1:], i, x ** 0)[i]


# ---------------------------------------------------------------------------
# signs: pi products and the norm at alpha
# ---------------------------------------------------------------------------


def norm_signed_pi_product(j: int, n: int, b) -> Numeric:
    """pi_{j,n} = prod over h != j of |b^j - b^h|, each factor signed by its
    value at b: negated when exact_sign finds it negative."""
    if not 0 <= j < n:
        raise DomainError(f"j must satisfy 0 <= j < n, got j={j}, n={n}")
    pows = powers(b, n)
    factors = (pows[j] - x for x in pows[:j] + pows[j + 1:])
    return math.prod((f * -1 if exact_sign(f) < 0 else f for f in factors), start=pows[0])


def reduced_norm_sign(element: ZTheta) -> int:
    """Sign (-1, 0 or +1) of the determinant of multiplication by x on 1,
    theta, theta^2 (a cubic modulus), the rows theta x and theta^2 x reduced
    by reduce_monic; for alpha it is the sign of x(alpha)."""
    x, modulus = element.coefficients, element.modulus
    if not any(x):
        return 0
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = (
        x, reduce_monic((0,) + x, modulus), reduce_monic((0, 0) + x, modulus))
    norm = a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0)
    return (norm > 0) - (norm < 0)


# ---------------------------------------------------------------------------
# exact polynomial values
# ---------------------------------------------------------------------------


def poly_eval(coeffs: Sequence, x: Fraction) -> Fraction:
    """Horner evaluation of a polynomial given by ascending coefficients."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc
