"""Arithmetic substrate: exact rationals and rigorous ball reals.

Two numeric carriers are used throughout the package:

* :class:`fractions.Fraction` for bit-exact work with rational bases, and
* :class:`RigorousReal`, a self-validating ball ``midpoint +/- radius`` whose
  midpoint is a dyadic rational held as an integer mantissa and exponent.
  Every operation returns an enclosure guaranteed to contain the true value;
  rounding errors are folded into the radius explicitly.  Ball steps (add,
  multiply, sign, intersect, abs) are integer operations on dyadics; the
  symmetric-function sweep, the residual dot product (``ball_dot``) and
  Horner (``poly_eval_ball``) run on raw dyadic fields through one fused
  multiply-add, ``_ball_mul_add``, written as straight-line integer code
  with no helper calls.  Division rounds its two outer end quotients from the
  integer mantissas.  Every rounding into a ball goes through one helper,
  ``_dy_quotient``.  Of the ball operations only ``from_interval`` (which
  ``exact`` calls at a non-dyadic rational) takes Fractions in; the
  accessors return Fractions for printing and for the few decisions made
  on one end of a ball, such as ``x.lower > 1``.

The module also defines :class:`BaseSpec` (how a base ``b > 1`` is described:
a rational, a finite decimal, or one of the named algebraic constants),
and the exact layer at the base: :class:`ZTheta` (integer arithmetic in
Z[theta] at those constants, with exact division, whose elements sign
themselves by integer tests), ``at_base`` (an integer polynomial's exact
value at the base, a Fraction or a ZTheta), ``exact_sign`` of either, and
``certified_poly_sign`` on top of them.  It also holds ``powers``, the integer bisection that
encloses tau and alpha, and small exact polynomial/decimal-string helpers.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .errors import DomainError, ParseError

# Radius mantissas are trimmed (rounding up) to this many bits; the radius is
# a bound, not a value, so 32 bits of resolution is plenty.
_RAD_BITS = 32

DEFAULT_PRECISION_BITS = 256
DEFAULT_PRECISION_CEILING = 4096
PRECISION_CEILING_ENV = "VANGEO_PRECISION_CEILING"


def resolve_precision_ceiling(explicit: Optional[int] = None) -> int:
    """Precision ceiling in bits: explicit argument, else the
    VANGEO_PRECISION_CEILING environment variable, else 4096."""
    if explicit is not None:
        if explicit < 16:
            raise DomainError(f"precision ceiling must be >= 16 bits, got {explicit}")
        return explicit
    env = os.environ.get(PRECISION_CEILING_ENV)
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ParseError(f"{PRECISION_CEILING_ENV} must be an integer, got {env!r}") from None
        if value < 16:
            raise DomainError(f"{PRECISION_CEILING_ENV} must be >= 16, got {value}")
        return value
    return DEFAULT_PRECISION_CEILING


# ---------------------------------------------------------------------------
# dyadic helpers (mantissa, exponent) with m * 2**e semantics
# ---------------------------------------------------------------------------


def _dy_cmp(m1: int, e1: int, m2: int, e2: int) -> int:
    """Exact three-way comparison of m1*2**e1 and m2*2**e2."""
    if m1 == 0 or m2 == 0 or (m1 > 0) != (m2 > 0):
        d = (m1 > 0) - (m1 < 0)
        d2 = (m2 > 0) - (m2 < 0)
        return (d > d2) - (d < d2)
    if e1 >= e2:
        a, b = m1 << (e1 - e2), m2
    else:
        a, b = m1, m2 << (e2 - e1)
    return (a > b) - (a < b)


def _dy_add(m1: int, e1: int, m2: int, e2: int) -> Tuple[int, int]:
    if m1 == 0:
        return m2, e2
    if m2 == 0:
        return m1, e1
    if e1 <= e2:
        return m1 + (m2 << (e2 - e1)), e1
    return (m1 << (e1 - e2)) + m2, e2


def _dy_ceil_trim(m: int, e: int, bits: int) -> Tuple[int, int]:
    """Round a nonnegative dyadic up so its mantissa fits in ``bits`` bits."""
    bl = m.bit_length()
    if bl <= bits:
        return m, e
    s = bl - bits
    return -((-m) >> s), e + s


def _dy_fraction(m: int, e: int) -> Fraction:
    """The dyadic m*2**e as a Fraction."""
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def _dy_quotient(n: int, d: int, e: int, prec: int, mode: str) -> Tuple[int, int]:
    """n/d * 2**e (d > 0) rounded to a prec-bit dyadic mantissa toward -inf
    (mode 'floor') or +inf ('ceil').  The width follows n/d in lowest terms,
    as a Fraction holds it: one gcd reduces it, and a power of two shared
    with 2**e would drop from both bit lengths alike."""
    if n == 0:
        return 0, 0
    if d != 1:
        g = math.gcd(n, d)
        n, d = n // g, d // g
    # scale so the quotient carries prec significant bits
    shift = max(0, prec - (n.bit_length() - d.bit_length() + e) + 1)
    s = e + shift
    # floor(n / (d 2**-s)) is floor(floor(n / 2**-s) / d)
    q, r = divmod(n << s, d) if s >= 0 else divmod(n >> -s, d)
    if mode == "ceil" and (r or s < 0 and n & ((1 << -s) - 1)):
        q += 1
    return q, -shift


# ---------------------------------------------------------------------------
# RigorousReal
# ---------------------------------------------------------------------------


class RigorousReal:
    """A ball enclosure ``midpoint +/- radius`` of a real number.

    The midpoint is the dyadic rational ``_m * 2**_e`` and the radius the
    nonnegative dyadic ``_r * 2**_f``.  Rounding keeps ``precision_bits``
    bits of the midpoint mantissa and 32 of the radius mantissa, rounding the
    midpoint to nearest and the radius up; a carry out of an all-ones mantissa
    can leave one bit more (``RigorousReal(2**70 - 1, 0, 0, 0, 64)`` has
    ``_m == 2**64``).  Every rounding step adds its error to the radius, so
    the true value always lies in ``[lower, upper]``.  Instances are immutable.
    """

    __slots__ = ("_m", "_e", "_r", "_f", "_prec")

    def __init__(self, m: int, e: int, r: int, f: int, prec: int):
        if r < 0:
            raise DomainError("radius must be nonnegative")
        if prec < 4:
            raise DomainError("precision_bits must be at least 4")
        m, e, r, f = _normalize(m, e, r, f, prec)
        self._m = m
        self._e = e
        self._r = r
        self._f = f
        self._prec = prec

    # -- constructors -------------------------------------------------------

    @staticmethod
    def exact(value: Union[int, Fraction], precision_bits: int = DEFAULT_PRECISION_BITS) -> "RigorousReal":
        """Enclose an exact rational.  Dyadic inputs that fit in
        precision_bits keep radius 0; anything else gets a half-ulp radius."""
        if type(value) is int:
            return RigorousReal(value, 0, 0, 0, precision_bits)
        x = Fraction(value)
        d = x.denominator
        if d & (d - 1) == 0:
            # power-of-two denominator: exactly representable
            return RigorousReal(x.numerator, -(d.bit_length() - 1), 0, 0, precision_bits)
        return RigorousReal.from_interval(x, x, precision_bits)

    @staticmethod
    def from_interval(lo: Union[int, Fraction], hi: Union[int, Fraction],
                      precision_bits: int = DEFAULT_PRECISION_BITS) -> "RigorousReal":
        """Enclose the exact rational interval [lo, hi]."""
        lof, hif = Fraction(lo), Fraction(hi)
        if lof > hif:
            raise DomainError("interval endpoints out of order")
        dlo = _dy_quotient(lof.numerator, lof.denominator, 0, precision_bits + 4, "floor")
        dhi = _dy_quotient(hif.numerator, hif.denominator, 0, precision_bits + 4, "ceil")
        return RigorousReal._from_dyadic_interval(dlo, dhi, precision_bits)

    @staticmethod
    def _from_dyadic_interval(lo: Tuple[int, int], hi: Tuple[int, int], prec: int) -> "RigorousReal":
        (ml, el), (mh, eh) = lo, hi
        e = min(el, eh) - 1
        a = ml << (el - e)
        b = mh << (eh - e)
        # midpoint (a+b)/2, radius (b-a)/2, both exact at exponent e
        return RigorousReal(a + b, e - 1, b - a, e - 1, prec)

    # -- accessors ----------------------------------------------------------

    @property
    def midpoint(self) -> Fraction:
        return _dy_fraction(self._m, self._e)

    @property
    def radius(self) -> Fraction:
        return _dy_fraction(self._r, self._f)

    @property
    def precision_bits(self) -> int:
        return self._prec

    @property
    def lower(self) -> Fraction:
        return self.midpoint - self.radius

    @property
    def upper(self) -> Fraction:
        return self.midpoint + self.radius

    @property
    def is_exact(self) -> bool:
        return self._r == 0

    # -- certified comparisons ---------------------------------------------

    def sign(self) -> Optional[int]:
        """Certified sign: -1, 0 (exact zero), +1, or None if ambiguous."""
        if self._r == 0:
            return (self._m > 0) - (self._m < 0)
        if _dy_cmp(self._m, self._e, self._r, self._f) > 0:
            return 1
        if _dy_cmp(-self._m, self._e, self._r, self._f) > 0:
            return -1
        return None

    def intersect(self, other: "RigorousReal") -> "RigorousReal":
        """Intersection of two enclosures of the same true value."""
        other = _coerce(other, self._prec)
        lo, olo = self._end(-1), other._end(-1)
        hi, ohi = self._end(1), other._end(1)
        if _dy_cmp(*olo, *lo) > 0:
            lo = olo
        if _dy_cmp(*ohi, *hi) < 0:
            hi = ohi
        if _dy_cmp(*lo, *hi) > 0:
            raise DomainError("enclosures are disjoint; they cannot share a true value")
        return _from_dyadic_ends(lo, hi, max(self._prec, other._prec))

    def _end(self, side: int) -> Tuple[int, int]:
        """The lower (side -1) or upper (side +1) end as a dyadic."""
        return _dy_add(self._m, self._e, side * self._r, self._f)

    @staticmethod
    def hull(values: Sequence["RigorousReal"]) -> "RigorousReal":
        """Smallest ball containing every given enclosure: from_interval of
        the least lower end and the greatest upper end, compared as dyadics."""
        if not values:
            raise DomainError("hull of an empty collection")
        order = functools.cmp_to_key(lambda x, y: _dy_cmp(*x, *y))
        lo = min((v._end(-1) for v in values), key=order)
        hi = max((v._end(1) for v in values), key=order)
        return _from_dyadic_ends(lo, hi, max(v._prec for v in values))

    # -- arithmetic ----------------------------------------------------------

    def __neg__(self) -> "RigorousReal":
        return _filled(-self._m, self._e, self._r, self._f, self._prec)

    def __abs__(self) -> "RigorousReal":
        s = self.sign()
        if s is not None:
            return self if s >= 0 else -self
        # straddles zero: |x| lies in [0, max(|lower|, |upper|)] = [0, |m| + r]
        return _from_dyadic_ends((0, 0), _dy_add(abs(self._m), self._e, self._r, self._f),
                                 self._prec)

    def __add__(self, other) -> "RigorousReal":
        if not isinstance(other, RigorousReal):
            other = _coerce(other, self._prec)
            if other is NotImplemented:
                return NotImplemented
        prec = self._prec if self._prec >= other._prec else other._prec
        m, e = _dy_add(self._m, self._e, other._m, other._e)
        r, f = _dy_add(self._r, self._f, other._r, other._f)
        return _filled(*_normalize(m, e, r, f, prec), prec)

    __radd__ = __add__

    def __sub__(self, other) -> "RigorousReal":
        other = _coerce(other, self._prec)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "RigorousReal":
        if not isinstance(other, RigorousReal):
            other = _coerce(other, self._prec)
            if other is NotImplemented:
                return NotImplemented
        prec = self._prec if self._prec >= other._prec else other._prec
        m, e = self._m * other._m, self._e + other._e
        if self._r == 0 and other._r == 0:
            return _filled(*_normalize(m, e, 0, 0, prec), prec)
        # |x*y - mx*my| <= |mx|*ry + |my|*rx + rx*ry
        rm, rf = _dy_add(abs(self._m) * other._r, self._e + other._f,
                         abs(other._m) * self._r, other._e + self._f)
        rm, rf = _dy_add(rm, rf, self._r * other._r, self._f + other._f)
        return _filled(*_normalize(m, e, rm, rf, prec), prec)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RigorousReal":
        other = _coerce(other, self._prec)
        if other is NotImplemented:
            return NotImplemented
        prec = max(self._prec, other._prec)
        sign = other.sign()
        if sign in (0, None):
            raise DomainError("division by an enclosure containing zero")
        # the end quotients a/d in integers; a/d = (-a)/(-d) makes d > 0
        (al, el), (ah, eh) = self._end(-1), self._end(1)
        (dl, fl), (dh, fh) = other._end(-1), other._end(1)
        if sign < 0:
            al, el, ah, eh, dl, fl, dh, fh = -ah, eh, -al, el, -dh, fh, -dl, fl
        # over 0 < d_lo <= d_hi, a/d falls as d grows when a >= 0 and rises when a < 0
        lo_d, lo_f = (dh, fh) if al >= 0 else (dl, fl)
        hi_d, hi_f = (dl, fl) if ah >= 0 else (dh, fh)
        return RigorousReal._from_dyadic_interval(
            _dy_quotient(al, lo_d, el - lo_f, prec + 4, "floor"),
            _dy_quotient(ah, hi_d, eh - hi_f, prec + 4, "ceil"), prec)

    def __rtruediv__(self, other) -> "RigorousReal":
        other = _coerce(other, self._prec)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int) -> "RigorousReal":
        """Right-to-left binary powering, through _power over the chain [self]."""
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return RigorousReal.exact(1, self._prec) / (self ** (-exponent))
        return _power([self], exponent)

    # -- presentation --------------------------------------------------------

    def decimal(self, digits: int = 20) -> str:
        return fraction_to_decimal(self.midpoint, digits)

    def __repr__(self) -> str:
        if self._r == 0:
            return f"RigorousReal({self.decimal(12)}, exact, prec={self._prec})"
        return (f"RigorousReal({self.decimal(12)} +/- {fraction_to_sci(self.radius, 3)},"
                f" prec={self._prec})")


def _normalize(m: int, e: int, r: int, f: int, prec: int) -> Tuple[int, int, int, int]:
    """Trim the midpoint mantissa to prec bits (round to nearest, error into
    the radius) and the radius mantissa to _RAD_BITS bits (round up)."""
    bl = m.bit_length()
    if bl > prec:
        s = bl - prec
        q, rem = m >> s, m & ((1 << s) - 1)         # floor, as divmod by 2**s
        if rem:
            if rem >> (s - 1):
                q += 1
            # rounding error is at most half an ulp of the trimmed mantissa
            r, f = _dy_add(r, f, 1, e + s - 1) if r else (1, e + s - 1)
        m, e = q, e + s
    if m == 0:
        e = 0
    if r == 0:
        f = 0
    elif r.bit_length() > _RAD_BITS:
        r, f = _dy_ceil_trim(r, f, _RAD_BITS)
    return m, e, r, f


def _filled(m: int, e: int, r: int, f: int, prec: int) -> RigorousReal:
    """A RigorousReal from normalised fields, past __init__'s checks."""
    x = object.__new__(RigorousReal)
    x._m, x._e, x._r, x._f, x._prec = m, e, r, f, prec
    return x


Fields = Tuple[int, int, int, int, int]

# the raw (m, e, r, f, prec) fields of a ball
_fields = operator.attrgetter("_m", "_e", "_r", "_f", "_prec")


def _ball_mul_add(acc: Fields, x: Fields, y: Fields) -> Fields:
    """Raw fields of acc + x*y, with the roundings of RigorousReal's ``*``
    then ``+``: the product is normalised at p, the larger of x's and y's
    precisions, then the sum at the larger of p and acc's.  The sum is
    symmetric, so Horner's acc*x + c is this step with c as acc.  It is the
    inner step of the ball sweep, the ball residual and Horner, so it is
    straight-line code on locals: every _dy_add, _normalize, _dy_ceil_trim
    and abs is written out, with _dy_add's rules (a zero operand leaves the
    other as it is, else the smaller exponent wins)."""
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
    (_fields) of the balls x_k and y_k: the same roundings as the loop of
    ``*`` and ``+``, building only the final ball.  Callers that reuse a
    vector across dot products convert it once."""
    acc = _fields(start)
    for x, y in zip(xs, ys):
        acc = _ball_mul_add(acc, x, y)
    return _filled(*acc)


def max_abs(values: Iterable[RigorousReal], prec: int) -> RigorousReal:
    """Enclosure of max |x| over the values, at prec bits: from the largest
    lower end to the largest upper end of the |x|, compared as dyadics."""
    lo = hi = (0, 0)
    for x in values:
        mag = abs(x)
        low, high = mag._end(-1), mag._end(1)
        if _dy_cmp(*low, *lo) > 0:
            lo = low
        if _dy_cmp(*high, *hi) > 0:
            hi = high
    return _from_dyadic_ends(lo, hi, prec)


def _from_dyadic_ends(lo: Tuple[int, int], hi: Tuple[int, int], prec: int) -> RigorousReal:
    """from_interval of two dyadic ends, with no Fraction."""
    return RigorousReal._from_dyadic_interval(_dy_quotient(lo[0], 1, lo[1], prec + 4, "floor"),
                                              _dy_quotient(hi[0], 1, hi[1], prec + 4, "ceil"), prec)


def _power(squares: List[RigorousReal], exponent: int) -> RigorousReal:
    """x ** exponent (exponent >= 0) by right-to-left binary powering over the
    chain squares = [x, x^2, x^4, ...], which it extends as needed: a caller
    that keeps its chain pays popcount(exponent) - 1 products per power.  The
    first factor is what 1 * x gives, x renormalised (a round-up can leave a
    carry bit on a normalised mantissa)."""
    prec = squares[0]._prec
    result = None
    for i in range(exponent.bit_length()):
        if i == len(squares):
            squares.append(squares[-1] * squares[-1])
        if exponent >> i & 1:
            y = squares[i]
            result = _filled(*_normalize(y._m, y._e, y._r, y._f, prec), prec) \
                if result is None else result * y
    return RigorousReal.exact(1, prec) if result is None else result


def _coerce(value, prec: int):
    if isinstance(value, RigorousReal):
        return value
    if isinstance(value, (int, Fraction)):
        return RigorousReal.exact(value, prec)
    return NotImplemented


Numeric = Union[int, Fraction, RigorousReal]


# ---------------------------------------------------------------------------
# exact polynomial helpers
# ---------------------------------------------------------------------------


def powers(x, n: int) -> List:
    """x^0, ..., x^(n-1) for n >= 1: x ** 0, then each power the previous
    one times x."""
    out = [x ** 0]
    for _ in range(1, n):
        out.append(out[-1] * x)
    return out


def poly_eval_ball(coeffs: Sequence[int], x: RigorousReal) -> RigorousReal:
    """Horner's acc*x + c on raw fields, for integer coefficients c, with c
    as the fused step's addend: the balls of the loop over
    RigorousReal.exact(c) and ``*``, ``+``."""
    prec, x = x._prec, _fields(x)
    acc = (0, 0, 0, 0, prec)
    for c in reversed(coeffs):
        acc = _ball_mul_add((*_normalize(c, 0, 0, 0, prec), prec), acc, x)
    return _filled(*acc)


def reduce_monic(coeffs: Iterable[int], modulus: Sequence[int]) -> Tuple[int, ...]:
    """Remainder of an integer polynomial modulo a monic one of degree d
    (ascending coefficients), padded to d coefficients: each theta^k with
    k >= d is replaced by -(m_0 + ... + m_(d-1) theta^(d-1)) theta^(k-d)."""
    d = len(modulus) - 1
    out = list(coeffs)
    out += [0] * (d - len(out))
    for top in range(len(out) - 1, d - 1, -1):
        c = out.pop()
        for k in range(d):
            out[top - d + k] -= c * modulus[k]
    return tuple(out)


class ZTheta:
    """An element of Z[theta] as its integer coefficients (ascending), already
    reduced (reduce_monic) modulo the minimal polynomial of theta, which is
    monic.  Theta is tau or alpha, of degree 2 or 3; a product is
    straight-line code that reduces top-down as reduce_monic does.  ``**``
    lets the ring-generic helpers run over Z[theta]; ``//`` is the exact
    quotient by a divisor."""

    __slots__ = ("coefficients", "modulus")

    def __init__(self, coefficients: Iterable[int], modulus: Sequence[int]):
        self.coefficients = tuple(coefficients)
        self.modulus = modulus

    def __add__(self, other: "ZTheta") -> "ZTheta":
        return _ztheta([a + b for a, b in zip(self.coefficients, other.coefficients)],
                       self.modulus)

    def __sub__(self, other: "ZTheta") -> "ZTheta":
        return _ztheta([a - b for a, b in zip(self.coefficients, other.coefficients)],
                       self.modulus)

    def __mul__(self, other: Union[int, "ZTheta"]) -> "ZTheta":
        modulus = self.modulus
        if isinstance(other, int):
            return _ztheta([c * other for c in self.coefficients], modulus)
        x, y = self.coefficients, other.coefficients
        if len(modulus) == 3:
            (a0, a1), (b0, b1), (m0, m1, _) = x, y, modulus
            top = a1 * b1
            return _ztheta((a0 * b0 - top * m0, a0 * b1 + a1 * b0 - top * m1), modulus)
        (a0, a1, a2), (b0, b1, b2), (m0, m1, m2, _) = x, y, modulus
        top = a2 * b2
        next_top = a1 * b2 + a2 * b1 - top * m2
        return _ztheta((a0 * b0 - next_top * m0,
                        a0 * b1 + a1 * b0 - top * m0 - next_top * m1,
                        a0 * b2 + a1 * b1 + a2 * b0 - top * m1 - next_top * m2), modulus)

    def __pow__(self, exponent: int) -> "ZTheta":
        """self ** exponent for an integer exponent >= 0, by binary powering;
        self ** 0 is the unit."""
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        result, square = _ztheta(reduce_monic((1,), self.modulus), self.modulus), self
        while exponent:
            if exponent & 1:
                result = result * square
            exponent >>= 1
            if exponent:
                square = square * square
        return result

    def __floordiv__(self, other: "ZTheta") -> "ZTheta":
        """The quotient self / other for an other that divides self in
        Z[theta]: self adj(other) / N(other), coefficient by coefficient,
        with adj and N from _adjugate.  A remainder means other does not
        divide self, which no caller allows, so it raises ArithmeticError."""
        adjugate, norm = other._adjugate()
        quotient = []
        for c in (self * adjugate).coefficients:
            q, r = divmod(c, norm)
            if r:
                raise ArithmeticError(f"{other!r} does not divide {self!r}")
            quotient.append(q)
        return _ztheta(quotient, self.modulus)

    def __repr__(self) -> str:
        return f"ZTheta({self.coefficients!r}, {self.modulus!r})"

    def _adjugate(self) -> Tuple["ZTheta", int]:
        """(adj(x), N(x)) with x adj(x) = N(x), an integer: N(x) is the
        determinant of multiplication by x on 1, theta (, theta^2) (Cohen, A
        Course in Computational Algebraic Number Theory, ch. 4), and adj(x)
        the first column of that matrix's adjugate.  The matrix's columns x,
        theta x (and theta^2 x) are formed in straight-line integer code
        from the monic modulus."""
        x, modulus = self.coefficients, self.modulus
        if len(modulus) == 3:
            (a0, a1), (m0, m1, _) = x, modulus
            b0, b1 = -m0 * a1, a0 - m1 * a1
            return _ztheta((b1, -a1), modulus), a0 * b1 - b0 * a1
        (a0, a1, a2), (m0, m1, m2, _) = x, modulus
        # theta x and theta^2 x, each reduced by theta^3 = -(m0 + m1 theta + m2 theta^2)
        b0, b1, b2 = -m0 * a2, a0 - m1 * a2, a1 - m2 * a2
        c0, c1, c2 = -m0 * b2, b0 - m1 * b2, b1 - m2 * b2
        adjugate = (b1 * c2 - b2 * c1, a2 * c1 - a1 * c2, a1 * b2 - a2 * b1)
        return (_ztheta(adjugate, modulus),
                a0 * adjugate[0] + b0 * adjugate[1] + c0 * adjugate[2])

    def sign(self) -> int:
        """Exact sign (-1, 0 or +1) of the element's value at theta, in
        integers; a zero element is an exact zero.  At tau, 2x = s + b sqrt(5)
        with s = 2a + b for x = a + b tau: s and b share the sign when they
        agree, and otherwise the larger of s^2 and 5b^2 sets it.  At alpha,
        the only real root of a cubic of discriminant -23, a filter bounds
        2^64 x(alpha) = a0 2^64 + a1 alpha 2^64 + a2 alpha^2 2^64 by integer
        products with the bounds of _alpha_bounds; only when those bounds
        straddle 0 does the norm N(x) = x(alpha) |x(sigma)|^2 over a complex
        root sigma, which has the sign of x(alpha), decide (_adjugate)."""
        x, modulus = self.coefficients, self.modulus
        if not any(x):
            return 0
        if len(modulus) == 3:
            a, b = x
            s = 2 * a + b
            sign_s, sign_b = (s > 0) - (s < 0), (b > 0) - (b < 0)
            if sign_s * sign_b >= 0:
                return sign_s or sign_b
            return sign_s if s * s > 5 * b * b else sign_b
        a0, a1, a2 = x
        low1, high1, low2, high2 = _alpha_bounds()
        scaled = a0 << _FILTER_BITS
        if scaled + a1 * (low1 if a1 > 0 else high1) + a2 * (low2 if a2 > 0 else high2) > 0:
            return 1
        if scaled + a1 * (high1 if a1 > 0 else low1) + a2 * (high2 if a2 > 0 else low2) < 0:
            return -1
        norm = self._adjugate()[1]
        return (norm > 0) - (norm < 0)


def _ztheta(coefficients: Sequence[int], modulus: Sequence[int]) -> ZTheta:
    """A ZTheta with these coefficients, as a tuple, past __init__."""
    z = object.__new__(ZTheta)
    z.coefficients, z.modulus = tuple(coefficients), modulus
    return z


# ---------------------------------------------------------------------------
# BaseSpec
# ---------------------------------------------------------------------------

_DECIMAL_RE = re.compile(r"^[+-]?(\d+)(?:\.(\d+))?$")
_RATIONAL_RE = re.compile(r"^[+-]?\d+/\d+$")

# tau is the positive root of x^2 - x - 1; alpha the unique real root of
# x^3 - 3x^2 + 2x - 1 (it lies in [2, 3]).  Coefficients ascend by degree.
# Both roots are irrational, and each polynomial is negative at the lower end
# of its constant's bracket.
TAU_POLYNOMIAL: Tuple[int, ...] = (-1, -1, 1)
ALPHA_POLYNOMIAL: Tuple[int, ...] = (-1, 2, -3, 1)
_CONSTANT_BRACKETS = {"tau": (1, 2), "alpha": (2, 3)}
_CONSTANT_POLYS = {"tau": TAU_POLYNOMIAL, "alpha": ALPHA_POLYNOMIAL}


@dataclass(frozen=True)
class BaseSpec:
    """How a base b is described: an exact rational, a finite decimal
    literal (kept exact, e.g. "1.4" is 7/5), or a named algebraic constant.

    The constraint b > 1 is enforced when the value is evaluated or used,
    not at construction.
    """

    kind: str                 # "rational" | "decimal" | "constant"
    numerator: int = 0
    denominator: int = 1
    literal: str = ""
    name: str = ""

    @staticmethod
    def rational(numerator: int, denominator: int = 1) -> "BaseSpec":
        if denominator == 0:
            raise DomainError("denominator must be nonzero")
        v = Fraction(numerator, denominator)
        return BaseSpec(kind="rational", numerator=v.numerator, denominator=v.denominator)

    @staticmethod
    def decimal(literal: str) -> "BaseSpec":
        m = _DECIMAL_RE.match(literal.strip())
        if not m:
            raise ParseError(f"not a finite decimal literal: {literal!r}")
        v = Fraction(literal.strip())
        return BaseSpec(kind="decimal", numerator=v.numerator, denominator=v.denominator,
                        literal=literal.strip())

    @staticmethod
    def constant(name: str) -> "BaseSpec":
        if name not in _CONSTANT_POLYS:
            raise ParseError(f"unknown constant {name!r}; expected one of: tau, alpha")
        return BaseSpec(kind="constant", name=name)

    @staticmethod
    def parse(text: str) -> "BaseSpec":
        t = text.strip()
        if t in _CONSTANT_POLYS:
            return BaseSpec.constant(t)
        if _RATIONAL_RE.match(t):
            num, den = t.split("/")
            if int(den) == 0:
                raise ParseError(f"zero denominator in base {text!r}")
            return BaseSpec.rational(int(num), int(den))
        if _DECIMAL_RE.match(t):
            return BaseSpec.decimal(t)
        raise ParseError(f"cannot parse base {text!r}; expected p/q, a finite decimal, tau, or alpha")

    def exact_value(self) -> Optional[Fraction]:
        """The exact rational value, or None for algebraic constants."""
        if self.kind == "constant":
            return None
        return Fraction(self.numerator, self.denominator)

    @property
    def is_exact(self) -> bool:
        return self.kind != "constant"

    def minimal_polynomial(self) -> Optional[Tuple[int, ...]]:
        if self.kind == "constant":
            return _CONSTANT_POLYS[self.name]
        return None

    def display(self) -> str:
        if self.kind == "constant":
            return self.name
        if self.kind == "decimal":
            return self.literal
        if self.denominator == 1:
            return str(self.numerator)
        return f"{self.numerator}/{self.denominator}"


def evaluate_base(spec: BaseSpec, precision_bits: int) -> RigorousReal:
    """Enclose the base described by ``spec`` with radius <= 2**(-precision_bits+2).

    Rational and decimal specs evaluate exactly (radius 0 up to dyadic
    representation rounding); constants are isolated by integer bisection on
    their minimal polynomials, once per (constant, precision) in a process.
    """
    if precision_bits < 16:
        raise DomainError(f"precision_bits must be >= 16, got {precision_bits}")
    if spec.kind in ("rational", "decimal"):
        value = spec.exact_value()
        if value <= 1:
            raise DomainError(f"base must be > 1, got {value}")
        return RigorousReal.exact(value, precision_bits)
    return _constant_enclosure(spec.name, precision_bits)


# bounded: `limit` derives its precision from --tol, so the keys are open-ended
@functools.lru_cache(maxsize=64)
def _constant_enclosure(name: str, precision_bits: int) -> RigorousReal:
    """The constant in [a/2^s, (a+1)/2^s], s = precision_bits, by bisection
    on the integers a of its bracket scaled by 2^s: the Horner value of
    sum c_i a^i 2^(s(d-i)) is 2^(sd) P(a/2^s).  One bisection per
    (constant, precision), shared: RigorousReal is immutable."""
    poly, s = _CONSTANT_POLYS[name], precision_bits
    scaled = [c << s * (len(poly) - 1 - i) for i, c in enumerate(poly)]
    lo, hi = (end << s for end in _CONSTANT_BRACKETS[name])
    while hi - lo > 1:
        mid = (lo + hi) // 2
        acc = 0
        for c in reversed(scaled):
            acc = acc * mid + c
        if acc < 0:
            lo = mid
        else:
            hi = mid
    return RigorousReal.from_interval(Fraction(lo, 1 << s), Fraction(lo + 1, 1 << s), s)


_FILTER_BITS = 64


@functools.cache
def _alpha_bounds() -> Tuple[int, int, int, int]:
    """Integers low_k <= alpha^k 2^64 <= high_k for k = 1, 2, the floors and
    ceilings of the ends of alpha's cached 128-bit enclosure scaled by 2^64:
    the bounds of ZTheta.sign's filter."""
    ball = _constant_enclosure("alpha", 2 * _FILTER_BITS)
    lower, upper, scale = ball.lower, ball.upper, 1 << _FILTER_BITS
    return (math.floor(lower * scale), math.ceil(upper * scale),
            math.floor(lower * lower * scale), math.ceil(upper * upper * scale))


def at_base(coeffs: Sequence[int], spec: BaseSpec) -> Union[Fraction, ZTheta]:
    """An integer polynomial's exact value at the base: at p/q a Fraction,
    from one Horner pass over the integers sum c_k p^k q^(d-k); at tau and
    alpha its remainder modulo the monic minimal polynomial, in Z[theta]."""
    value = spec.exact_value()
    if value is None:
        modulus = spec.minimal_polynomial()
        return ZTheta(reduce_monic(coeffs, modulus), modulus)
    p, q = value.numerator, value.denominator
    acc, scale = 0, 1
    for c in reversed(coeffs):
        acc, scale = acc * p + c * scale, scale * q
    return Fraction(acc * q, scale)


def exact_sign(x: Union[int, Fraction, ZTheta]) -> int:
    """Sign (-1, 0 or +1) of a rational or of a Z[theta] element at theta."""
    if isinstance(x, ZTheta):
        return x.sign()
    return (x > 0) - (x < 0)


def certified_poly_sign(coeffs: Sequence[int], spec: BaseSpec) -> int:
    """Exact sign (-1, 0 or +1) of an integer polynomial at the base, which
    must be > 1: the sign of its value at_base, taken in integers
    (ZTheta.sign at tau and alpha)."""
    value = spec.exact_value()
    if value is not None and value <= 1:
        raise DomainError(f"base must be > 1, got {value}")
    return exact_sign(at_base(coeffs, spec))


# ---------------------------------------------------------------------------
# exact decimal rendering
# ---------------------------------------------------------------------------


def _floor_log10(x: Fraction) -> int:
    """Exact floor(log10(x)) for positive rational x."""
    n, d = x.numerator, x.denominator
    # initial guess from bit lengths (log10(2) = 0.30103...), then exact
    # correction; x >= 10**g is compared over the integers as
    # n * 10**max(0, -g) >= d * 10**max(0, g)
    g = (n.bit_length() - d.bit_length()) * 30103 // 100000
    while n * 10 ** max(0, -g - 1) >= d * 10 ** max(0, g + 1):
        g += 1
    while n * 10 ** max(0, -g) < d * 10 ** max(0, g):
        g -= 1
    return g


def _scaled(x: Fraction, shift: int) -> Tuple[int, int]:
    """x * 10**shift as an integer numerator and denominator, not reduced:
    the quotient is the same, and the remainder scales with the denominator."""
    if shift >= 0:
        return x.numerator * 10 ** shift, x.denominator
    return x.numerator, x.denominator * 10 ** -shift


def fraction_to_decimal(x: Fraction, digits: int = 20) -> str:
    """Render an exact rational to ``digits`` significant decimal digits
    (round half away from zero), in plain positional notation."""
    if digits < 1 or digits > 1000:
        raise DomainError(f"digits must be in [1, 1000], got {digits}")
    if x == 0:
        return "0." + "0" * (digits - 1)
    sign = "-" if x < 0 else ""
    ax = -x if x < 0 else x
    e10 = _floor_log10(ax)
    # scale to an integer with exactly `digits` digits, round half away
    num, den = _scaled(ax, digits - 1 - e10)
    q, r = divmod(num, den)
    if 2 * r >= den:
        q += 1
    mant = str(q)
    if len(mant) > digits:
        # rounding carried into a new leading digit
        e10 += 1
        mant = mant[:digits]
    point = e10 + 1
    if point <= 0:
        return f"{sign}0.{'0' * (-point)}{mant}"
    if point >= len(mant):
        return f"{sign}{mant}{'0' * (point - len(mant))}"
    return f"{sign}{mant[:point]}.{mant[point:]}"


def fraction_to_sci(x: Fraction, digits: int = 3) -> str:
    """Render an exact rational in scientific notation, rounding the
    mantissa up in magnitude (suitable for radii: never understates)."""
    if x == 0:
        return "0"
    sign = "-" if x < 0 else ""
    ax = -x if x < 0 else x
    e10 = _floor_log10(ax)
    q, r = divmod(*_scaled(ax, digits - 1 - e10))
    if r:
        q += 1
    mant = str(q)
    if len(mant) > digits:
        e10 += 1
        mant = mant[:digits]
    if digits == 1:
        return f"{sign}{mant}e{e10:+03d}"
    return f"{sign}{mant[0]}.{mant[1:]}e{e10:+03d}"
