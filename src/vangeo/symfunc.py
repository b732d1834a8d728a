"""Power sums sigma_{i,j,n}(x): elementary symmetric functions of the
geometric node powers {x^h : 0 <= h < n, h != j}.

The workhorse is the elementary-symmetric recurrence e_k <- e_k + x^h * e_{k-1}
(one sweep over h, descending k), which costs O(n*i) ring operations and never
enumerates subsets.  The complement identity

    sigma_{n-1-i,j,n}(b) / b^{n(n-1)/2 - j} = sigma_{i,j,n}(1/b)

keeps magnitudes below 1 in the rigorous backend when x > 1.  The brute-force
enumerator and the two sides of that identity are test oracles, in
tests/oracles.py.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Sequence

from .errors import DomainError
from .scalar import Numeric, RigorousReal, Split, ZTheta, _ball_dot, powers


def _is_positive(x: Numeric) -> bool:
    if isinstance(x, (RigorousReal, ZTheta)):
        return x.sign() == 1
    return x > 0


def fold_balls(e: List[Split], nodes: Iterable[Split], folded: int, prec: int) -> List[Split]:
    """Fold ball nodes, given as split fields (scalar._split), one by one
    into e = e_0..e_upto, the split fields of the elementary symmetric
    functions of the ``folded`` nodes before them: elementary_symmetric's
    recurrence, each step a one-pair fused dot (scalar._ball_dot) at prec
    bits, so the fields are those of that loop over balls of prec bits.  The
    ball inverse keeps e to fold more nodes into it, or into a copy, later.
    Returns e, updated in place."""
    dot, upto = _ball_dot, len(e) - 1
    for folded, x in enumerate(nodes, folded + 1):
        for k in range(min(folded, upto), 0, -1):
            e[k] = dot(e[k], ((x, e[k - 1]),), prec)
    return e


def elementary_symmetric(values: Sequence, upto: int, one) -> List:
    """e_0..e_upto of the given sequence via the standard recurrence.

    Generic over the coefficient ring: ``one`` must be the ring's unit.
    """
    e = [one] + [one * 0] * upto
    for folded, x in enumerate(values, 1):
        for k in range(min(folded, upto), 0, -1):
            e[k] = e[k] + x * e[k - 1]
    return e


def integer_nodes(x: Fraction, n: int) -> List[int]:
    """N_h = p^h q^(n-1-h) = q^(n-1) x^h for h < n, at x = p/q in lowest
    terms: the nodes x^h scaled to integers by one common factor."""
    ps, qs = powers(x.numerator, n), powers(x.denominator, n)
    return [a * b for a, b in zip(ps, reversed(qs))]


def _node_powers(x: Numeric, n: int, skip: int) -> List:
    pows = powers(x, n)
    return pows[:skip] + pows[skip + 1:]


def sigma_finite(i: int, j: int, n: int, x: Numeric) -> Numeric:
    """sigma_{i,j,n}(x) = sum of x^{h_1+...+h_i} over strictly increasing
    i-tuples from {0,...,n-1}\\{j}; equals 1 for i = 0.  Needs 0 <= i, j < n
    and a point x > 0: an int, Fraction, RigorousReal or ZTheta.

    Exact inputs sweep directly: a Fraction p/q over the integer nodes
    p^h q^(n-1-h), whose e_i is q^((n-1)i) sigma_{i,j,n}(x), then divided
    once by that scale; an int or a ZTheta over its powers.  A ball whose
    lower end is above 1 is routed through the complement identity so every
    swept term stays below 1, which keeps enclosure radii small; a ball that
    reaches down to 1 or below sweeps directly.
    """
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    if not 0 <= i < n:
        raise DomainError(f"i must satisfy 0 <= i < n, got i={i}, n={n}")
    if not 0 <= j < n:
        raise DomainError(f"j must satisfy 0 <= j < n, got j={j}, n={n}")
    if not _is_positive(x):
        raise DomainError(f"x must be certifiably positive, got {x}")
    if isinstance(x, RigorousReal) and x.lower > 1:
        # sigma_{i,j,n}(x) = sigma_{n-1-i,j,n}(1/x) * x^{n(n-1)/2 - j}
        return sigma_finite(n - 1 - i, j, n, 1 / x) * x ** (n * (n - 1) // 2 - j)
    if i == 0:
        return x ** 0
    if isinstance(x, Fraction):
        nodes = integer_nodes(x, n)
        e = elementary_symmetric(nodes[:j] + nodes[j + 1:], i, 1)[i]
        return Fraction(e, x.denominator ** ((n - 1) * i))
    return elementary_symmetric(_node_powers(x, n, j), i, x ** 0)[i]
