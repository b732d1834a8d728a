"""Seeded command lists for the benchmark workloads.

``generate(workload, seed)`` returns the list of commands one pass runs, each
``{"argv": [...]}`` (plus ``"x"``, the integer vector of the exact inverse
check).  The same seed gives the same list.

Each list is built from fixed slots.  A slot fixes what sets a command's cost
(the command, its size, the denominator and band of a rational base, the
number of series terms a limit needs); the seed draws the rest (the
numerator, the printed digits, the tolerance, the order).  So lists for
different seeds hold different inputs of about the same cost, and two seeds
give figures that can be compared.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import List

WORKLOADS = ("finite_exact", "finite_ball", "limits")

# Denominators of the rational bases; a slot keeps its denominator, so the
# bit size of its base does not depend on the seed.
_DENOMINATORS = (3, 4, 5, 7, 8, 9, 11, 13)


def _rational(rng: random.Random, q: int, lo: float, hi: float) -> str:
    """A base p/q in lowest terms with lo <= p/q <= hi."""
    choices = [p for p in range(math.ceil(lo * q), math.floor(hi * q) + 1)
               if math.gcd(p, q) == 1 and lo <= p / q <= hi]
    return f"{rng.choice(choices)}/{q}"


# One band below the golden ratio (n0 >= 2, no leading-diagonal check) and two
# above it (n0 = 1, the leading-diagonal check runs).  Narrow bands keep the
# bit size of a slot's numerator, and so its cost, nearly fixed.
_BANDS = ((1.2, 1.6), (1.65, 2.2), (2.2, 3.0))


def _finite_exact(rng: random.Random) -> List[dict]:
    """Sizes step by 2 and cycle through the bands, so command costs spread
    evenly and no rank statistic sits at a gap between two size classes."""
    commands = []
    denominators = itertools.cycle(_DENOMINATORS)
    bands = itertools.cycle(_BANDS)

    def base() -> str:
        return _rational(rng, next(denominators), *next(bands))

    for n in list(range(8, 29, 2)) * 2:
        x = [rng.randint(-9, 9) for _ in range(n)]
        commands.append({"argv": ["inverse", "--base", base(), "--n", str(n)], "x": x})
        commands.append({"argv": ["max", "--base", base(), "--n", str(n)]})
    for hi in range(10, 23, 2):
        commands.append({"argv": ["conjecture", "--base", base(), "--range", f"2:{hi}"]})
    for n_max in (4, 5, 6, 7) * 2:
        commands.append({"argv": ["verify", "--base", base(), "--n-max", str(n_max)]})
    return commands


def _finite_ball(rng: random.Random) -> List[dict]:
    """Sizes are fixed per slot: a seeded n moved the commands at the median
    rank and so the median latency by several percent from seed to seed.  The
    seed draws the printed digits (at most 64, so the working precision stays
    at its default) and the order."""
    commands = []

    def digits() -> List[str]:
        return ["--digits", str(rng.randint(12, 40))]

    for constant in ("tau", "alpha"):
        for n in (6, 8, 10, 12, 14, 16, 18):
            commands.append({"argv": ["inverse", "--base", constant, "--n", str(n)] + digits()})
        for n in (9, 12, 15, 18, 21, 24, 27):
            commands.append({"argv": ["max", "--base", constant, "--n", str(n)] + digits()})
        for hi in (6, 8, 10, 12):
            commands.append({"argv": ["conjecture", "--base", constant, "--range", f"2:{hi}"]
                             + digits()})
        for n_max in (3, 4, 5, 6):
            commands.append({"argv": ["verify", "--base", constant, "--n-max", str(n_max)]})
    return commands


def _limit(base: str, exponent: int) -> dict:
    return {"argv": ["limit", "--base", base, "--tol", f"1e-{exponent}"]}


def _terms_tolerance(base: str, ratio: float) -> int:
    """Tolerance exponent e = ratio * log10(b), clamped to [20, 60].  The
    truncated series need a number of terms proportional to e / log10(b), so
    a slot's ratio fixes its cost whatever base the seed draws."""
    b = float(Fraction(base))
    return min(60, max(20, round(ratio * math.log10(b))))


def _limits(rng: random.Random) -> List[dict]:
    # table, the tau and alpha limits and the long-series slots are the eleven
    # slowest commands, so the tail (ten commands beyond it) is the fastest of
    # them, a tau limit in a tolerance range where its cost is flat
    commands = [{"argv": ["table"]}]
    for _ in range(3):
        commands.append(_limit("tau", rng.randint(34, 42)))
        commands.append(_limit("alpha", rng.randint(28, 32)))
    # (band, denominator, terms ratio): ratio 175 needs about twice the series
    # terms of ratio 90.  Below the golden ratio even 1e-20 needs the longer
    # series, so the short-series slots start above it.
    slots = [((1.35, 1.6), 11, 175), ((1.35, 1.6), 13, 175),
             ((1.65, 2.2), 7, 175), ((1.65, 2.2), 9, 175)]
    for band in ((1.65, 2.2), (2.2, 3.0)):
        for q in _DENOMINATORS[2:] * 3:
            slots.append((band, q, 90))
    for band, q, ratio in slots:
        base = _rational(rng, q, *band)
        commands.append(_limit(base, _terms_tolerance(base, ratio)))
    return commands


_GENERATORS = {"finite_exact": _finite_exact, "finite_ball": _finite_ball,
               "limits": _limits}


def generate(workload: str, seed: int) -> List[dict]:
    """The seeded command list of one pass, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    commands = _GENERATORS[workload](rng)
    rng.shuffle(commands)
    return commands
