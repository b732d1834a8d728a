"""Output checks for the benchmark, run after each command's timed span.

Each check recomputes what it can exactly and independently of vangeo, from
the command's argv and printed stdout.  A check returns None when the output
is right and a one-line reason when it is not.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Optional, Sequence

CONSTANTS = ("tau", "alpha")
_PAIR = re.compile(r"\((\d+),(\d+)\)")


def _flag(argv: Sequence[str], name: str) -> str:
    return argv[list(argv).index(name) + 1]


def _field(lines: List[str], key: str) -> str:
    prefix = key + " = "
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):]
    raise ValueError(f"no '{key} =' line")


def _pairs_in_box(text: str, n0: int) -> bool:
    pairs = [(int(i), int(j)) for i, j in _PAIR.findall(text)]
    return bool(pairs) and all(i <= n0 and j <= n0 for i, j in pairs)


def _check_exact_inverse(base: Fraction, n: int, lines: List[str],
                         x: Sequence[int]) -> Optional[str]:
    """V (C x) = x for the printed C and a seeded integer vector x, exactly."""
    rows = [[Fraction(cell) for cell in line.split()] for line in lines]
    if len(rows) != n or any(len(row) != n for row in rows):
        return f"expected a {n}x{n} matrix"
    y = [sum(c * xj for c, xj in zip(row, x)) for row in rows]
    powers = [Fraction(1)]
    for _ in range(1, n):
        powers.append(powers[-1] * base)
    for i in range(n):
        acc = Fraction(0)
        node = Fraction(1)                   # b^(i*j) for j = 0, 1, ...
        for j in range(n):
            acc += node * y[j]
            node *= powers[i]
        if acc != x[i]:
            return f"V(Cx) != x in row {i}"
    return None


def _check_ball_inverse(n: int, lines: List[str]) -> Optional[str]:
    if len(lines) != n + 1 or not lines[-1].startswith("residual: contains 0,"):
        return "missing 'residual: contains 0' line"
    for i, line in enumerate(lines[:-1]):
        cells = line.split()
        if len(cells) != n:
            return f"row {i} has {len(cells)} entries"
        for j, cell in enumerate(cells):
            if cell.startswith("-") != bool((i + j) % 2):
                return f"sign of entry ({i},{j})"
    return None


def exact_regime(b: Fraction) -> str:
    """Regime from the exact signs of b^2 - b - 1 and b^3 - 3b^2 + 2b - 1."""
    if b * b - b - 1 < 0:
        return "below_tau"
    return "above_alpha" if b ** 3 - 3 * b * b + 2 * b - 1 > 0 else "between_tau_alpha"


_CONSTANT_REGIME = {"tau": "between_tau_alpha (boundary)",
                    "alpha": "above_alpha (boundary)"}


def check(argv: Sequence[str], code: int, output: str,
          x: Optional[Sequence[int]] = None) -> Optional[str]:
    """None if the output of ``vangeo <argv>`` is right, else the reason."""
    command = argv[0]
    lines = output.splitlines()
    if code != 0:
        return f"exit status {code}"
    try:
        if command == "inverse":
            n = int(_flag(argv, "--n"))
            base = _flag(argv, "--base")
            if base in CONSTANTS:
                return _check_ball_inverse(n, lines)
            return _check_exact_inverse(Fraction(base), n, lines, x)
        if command == "max":
            n0 = int(_field(lines, "n0"))
            if not _pairs_in_box(_field(lines, "argmax"), n0):
                return "argmax outside [0, n0]^2"
            return None
        if command == "conjecture":
            lo, hi = map(int, _flag(argv, "--range").split(":"))
            records = [line for line in lines if line.startswith("  n=")]
            if len(records) != hi - lo + 1 or not lines[-1].startswith("summary:"):
                return "conjecture records do not cover the range"
            for record in records:
                n0 = int(re.search(r"n0=(\d+)", record).group(1))
                if not _pairs_in_box(record.split("argmax", 1)[1], n0):
                    return f"argmax outside [0, n0]^2: {record.strip()}"
            return None
        if command == "verify":
            return None if lines and lines[-1] == "result: all checks passed" \
                else "verify did not report all checks passed"
        if command == "limit":
            base = _flag(argv, "--base")
            expected = _CONSTANT_REGIME[base] if base in CONSTANTS \
                else exact_regime(Fraction(base))
            if _field(lines, "regime") != expected:
                return f"regime is not {expected}"
            if not _pairs_in_box(_field(lines, "argmax"), int(_field(lines, "n0"))):
                return "argmax outside [0, n0]^2"
            return None
        if command == "table":
            rows = lines[1:]
            if not rows or any(not row.endswith("  match") for row in rows):
                return "a table row is not 'match'"
            return None
    except (ValueError, IndexError, AttributeError) as exc:
        return f"unparsable output: {exc}"
    return f"no check for command {command!r}"
