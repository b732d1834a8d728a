"""Golden stdout: the exit status and sha256 of the stdout of a fixed set of
commands, pinned in ``golden_stdout.json``.

The set is every command of one pass of the ``finite_ball`` and ``limits``
bench workloads (seed 1, written out here so this test does not import
``bench/``), plus ``inverse``/``max``/``verify`` at tau and alpha at 64 and
100 digits, a 16-bit precision ceiling, a few exact-base maxima, and the
limits paths that print pentagonal cutoffs and radii: ``limit`` in json and
csv at tau, alpha and two rational bases, ``limit --tol 1e-10`` at the
near-1 bases 1.1 and 1.07, and ``table`` in all three formats.  The sizes
``max`` at n = 40, ``conjecture`` up to 30 and ``verify`` up to 12 at tau
and alpha, and ``limit --tol 1e-10`` there, reach Z[theta] coefficients of
hundreds of bits.  ``verify`` at the exact bases 2, 7/3, 3/2, 13/10 and
6/5 up to n = 12 pins the rational suite's output as well, and ``verify
--n-max 13`` at 3/2, 7/3, tau and alpha runs past the caps of the sigma
checks (n <= 10) and of the oracle and magnitude checks (n <= 12).  Exact
``inverse`` at p/q in all three formats, and ``sigma`` at two rationals, a
decimal and alpha, pin the paths that no other command prints, and
``inverse`` at tau and alpha for n = 20 and 24, and n = 12 at 100 digits,
pins the ball residual's printed bound at larger sizes.  A change
that moves any printed byte fails here.

To regenerate the data file after an intended change of output::

    PYTHONPATH=src python3 tests/test_golden_stdout.py > tests/golden_stdout.json
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from vangeo import cli
from vangeo.errors import VangeoError

DATA = Path(__file__).resolve().parent / "golden_stdout.json"

FINITE_BALL_SEED_1 = """\
max --base alpha --n 24 --digits 35
conjecture --base alpha --range 2:12 --digits 29
max --base tau --n 24 --digits 21
max --base alpha --n 15 --digits 16
max --base tau --n 21 --digits 15
max --base tau --n 18 --digits 21
verify --base alpha --n-max 5
verify --base alpha --n-max 4
conjecture --base alpha --range 2:6 --digits 36
conjecture --base tau --range 2:10 --digits 30
max --base tau --n 12 --digits 37
max --base alpha --n 21 --digits 28
inverse --base tau --n 16 --digits 39
inverse --base alpha --n 18 --digits 31
conjecture --base tau --range 2:12 --digits 18
inverse --base alpha --n 8 --digits 36
inverse --base tau --n 10 --digits 34
max --base alpha --n 9 --digits 13
conjecture --base tau --range 2:6 --digits 26
verify --base alpha --n-max 6
inverse --base tau --n 6 --digits 28
inverse --base tau --n 18 --digits 18
max --base alpha --n 18 --digits 24
verify --base alpha --n-max 3
conjecture --base alpha --range 2:10 --digits 23
max --base alpha --n 12 --digits 18
inverse --base tau --n 8 --digits 23
max --base alpha --n 27 --digits 32
conjecture --base tau --range 2:8 --digits 40
inverse --base alpha --n 6 --digits 29
verify --base tau --n-max 3
max --base tau --n 27 --digits 33
conjecture --base alpha --range 2:8 --digits 26
inverse --base tau --n 14 --digits 35
verify --base tau --n-max 6
inverse --base alpha --n 10 --digits 31
max --base tau --n 15 --digits 37
verify --base tau --n-max 4
verify --base tau --n-max 5
inverse --base alpha --n 12 --digits 12
max --base tau --n 9 --digits 31
inverse --base tau --n 12 --digits 20
inverse --base alpha --n 14 --digits 35
inverse --base alpha --n 16 --digits 37
"""

# each distinct command once, in the order of the pass
LIMITS_SEED_1 = """\
limit --base 26/9 --tol 1e-41
limit --base 11/5 --tol 1e-31
limit --base 23/8 --tol 1e-41
limit --base 16/7 --tol 1e-32
limit --base 23/13 --tol 1e-22
limit --base alpha --tol 1e-31
limit --base tau --tol 1e-39
limit --base 23/9 --tol 1e-37
limit --base 19/11 --tol 1e-21
limit --base alpha --tol 1e-32
limit --base 13/5 --tol 1e-37
limit --base 19/9 --tol 1e-29
limit --base 17/8 --tol 1e-29
limit --base 20/13 --tol 1e-33
limit --base 15/7 --tol 1e-30
limit --base 33/13 --tol 1e-36
limit --base 21/11 --tol 1e-25
limit --base 32/13 --tol 1e-35
limit --base 21/8 --tol 1e-38
limit --base 28/13 --tol 1e-30
limit --base 9/5 --tol 1e-23
limit --base 24/13 --tol 1e-24
limit --base 32/11 --tol 1e-42
limit --base 12/7 --tol 1e-41
limit --base 31/11 --tol 1e-40
limit --base 20/7 --tol 1e-41
limit --base 15/8 --tol 1e-25
limit --base 20/9 --tol 1e-31
table
limit --base 17/7 --tol 1e-35
limit --base 17/9 --tol 1e-48
limit --base tau --tol 1e-41
limit --base 31/13 --tol 1e-34
limit --base 17/11 --tol 1e-33
"""

LIMITS_FORMATS = """\
limit --base tau --tol 1e-39 --format json
limit --base tau --tol 1e-39 --format csv
limit --base alpha --tol 1e-31 --format json
limit --base alpha --tol 1e-31 --format csv
limit --base 26/9 --tol 1e-41 --format json
limit --base 26/9 --tol 1e-41 --format csv
limit --base 20/13 --tol 1e-33 --format json
limit --base 20/13 --tol 1e-33 --format csv
table --format json
table --format csv
limit --base 1.1 --tol 1e-10
limit --base 1.07 --tol 1e-10
"""

EXTRA = """\
inverse --base tau --n 8 --digits 64
inverse --base tau --n 8 --digits 100
inverse --base alpha --n 8 --digits 64
inverse --base alpha --n 8 --digits 100
inverse --base tau --n 4 --format json --digits 30
max --base tau --n 14 --digits 64
max --base tau --n 14 --digits 100
max --base alpha --n 14 --digits 64
max --base alpha --n 14 --digits 100
max --base tau --n 12 --precision-ceiling 16
max --base alpha --n 12 --precision-ceiling 16
verify --base tau --n-max 8
verify --base alpha --n-max 8
sigma --i 2 --j 1 --n 6 --x tau --digits 40
max --base 6/5 --n 20 --digits 40
max --base 7/3 --n 15
max --base 13/10 --n 12 --format json
max --base 2 --n 10 --digits 64
limit --base tau --tol 1e-40
limit --base alpha --tol 1e-30
limit --base 3/2 --tol 1e-30
table
max --base tau --n 40
max --base alpha --n 40
conjecture --base alpha --range 2:30
verify --base tau --n-max 12
verify --base alpha --n-max 12
limit --base tau --tol 1e-10 --format json
limit --base alpha --tol 1e-10 --format json
verify --base 2 --n-max 4
verify --base 2 --n-max 7
verify --base 2 --n-max 10
verify --base 2 --n-max 12
verify --base 7/3 --n-max 4
verify --base 7/3 --n-max 7
verify --base 7/3 --n-max 10
verify --base 7/3 --n-max 12
verify --base 3/2 --n-max 4
verify --base 3/2 --n-max 7
verify --base 3/2 --n-max 10
verify --base 3/2 --n-max 12
verify --base 13/10 --n-max 4
verify --base 13/10 --n-max 7
verify --base 13/10 --n-max 10
verify --base 13/10 --n-max 12
verify --base 6/5 --n-max 4
verify --base 6/5 --n-max 7
verify --base 6/5 --n-max 10
verify --base 6/5 --n-max 12
verify --base 3/2 --n-max 13
verify --base 7/3 --n-max 13
verify --base tau --n-max 13
verify --base alpha --n-max 13
"""

# the ball inverse at larger n, where its residual line prints bounds from
# longer dot products, and at 100 digits, where the residual runs at 400 bits
BALL_RESIDUALS = """\
inverse --base tau --n 20
inverse --base tau --n 24
inverse --base alpha --n 20
inverse --base alpha --n 24
inverse --base tau --n 12 --digits 100
inverse --base alpha --n 12 --digits 100
"""

# the exact p/q paths of ``inverse`` (text, json, csv) and ``sigma`` at
# rational, decimal and constant points, which the lists above do not reach
EXACT_PATHS = """\
inverse --base 7/3 --n 12
inverse --base 13/11 --n 20 --format json
inverse --base 3/2 --n 9 --format csv
sigma --i 3 --j 2 --n 9 --x 7/3
sigma --i 2 --j 0 --n 7 --x 2/5
sigma --i 2 --j 1 --n 6 --x alpha --digits 40
sigma --i 4 --j 1 --n 8 --x 1.3 --format json
"""

# ``table`` is in two lists; a command is pinned once
COMMANDS = [line.split() for line in dict.fromkeys(
    (FINITE_BALL_SEED_1 + EXTRA + LIMITS_SEED_1 + LIMITS_FORMATS + EXACT_PATHS
     + BALL_RESIDUALS).splitlines())]


def digest(argv):
    """``status:sha256`` of the bytes ``vangeo`` writes to stdout."""
    try:
        code, output = cli.run(argv)
    except VangeoError:
        code, output = 2, ""
    text = output + "\n" if output else ""
    return f"{code}:{hashlib.sha256(text.encode()).hexdigest()}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


def test_every_command_is_pinned(golden):
    assert sorted(golden) == sorted(" ".join(a) for a in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a) for a in COMMANDS])
def test_stdout_digest(argv, golden):
    assert digest(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    json.dump({" ".join(a): digest(a) for a in COMMANDS}, sys.stdout, indent=1)
    sys.stdout.write("\n")
