"""Golden stdout: the exit status and sha256 of the stdout of a fixed set of
commands, pinned in ``golden_stdout.json``.

The set is every command of one pass of the ``finite_ball`` bench workload
(seed 1, written out here so this test does not import ``bench/``), plus
``inverse``/``max``/``verify`` at tau and alpha at 64 and 100 digits, a
16-bit precision ceiling, a few exact-base maxima, limits and the table.
A change that moves any printed byte fails here.

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
"""

COMMANDS = [line.split() for line in (FINITE_BALL_SEED_1 + EXTRA).splitlines()]


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
