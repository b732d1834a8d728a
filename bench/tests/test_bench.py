"""Tests of the benchmark itself, on a tiny seeded command list.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import math
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import run_commands  # noqa: E402

from vangeo import cli, symfunc  # noqa: E402


def tiny_commands(seed=7):
    rng = random.Random(seed)
    return [
        # nested inverse_matrix inside max_entry; algebraic n0
        {"argv": ["max", "--base", "tau", "--n", "6"]},
        # sigma_finite recursing through the complement identity
        {"argv": ["verify", "--base", "tau", "--n-max", "3"]},
        {"argv": ["inverse", "--base", "3/2", "--n", "5"],
         "x": [rng.randint(-9, 9) for _ in range(5)]},
        {"argv": ["limit", "--base", "2", "--tol", "1e-20"]},
    ]


@pytest.fixture(scope="module")
def passes():
    commands = tiny_commands()
    untraced = run_commands(commands)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_commands(commands, tracer)
    finally:
        tracer.uninstall()
    return untraced, traced


def test_outputs_pass_their_checks(passes):
    for records in passes:
        assert [r["failure"] for r in records] == [None] * len(records)


def test_self_times_add_up_to_the_command_wall_time(passes):
    _, traced = passes
    for record in traced:
        self_total = sum(record["self_s"].values())
        unwrapped = record["latency_s"] - record["root_s"]
        assert all(v >= -1e-9 for v in record["self_s"].values())
        assert unwrapped >= 0
        assert math.isclose(self_total, record["root_s"], rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(self_total + unwrapped, record["latency_s"], rel_tol=1e-9)
        assert record["calls"]["cli"] == 1


def test_recursion_and_nesting_are_counted_once(passes):
    _, traced = passes
    max_record, verify_record = traced[0], traced[1]
    # max_entry's nested inverse_matrix has its own span inside max_entry's
    assert max_record["calls"]["extremal.max_entry"] == 1
    assert max_record["calls"]["vandinv.inverse_matrix"] >= 1
    # the complement identity re-enters sigma_finite, so there are more
    # spans than top-level calls, yet the self times still sum to the root
    assert verify_record["calls"]["symfunc.sigma_finite"] >= 2
    assert verify_record["self_s"]["symfunc.sigma_finite"] <= verify_record["root_s"]


def test_stdout_digests_do_not_depend_on_tracing(passes):
    untraced, traced = passes
    assert [r["digest"] for r in untraced] == [r["digest"] for r in traced]


def test_uninstall_restores_every_binding():
    originals = (cli.run, symfunc.elementary_symmetric)
    tracer = Tracer()
    tracer.install()
    assert cli.run is not originals[0]
    tracer.uninstall()
    assert (cli.run, symfunc.elementary_symmetric) == originals


def test_overhead_is_traced_minus_untraced_wall(passes):
    untraced, traced = passes
    untraced_pass = {"records": untraced, "wall_s": sum(r["latency_s"] for r in untraced)}
    traced_pass = {"records": traced, "wall_s": sum(r["latency_s"] for r in traced)}
    metrics = run.per_layer([untraced_pass], [traced_pass])
    value, unit = metrics["trace.overhead_s"]
    assert unit == "s"
    assert value == traced_pass["wall_s"] - untraced_pass["wall_s"]
    assert metrics["vandinv.inverse_matrix.calls"][0] >= 2


def test_workloads_are_seeded():
    for workload in workloads.WORKLOADS:
        assert workloads.generate(workload, 3) == workloads.generate(workload, 3)
        assert workloads.generate(workload, 3) != workloads.generate(workload, 4)


def test_checks_reject_wrong_outputs():
    argv = ["inverse", "--base", "2", "--n", "2"]
    assert checks.check(argv, 0, "2  -1\n-1   1", [3, -4]) is None
    assert checks.check(argv, 0, "2  -1\n-1   2", [3, -4]) is not None
    limit = ["limit", "--base", "3/2", "--tol", "1e-20"]
    assert checks.check(limit, 0, "n0 = 2\nargmax = (1,1)\nregime = below_tau") is None
    assert checks.check(limit, 0, "n0 = 2\nargmax = (1,1)\nregime = above_alpha") is not None
    assert checks.check(["verify", "--base", "2", "--n-max", "3"], 1, "") is not None
