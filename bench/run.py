"""Benchmark of the vangeo CLI: seeded command lists, timed end to end.

Usage (from the repository root)::

    python3 bench/run.py --workload finite_exact --seed 1 --seconds 35 --trace 0

One client runs the workload's command list in a closed loop: each pass is a
fresh child interpreter (``worker.py``) that runs every command in-process
through ``vangeo.cli.run(argv)``, one after another on one thread.  Passes
repeat the same list until ``--seconds`` is spent; each command's figure is
its median over the passes.  Latencies are reported in units of a reference
computation timed around each command (see ``worker.py``).  With ``--trace 1``
untraced and traced passes alternate and the per-layer figures come from the
traced ones.

The last line of stdout is the result as one JSON object; the line before it
holds the inputs, the stdout digest of every command and the failures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracing import TARGETS, span_name  # noqa: E402

# A trivial command a fresh interpreter answers to measure set-up time.
SETUP_ARGV = ["sigma", "--i", "1", "--j", "0", "--n", "3", "--x", "2"]
SETUP_STDOUT = "6\n"
SETUP_SPAWNS = 15
MIN_UNTRACED_PASSES = 3
MIN_TRACED_ROUNDS = 2
DEADLINE_S = 170.0          # the whole run must end well within 180 s
TAIL_BEYOND = 10            # samples beyond the reported tail percentile

# Spans that each workload must reach; a traced run in which one of them is
# never called fails, so a rebinding that bypasses a wrapper shows.
REACHED = {
    "finite_exact": ("cli", "symfunc.elementary_symmetric", "symfunc.sigma_finite",
                     "vandinv.inverse_matrix", "vandinv.pi_product",
                     "vandinv.residual_norm", "scalar.fraction_to_decimal",
                     "extremal.n_zero", "extremal.max_entry",
                     "extremal.verify_argmax_box",
                     "extremal.verify_leading_diagonal_max",
                     "extremal.conjecture_scan"),
    "finite_ball": ("cli", "symfunc.elementary_symmetric", "symfunc.sigma_finite",
                    "vandinv.inverse_matrix", "vandinv.pi_product",
                    "vandinv.residual_norm", "scalar.evaluate_base",
                    "scalar.certified_poly_sign", "scalar.RigorousReal.intersect",
                    "scalar.fraction_to_decimal", "extremal.n_zero",
                    "extremal.max_entry", "extremal.verify_argmax_box",
                    "extremal.verify_leading_diagonal_max",
                    "extremal.conjecture_scan"),
    "limits": ("cli", "scalar.evaluate_base", "scalar.certified_poly_sign",
               "scalar.fraction_to_decimal", "extremal.n_zero", "limits.limit_max",
               "limits.limit_entry", "limits.classify_regime"),
}

# Per-layer counters beyond the calls and self time of every span:
# (name, unit, how the per-command values combine over a pass).
COUNTERS = (
    ("vandinv.entry_bits_max", "bits", max),
    ("extremal.escalations", "count", sum),
    ("scalar.evaluate_base.bits_max", "bits", max),
    ("limits.sigma_cutoff_sum", "count", sum),
    ("limits.product_cutoff_sum", "count", sum),
)


class BenchError(Exception):
    """The benchmark could not run or a child process failed."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    env.pop("VANGEO_PRECISION_CEILING", None)     # measure the default ceiling
    return env


def remaining(start: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - start)
    if left <= 0:
        raise BenchError("out of time")
    return left


def setup_time(env: Dict[str, str], start: float) -> float:
    """Seconds from spawning a fresh interpreter until ``vangeo.cli`` is
    imported and a trivial command has answered."""
    code = f"import sys; from vangeo.cli import main; sys.exit(main({SETUP_ARGV!r}))"
    begin = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=remaining(start))
    elapsed = time.perf_counter() - begin
    if proc.returncode != 0 or proc.stdout != SETUP_STDOUT:
        raise BenchError(f"set-up command failed: {proc.stderr.strip()[-500:]}")
    return elapsed


def run_pass(commands: List[dict], trace: bool, env: Dict[str, str], start: float) -> dict:
    request = json.dumps({"commands": commands, "trace": trace})
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py")], input=request,
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=remaining(start))
    if proc.returncode != 0:
        raise BenchError(f"worker failed: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout)
    result["wall_s"] = sum(r["latency_s"] for r in result["records"])
    return result


def tail(latencies: List[float]) -> float:
    """The highest order statistic with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    return ordered[max(0, len(ordered) - TAIL_BEYOND - 1)]


def command_medians(passes: List[dict], key) -> List[float]:
    """Each command's median of ``key(record)`` over the passes, which
    filters out passes a burst of machine noise slowed."""
    return [statistics.median(key(p["records"][i]) for p in passes)
            for i in range(len(passes[0]["records"]))]


def end_to_end(untraced: List[dict], setup: List[float]) -> Dict[str, tuple]:
    relative = command_medians(untraced, lambda r: r["latency_s"] / r["ref_s"])
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_ref": (sum(relative), "ref"),
        "latency_p50_ref": (statistics.median(relative), "ref"),
        "latency_tail_ref": (tail(relative), "ref"),
        "peak_rss_mb": (statistics.median(p["peak_rss_kb"] for p in untraced) / 1024, "MB"),
    }


def layer_figures(traced_pass: dict) -> Dict[str, float]:
    """Per-layer figures of one traced pass."""
    records = traced_pass["records"]
    figures: Dict[str, float] = {}
    for module, attr in TARGETS:
        name = span_name(module, attr)
        figures[f"{name}.calls"] = sum(r["calls"].get(name, 0) for r in records)
        figures[f"{name}.self_s"] = sum(r["self_s"].get(name, 0.0) for r in records)
    for name, _, combine in COUNTERS:
        figures[name] = combine(r["counters"][name] for r in records)
    inverse_calls = figures["vandinv.inverse_matrix.calls"]
    distinct = sum(r["counters"]["inverse_distinct"] for r in records)
    figures["vandinv.inverse_matrix.distinct_ratio"] = \
        distinct / inverse_calls if inverse_calls else 0.0
    entry_calls = figures["limits.limit_entry.calls"]
    kept = sum(r["counters"]["limit_pairs_kept"] for r in records)
    figures["limits.entry_useful_ratio"] = kept / entry_calls if entry_calls else 0.0
    return figures


def per_layer(untraced: List[dict], traced: List[dict]) -> Dict[str, tuple]:
    passes = [layer_figures(p) for p in traced]
    units = {name: unit for name, unit, _ in COUNTERS}
    units["vandinv.inverse_matrix.distinct_ratio"] = "ratio"
    units["limits.entry_useful_ratio"] = "ratio"
    metrics = {}
    for name in passes[0]:
        unit = units.get(name) or ("s" if name.endswith("_s") else "count")
        metrics[name] = (statistics.median(p[name] for p in passes), unit)
    overhead = statistics.median(p["wall_s"] for p in traced) \
        - statistics.median(p["wall_s"] for p in untraced)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def unreached(workload: str, traced: List[dict]) -> List[str]:
    return sorted({name for p in traced for name in REACHED[workload]
                   if not any(r["calls"].get(name) for r in p["records"])})


def run(workload: str, seed: int, seconds: int, trace: bool) -> int:
    start = time.perf_counter()
    if not (SRC / "vangeo" / "cli.py").is_file():
        raise BenchError(f"no vangeo sources under {SRC}")
    commands = workloads.generate(workload, seed)
    env = child_env()
    setup_time(env, start)                # compiles bytecode once; not measured
    setup = [] if trace else [setup_time(env, start) for _ in range(SETUP_SPAWNS)]

    untraced, traced = [], []
    measure_start = time.perf_counter()
    while True:
        untraced.append(run_pass(commands, False, env, start))
        if trace:
            traced.append(run_pass(commands, True, env, start))
        elapsed = time.perf_counter() - measure_start
        rounds = len(untraced)
        enough = rounds >= (MIN_TRACED_ROUNDS if trace else MIN_UNTRACED_PASSES)
        if enough and elapsed * (rounds + 1) / rounds > seconds:
            break

    problems = []
    all_passes = untraced + traced
    digests = [r["digest"] for r in untraced[0]["records"]]
    if any([r["digest"] for r in p["records"]] != digests for p in all_passes):
        problems.append("stdout differs between passes"
                        + (" (traced vs untraced)" if trace else ""))
    failures = sorted({(i, r["failure"]) for p in all_passes
                       for i, r in enumerate(p["records"]) if r["failure"]})
    if trace:
        missing = unreached(workload, traced)
        if missing:
            problems.append(f"wrapped functions never called: {', '.join(missing)}")
        metrics = per_layer(untraced, traced)
    else:
        metrics = end_to_end(untraced, setup)
    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)

    attempted = sum(len(p["records"]) for p in all_passes)
    failed = sum(1 for p in all_passes for r in p["records"] if r["failure"])
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "passes": len(untraced), "traced_passes": len(traced),
        "latency_samples": len(commands),
        "tail_percentile": round(100 * (len(commands) - TAIL_BEYOND) / len(commands), 1),
        "wall_s": sum(command_medians(untraced, lambda r: r["latency_s"])),
        "reference_s": statistics.median(r["ref_s"] for p in untraced for r in p["records"]),
        "pass_wall_s": [p["wall_s"] for p in untraced],
        "traced_pass_wall_s": [p["wall_s"] for p in traced],
        "setup_samples_s": setup,
        "commands": [c["argv"] for c in commands],
        "stdout_sha256": digests,
        "failures": [{"command": i, "reason": reason} for i, reason in failures],
        "problems": problems,
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not problems and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
