"""One pass of a workload: run a command list in-process, one command after
another, on one thread, through ``vangeo.cli.run(argv)``.

Run as a child process by ``run.py``: it reads ``{"commands": [...],
"trace": bool}`` as JSON on stdin and writes one JSON object on stdout.  Each
command is timed around ``cli.run`` alone; the digest of its stdout and the
output check are taken after the timed span.

Between commands the worker also times a fixed reference computation.  Other
tenants of a shared machine change how fast it runs Python by tens of percent
from one minute to the next; a command's latency divided by the reference time
taken around it cancels most of that.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402


def stdout_digest(code: int, output: str) -> str:
    """sha256 of the bytes ``vangeo`` would write to stdout, plus the status."""
    text = output + "\n" if output else ""
    return f"{code}:{hashlib.sha256(text.encode()).hexdigest()}"


def reference_s() -> float:
    """Seconds a fixed Fraction computation takes now (median of three)."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        x = Fraction(1)
        for k in range(1, 120):
            x = x * Fraction(k + 1, k + 2) + Fraction(1, k)
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


def run_commands(commands: List[dict], tracer: Optional[Tracer] = None) -> List[dict]:
    """Run each command once; return one record per command."""
    from vangeo import cli
    from vangeo.errors import VangeoError

    records = []
    ref_before = reference_s()
    for command in commands:
        argv = command["argv"]
        if tracer is not None:
            tracer.reset()
        start = time.perf_counter()
        try:
            code, output = cli.run(argv)
            error = None
        except VangeoError as exc:
            code, output, error = 2, "", f"error: {exc}"
        except SystemExit as exc:           # argparse rejected the argv
            code, output, error = 2, "", f"usage error (status {exc.code})"
        except Exception as exc:            # a crash counts as a failed command
            code, output, error = 1, "", f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        ref_after = reference_s()
        record = {"latency_s": latency, "ref_s": (ref_before + ref_after) / 2,
                  "digest": stdout_digest(code, output),
                  "failure": error or checks.check(argv, code, output, command.get("x"))}
        if tracer is not None:
            record["self_s"] = dict(tracer.self_s)
            record["calls"] = dict(tracer.calls)
            record["root_s"] = tracer.root_s
            record["counters"] = tracer.command_counters()
        records.append(record)
        ref_before = ref_after
    return records


def main() -> int:
    request = json.load(sys.stdin)
    tracer = None
    if request["trace"]:
        tracer = Tracer()
        tracer.install()
    try:
        records = run_commands(request["commands"], tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump({"records": records, "peak_rss_kb": peak_kb}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
