"""Per-layer tracing by wrapping vangeo's public functions from the outside.

Each wrapped call is a span.  A span's self time is its duration minus the
durations of the spans it directly encloses, so the self times of all spans in
one command add up to the duration of the root span (``cli.run``), and a
recursive call (``sigma_finite`` through its complement identity) is counted
once.  ``RigorousReal`` and ``Fraction`` arithmetic stays unwrapped: wrappers
would cost too much at that grain, so that time is self time of the caller.

Anything a counter needs from a return value (entry bit-lengths, limit
cutoffs) is kept by reference and read after the command has finished, so the
reading is not charged to any span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Callable, Dict, List, Optional

# (module, attribute path) of every wrapped function.  Every binding of the
# function object in any loaded vangeo module is replaced, so a name imported
# with ``from .x import f`` is traced in the importing module too.
TARGETS = (
    ("cli", "run"),
    ("symfunc", "elementary_symmetric"),
    ("symfunc", "sigma_finite"),
    ("vandinv", "inverse_matrix"),
    ("vandinv", "pi_product"),
    ("vandinv", "residual_norm"),
    ("scalar", "evaluate_base"),
    ("scalar", "certified_poly_sign"),
    ("scalar", "RigorousReal.intersect"),
    ("scalar", "fraction_to_decimal"),
    ("extremal", "n_zero"),
    ("extremal", "max_entry"),
    ("extremal", "verify_argmax_box"),
    ("extremal", "verify_leading_diagonal_max"),
    ("extremal", "conjecture_scan"),
    ("limits", "limit_max"),
    ("limits", "limit_entry"),
    ("limits", "classify_regime"),
)

ROOT = "cli"

# Module namespaces that must bind each function when tracing is installed.
# If a refactor drops one of these bindings the trace fails loudly instead of
# reporting zero for the layer.
EXPECTED_BINDINGS = {
    "symfunc.elementary_symmetric": ("symfunc", "vandinv"),
    "vandinv.inverse_matrix": ("vandinv", "extremal"),
    "extremal.n_zero": ("extremal", "limits"),
    "scalar.certified_poly_sign": ("scalar", "extremal", "limits"),
}

# Functions whose calls carry a caller precision that a nested inverse_matrix
# call can exceed (an escalation).
_PRECISION_CALLERS = ("extremal.max_entry", "extremal.verify_argmax_box",
                      "extremal.verify_leading_diagonal_max")


def span_name(module: str, attr: str) -> str:
    return ROOT if (module, attr) == ("cli", "run") else f"{module}.{attr}"


class _Frame:
    __slots__ = ("name", "start", "children", "precision")

    def __init__(self, name: str, start: float, precision: Optional[int] = None):
        self.name = name
        self.start = start
        self.children = 0.0
        self.precision = precision


class Tracer:
    """Collects self time and call counts per span name for one command at a
    time; ``install`` patches the package, ``uninstall`` restores it."""

    def __init__(self):
        self._stack: List[_Frame] = []
        self._patches: List[tuple] = []
        self.reset()

    # -- per-command state ---------------------------------------------------

    def reset(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.root_s = 0.0
        self.escalations = 0
        self.inverse_keys: set = set()
        self.inverses: list = []
        self.evaluate_bits_max = 0
        self.limit_entries: list = []
        self.limit_reports: list = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str, precision: Optional[int] = None) -> _Frame:
        frame = _Frame(name, 0.0, precision)
        self._stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def _exit(self, frame: _Frame) -> None:
        duration = time.perf_counter() - frame.start
        self._stack.pop()
        self.self_s[frame.name] = self.self_s.get(frame.name, 0.0) + duration - frame.children
        self.calls[frame.name] = self.calls.get(frame.name, 0) + 1
        if self._stack:
            self._stack[-1].children += duration
        else:
            self.root_s += duration

    def _wrap(self, name: str, fn: Callable) -> Callable:
        before = self._hook_before(name, fn)
        after = self._hook_after(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            precision = before(args, kwargs) if before else None
            frame = self._enter(name, precision)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if after:
                after(result)
            return result
        return traced

    # -- counters taken at span boundaries -----------------------------------

    def _hook_before(self, name: str, fn: Callable):
        if name == "vandinv.inverse_matrix":
            signature = inspect.signature(fn)

            def on_inverse(args, kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                gv, precision = bound.arguments["gv"], bound.arguments["precision_bits"]
                self.inverse_keys.add((gv.base, gv.n, None if gv.is_exact else precision))
                caller = self._stack[-1] if self._stack else None
                if caller is not None and caller.precision is not None \
                        and not gv.is_exact and precision > caller.precision:
                    self.escalations += 1
                return None
            return on_inverse
        if name in _PRECISION_CALLERS:
            signature = inspect.signature(fn)

            def on_caller(args, kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                return bound.arguments["precision_bits"]
            return on_caller
        if name == "scalar.evaluate_base":
            def on_evaluate(args, kwargs):
                bits = args[1] if len(args) > 1 else kwargs["precision_bits"]
                self.evaluate_bits_max = max(self.evaluate_bits_max, bits)
            return on_evaluate
        return None

    def _hook_after(self, name: str):
        kept = {"vandinv.inverse_matrix": "inverses",
                "limits.limit_entry": "limit_entries",
                "limits.limit_max": "limit_reports"}.get(name)
        if kept is None:
            return None
        return lambda result: getattr(self, kept).append(result)

    def command_counters(self) -> Dict[str, float]:
        """Counters of the finished command that need its return values."""
        bits = 0
        for inv in self.inverses:
            if inv.backend == "exact":
                for row in inv.entries:
                    for v in row:
                        bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
        return {
            "vandinv.entry_bits_max": bits,
            "inverse_distinct": len(self.inverse_keys),
            "extremal.escalations": self.escalations,
            "scalar.evaluate_base.bits_max": self.evaluate_bits_max,
            "limits.sigma_cutoff_sum": sum(e.sigma_cutoff for e in self.limit_entries),
            "limits.product_cutoff_sum": sum(e.product_cutoff for e in self.limit_entries),
            "limit_pairs_kept": sum(len(r.entries) for r in self.limit_reports),
        }

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every vangeo module namespace that binds it."""
        for module_name, _ in TARGETS:
            importlib.import_module(f"vangeo.{module_name}")
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "vangeo" or name.startswith("vangeo.")}
        for module_name, attr in TARGETS:
            name = span_name(module_name, attr)
            owner = modules[f"vangeo.{module_name}"]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            wrapped = self._wrap(name, original)
            if path:                          # a method: patch the class once
                self._patch(owner, leaf, original, wrapped)
                continue
            bound_in = []
            for mod_name, mod in modules.items():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapped)
                        bound_in.append(mod_name.rpartition(".")[2])
            missing = set(EXPECTED_BINDINGS.get(name, ())) - set(bound_in)
            if missing:
                self.uninstall()
                raise RuntimeError(f"{name} is no longer bound in {sorted(missing)}")

    def _patch(self, owner, key: str, original, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()
