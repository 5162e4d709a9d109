"""Timing wrappers installed on l1sketch's functions for the traced run.

The wrappers live here, not in ``src/``: :meth:`Recorder.install` swaps each
target function for a wrapper in every loaded ``l1sketch`` module that holds
it, so aliases made by ``from .x import f`` are covered too, and puts the
originals back on exit.  Each call appends a span ``(layer, start, end,
amount)`` to the recorder; ``amount`` is 1, or the number of points for the
``ci1.density`` layer.  Spans from worker threads land in the same list
(``list.append`` is atomic), so per-layer seconds are summed over threads.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

import numpy as np

#: (module, attribute, layer, counts points).  An attribute with a dot is
#: looked up on a class and patched there only.
TARGETS = (
    ("l1sketch.io", "load_family", "io.load", False),
    ("l1sketch.io", "matrix_to_csv", "io.write", False),
    ("l1sketch.densities", "validate_family", "densities.validate", False),
    ("l1sketch.densities", "exact_all_pairs", "densities.exact", False),
    ("l1sketch._poly", "integrate_abs_poly", "poly.integrate_abs", False),
    ("l1sketch.pipeline", "run_scheme", "pipeline.run_scheme", False),
    ("l1sketch.pipeline", "sketch_family", "pipeline.sketch", False),
    ("l1sketch.pipeline", "estimate_all_pairs", "pipeline.estimate", False),
    ("l1sketch.randstream", "geometric_mean_estimate", "pipeline.estimator", False),
    ("l1sketch.randstream", "RandomStream.__init__", "randstream.stream", False),
    ("l1sketch.ci1", "ci1_density", "ci1.density", True),
)


class Recorder:
    """Spans of one traced process, kept in memory until read."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.missing: list[str] = []

    def wrap(self, layer: str, fn, counts_points: bool):
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((layer, start, clock(), int(np.size(args[0])) if counts_points else 1))

        return wrapper

    @contextlib.contextmanager
    def install(self):
        """Patch every target for the duration of the ``with`` block."""
        undo = []
        try:
            for module_name, attr, layer, counts_points in TARGETS:
                module = sys.modules.get(module_name)
                owner_name, _, name = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = getattr(owner, name, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                wrapper = self.wrap(layer, original, counts_points)
                holders = [owner]
                if not owner_name:
                    holders = [
                        mod for key, mod in list(sys.modules.items())
                        if key.split(".")[0] == "l1sketch"
                        and any(v is original for v in vars(mod).values())
                    ]
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapper)
                            undo.append((holder, key, original))
            yield self
        finally:
            for holder, key, original in reversed(undo):
                setattr(holder, key, original)

    def window(self, start: float, end: float) -> list[tuple[str, float, float, int]]:
        """Spans that begin inside ``[start, end]``."""
        return [s for s in self.spans if start <= s[1] <= end]


def totals(spans) -> dict[str, dict[str, float]]:
    """Per layer: summed seconds, number of calls and summed amount."""
    out: dict[str, dict[str, float]] = {}
    for layer, start, end, amount in spans:
        entry = out.setdefault(layer, {"s": 0.0, "calls": 0, "amount": 0})
        entry["s"] += end - start
        entry["calls"] += 1
        entry["amount"] += amount
    return out


def covered(start: float, end: float, intervals) -> float:
    """Seconds of ``[start, end]`` covered by the union of ``intervals``."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def intervals(spans, layers: set[str]) -> list[tuple[float, float]]:
    """``(start, end)`` of the spans of the given layers."""
    return [(s[1], s[2]) for s in spans if s[0] in layers]


def self_seconds(parents, children) -> float:
    """Summed duration of the ``parents`` intervals minus the time that the
    union of the ``children`` intervals covers inside them."""
    return sum(end - start - covered(start, end, children) for start, end in parents)
