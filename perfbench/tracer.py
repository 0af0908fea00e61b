"""Per-layer tracing of cemvc from outside the program.

`cemvc.pipeline` (and `model`, `weighting`, `metrics`) bind their
dependencies with `from .x import f`, so patching `cemvc.x.f` alone would
miss those callers. A function is therefore replaced in every loaded
`cemvc` module whose namespace holds it, which also catches recursion
through a module global (k-means restarts) and the package re-exports.

Spans (name, start, end, parent span, fit id) stay in memory until the
run writes them out. Peak memory comes from a separate tracemalloc pass,
because tracemalloc slows every allocation and would distort the timings.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from contextlib import contextmanager

# Public functions timed, by defining module. Names missing from a later
# version of the program are skipped and read as zero.
TIMED = {
    "pipeline": ("run_cemvc", "run_shared_baseline"),
    "model": ("pretrain", "finetune_view", "encode", "combined_loss"),
    "numcore": ("forward", "backward", "adam_step"),
    "infometrics": ("total_conditional_entropy", "kde_entropy", "nmi"),
    "clustering": ("kmeans", "soft_assign", "target_distribution"),
    "weighting": ("update_weights", "scale_representations"),
    "metrics": ("evaluate",),
}

# Functions whose peak traced allocation the memory pass records.
MEMORY = {
    "model": ("pretrain",),
    "infometrics": ("total_conditional_entropy",),
    "clustering": ("kmeans",),
}


def _layer_matmuls(net) -> int:
    return sum(layer.weight.shape[0] * layer.weight.shape[1] for layer in net.layers)


def _rows(arrays) -> int:
    """Row count of the first 2-D array among `arrays`."""
    for a in arrays:
        shape = getattr(a, "shape", None)
        if shape is not None and len(shape) == 2:
            return shape[0]
    return 0


def _forward_flop(args, kwargs) -> float:
    # one n x fan_in x fan_out matmul per layer
    return 2.0 * _rows(args[1:]) * _layer_matmuls(args[0])


def _backward_flop(args, kwargs) -> float:
    # weight gradient and input gradient: two matmuls per layer
    return 4.0 * _rows(args[1:]) * _layer_matmuls(args[0])


def _kde_pairs(args, kwargs) -> float:
    n = _rows(args)
    return float(n * (n - 1))


WORK = {
    "numcore.forward": _forward_flop,
    "numcore.backward": _backward_flop,
    "infometrics.kde_entropy": _kde_pairs,
}


def _cemvc_modules():
    return [m for name, m in list(sys.modules.items()) if name == "cemvc" or name.startswith("cemvc.")]


def _install(targets: dict, make_wrapper) -> list:
    """Replace each target in every cemvc namespace that binds it.

    Returns (module, attribute, original) triples for `_restore`.
    """
    modules = _cemvc_modules()
    patched = []
    for mod_name, names in targets.items():
        home = sys.modules.get(f"cemvc.{mod_name}")
        for fn_name in names:
            original = getattr(home, fn_name, None)
            if original is None:
                continue
            wrapper = make_wrapper(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
    return patched


def _restore(patched: list) -> None:
    for module, attr, original in reversed(patched):
        setattr(module, attr, original)


class SpanTracer:
    """Timing pass: one span per wrapped call, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, fit, work]
        self.fit = -1
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        spans, stack, work = self.spans, self._stack, WORK.get(name)

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.fit,
                   work(args, kwargs) if work else 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def active(self):
        patched = _install(TIMED, self._wrap)
        try:
            yield self
        finally:
            _restore(patched)

    def summary(self) -> dict:
        """Per-name totals: calls, inclusive seconds, self seconds, work.

        Calls nested in a call of the same name (k-means restarts) are
        counted under `<name>#nested` and excluded from the inclusive time,
        which the outer call already covers.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, parent, _, work) in enumerate(self.spans):
            key = name
            if parent >= 0 and self.spans[parent][0] == name:
                key = f"{name}#nested"
            row = out.setdefault(key, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "work": 0.0})
            row["calls"] += 1
            row["incl_s"] += end - start
            row["self_s"] += end - start - child[i]
            row["work"] += work
        return out

    def records(self):
        for name, start, end, parent, fit, work in self.spans:
            yield {"name": name, "start": start, "end": end, "parent": parent, "fit": fit, "work": work}


class PeakTracer:
    """Memory pass: peak traced bytes above the entry level, per function.

    Only the outermost tracked call measures, since resetting the
    tracemalloc peak inside another tracked call would clobber its figure.
    """

    def __init__(self) -> None:
        self.peak_bytes: dict[str, int] = {}
        self._depth = 0

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            if self._depth:
                return fn(*args, **kwargs)
            self._depth += 1
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - base
                self.peak_bytes[name] = max(self.peak_bytes.get(name, 0), peak)
                self._depth -= 1

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def active(self):
        patched = _install(MEMORY, self._wrap)
        tracemalloc.start()
        try:
            yield self
        finally:
            tracemalloc.stop()
            _restore(patched)
