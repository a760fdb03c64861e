"""In-memory span tracing for the benchmark's traced run.

The program under test carries no tracing of its own.  ``traced`` swaps each
public function named in ``LAYERS`` for a wrapper in every ``seqcred``
module namespace that holds it, so calls are caught where their callers look
them up (``default_center`` is looked up both in ``seqcred.experiments`` and
in ``seqcred.diagnostics``).  The originals are restored on exit, so the
untraced passes of the same process run unwrapped code.

Private helpers are deliberately not wrapped; their time is the self time of
their public caller.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass

#: layer module -> public functions recorded as spans
LAYERS = {
    "model": ("simulate", "generate_signal"),
    "posterior": ("mixture_weights", "posterior_mean"),
    "credible": ("default_center", "radius_from_distances"),
    "oracle": ("oracle", "ebr_check", "surrogate_oracle", "covers_check"),
    "diagnostics": ("estimate_psi",),
    "experiments": ("run_experiment",),
}

#: span names, "<layer>.<function>"
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)


def _mean_index(weights) -> dict:
    # sum_I I w_I equals the sum over i of the tail weights sum_{I >= i} w_I
    return {"mean_index": float(weights.tail_weights().sum())}


def _center_counts(result) -> dict:
    return {"candidates": result.candidates_evaluated, "unverified": int(not result.verified)}


def _radius_counts(result) -> dict:
    return {"samples": result.mc_samples}


#: counts read from the values a layer returns, keyed by span name
RESULT_COUNTS = {
    "posterior.mixture_weights": _mean_index,
    "credible.default_center": _center_counts,
    "credible.radius_from_distances": _radius_counts,
}


@dataclass(frozen=True)
class Span:
    id: int
    parent: int  # 0 for a root span
    name: str
    start: float
    end: float
    self_s: float  # duration minus the time covered by child spans
    counts: dict | None


class Tracer:
    """Collects spans of one thread in memory.

    Reading a result's counts is tracing work: its time is charged to
    neither the span nor its parent.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[list] = []  # [span id, start, covered by children]
        self._last_id = 0

    def wrap(self, name: str, fn):
        count = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            self._last_id += 1
            span_id = self._last_id
            parent = self._stack[-1][0] if self._stack else 0
            frame = [span_id, time.perf_counter(), 0.0]
            self._stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                counts = count(result) if count is not None and result is not None else None
                self.spans.append(Span(span_id, parent, name, frame[1], end, end - frame[1] - frame[2], counts))
                if self._stack:
                    self._stack[-1][2] += time.perf_counter() - frame[1]

        return traced_call


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Wrap every function of ``LAYERS`` in all ``seqcred`` namespaces."""
    patched = []
    try:
        for layer, fns in LAYERS.items():
            module = importlib.import_module(f"seqcred.{layer}")
            for fn in fns:
                original = getattr(module, fn)
                wrapper = tracer.wrap(f"{layer}.{fn}", original)
                for name, mod in list(sys.modules.items()):
                    if (name == "seqcred" or name.startswith("seqcred.")) and getattr(mod, fn, None) is original:
                        setattr(mod, fn, wrapper)
                        patched.append((mod, fn, original))
        yield tracer
    finally:
        for mod, fn, original in reversed(patched):
            setattr(mod, fn, original)
