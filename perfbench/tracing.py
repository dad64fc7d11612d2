"""Spans around the benchmark's calls into homgeo, and the per-layer metrics.

A span is (span_id, parent_id, op_id, name, start_ns, end_ns, status).
Each op has one span named "op"; every call into a layer made during
that op is a child of it.  Spans are kept in memory and written out
when the run ends.  The benchmark's spans do not nest below the op, so
a call's inclusive time is also its self time.
"""

from __future__ import annotations

import itertools
from time import perf_counter_ns

OP = "op"
# Timed standalone on each op's inputs after the op, because every
# other call builds the Frame internally; it lies outside the op's time.
FRAME_PROBE = "reductive.Frame"
XI = "curvature.xi_curvatures"

LAYER_CALLS = (
    "lie.build_lie_algebra",
    FRAME_PROBE,
    "structure.classify",
    "curvature.curvature_tensor",
    "curvature.ricci_routes",
    "curvature.einstein_check",
    "curvature.sectional_curvature",
    "curvature.curvature_diagonal_general",
    "curvature.cyclic_curvature_diagonal",
    XI,
    "spectrum.solve_cyclic",
    "spectrum.cyclic_metric",
    "io.load_space",
    "verify.run_all",
)

# quantity -> (unit, better)
QUANTITIES = {
    "ms_per_op": ("ms", "lower"),
    "calls_per_op": ("1/op", "lower"),
    "share": ("frac", "lower"),
    "errors": ("count", "lower"),
}

# name -> (unit, better) of the metrics that are not per call
EXTRA = {
    f"{XI}.useful_ratio": ("frac", "higher"),
    "trace.coverage": ("frac", "higher"),
    "trace.overhead_frac": ("frac", "lower"),
}


def metric_specs() -> dict:
    """Every per-layer metric name with its (unit, better)."""
    specs = {f"{call}.{q}": spec for call in LAYER_CALLS for q, spec in QUANTITIES.items()}
    specs.update(EXTRA)
    return specs


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._op_id = None
        self._op_span = None

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id
        self._op_span = next(self._ids)

    def end_op(self, start_ns: int, end_ns: int) -> None:
        self.spans.append((self._op_span, None, self._op_id, OP, start_ns, end_ns, "ok"))

    def call(self, name, fn, *args, expected=(), **kwargs):
        """Call fn and record its span under the current op."""
        span = next(self._ids)
        status = "ok"
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except expected as exc:
            status = "expected:" + type(exc).__name__
            raise
        except Exception as exc:
            status = "error:" + type(exc).__name__
            raise
        finally:
            self.spans.append((span, self._op_span, self._op_id, name, start,
                               perf_counter_ns(), status))


def summarize(spans) -> dict:
    """Per-layer metrics of one traced measurement (without overhead_frac)."""
    ops = [s for s in spans if s[3] == OP]
    n_ops = max(1, len(ops))
    op_ns = sum(s[5] - s[4] for s in ops) or 1
    per = {name: [0, 0, 0, 0] for name in LAYER_CALLS}  # ns, calls, errors, returned
    covered = 0
    for _, _, _, name, start, end, status in spans:
        if name == OP:
            continue
        acc = per[name]
        acc[0] += end - start
        acc[1] += 1
        acc[2] += status.startswith("error:")
        acc[3] += status == "ok"
        if name != FRAME_PROBE:
            covered += end - start
    out = {}
    for name, (ns, calls, errors, _) in per.items():
        out[f"{name}.ms_per_op"] = ns / 1e6 / n_ops
        out[f"{name}.calls_per_op"] = calls / n_ops
        out[f"{name}.share"] = ns / op_ns
        out[f"{name}.errors"] = errors
    xi_calls, xi_returned = per[XI][1], per[XI][3]
    out[f"{XI}.useful_ratio"] = xi_returned / xi_calls if xi_calls else 0.0
    out["trace.coverage"] = covered / op_ns
    return out
