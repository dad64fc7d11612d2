"""Reference kernel that calibrates op times to a nominal machine speed.

On a shared machine the speed of a core drifts by 20% or more over
seconds to minutes, as other tenants load the caches and memory.  The
benchmark runs this fixed kernel between ops, up to MAX_REFS_PER_OP
times after each op while its total stays under REF_SHARE of the total
op time, and scales each op's time by NOMINAL_S / (the median of the
REF_NEIGHBOURS kernel times nearest to that op).  A calibrated time is then the time
the op would take on a core at which the kernel takes NOMINAL_S.

The kernel does what homgeo's hot paths do: einsum and reductions on
small arrays, a symmetric eigensolve, and dict building in Python.  It
does not call homgeo, so a change to homgeo moves calibrated times by
exactly as much as it moves raw ones.  Changing the kernel or NOMINAL_S
changes every timing metric, so it is a change to the benchmark.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

NOMINAL_S = 0.5e-3
REF_SHARE = 0.2
MAX_REFS_PER_OP = 5
REF_NEIGHBOURS = 15

_A3 = np.random.default_rng(0).standard_normal((3, 3, 3))
_M6 = np.random.default_rng(1).standard_normal((6, 6))


def reference_kernel() -> float:
    total = 0.0
    for _ in range(20):
        total += float(np.abs(np.einsum("abc,cbd->ad", _A3, _A3)).max())
        total += float(np.linalg.eigvalsh(_M6 + _M6.T)[0])
        table = {i: 0.5 * i for i in range(20)}
        total += sum(table.values())
    return total


def time_reference() -> float:
    """Seconds one run of the reference kernel takes."""
    start = perf_counter_ns()
    reference_kernel()
    return (perf_counter_ns() - start) / 1e9
