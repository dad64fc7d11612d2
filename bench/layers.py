"""Per-layer wall times of the homgeo pipeline on rotated g(alpha) groups.

    python bench/layers.py OUT.json

Times build_lie_algebra, Frame, Frame.types, Frame.r4, classify,
ricci_routes, xi_curvatures, one curvature_diagonal_general call, warm
and cold, one cyclic_curvature_diagonal call and the whole pipeline at
n = 3, 6, 16, 20 (perfbench's solvable_large size) and 32, and
einstein_check at n = 3;
solve_cyclic on the su(2,1) and sp(1,1) models with their catalog
gradings, and cyclic_metric at the sample point it returns;
one curvature_diagonal_general call on the su21_a3ii
catalog space; classify and Frame.types on the b2_product and
b4_product (n = 4, dim k = 0 and 1) and su21_a3ii and sp11_a3iii
(n = 6, dim k = 2 and 4) catalog spaces, which fall on either side of
the size up to which structure.py reads its formulas through cached
matrices; classify on a rotated g(alpha) at n = 5, the smallest size
above that cutoff; killing_form, and LieAlgebra.bracket of a (10, 1, dim)
stack against a (dim, dim) one, on rotated g(alpha) tables at dim = 3,
10 and 20; and each per-entry check of verify.run_all, summed over
the default catalog entries; all with time.perf_counter.
Writes the median, the interquartile range and the repeat count of each
case to OUT.json, with the git SHA, the Python/numpy/scipy versions and
the CPU count.  Each case also records minflt_median, the median count
of minor page faults this process took during one repeat
(resource.getrusage on the own process): a repeat that allocates and
frees large arrays can make the allocator hand memory back to the
kernel and fault it in again on the next one.

A core's speed drifts on a shared machine, so every repeat of a case is
followed by REFS_PER_REPEAT runs of perfbench's homgeo-free reference
kernel (perfbench/calibrate.py).  As perfbench does for ops, each
repeat's time is scaled by NOMINAL_S / (the median of the
REF_NEIGHBOURS kernel runs nearest to it), and scaled_median_ms and
scaled_iqr_ms are the median and IQR of those scaled times: the time on
a core where the kernel takes NOMINAL_S.  Each case also records the
kernel's median and IQR over all its runs.

A short case spreads more between runs than a long one, so a case whose
scaled median is below BATCH_MIN_BELOW_MS, and every case at n = 3, also
records the per-batch minimum: BATCHES batches of CALLS_PER_BATCH calls,
each call prepared untimed and then timed alone, as a repeat is, and the
fastest call of each batch kept.  batch_min_median_ms and batch_min_iqr_ms are the
median and IQR of those minima as timed.  Each minimum is also scaled
by NOMINAL_S / (the fastest of REFS_PER_BATCH kernel runs right after
its batch), and scaled_batch_min_median_ms and scaled_batch_min_iqr_ms
are the median and IQR of the scaled minima: a fastest call against the
fastest kernel run of the same moment.  These sit beside the scaled
median and do not replace it.

Each case times one layer alone.  The layers a case needs first are built
outside the timed region: Frame.types and Frame.r4 are the first access
on a fresh Frame (so r4 includes the connection, the isotropy term it
reads and the general Ricci route it ties its trace to).  ricci_routes
runs on a fresh Frame whose connection (gamma, and the U it reads) is
built.  Above n = 3 that is all it reads of the curvature, since its
trace route is contracted from the connection; a built r4 would also
hold the general route, which r4 ties its own trace to.  At n = 3, where
k is empty, it reads only the projected brackets and the trace form,
through one cached operator product, and the built connection goes
unread.  xi_curvatures
runs on a fresh Frame whose r4 is built, and einstein_check on a fresh
Frame with nothing built.  classify is the user call on (dec, metric),
so it includes building its Frame; pipeline is the five user calls classify,
curvature_tensor, ricci_routes, einstein_check and xi_curvatures on one
space, which share one Frame.  These, the n = 5 classify and the
catalog classify and Frame.types cases get a fresh metric object on
every repeat, since
consecutive calls on the same (dec, metric) objects reuse the last
Frame built.  The solve_cyclic and cyclic_metric cases get a fresh
grading object on every repeat, since spectrum keeps the Killing-form
restrictions of the last (algebra, grading) pair it validated.
curvature_diagonal_general and cyclic_curvature_diagonal
get one pair of frame vectors and a Frame whose diagonal forms are
built; curvature_diagonal_general.cold makes the same call on a fresh
Frame, so it times building the form (and the U it reads) too.  A
verify/<check> case runs that check on every default entry, on fresh
Frames whose r4 and ricci_routes are built, each with its own seeded
generator, outside the timed region; tensors a check reads beyond those (the type split, say)
are built inside it, as in run_all.  OpenBLAS runs one thread unless
OPENBLAS_NUM_THREADS is set.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import homgeo as hg  # noqa: E402
from calibrate import NOMINAL_S, REF_NEIGHBOURS, time_reference  # noqa: E402
from homgeo import verify  # noqa: E402
from homgeo.catalog import _BLOCK_MODELS  # noqa: E402
from homgeo.reductive import Frame  # noqa: E402

SIZES = (3, 6, 16, 20, 32)
LIE_DIMS = (3, 10, 20)
SEED = 5
MIN_REPEATS = 21
MIN_SECONDS = 0.3
REFS_PER_REPEAT = 3
BATCH_MIN_BELOW_MS = 0.2
BATCHES = 15
CALLS_PER_BATCH = 200
REFS_PER_BATCH = 20


def rotated_solvable(n: int, rng):
    """Bracket table of g(alpha) in a random orthonormal basis, and alpha.

    g(alpha) has [e0, ei] = alpha_i ei; in the basis e'_a = sum_i q[i,a] e_i
    the table is dense while the identity metric stays orthonormal.
    """
    alpha = rng.uniform(0.5, 2.0, size=n - 1)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diagonal(r))
    t = (q[1:].T * alpha) @ q[1:]
    c = np.einsum("a,bd->abd", q[0], t)
    c = c - np.swapaxes(c, 0, 1)
    brackets = {}
    for a in range(n):
        for b in range(a + 1, n):
            nz = np.flatnonzero(c[a, b])
            if nz.size:
                brackets[(a, b)] = {int(d): float(c[a, b, d]) for d in nz}
    return brackets, alpha


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def time_case(run, prepare=lambda: None) -> dict:
    """Median and IQR in ms of run(prepare()) over repeats; prepare is untimed.

    The reference kernel runs REFS_PER_REPEAT times after each repeat,
    and each repeat is scaled by the median of the kernel runs nearest it.
    """
    for _ in range(2):
        run(prepare())
    times, faults, refs = [], [], []
    start = time.perf_counter()
    while len(times) < MIN_REPEATS or time.perf_counter() - start < MIN_SECONDS:
        arg = prepare()
        f0 = minor_faults()
        t0 = time.perf_counter()
        run(arg)
        t1 = time.perf_counter()
        faults.append(minor_faults() - f0)
        times.append(t1 - t0)
        refs.extend(time_reference() for _ in range(REFS_PER_REPEAT))
    scaled = []
    for i, t in enumerate(times):  # repeat i's kernel runs start at refs[i * REFS_PER_REPEAT]
        pos = min(max(i * REFS_PER_REPEAT - REF_NEIGHBOURS // 2, 0),
                  len(refs) - REF_NEIGHBOURS)
        scaled.append(t * NOMINAL_S / np.median(refs[pos:pos + REF_NEIGHBOURS]))
    q25, q50, q75 = np.percentile(np.array(times) * 1e3, [25, 50, 75])
    r25, r50, r75 = np.percentile(np.array(refs) * 1e3, [25, 50, 75])
    s25, s50, s75 = np.percentile(np.array(scaled) * 1e3, [25, 50, 75])
    stats = {"median_ms": q50, "iqr_ms": q75 - q25, "repeats": len(times),
             "ref_median_ms": r50, "ref_iqr_ms": r75 - r25,
             "scaled_median_ms": s50, "scaled_iqr_ms": s75 - s25,
             "minflt_median": float(np.median(faults))}
    if s50 < BATCH_MIN_BELOW_MS:
        stats.update(batch_minima(run, prepare))
    return stats


def batch_minima(run, prepare) -> dict:
    """Median and IQR in ms, over BATCHES batches, of the fastest of CALLS_PER_BATCH calls,
    as timed and scaled by the fastest kernel run after each batch."""
    minima, scaled = [], []
    for _ in range(BATCHES):
        best = math.inf
        for _ in range(CALLS_PER_BATCH):
            arg = prepare()
            t0 = time.perf_counter()
            run(arg)
            best = min(best, time.perf_counter() - t0)
        minima.append(best)
        ref = min(time_reference() for _ in range(REFS_PER_BATCH))
        scaled.append(best * NOMINAL_S / ref)
    q25, q50, q75 = np.percentile(np.array(minima) * 1e3, [25, 50, 75])
    s25, s50, s75 = np.percentile(np.array(scaled) * 1e3, [25, 50, 75])
    return {"batch_min_median_ms": q50, "batch_min_iqr_ms": q75 - q25,
            "scaled_batch_min_median_ms": s50, "scaled_batch_min_iqr_ms": s75 - s25,
            "batch_calls": CALLS_PER_BATCH, "batches": BATCHES}


def bench_size(n: int) -> dict:
    brackets, alpha = rotated_solvable(n, np.random.default_rng([SEED, n]))
    alg = hg.build_lie_algebra(n, brackets)
    dec = hg.ReductiveDecomposition(alg, (), tuple(range(n)))
    metric = hg.InvariantMetric.identity(n)

    # the timed pipeline must be right: sum_i K(d_i, xi) = -sum alpha^2
    got = sum(hg.xi_curvatures(dec, metric).sectional)
    if abs(got + (alpha ** 2).sum()) > 1e-8 * (alpha ** 2).sum():
        raise SystemExit(f"n = {n}: sum K(d_i, xi) = {got}, want {-(alpha ** 2).sum()}")

    def frame_with_r4():
        frame = Frame(dec, metric)
        frame.r4
        return frame

    def frame_with_gamma():
        frame = Frame(dec, metric)
        frame.gamma
        return frame

    def fresh_metric():
        return hg.InvariantMetric(metric.matrix)

    plane = Frame(dec, metric)
    x, y = np.random.default_rng([SEED, n, 1]).standard_normal((2, n))

    def pipeline(g):
        hg.classify(dec, g)
        hg.curvature_tensor(dec, g)
        hg.ricci_routes(dec, g)
        hg.einstein_check(dec, g)
        hg.xi_curvatures(dec, g)

    def no_input():
        return None

    layers = {
        "build_lie_algebra": (lambda _: hg.build_lie_algebra(n, brackets), no_input),
        "Frame": (lambda _: Frame(dec, metric), no_input),
        "Frame.types": (lambda frame: frame.types, lambda: Frame(dec, metric)),
        "Frame.r4": (lambda frame: frame.r4, lambda: Frame(dec, metric)),
        "classify": (lambda g: hg.classify(dec, g), fresh_metric),
        "ricci_routes": (hg.ricci_routes, frame_with_gamma),
        "xi_curvatures": (hg.xi_curvatures, frame_with_r4),
        "curvature_diagonal_general": (
            lambda _: hg.curvature_diagonal_general(plane, None, x, y), no_input),
        "curvature_diagonal_general.cold": (
            lambda frame: hg.curvature_diagonal_general(frame, None, x, y),
            lambda: Frame(dec, metric)),
        "cyclic_curvature_diagonal": (
            lambda _: hg.cyclic_curvature_diagonal(plane, None, x, y), no_input),
        "pipeline": (pipeline, fresh_metric),
    }
    if n == 3:
        layers["einstein_check"] = (hg.einstein_check, lambda: Frame(dec, metric))
    cases = {}
    for layer, (run, prepare) in layers.items():
        cases[layer] = stats = time_case(run, prepare)
        if n == 3 and "batch_min_median_ms" not in stats:
            stats.update(batch_minima(run, prepare))
    return cases


def bench_models() -> dict:
    """solve_cyclic on each 3-symmetric model, whose cone its catalog data states,
    and cyclic_metric at the family's sample point, each on a fresh grading object."""
    cases = {}
    for model in _BLOCK_MODELS:
        alg, grading, _ = model.build()
        name, dimension = model.build.__name__, len(model.cone)
        family = hg.solve_cyclic(alg, grading)
        if family.dimension != dimension:
            raise SystemExit(f"{name}: the cyclic family is not {dimension}-dimensional")

        def fresh_grading(grading=grading):
            return dataclasses.replace(grading)

        cases[f"solve_cyclic/{name}"] = time_case(
            lambda g: hg.solve_cyclic(alg, g), fresh_grading)
        cases[f"cyclic_metric/{name}"] = time_case(
            lambda g: hg.cyclic_metric(alg, g, family.sample), fresh_grading)
    return cases


def bench_su21_diagonal() -> dict:
    """One curvature_diagonal_general call on su21_a3ii: n = 6, dim k = 2."""
    entry = next(e for e in hg.default_entries() if e.name == "su21_a3ii")
    frame = Frame(entry.decomposition, entry.metric)
    x, y = np.random.default_rng([SEED, 21]).standard_normal((2, frame.n))
    return {"curvature_diagonal_general/su21_a3ii": time_case(
        lambda _: hg.curvature_diagonal_general(frame, None, x, y))}


def bench_classify_n5() -> dict:
    """classify on a rotated g(alpha) at n = 5, just above the operator cutoff."""
    n = 5
    brackets, _ = rotated_solvable(n, np.random.default_rng([SEED, n]))
    dec = hg.ReductiveDecomposition(hg.build_lie_algebra(n, brackets), (), tuple(range(n)))
    return {f"classify/n={n}": time_case(
        lambda g: hg.classify(dec, g), lambda: hg.InvariantMetric.identity(n))}


def bench_catalog_types() -> dict:
    """classify and Frame.types on the n = 4 and n = 6 catalog spaces."""
    cases = {}
    for name in ("b2_product", "b4_product", "su21_a3ii", "sp11_a3iii"):
        entry = next(e for e in hg.default_entries() if e.name == name)

        def fresh_metric(entry=entry):
            return hg.InvariantMetric(entry.metric.matrix)

        def fresh_frame(entry=entry, fresh_metric=fresh_metric):
            return Frame(entry.decomposition, fresh_metric())

        cases[f"classify/{name}"] = time_case(
            lambda g, dec=entry.decomposition: hg.classify(dec, g), fresh_metric)
        cases[f"Frame.types/{name}"] = time_case(lambda frame: frame.types, fresh_frame)
    return cases


def bench_checks() -> dict:
    """Each verify entry check, summed over the default catalog entries."""
    entries = hg.default_entries()

    def prepared():
        frames = []
        for pos, entry in enumerate(entries):
            frame = Frame(entry.decomposition, entry.metric)
            frame.r4
            frame.ricci_routes
            frames.append((entry, frame, np.random.default_rng(SEED + 101 * pos)))
        return frames

    cases = {}
    for check in verify._ENTRY_CHECKS:
        def run(frames, check=check):
            for entry, frame, rng in frames:
                if not all(r.passed for r in check(entry, frame, rng)):
                    raise SystemExit(f"{check.__name__} fails on {entry.label}")
        cases[f"verify/{check.__name__.removeprefix('_check_')}"] = time_case(run, prepared)
    return cases


def bench_lie_products() -> dict:
    """killing_form, and one bracket of a (10, 1, dim) stack against a (dim, dim) one,
    on rotated g(alpha) tables at dim = 3, 10 and 20."""
    cases = {}
    for dim in LIE_DIMS:
        brackets, _ = rotated_solvable(dim, np.random.default_rng([SEED, dim]))
        alg = hg.build_lie_algebra(dim, brackets)
        x = np.random.default_rng([SEED, dim, 2]).standard_normal((10, 1, dim))
        y = np.random.default_rng([SEED, dim, 3]).standard_normal((dim, dim))
        cases[f"killing_form/dim={dim}"] = time_case(lambda _, alg=alg: hg.killing_form(alg))
        cases[f"bracket/dim={dim}"] = time_case(
            lambda _, alg=alg, x=x, y=y: alg.bracket(x, y))
    return cases


def git_sha() -> str:
    """HEAD's SHA, with -dirty appended when tracked files differ from it."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head.stdout.strip() + ("-dirty" if status.stdout.strip() else "")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python bench/layers.py OUT.json", file=sys.stderr)
        return 2
    cases = {}
    for n in SIZES:
        cases.update((f"{layer}/n={n}", stats) for layer, stats in bench_size(n).items())
    cases.update(bench_models())
    cases.update(bench_su21_diagonal())
    cases.update(bench_classify_n5())
    cases.update(bench_catalog_types())
    cases.update(bench_lie_products())
    cases.update(bench_checks())
    for case, stats in cases.items():
        batch_min = (f"  batch min {stats['batch_min_median_ms']:7.4f} ms, "
                     f"scaled {stats['scaled_batch_min_median_ms']:7.4f} ms"
                     if "batch_min_median_ms" in stats else "")
        print(f"{case:40s} median {stats['median_ms']:9.3f} ms  "
              f"IQR {stats['iqr_ms']:8.3f} ms  scaled {stats['scaled_median_ms']:9.3f} ms  "
              f"faults {stats['minflt_median']:6.0f}  ({stats['repeats']} repeats){batch_min}")
    record = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": SEED,
        "nominal_ref_ms": NOMINAL_S * 1e3,
        "refs_per_repeat": REFS_PER_REPEAT,
        "ref_neighbours": REF_NEIGHBOURS,
        "batch_min_below_ms": BATCH_MIN_BELOW_MS,
        "refs_per_batch": REFS_PER_BATCH,
        "cases": cases,
    }
    with open(argv[0], "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
