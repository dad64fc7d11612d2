"""Set-up, the measuring loop and the run record.

Import this only after ``run.use_checkout_program()``: it imports numpy
and homgeo, which must come from the checkout and see the BLAS thread
setting.
"""

from __future__ import annotations

import bisect
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import calibrate
import homgeo
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_OPS = 100          # p90 then has at least 10 samples beyond it
MIN_TRACE_OPS = 20     # per half of a traced run
WINDOWS = 20           # ops_per_s is the median over this many windows
LOOP_CAP_S = 120.0     # keeps every run inside its time limit
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60.0
PROBE_REFS = 20

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def workdir_for(name: str, seed: int) -> Path:
    return OUT / f"{name}-seed{seed}-pid{os.getpid()}"


def setup(name: str, seed: int, workdir: Path):
    """Generate the inputs and run one checked warm-up op."""
    work = workloads.make(name, seed, str(workdir))
    inp = work.prepare(0)
    try:
        work.check(inp, work.op(inp, workloads.direct))
    except Exception:  # the timed loop counts and reports every failing op
        pass
    return work


def probe_setup(name: str, seed: int) -> tuple[float, float, str]:
    """Time one fresh interpreter from its start to the end of its warm-up op.

    Returns the raw seconds, the calibrated seconds (scaled by the
    reference kernel timed right after the probe) and the input hash
    the probe generated.
    """
    cmd = [sys.executable, str(HERE / "probe.py"), name, str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    words = line.split()
    if code != 0 or len(words) != 2 or words[0] != "ready":
        raise RuntimeError(f"set-up probe failed (exit {code}, output {line!r})")
    ref = statistics.median(calibrate.time_reference() for _ in range(PROBE_REFS))
    return elapsed, elapsed * calibrate.NOMINAL_S / ref, words[1]


class Sample:
    """Op times of one measurement, with the reference timings between them."""

    def __init__(self):
        self.times = []
        self.refs = []  # (index of the op before it, seconds), in op order
        self.failed = 0
        self.problems = []

    def calibrated_times(self) -> list:
        """Each op's time scaled by the speed of the nearest reference runs."""
        at = [i for i, _ in self.refs]
        near_n = calibrate.REF_NEIGHBOURS
        out = []
        for i, t in enumerate(self.times):
            pos = min(max(bisect.bisect_left(at, i) - near_n // 2, 0),
                      max(len(at) - near_n, 0))
            near = statistics.median(r for _, r in self.refs[pos:pos + near_n])
            out.append(t * calibrate.NOMINAL_S / near)
        return out

    def ops_per_s(self) -> float:
        """Median over WINDOWS runs of equally many ops of calibrated ops per second."""
        times = self.calibrated_times()
        size = max(1, len(times) // WINDOWS)
        return statistics.median(size / sum(times[w * size:(w + 1) * size])
                                 for w in range(min(WINDOWS, len(times))))


def measure(work, seconds: float, min_ops: int, tracer=None) -> Sample:
    """Closed loop: run, time and check ops for `seconds` and at least `min_ops`."""
    call = tracer.call if tracer else workloads.direct
    sample = Sample()
    start = time.perf_counter()
    op_s = ref_s = 0.0
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= LOOP_CAP_S or (elapsed >= seconds and i >= min_ops):
            break
        inp = work.prepare(i)
        if tracer:
            tracer.begin_op(i)
        t0 = time.perf_counter_ns()
        try:
            res = work.op(inp, call)
        except Exception as exc:  # a raising op is a failed op; the run goes on
            res, bad = None, [f"{type(exc).__name__}: {exc}"]
        t1 = time.perf_counter_ns()
        if tracer:
            tracer.end_op(t0, t1)
        if res is not None:
            try:
                bad = work.check(inp, res)
            except Exception as exc:  # a result the oracle cannot read is a failed op
                bad = [f"oracle check raised {type(exc).__name__}: {exc}"]
            if tracer:
                for dec, metric in res.spaces:
                    tracer.call(tracing.FRAME_PROBE, homgeo.Frame, dec, metric)
        sample.times.append((t1 - t0) / 1e9)
        op_s += sample.times[-1]
        for _ in range(calibrate.MAX_REFS_PER_OP):
            if ref_s > calibrate.REF_SHARE * op_s:
                break
            sample.refs.append((i, calibrate.time_reference()))
            ref_s += sample.refs[-1][1]
        if bad:
            sample.failed += 1
            if len(sample.problems) < 5:
                sample.problems.append(f"op {i}: " + "; ".join(bad[:3]))
        i += 1
    return sample


def end_to_end(sample: Sample, setup_s: float) -> dict:
    times_ms = np.asarray(sample.calibrated_times()) * 1e3
    return {
        "ops_per_s": sample.ops_per_s(),
        "op_p50_ms": float(np.percentile(times_ms, 50)),
        "op_p90_ms": float(np.percentile(times_ms, 90)),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas(module) -> str:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def run_record(name: str, seed: int, seconds: int, trace: int, input_hash: str) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "input_hash": input_hash,
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(np),
        "scipy_blas": _blas(scipy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loop": "closed, one caller",
    }
