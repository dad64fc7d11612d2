#!/usr/bin/env python3
"""homgeo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; homgeo is imported from its ``src``.
One process drives one workload as a closed loop with a single caller:
the next op starts only after the previous one has returned and been
checked against its oracle.  Ops are timed with ``time.perf_counter_ns``;
the oracle check and the preparation of each op's input lie outside the
op's time.  The loop runs for S seconds and at least 100 ops.
Times are calibrated to a nominal machine speed (see calibrate.py).

--trace 0 prints the end-to-end metrics.  setup_s is the median over
5 fresh interpreters, started one at a time before the timed
loop, of the time from interpreter start to the end of the first
(warm-up) op.  --trace 1 measures S/2 seconds untraced and S/2 traced,
and prints the per-layer metrics derived from the traced spans.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Run records and spans are
written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_program() -> None:
    """Import homgeo from this checkout's src, or exit without a result."""
    if not (SRC / "homgeo" / "__init__.py").is_file():
        print(f"perfbench: no homgeo package under {SRC}", file=sys.stderr)
        sys.exit(2)
    # One BLAS thread unless the caller chose otherwise; the benchmark
    # load is this one process.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(SRC))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    use_checkout_program()
    import harness
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    name, seed = args.workload, args.seed
    harness.OUT.mkdir(parents=True, exist_ok=True)
    workdir = harness.workdir_for(name, seed)
    try:
        probes = []
        if not args.trace:
            probes = [harness.probe_setup(name, seed) for _ in range(harness.SETUP_PROBES)]
        work = harness.setup(name, seed, workdir)
        if any(h != work.input_hash for _, _, h in probes):
            raise RuntimeError("a set-up probe generated different inputs from the seed")
        record = harness.run_record(name, seed, args.seconds, args.trace, work.input_hash)
        spans = None
        if not args.trace:
            sample = harness.measure(work, args.seconds, harness.MIN_OPS)
            attempted, failed, problems = len(sample.times), sample.failed, sample.problems
            metrics = harness.end_to_end(sample, statistics.median(t for _, t, _ in probes))
            units = harness.END_TO_END_UNITS
            record["setup_probes_raw_s"] = [t for t, _, _ in probes]
            record["samples"] = attempted
            record["raw_op_p50_ms"] = statistics.median(sample.times) * 1e3
            record["reference_p50_ms"] = statistics.median(t for _, t in sample.refs) * 1e3
        else:
            plain = harness.measure(work, args.seconds / 2, harness.MIN_TRACE_OPS)
            tracer = tracing.Tracer()
            traced = harness.measure(work, args.seconds / 2, harness.MIN_TRACE_OPS, tracer)
            spans = tracer.spans
            attempted = len(plain.times) + len(traced.times)
            failed = plain.failed + traced.failed
            problems = plain.problems + traced.problems
            metrics = tracing.summarize(spans)
            metrics["trace.overhead_frac"] = 1.0 - traced.ops_per_s() / plain.ops_per_s()
            units = {k: unit for k, (unit, _) in tracing.metric_specs().items()}
            record["samples"] = {"untraced": len(plain.times), "traced": len(traced.times)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record["failed_ops_frac"] = failed / attempted
    record["problems"] = problems
    record["metrics"] = metrics
    out_file = harness.OUT / f"{name}-seed{seed}-trace{args.trace}.json"
    with open(out_file, "w", encoding="utf-8") as handle:
        json.dump({"record": record, "spans": spans}, handle)

    print(f"workload {name}  seed {seed}  inputs {work.input_hash[:16]}  "
          f"sha {record['git_sha'][:12]}  nproc {record['nproc']}  "
          f"OPENBLAS_NUM_THREADS {record['OPENBLAS_NUM_THREADS']}")
    print(f"attempted {attempted}  failed {failed}  failed_ops_frac {failed / attempted}")
    for line in problems:
        print(f"  FAIL {line}")
    for key, value in metrics.items():
        print(f"{key} {value} {units[key]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
