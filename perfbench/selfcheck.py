"""Self-check of the benchmark itself; it times nothing.

    python3 perfbench/selfcheck.py

Checks, from the root of a checkout:
  1. every workload passes a short run with no failed op, untraced and
     traced, and prints exactly the metric names BENCHMARK.json lists;
  2. a deliberately wrong oracle (for example a Milnor mu with its sign
     flipped) makes ops of that workload fail;
  3. the same seed reproduces the input hash and another seed changes it.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def _flipped_mu(lam_p):
    mu = 0.5 * sum(lam_p) - lam_p
    mu[0] = -mu[0]
    return mu


def _sabotage(workloads) -> dict:
    """workload -> (module attribute, wrong value, what is wrong)."""
    np = workloads.np
    return {
        "milnor_sweep": ("milnor_mu", _flipped_mu, "Milnor mu_0 with its sign flipped"),
        "solvable_large": ("solvable_ricci_spectrum",
                           lambda alpha: 1.001 * np.sort(np.append(
                               -(alpha ** 2).sum(), -alpha * alpha.sum())),
                           "g(alpha) Ricci spectrum scaled by 1.001"),
        "catalog_report": ("milnor_ricci", lambda lam_p: -np.eye(3),
                           "milnor3 Ricci replaced by -identity"),
        "verify_all": ("VERIFY_CHECKS", workloads.VERIFY_CHECKS + 1, "one check too many"),
    }


def main() -> int:
    run.use_checkout_program()
    import harness
    import tracing
    import workloads

    sabotage = _sabotage(workloads)
    with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    want_e2e = {m["name"] for m in spec["end_to_end"]}
    want_layer = {m["name"] for m in spec["per_layer"]}
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    harness.OUT.mkdir(parents=True, exist_ok=True)
    for name in workloads.WORKLOADS:
        workdir = harness.workdir_for(name, 1)
        try:
            work = harness.setup(name, 1, workdir)
            plain = harness.measure(work, 1.0, harness.WINDOWS)
            expect(plain.failed == 0, f"{name}: {len(plain.times)} ops, none failed "
                                      f"{plain.problems[:1]}")
            expect(set(harness.end_to_end(plain, 1.0)) == want_e2e,
                   f"{name}: end-to-end metric names match BENCHMARK.json")
            tracer = tracing.Tracer()
            traced = harness.measure(work, 0.5, 3, tracer)
            layer = set(tracing.summarize(tracer.spans)) | {"trace.overhead_frac"}
            expect(traced.failed == 0 and layer == want_layer,
                   f"{name}: traced run passes, per-layer names match BENCHMARK.json")

            attr, wrong, what = sabotage[name]
            right = getattr(workloads, attr)
            setattr(workloads, attr, wrong)
            try:
                bad = harness.measure(work, 0.0, min(work.pool_size, 64))
            finally:
                setattr(workloads, attr, right)
            expect(bad.failed > 0, f"{name}: wrong oracle ({what}) fails "
                                   f"{bad.failed} of {len(bad.times)} ops")

            again = workloads.make(name, 1, str(workdir)).input_hash
            other = workloads.make(name, 2, str(workdir)).input_hash
            expect(again == work.input_hash and other != work.input_hash,
                   f"{name}: seed 1 reproduces its input hash, seed 2 changes it")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
