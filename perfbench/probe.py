"""Set-up probe, started by run.py in a fresh interpreter.

    python3 perfbench/probe.py WORKLOAD SEED

Imports homgeo, generates the workload's inputs from the seed, runs one
checked warm-up op, then prints ``ready <input hash>`` and exits.
"""

import shutil
import sys

import run

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    run.use_checkout_program()
    import harness

    workdir = harness.workdir_for(name, seed)
    try:
        work = harness.setup(name, seed, workdir)
        print("ready", work.input_hash, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
