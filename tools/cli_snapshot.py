"""Write a fixed set of homgeo CLI outputs to a directory, for diffing.

    python tools/cli_snapshot.py OUTDIR

Writes, from the checkout this script sits in:

- the 15 default catalog entries as space files (spaces/<label>.json,
  with the label's brackets, commas and spaces turned into underscores);
- classify and curvature --format json on each, at --tolerance 1e-9
  and 1e-6;
- verify-all --format json at both tolerances, at 1e-12, which lies
  below the floors verify once put under a run's tolerance (1e-8 for
  the classification check, 1e-10 for the unimodular and abelian
  guards), so a decision that moves between a floor and the tolerance
  shows up, and at 0, where only the check rows' roundoff floors are
  left; and at the default tolerance with --seed 1 and --seed 2,
  so more sample draws are compared;
- solve-cyclic --format json on the su(2,1) and sp(1,1) models with
  their gradings, at both tolerances;
- solve-cyclic --format json on the su(2,1) space with two gradings
  whose indices fall outside the algebra (one too large, one negative),
  and with one whose blocks are not Killing-orthogonal;
- classify --format json on three spaces it must refuse at a residual
  check: brackets that fail Jacobi, a splitting that is not reductive,
  and so2_heisenberg with a metric that is not rotation-invariant;
- catalog build --format json for each of the 8 builders at two points
  away from the defaults, and for nine parameter sets it must refuse:
  an unknown parameter, a missing one, a boolean in place of a number
  for a scalar, a list entry and the b4_product sign, and JSON's NaN or
  Infinity for a scalar of each 3-symmetric model, another scalar and a
  list entry;
- exit_codes.txt: one line per command with its exit code.

Each output file holds the command's stdout followed by its stderr, so
an error message is compared too.  An exception that escapes the CLI is
written as `uncaught <type>: <message>`, with exit code `uncaught`.
Two checkouts give the same CLI behaviour on these inputs when `diff -r`
finds no difference between their snapshots.  OpenBLAS runs one thread
unless OPENBLAS_NUM_THREADS is set.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from homgeo import InvariantMetric, build, cli, default_entries  # noqa: E402
from homgeo.io import dump_space, grading_to_dict, space_to_dict  # noqa: E402

TOLERANCES = ("1e-9", "1e-6")
VERIFY_TOLERANCES = TOLERANCES + ("1e-12", "0")
CATALOG_BUILDS = (
    ("milnor3", {"lam": [0.0, 0.0, 0.0]}),
    ("milnor3", {"lam": [-1.0, 2.0, 0.5]}),
    ("g", {"alpha": [1.0, 1.0, -2.0]}),
    ("g", {"alpha": [0.5, -3.0]}),
    ("so2_heisenberg", {"lam3": 2.5}),
    ("so2_heisenberg", {"lam3": 0.25}),
    ("r_heisenberg", {"alpha": -0.5, "lam3": 2.0}),
    ("r_heisenberg", {"alpha": 3.0, "lam3": 0.5}),
    ("b2_product", {"rho": 1.0, "sigma": -3.0, "lam": 0.5}),
    ("b2_product", {"rho": -2.0, "sigma": 0.5, "lam": 2.0}),
    ("b4_product", {"alpha": -0.5, "c": 2.0, "sign": -1}),
    ("b4_product", {"alpha": 2.0, "c": 0.5, "sign": 1}),
    ("su21_a3ii", {"lam": 0.5, "mu": 2.0}),
    ("su21_a3ii", {"lam": 3.0, "mu": 0.25}),
    ("sp11_a3iii", {"mu": 0.75}),
    ("sp11_a3iii", {"mu": 2.5}),
    ("milnor3", {"lam": [1.0, 1.0, 1.0], "extra": 2}),
    ("r_heisenberg", {"alpha": 1.0}),
    ("so2_heisenberg", {"lam3": True}),
    ("g", {"alpha": [True]}),
    ("b4_product", {"alpha": 1.0, "c": 1.0, "sign": True}),
    ("sp11_a3iii", {"mu": float("nan")}),
    ("su21_a3ii", {"lam": float("inf"), "mu": 1.0}),
    ("so2_heisenberg", {"lam3": -float("inf")}),
    ("milnor3", {"lam": [1.0, float("nan"), 2.0]}),
)
BAD_GRADINGS = (
    ("large", {"blocks": [[2, 3], [4, 5], [6, 99]], "signs": [-1, 1, 1]}),
    ("negative", {"blocks": [[2, 3], [4, 5], [-2, -1]], "signs": [-1, 1, 1]}),
    # the isotropy directions 0 and 1 as two blocks: B(e0, e1) = -6
    ("not-orthogonal", {"blocks": [[0], [1], [2, 3], [4, 5], [6, 7]],
                        "signs": [-1, -1, -1, 1, 1]}),
)
SOLVE_CYCLIC = ("su21_a3ii", "sp11_a3iii")
VERIFY_SEEDS = ("1", "2")


def refused_spaces() -> dict:
    """Space documents that classify must refuse, by file name."""
    so2 = build("so2_heisenberg", lam3=1.0).decomposition
    return {
        "jacobi": {  # [e0, e1] = e2, [e1, e2] = e1: residual 1
            "algebra": {"dim": 3, "brackets": [{"i": 0, "j": 1, "out": {"2": 1.0}},
                                               {"i": 1, "j": 2, "out": {"1": 1.0}}]},
            "decomposition": {"k": [], "m": [0, 1, 2]},
            "metric": {"diag": [1.0, 1.0, 1.0]},
        },
        "not-reductive": {  # Heisenberg with k = (0, 1): [k, k] leaks into m
            "algebra": {"dim": 3, "brackets": [{"i": 0, "j": 1, "out": {"2": 1.0}}]},
            "decomposition": {"k": [0, 1], "m": [2]},
            "metric": {"diag": [1.0]},
        },
        "not-invariant": space_to_dict(so2, InvariantMetric.from_diag([1.0, 2.0, 3.0])),
    }


def slug(label: str) -> str:
    """A catalog label as a file name: g(alpha=[1.0, -1.0]) -> g_alpha=_1.0_-1.0_."""
    return re.sub(r"[^A-Za-z0-9.=-]+", "_", label)


def run(out: Path, name: str, argv: list[str], codes: list[str]) -> None:
    """Run the CLI in-process on argv and write its output to out/name."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is an output to compare, not the end
            print(f"uncaught {type(exc).__name__}: {exc}", file=stderr)
            code = "uncaught"
    (out / name).write_text(stdout.getvalue() + stderr.getvalue(), encoding="utf-8")
    codes.append(f"{name} {code}")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 1
    out = Path(args[0])
    spaces = out / "spaces"
    spaces.mkdir(parents=True, exist_ok=True)
    codes: list[str] = []

    for entry in default_entries():
        label = slug(entry.label)
        path = spaces / f"{label}.json"
        dump_space(str(path), entry.decomposition, entry.metric,
                   grading=entry.grading, name=entry.label)
        for tol in TOLERANCES:
            for command in ("classify", "curvature"):
                run(out, f"{command}__{label}__{tol}.json",
                    [command, str(path), "--format", "json", "--tolerance", tol],
                    codes)
        if entry.grading is not None and entry.name in SOLVE_CYCLIC:
            grading = spaces / f"{label}.grading.json"
            grading.write_text(json.dumps(grading_to_dict(entry.grading)) + "\n",
                               encoding="utf-8")
            for tol in TOLERANCES:
                run(out, f"solve-cyclic__{label}__{tol}.json",
                    ["solve-cyclic", str(path), "--grading", str(grading),
                     "--format", "json", "--tolerance", tol], codes)
            if entry.name == "su21_a3ii":
                for which, doc in BAD_GRADINGS:
                    bad = spaces / f"{label}.grading-{which}.json"
                    bad.write_text(json.dumps(doc) + "\n", encoding="utf-8")
                    run(out, f"solve-cyclic__{label}__grading-{which}.json",
                        ["solve-cyclic", str(path), "--grading", str(bad),
                         "--format", "json"], codes)

    for which, doc in refused_spaces().items():
        path = spaces / f"refused-{which}.json"
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        run(out, f"classify__refused-{which}.json",
            ["classify", str(path), "--format", "json"], codes)

    for tol in VERIFY_TOLERANCES:
        run(out, f"verify-all__{tol}.json",
            ["verify-all", "--format", "json", "--tolerance", tol], codes)
    for seed in VERIFY_SEEDS:
        run(out, f"verify-all__seed{seed}.json",
            ["verify-all", "--format", "json", "--seed", seed], codes)
    for i, (name, params) in enumerate(CATALOG_BUILDS):
        run(out, f"catalog-build__{i:02d}_{name}.json",
            ["catalog", "build", name, "--params", json.dumps(params),
             "--format", "json"], codes)

    (out / "exit_codes.txt").write_text("\n".join(codes) + "\n", encoding="utf-8")
    print(f"{len(codes)} outputs in {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
