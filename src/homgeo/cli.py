"""Command-line front end.

Subcommands: classify and curvature take a space file; solve-cyclic
takes an algebra file plus a grading sidecar; catalog lists or builds
the bundled examples; verify-all runs the invariant suite.  Output is
human text by default or JSON with --format json; exit code 0 on
success, 1 on invalid input, 2 when an internal cross-check or a
verification check fails.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import catalog as _catalog
from . import verify as _verify
from .config import DEFAULT_SEED, DEFAULT_TOL
from .curvature import curvature_tensor, einstein_check, ricci_routes, xi_curvatures
from .errors import ConsistencyError, NotCyclic, UnimodularInput, ValidationError
from .io import load_algebra, load_grading, load_space, space_to_dict
from .reductive import Frame
from .spectrum import solve_cyclic
from .structure import classify


def _matrix(a) -> list:
    return [[float(v) for v in row] for row in np.asarray(a)]


def _vector(a) -> list:
    return [float(v) for v in np.asarray(a)]


def primary_class(report) -> str:
    """The finest class label a report supports, for the text view."""
    if report.symmetric:
        return "symmetric (S = 0)"
    if report.naturally_reductive:
        return "naturally reductive (S3)"
    if report.vectorial:
        return "vectorial (S1)"
    if report.traceless_cyclic:
        return "traceless cyclic (S2)"
    if report.cyclic:
        return "cyclic (S1 + S2)"
    return "outside the cyclic and naturally reductive classes"


# --- subcommand handlers ------------------------------------------------


def _cmd_classify(args):
    space = load_space(args.space, tol=args.tolerance)
    report = classify(Frame(space.decomposition, space.metric, args.tolerance))
    payload = {
        "command": "classify",
        "space": space.name or args.space,
        "report": report.to_json_dict(),
        "residuals": {k: float(v) for k, v in report.residuals.items()},
    }

    lines = [f"space: {payload['space']}",
             f"dim k = {len(space.decomposition.k_indices)}, "
             f"dim m = {len(space.decomposition.m_indices)}"]
    norms = report.norms
    lines.append("component norms: " + "  ".join(
        f"|{k.upper()}| = {norms[k]:.6e}" for k in ("s1", "s2", "s3")))
    lines.append("eta on the m basis: "
                 + "[" + ", ".join(f"{v + 0.0:.6g}" for v in report.eta) + "]")
    lines.append("decision tree (residual vs tolerance "
                 f"{args.tolerance:g}):")
    for key in ("symmetric", "naturally_reductive", "vectorial",
                "cyclic", "traceless"):
        res = report.residuals[key]
        verdict = "holds" if report.booleans()[key] else "fails"
        lines.append(f"  {key:<20s} {res:.3e}  {verdict}")
    tc = "holds" if report.traceless_cyclic else "fails"
    lines.append(f"  {'traceless_cyclic':<20s} traceless and cyclic and "
                 f"S != 0  {tc}")
    lines.append(f"class: {primary_class(report)}")
    return payload, lines, 0


def _cmd_curvature(args):
    space = load_space(args.space, tol=args.tolerance)
    frame = Frame(space.decomposition, space.metric, args.tolerance)
    r4 = curvature_tensor(frame)
    n = frame.n

    planes = []
    for a in range(n):
        for b in range(a + 1, n):
            planes.append(((a, b), float(r4[a, b, a, b])))
    if planes:
        (pmin, kmin) = min(planes, key=lambda p: p[1])
        (pmax, kmax) = max(planes, key=lambda p: p[1])
        extrema = {
            "min": {"plane": list(pmin), "value": kmin},
            "max": {"plane": list(pmax), "value": kmax},
        }
    else:
        extrema = None

    routes = ricci_routes(frame)
    ein = einstein_check(frame)
    payload = {
        "command": "curvature",
        "space": space.name or args.space,
        "sectional_extrema": extrema,
        "ricci": _matrix(ein.ricci),
        "ricci_routes": sorted(routes),
        "scalar": float(np.trace(ein.ricci)),
        "einstein": {
            "constant": float(ein.einstein_constant),
            "deviation": float(ein.deviation),
            "is_einstein": bool(ein.is_einstein),
        },
    }
    try:
        rep = xi_curvatures(frame)
        payload["xi_block"] = {
            "c": float(rep.c),
            "kappa": float(rep.kappa),
            "umbilical": bool(rep.umbilical),
            "sectional": _vector(rep.sectional),
            "radial_residual": float(rep.radial_residual),
        }
    except (NotCyclic, UnimodularInput) as exc:
        payload["xi_block"] = None
        payload["xi_block_reason"] = f"{type(exc).__name__}: {exc}"

    lines = [f"space: {payload['space']}"]
    if extrema:
        lines.append(
            f"sectional over basis planes: min {kmin:.6g} on plane {pmin}, "
            f"max {kmax:.6g} on plane {pmax}")
    lines.append("ricci (frame components, routes "
                 + ", ".join(payload["ricci_routes"]) + "):")
    for row in payload["ricci"]:
        lines.append("  [" + ", ".join(f"{v: .6g}" for v in row) + "]")
    lines.append(f"scalar curvature: {payload['scalar']:.6g}")
    e = payload["einstein"]
    lines.append(f"einstein: constant {e['constant']:.6g}, deviation "
                 f"{e['deviation']:.3e}, is_einstein {e['is_einstein']}")
    if payload["xi_block"]:
        x = payload["xi_block"]
        lines.append(f"K(., xi): c = {x['c']:.6g}, kappa = {x['kappa']:.6g}, "
                     f"umbilical {x['umbilical']}")
        lines.append("  sectional: ["
                     + ", ".join(f"{v:.6g}" for v in x["sectional"]) + "]")
    else:
        lines.append(f"K(., xi): not defined ({payload['xi_block_reason']})")
    return payload, lines, 0


def _cmd_solve_cyclic(args):
    algebra = load_algebra(args.algebra, tol=args.tolerance)
    grading = load_grading(args.grading)
    family = solve_cyclic(algebra, grading)
    payload = {
        "command": "solve-cyclic",
        "blocks": [list(b) for b in grading.blocks],
        "signs": list(grading.signs),
        "triples": [list(t) for t in family.triples],
        "constraints": [_vector(row) for row in family.constraints],
        "dimension": int(family.dimension),
        "feasible": bool(family.feasible),
        "basis": [_vector(family.null_basis[:, j])
                  for j in range(family.null_basis.shape[1])],
        "sample": _vector(family.sample) if family.sample is not None else None,
        "description": family.description,
    }

    lines = [f"blocks: {payload['blocks']}  signs: {payload['signs']}",
             f"active triples: {payload['triples'] or 'none'}"]
    if payload["constraints"]:
        lines.append("constraints (rows annihilate the coefficients):")
        for row in payload["constraints"]:
            lines.append("  [" + ", ".join(f"{v:g}" for v in row) + "]")
    else:
        lines.append("constraints: none")
    lines.append(f"solution family: {payload['description']}, "
                 f"dimension {payload['dimension']}, "
                 f"feasible {payload['feasible']}")
    for vec in payload["basis"]:
        lines.append("  basis [" + ", ".join(f"{v:.6g}" for v in vec) + "]")
    if payload["sample"] is not None:
        lines.append("  sample ["
                     + ", ".join(f"{v:.6g}" for v in payload["sample"]) + "]")
    return payload, lines, 0


def _cmd_catalog(args):
    if args.action == "list":
        names = _catalog.list_entries()
        payload = {"command": "catalog-list", "entries": names}
        return payload, list(names), 0
    params = json.loads(args.params) if args.params else {}
    if not isinstance(params, dict):
        raise ValidationError("--params must be a JSON object")
    entry = _catalog.build(args.name, **params)
    payload = space_to_dict(entry.decomposition, entry.metric,
                            grading=entry.grading, name=entry.label)
    payload["expected"] = entry.expected.booleans()
    lines = [f"built {entry.label}",
             f"dim k = {len(entry.decomposition.k_indices)}, "
             f"dim m = {len(entry.decomposition.m_indices)}",
             "expected: " + ", ".join(
                 k for k, v in entry.expected.booleans().items() if v)]
    lines.append(json.dumps(payload, indent=2))
    return payload, lines, 0


def _cmd_verify_all(args):
    report = _verify.run_all(tol=args.tolerance, seed=args.seed)
    payload = report.to_json_dict()
    payload["command"] = "verify-all"
    return payload, report.lines(), 0 if report.ok else 2


# --- parser and entry point ----------------------------------------------

# the options main echoes in the metadata and the text footer, with their text format
_ECHOED = {"tolerance": "{:g}", "seed": "{}"}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default text)")
    tolerant = argparse.ArgumentParser(add_help=False, parents=[common])
    tolerant.add_argument("--tolerance", type=float, default=DEFAULT_TOL,
                          help=f"numeric tolerance (default {DEFAULT_TOL:g})")

    parser = argparse.ArgumentParser(
        prog="homgeo",
        description="Classification and curvature of reductive homogeneous "
                    "spaces given by structure constants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[tolerant],
                       help="classify a space file")
    p.add_argument("space", help="path to a space JSON file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("curvature", parents=[tolerant],
                       help="curvature report for a space file")
    p.add_argument("space", help="path to a space JSON file")
    p.set_defaults(func=_cmd_curvature)

    p = sub.add_parser("solve-cyclic", parents=[tolerant],
                       help="solve the cyclic condition on a block-metric family")
    p.add_argument("algebra", help="path to an algebra JSON file")
    p.add_argument("--grading", required=True,
                   help="path to a grading JSON file (blocks and signs)")
    p.set_defaults(func=_cmd_solve_cyclic)

    p = sub.add_parser("catalog", parents=[common],
                       help="list or build bundled example spaces")
    p.add_argument("action", choices=("list", "build"))
    p.add_argument("name", nargs="?", help="entry name for build")
    p.add_argument("--params", help="JSON object of builder parameters")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("verify-all", parents=[tolerant],
                       help="run the invariant suite over the catalog")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"random seed of the sampled checks (default {DEFAULT_SEED})")
    p.set_defaults(func=_cmd_verify_all)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "catalog" and args.action == "build" and not args.name:
        parser.error("catalog build needs an entry name")
    try:
        payload, lines, code = args.func(args)
    except ConsistencyError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 1

    # echo the options this subcommand has, and only those
    echo = {name: getattr(args, name) for name in _ECHOED if name in args}
    payload["metadata"] = echo
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
        if echo:
            print("[" + ", ".join(f"{name} " + _ECHOED[name].format(value)
                                  for name, value in echo.items()) + "]")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
