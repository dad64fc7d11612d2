"""Runnable invariant suite over the catalog.

Every check re-derives a structural identity from raw bracket data and
measures the residual: curvature symmetries, agreement of independent
curvature formulas, trace-form identities, foliation geometry, and the
constraint families of the block-metric quotients, whose spans, split
dimensions and cones are read from the catalog's model data.  The runner
reports pass/fail results in a deterministic order; `verify-all` on the
command line is a thin wrapper around run_all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import _BLOCK_MODELS, build, default_entries
from .config import DEFAULT_SEED, DEFAULT_TOL, _residual_text, bound, tolerance
from .curvature import (
    _plane,
    _quartic_form,
    _r4_pair,
    curvature_diagonal_general,
    cyclic_curvature_diagonal,
    einstein_check,
    killing_quadratic_via_brackets,
    sectional_curvature,
    xi_curvatures,
)
from .errors import HomgeoError
from .lie import killing_form, trace_vector
from .reductive import Frame, InvariantMetric, closedness_residual
from .spectrum import _block_couplings, flat_section_witness, solve_cyclic, theta_split
from .structure import (
    StructureTensor,
    TorsionTensor,
    classify,
    contract_12,
    decompose,
    structure_to_torsion,
    torsion_to_structure,
    trace_form,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    results: tuple
    tolerance: float
    seed: int

    @property
    def passed_count(self) -> int:
        return sum(1 for r in self.results if r.passed)

    @property
    def failed_count(self) -> int:
        return len(self.results) - self.passed_count

    @property
    def ok(self) -> bool:
        return self.failed_count == 0

    def lines(self) -> list:
        out = [f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}"
               for r in self.results]
        out.append(f"{self.passed_count} passed, {self.failed_count} failed "
                   f"(tolerance {self.tolerance:g}, seed {self.seed})")
        return out

    def to_json_dict(self) -> dict:
        return {
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail}
                for r in self.results
            ],
            "passed": self.passed_count,
            "failed": self.failed_count,
            "ok": self.ok,
            "tolerance": self.tolerance,
            "seed": self.seed,
        }


def _result(name: str, residual: float, scale: float = 1.0) -> CheckResult:
    limit = bound(name, scale)
    return CheckResult(name, residual <= limit, _residual_text(residual, limit))


def _is_unimodular(algebra, tol) -> bool:
    return float(np.abs(trace_vector(algebra)).max()) <= tol


def _is_abelian(algebra, tol) -> bool:
    return float(np.abs(algebra.tensor).max()) <= tol


# --- per-entry checks ---------------------------------------------------


def _check_classification(entry, frame, rng):
    report = classify(frame)
    bad = entry.expected.mismatches(report)
    if bad:
        got = {k: report.booleans()[k] for k in bad if k != "eta"}
        return [CheckResult("classification", False,
                            f"fields {bad} disagree, computed {got}")]
    return [CheckResult("classification", True,
                        "labels and trace form match the catalog")]


def _check_curvature_symmetries(entry, frame, rng):
    scale = max(1.0, float(np.abs(frame.r4).max()))
    return [_result("curvature_symmetries", frame.r4_defect, scale)]


def _unit_rows(rng, shape):
    """Standard normal draws, each row along the last axis scaled to unit length.

    The rows are filled in order, so a stack draws the same numbers as
    drawing its rows one vector at a time.
    """
    v = rng.standard_normal(shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _check_diagonal_routes(entry, frame, rng):
    pairs = _unit_rows(rng, (20, 2, frame.n))
    x, y = pairs[:, 0], pairs[:, 1]
    from_tensor = np.einsum("sa,sac,sc->s", x, _quartic_form(frame.r4, y), x)
    gaps = [curvature_diagonal_general(frame, None, x, y) - from_tensor]
    if entry.expected.cyclic:
        gaps.append(cyclic_curvature_diagonal(frame, None, x, y) - from_tensor)
    worst = float(np.abs(gaps).max())
    return [_result("diagonal_routes", worst)]


def _check_ricci_routes(entry, frame, rng):
    keys = sorted(frame.ricci_routes)
    return [CheckResult("ricci_routes", True,
                        f"routes {keys} agree within {frame.ricci_gap:.3e}")]


def _check_killing_identity(entry, frame, rng):
    b_full = killing_form(entry.algebra)
    x = _unit_rows(rng, (10, frame.n))
    xg = frame.g_coords(x)
    expected = np.einsum("si,ij,sj->s", xg, b_full, xg)
    got = killing_quadratic_via_brackets(frame, x)
    worst = float(np.abs(got - expected).max())
    return [_result("killing_identity", worst)]


def _check_scaling_covariance(entry, frame, rng):
    """K(t g) = K(g) / t at t = 0.5 and 2, on one seeded plane.

    The plane is spanned by the Gram-Schmidt pair of the two columns of
    an (n, 2) standard normal draw from rng, in m-index coordinates, so
    it is never degenerate and it is not a coordinate plane, on which
    the commutator term of R4(x, y, x, y) can vanish.  K(g) is read from
    the entry's R4.  Each rescaled metric goes through its own Frame
    (Cholesky, connection), and K(t g) is contracted from that Frame's
    connection without forming its R4, so the check also ties the two
    routes together.
    """
    if frame.n < 2:  # a 1-dimensional m has no plane
        return []
    x, y = rng.standard_normal((frame.n, 2)).T
    x = x / math.sqrt(x @ x)
    y = y - (x @ y) * x
    y = y / math.sqrt(y @ y)
    base = sectional_curvature(frame, None, x, y)
    worst = 0.0
    for t in (0.5, 2.0):
        scaled = Frame(entry.decomposition, InvariantMetric(t * entry.metric.matrix), frame.tol)
        xf, yf, area2 = _plane(scaled, x, y)
        got = _r4_pair(scaled, xf, yf) / area2
        worst = max(worst, abs(got - base / t))
    return [_result("scaling_covariance", worst, max(1.0, abs(base)))]


def _check_closedness(entry, frame, rng):
    res = closedness_residual(frame)
    return [_result("closedness", res)]


def _check_trace_form(entry, frame, rng):
    eta2 = trace_form(TorsionTensor(-frame.lte))
    res = float(np.abs(eta2 - frame.eta).max())
    return [_result("canonical_trace_form", res, max(1.0, frame.c))]


def _check_structure_tensor(entry, frame, rng):
    s = StructureTensor(frame.s)
    scale = max(1.0, float(np.abs(s.components).max()))
    t = structure_to_torsion(s)
    round_trip = float(np.abs(torsion_to_structure(t).components
                              - s.components).max())
    eta_gap = float(np.abs(contract_12(s.components) - frame.eta).max())

    d = frame.types
    parts = {"s1": d.s1, "s2": d.s2, "s3": d.s3}
    recon = float(np.abs(d.s1 + d.s2 + d.s3 - s.components).max())
    idem = 0.0
    for slot, comp in parts.items():
        if float(np.abs(comp).max()) <= bound("negligible_part", scale):
            continue
        again = decompose(comp)
        own = getattr(again, slot)
        others = [getattr(again, k) for k in parts if k != slot]
        idem = max(idem, float(np.abs(own - comp).max()),
                   *(float(np.abs(o).max()) for o in others))
    res = max(round_trip, eta_gap, recon, idem)
    return [_result("structure_decomposition", res, scale)]


def _check_foliation(entry, frame, rng):
    if _is_unimodular(entry.algebra, frame.tol):
        return []
    fol = frame.foliation
    # h_mean against the mean of the second fundamental form h = h_coeff xi
    mean = np.trace(fol.h_coeff) * fol.xi / (frame.n - 1)
    res = float(np.abs(fol.h_mean - mean).max())
    out = [_result("foliation_mean_curvature", res, max(1.0, frame.c))]
    if entry.expected.cyclic:
        s_xi = np.einsum("a,abc->bc", fol.xi, frame.s)
        out.append(_result("foliation_s_xi", float(np.abs(s_xi).max()), max(1.0, frame.c)))
        rep = xi_curvatures(frame)
        out.append(_result("xi_radial_identity", rep.radial_residual, max(1.0, frame.c ** 2)))
        negative = min(rep.sectional) < -bound("xi_negative_curvature")
        out.append(CheckResult(
            "xi_negative_curvature", negative,
            f"min K(X, xi) = {min(rep.sectional):.6g}"))
    return out


def _check_einstein_obstruction(entry, frame, rng):
    if not (entry.expected.cyclic
            and _is_unimodular(entry.algebra, frame.tol)
            and not _is_abelian(entry.algebra, frame.tol)):
        return []
    rep = einstein_check(frame)
    return [CheckResult(
        "no_unimodular_cyclic_einstein", not rep.is_einstein,
        f"Einstein deviation {rep.deviation:.6g}")]


def _check_grading_relations(entry, frame, rng):
    if entry.grading is None:
        return []
    coupling = _block_couplings(entry.algebra, entry.grading)
    allowed = np.zeros(coupling.shape, dtype=bool)
    for a, b, part in entry.spans or ():
        allowed[a, b, part] = allowed[b, a, part] = True
    res = float(coupling[~allowed].max(initial=0.0))
    return [_result("grading_relations", res)]


_ENTRY_CHECKS = (
    _check_classification,
    _check_curvature_symmetries,
    _check_diagonal_routes,
    _check_ricci_routes,
    _check_killing_identity,
    _check_scaling_covariance,
    _check_closedness,
    _check_trace_form,
    _check_structure_tensor,
    _check_foliation,
    _check_einstein_obstruction,
    _check_grading_relations,
)


# --- model-level checks -------------------------------------------------


def _model_checks(models=_BLOCK_MODELS):
    results = []
    for model in models:
        alg, grading, theta = model.build()
        split = theta_split(alg, theta)
        dims = (split.k_basis.shape[1], split.m_basis.shape[1])
        want = (len(grading.k_indices(alg.dim)), len(grading.m_indices))
        results.append(CheckResult(
            f"models::{model.name}_theta_split", dims == want,
            f"dim k = {dims[0]}, dim m = {dims[1]}"))

        # the cyclic family is the cone's span, coupled as the spans say
        fam = solve_cyclic(alg, grading)
        cone = np.array(model.cone, dtype=float).T
        coeff = np.linalg.lstsq(fam.null_basis, cone, rcond=None)[0]
        in_span = float(np.abs(fam.null_basis @ coeff - cone).max()) <= bound("cone_span")
        triples = sorted({tuple(sorted(t)) for t in model.spans if t[2] < len(grading.blocks)})
        ok = (fam.feasible and fam.dimension == np.linalg.matrix_rank(cone) and in_span
              and list(fam.triples) == triples)
        results.append(CheckResult(
            f"models::{model.name}_cyclic_family", ok,
            f"{fam.description}, feasible {fam.feasible}"))

    gentry = build("g", alpha=(0.5, 1.0, 2.0))
    eigen = [(a, i) for i, a in enumerate(gentry.params["alpha"], start=1)]
    pair = flat_section_witness(gentry.algebra, eigen)
    results.append(CheckResult(
        "models::flat_section_witness", pair == (0, 1),
        f"commuting pair {pair}"))
    return results


# --- runner -------------------------------------------------------------


def run_all(tol=DEFAULT_TOL, seed=DEFAULT_SEED, entries=None) -> VerificationReport:
    """Run every invariant check over the catalog entries.

    Results are sorted by check name; a HomgeoError inside a check is
    reported as a failure of that check rather than aborting the run.
    Every Frame an entry's checks read is built at tol, which must be
    finite and nonnegative (ParamOutOfRange): the entry's own and the
    two rescaled spaces of the scaling check.
    """
    tol = tolerance(tol)
    if entries is None:
        entries = default_entries()

    results = []
    for pos, entry in enumerate(entries):
        rng = np.random.default_rng(seed + 101 * pos)
        label = entry.label  # formatted from the params on every read
        try:
            frame = Frame(entry.decomposition, entry.metric, tol)
        except HomgeoError as exc:
            results.append(CheckResult(f"{label}::frame", False,
                                       f"{type(exc).__name__}: {exc}"))
            continue
        for check in _ENTRY_CHECKS:
            name = check.__name__.removeprefix("_check_")
            try:
                for res in check(entry, frame, rng):
                    results.append(CheckResult(
                        f"{label}::{res.name}", res.passed, res.detail))
            except HomgeoError as exc:
                results.append(CheckResult(
                    f"{label}::{name}", False,
                    f"{type(exc).__name__}: {exc}"))
    try:
        results.extend(_model_checks())
    except HomgeoError as exc:
        results.append(CheckResult("models::suite", False,
                                   f"{type(exc).__name__}: {exc}"))

    results.sort(key=lambda r: r.name)
    return VerificationReport(results=tuple(results), tolerance=tol, seed=seed)
