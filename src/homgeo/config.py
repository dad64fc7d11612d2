"""Shared numeric defaults and the one table of check bounds.

Every bound a residual is compared with is a named row of CHECKS, read
by the self-checks that raise, the decisions that only compare and
verify-all's results.  bound(name, scale, tol) of a SCALED row is
max(weight * tol, rel) * scale, of a FLOOR row max(weight * tol, rel *
scale): scale measures the site's data, tol is the tolerance of the
object checked (sqrt(tol) where a site reads that), weight is 0, 1 or 50.
check(name, residual, scale, tol) raises the row's error, "what:
residual R (bound B)", unless residual <= bound; a NaN fails.

A tolerance, finite and nonnegative (tolerance()), is passed in only
where an algebra or a Frame is built, and kept there: every check on an
algebra's brackets reads its tol, reductivity included, and every
decision on a space reads its Frame's (ClassificationReport.tol records
it).  load_space passes its tolerance to the algebra it builds, run_all
its own to every Frame it builds, and the CLI sets both with
--tolerance.  Whatever is built without one is built at DEFAULT_TOL.
"""

import math
from types import MappingProxyType
from typing import NamedTuple

from .errors import (ConsistencyError, IndexOutOfRange, InvalidMetric, JacobiViolation,
                     NotADerivation, NotAutomorphism, NotOrder3, NotReductive, ParamOutOfRange,
                     SlotSymmetryViolation)

DEFAULT_TOL = 1e-9

# Random sampling (route-equivalence spot checks, random unit pairs) is
# seeded so results are reproducible; the CLI exposes --seed.
DEFAULT_SEED = 1729


class Row(NamedTuple):
    """One named bound; check reads what, its message, and raises error."""

    rel: float
    weight: int = 0
    tol_scaled: bool = True
    what: str | None = None
    error: type = ConsistencyError


SCALED, FLOOR = True, False  # the two shapes

CHECKS = MappingProxyType({
    # lie: the bracket tensor, at the algebra's tolerance
    "jacobi": Row(0.0, 1, FLOOR, "Jacobi identity fails", JacobiViolation),
    "tensor_antisymmetry": Row(0.0, 1, FLOOR, "bracket tensor not antisymmetric",
                               IndexOutOfRange),
    "derivation": Row(0.0, 1, FLOOR, "matrix is not a derivation", NotADerivation),
    "unimodular_kernel": Row(1e-12, 1, SCALED, "unimodular kernel failed the ideal check"),
    "basis_roundoff": Row(1e-13),  # change_basis zeroes entries below it
    # reductive: the splitting, the metric and the Frame's tensors
    "reductive_kk": Row(0.0, 1, FLOOR, "splitting is not reductive ([k,k] leak)", NotReductive),
    "reductive_km": Row(0.0, 1, FLOOR, "splitting is not reductive ([k,m] leak)", NotReductive),
    "metric_symmetry": Row(1e-12, 0, SCALED, "metric is not symmetric", InvalidMetric),
    "frame_orthonormality": Row(1e-12, 0, SCALED, "frame is not orthonormal for the metric"),
    "ad_k_invariance": Row(0.0, 1, FLOOR, "metric is not ad_k-invariant", InvalidMetric),
    "connection_compatibility": Row(1e-11, 0, SCALED,
                                    "connection coefficients fail metric compatibility"),
    "connection_torsion": Row(1e-11, 0, SCALED,
                              "connection coefficients fail the torsion identity"),
    "curvature_symmetries": Row(1e-10, 0, SCALED,
                                "curvature tensor fails its algebraic symmetries"),
    "ricci_routes": Row(1e-9, 1, FLOOR, "Ricci routes '{ref}' and '{route}' disagree"),
    "ricci_operator": Row(1e-12, 0, SCALED, "Ricci route operator fails {part}"),
    "foliation_c": Row(1e-12, 1),  # c at most this is unimodular
    "foliation_rank": Row(1e-8, 1),  # at sqrt(tol): a column left out of ker eta
    "foliation_basis": Row(1e-12, 0, SCALED, "failed to build an orthonormal basis of ker eta"),
    "foliation_identities": Row(1e-10, 1, SCALED, "foliation identities failed"),
    # structure: tensors, the type split and classify's cross-check
    "structure_tensor_skew": Row(1e-12, 1, FLOOR, "structure tensor not antisymmetric in "
                                 "slots 2,3", SlotSymmetryViolation),
    "torsion_tensor_skew": Row(1e-12, 1, FLOOR, "torsion tensor not antisymmetric in "
                               "slots 1,2", SlotSymmetryViolation),
    "trace_form_identity": Row(1e-12, 1, FLOOR,
                               "trace form disagrees with the structure contraction"),
    "projector_idempotent": Row(1e-12, 0, SCALED, "type projectors are not idempotent"),
    "projector_orthogonal": Row(1e-12, 0, SCALED,
                                "type projectors are not mutually orthogonal"),
    "projector_sum": Row(1e-12, 0, SCALED,
                         "type projectors do not sum to the projector onto the S-space"),
    "split_reconstruction": Row(1e-11, 0, SCALED,
                                "type components do not reconstruct the tensor"),
    "split_orthogonality": Row(1e-11, 0, SCALED, "type components are not orthogonal"),
    "split_skew": Row(1e-11, 0, SCALED, "skew component is not totally skew"),
    "split_trace": Row(1e-11, 0, SCALED, "traceless component has a nonzero trace"),
    "split_cyclic": Row(1e-11, 0, SCALED, "traceless cyclic component has a cyclic sum"),
    "crosscheck_s3": Row(1e-10, 0, SCALED, "3 S3 does not equal minus half the cyclic sum "
                         "of the projected bracket"),
    "crosscheck_trace": Row(1e-11, 1, FLOOR, "c12(S) disagrees with the canonical trace form"),
    "crosscheck_norms": Row(1e-11, 50, SCALED,
                            "bracket-level classification disagrees with component norms"),
    # curvature
    "degenerate_plane": Row(1e-12, 1, SCALED),  # sin^2 of the angle, times |x|^2 |y|^2
    "einstein": Row(1e-9, 1, FLOOR),
    "xi_symmetry": Row(1e-10, 1, SCALED, "ad_xi on D is not symmetric on a cyclic space"),
    "umbilical": Row(1e-10, 1, FLOOR),
    # spectrum: block gradings, the chamber, order-3 maps, flat sections
    "block_killing_singular": Row(1e-12, 1, SCALED),
    "block_orthogonality": Row(1e-10, 1, SCALED, "blocks {bi} and {bj} are not "
                               "Killing-orthogonal", ParamOutOfRange),
    "chamber_floor": Row(1e-9),  # largest margin P y with a chamber point
    "chamber_margin": Row(1e-6),  # smallest margin, relative to the largest
    "chamber_point": Row(1e-8, 0, SCALED, "chamber point violates the cyclic constraints"),
    "gordan_certificate": Row(1e-9),  # |sum(y) - 1| and |N^T (eps y)|
    "theta_order3": Row(1e-10, 1, SCALED, "theta^3 is not the identity", NotOrder3),
    "theta_identity": Row(1e-10, 1, SCALED),
    "theta_automorphism": Row(1e-10, 1, SCALED, "theta does not respect the bracket",
                              NotAutomorphism),
    "theta_rank": Row(1e-8, 1, SCALED),  # at sqrt(tol): the rank of 1 + theta + theta^2
    "theta_splitting": Row(1e-9, 1, SCALED, "order-3 splitting identities failed"),
    "witness_consistency": Row(1e-10, 1, SCALED, "eigen data is inconsistent: [v_{i}, v_{j}] "
                               "does not vanish although the eigenvalues do not cancel",
                               ParamOutOfRange),
    "witness": Row(1e-10, 1, SCALED),
    "no_witness": Row(1e-10, 1, SCALED),
    # catalog
    "expected_eta": Row(1e-9, 1, FLOOR),
    "catalog_near": Row(1e-12),
    "model_closure": Row(1e-9, 0, SCALED,
                         "matrix basis is not closed under brackets at ({i},{j})"),
    "model_killing": Row(0.0, 1, FLOOR, "Killing form does not match six times the trace form"),
    "model_conjugation": Row(1e-9, 0, SCALED, "conjugation does not preserve the span"),
    # verify-all results, by check name, and curvature_symmetries above
    "diagonal_routes": Row(1e-8),
    "killing_identity": Row(1e-9),
    "scaling_covariance": Row(1e-9),
    "closedness": Row(1e-10),
    "canonical_trace_form": Row(1e-10),
    "structure_decomposition": Row(1e-10),
    "negligible_part": Row(1e-14),  # a type component this small is not decomposed again
    "foliation_mean_curvature": Row(1e-12),
    "foliation_s_xi": Row(1e-10),
    "xi_radial_identity": Row(1e-9),
    "xi_negative_curvature": Row(1e-6),
    "grading_relations": Row(1e-10),
    "cone_span": Row(1e-9),  # the cyclic family against its model's cone
})


def bound(name: str, scale=1.0, tol=0.0):
    """The bound of row name at this scale and tolerance."""
    rel, weight, tol_scaled, _, _ = CHECKS[name]
    tol = weight * tol
    # x if x > tol else tol is max(tol, x), NaN cases included, without a call
    if tol_scaled:
        return (rel if rel > tol else tol) * scale
    rel *= scale
    return rel if rel > tol else tol


def _residual_text(residual, limit) -> str:
    """The text "residual R (bound B)" that every residual check reports."""
    return f"residual {residual:.3e} (bound {limit:.1e})"


def check(name: str, residual, scale=1.0, tol=0.0, **fields) -> None:
    """Raise unless residual <= bound(name, scale, tol); fields fill the row's message."""
    limit = bound(name, scale, tol)
    if not residual <= limit:
        row = CHECKS[name]
        raise row.error(f"{row.what.format(**fields)}: {_residual_text(residual, limit)}")


def tolerance(tol) -> float:
    """tol as a float; ParamOutOfRange unless it is finite and nonnegative."""
    tol = float(tol)
    if not 0.0 <= tol < math.inf:
        raise ParamOutOfRange(f"tolerance must be finite and nonnegative, got {tol!r}")
    return tol
