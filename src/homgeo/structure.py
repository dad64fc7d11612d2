"""Homogeneous structure tensors and their type decomposition.

The structure tensor of a reductive splitting is S = (1/2) T^c - U,
where T^c is the canonical torsion and U the symmetric bilinear map of
the Levi-Civita connection.  Lowered with the metric, S is
antisymmetric in its last two slots; the associated torsion T is
antisymmetric in its first two.  Components throughout are taken with
respect to an orthonormal basis of (m, metric), so traces are plain
index contractions.

The orthogonal group splits the space of such tensors into three
irreducible pieces.  With phi(Z) = (1/max(n-1,1)) sum_a S_{a a Z}:

    S1_{XYZ} = <X,Y> phi(Z) - <X,Z> phi(Y)     (vectorial part)
    S3       = alternation of S                 (totally skew part)
    S2       = S - S1 - S3                      (traceless cyclic part)

For n <= 2 only the vectorial part exists; the same formulas give S2
and S3 as exact zeros there.

The classification booleans reported by classify are computed from the
brackets directly and cross-checked against the component norms.

The split, classify's residual tensors and the split's self-checks are
linear, and each is written once, as a formula on tensors stacked along
leading axes (_split_formula, _lte_formula, _check_formula).  Up to
n = _OPERATOR_MAX_N each formula is read through a dense matrix, the
formula applied to the unit tensors, built and verified on first use
and cached per n; a space then costs one product per formula instead of
dozens of small array operations.  Above that size, where the matrices
would cost more than they save, the formulas run directly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import ClassVar

import numpy as np

from .config import DEFAULT_TOL
from .errors import ConsistencyError, SlotSymmetryViolation, check
from .lie import _frozen, trace_vector
from .reductive import as_frame, cyclic_sum

# the six class booleans, in report order
CLASS_FIELDS = ("cyclic", "traceless", "traceless_cyclic", "vectorial",
                "naturally_reductive", "symmetric")


class _ClassBooleans:
    """booleans() over CLASS_FIELDS, shared by reports and expectations."""

    def booleans(self) -> dict:
        return {name: getattr(self, name) for name in CLASS_FIELDS}


@dataclass(frozen=True, eq=False)
class _SkewPairTensor:
    """Cubic rank-3 components, antisymmetric in one pair of slots."""

    components: np.ndarray
    _swap: ClassVar[tuple]  # axes order exchanging the antisymmetric slot pair
    _what: ClassVar[str]  # what the slot check's error says

    def __post_init__(self):
        a = np.asarray(self.components, dtype=float)
        if a.ndim != 3 or len(set(a.shape)) != 1 or not a.size:
            raise SlotSymmetryViolation(
                f"expected nonempty cubic rank-3 components, got {a.shape}")
        defect = float(np.abs(a + a.transpose(self._swap)).max())
        check(defect, max(1e-9, 1e-12 * max(1.0, float(np.abs(a).max()))),
              self._what, SlotSymmetryViolation)
        object.__setattr__(self, "components", _frozen(a))

    @property
    def n(self) -> int:
        return self.components.shape[0]


@dataclass(frozen=True, eq=False)
class StructureTensor(_SkewPairTensor):
    """Lowered structure tensor, antisymmetric in the last two slots."""

    _swap, _what = (0, 2, 1), "structure tensor not antisymmetric in slots 2,3"

    def norm(self) -> float:
        return _norm(self.components)


@dataclass(frozen=True, eq=False)
class TorsionTensor(_SkewPairTensor):
    """Lowered torsion tensor, antisymmetric in the first two slots."""

    _swap, _what = (1, 0, 2), "torsion tensor not antisymmetric in slots 1,2"


def homogeneous_structure(dec, metric=None) -> StructureTensor:
    """Structure tensor S = (1/2) T^c - U in frame components (Frame.s)."""
    return StructureTensor(as_frame(dec, metric).s)


def structure_to_torsion(s: StructureTensor) -> TorsionTensor:
    """T_{XYZ} = S_{XYZ} - S_{YXZ}."""
    a = s.components
    return TorsionTensor(a - np.einsum("abc->bac", a))


def torsion_to_structure(t: TorsionTensor) -> StructureTensor:
    """2 S_{XYZ} = T_{XYZ} + T_{ZYX} + T_{ZXY}."""
    a = t.components
    return StructureTensor(0.5 * (a + np.einsum("abc->cba", a) + np.einsum("abc->bca", a)))


def contract_12(s_components: np.ndarray) -> np.ndarray:
    """c12(S)(Z) = sum_a S_{a a Z}, over any leading axes."""
    return np.einsum("...aax->...x", s_components)


def trace_form(t: TorsionTensor) -> np.ndarray:
    """Trace form eta(X) = tr T_X of a torsion tensor.

    Asserts the identity eta = c12(S) for the converted structure
    tensor, at DEFAULT_TOL, before returning.
    """
    eta = np.einsum("xaa->x", t.components)
    via_s = contract_12(torsion_to_structure(t).components)
    gap = float(np.abs(eta - via_s).max())
    check(gap, max(DEFAULT_TOL, 1e-12 * max(1.0, float(np.abs(t.components).max()))),
          "trace form disagrees with the structure contraction")
    return eta


@dataclass(frozen=True, eq=False)
class TypeDecomposition:
    """Orthogonal splitting S = S1 + S2 + S3 with component norms."""

    s1: np.ndarray
    s2: np.ndarray
    s3: np.ndarray
    phi: np.ndarray
    norms: dict = field(default_factory=dict)

    def component_norms(self) -> tuple[float, float, float]:
        return self.norms["s1"], self.norms["s2"], self.norms["s3"]


def _split_formula(s):
    """S1, 3 S3 and phi of structure tensors stacked along leading axes.

    The cyclic sum is returned undivided, so that its matrix rows hold
    integers and give S3 = 0 exactly where it vanishes (n <= 2).
    """
    n = s.shape[-1]
    phi = contract_12(s) / max(n - 1, 1)
    s1 = np.zeros(s.shape)
    # S1_{XYZ} = <X,Y> phi(Z) - <X,Z> phi(Y), written through diagonal views
    np.einsum("...aac->...ac", s1)[...] += phi[..., None, :]
    np.einsum("...aba->...ab", s1)[...] -= phi[..., None, :]
    return s1, cyclic_sum(s), phi


def _check_formula(parts):
    """The defining traces of stacked (S2, S3) pairs, which must vanish.

    S3 + S3 with slots 1, 2 exchanged, c12(S2) and the cyclic sum of S2.
    """
    s2, s3 = parts[..., 0, :, :, :], parts[..., 1, :, :, :]
    return s3 + np.swapaxes(s3, -3, -2), contract_12(s2), cyclic_sum(s2)


def _lte_formula(lte):
    """classify's residual tensors of projected brackets: the cyclic sum, lte + lte_acb."""
    return cyclic_sum(lte), lte + np.swapaxes(lte, -1, -2)


# The formulas above go through a cached dense matrix for n up to this
# size and are evaluated directly above it.  Split, residuals and checks
# together, matrices against formulas (medians of two in-process runs on
# a shared 2-core Xeon, one OpenBLAS thread): 7-12 vs 39-56 us at n = 3,
# 13-16 vs 42-58 at n = 4, 23-34 vs 38-59 at n = 5, 133 vs 37-41 at
# n = 6 and 800-850 vs 54-71 at n = 8.  The matrices for n = 5 take
# about 1 MB.
_OPERATOR_MAX_N = 5


def _matrix(formula, shape):
    """A linear formula on inputs of this shape as (dense matrix, output slices).

    The matrix maps a flattened input to the formula's outputs, each
    flattened and joined end to end; the slices cut that vector back
    into the outputs.  Its columns are the formula applied to the unit
    tensors, which run along one leading axis.
    """
    size = math.prod(shape)
    outputs = formula(np.eye(size).reshape((size,) + shape))
    bounds = np.cumsum([0] + [out[0].size for out in outputs]).tolist()
    matrix = np.concatenate([out.reshape(size, -1) for out in outputs], axis=1).T
    return _frozen(matrix), tuple(map(slice, bounds[:-1], bounds[1:]))


@functools.lru_cache(maxsize=None)
def _operator(n: int) -> MappingProxyType:
    """_matrix of each formula above for dimension n, keyed by the formula.

    Built on first use and verified then: the three type projectors,
    each composed with the projector onto the S-space (tensors
    antisymmetric in slots 2, 3), must be idempotent and mutually
    orthogonal in the Frobenius product and sum to that projector.
    """
    shape = (n, n, n)
    ops = {formula: _matrix(formula, shape) for formula in (_split_formula, _lte_formula)}
    ops[_check_formula] = _matrix(_check_formula, (2,) + shape)
    skew, _ = _matrix(lambda x: (0.5 * (x - np.swapaxes(x, -1, -2)),), shape)
    split, (s1_rows, cyclic_rows, _) = ops[_split_formula]
    p1 = split[s1_rows] @ skew
    p3 = split[cyclic_rows] @ skew / 3.0
    projectors = (p1, skew - p1 - p3, p3)
    worst = max(float(np.abs(p @ p - p).max()) for p in projectors)
    check(worst, 1e-12, "type projectors are not idempotent")
    worst = max(float(np.abs(projectors[i].T @ projectors[j]).max())
                for i in range(3) for j in range(i + 1, 3))
    check(worst, 1e-12, "type projectors are not mutually orthogonal")
    check(float(np.abs(sum(projectors) - skew).max()), 1e-12,
          "type projectors do not sum to the projector onto the S-space")
    return MappingProxyType(ops)


def _evaluate(formula, x) -> list:
    """formula(x) as a list of flat arrays.

    For n <= _OPERATOR_MAX_N this is one product with the formula's
    _operator matrix; above it the formula itself runs.
    """
    n = x.shape[-1]
    if n > _OPERATOR_MAX_N:
        return [out.reshape(-1) for out in formula(x)]
    matrix, slices = _operator(n)[formula]
    y = matrix @ x.reshape(-1)
    return [y[part] for part in slices]


def _gram(rows, peak) -> list:
    """Pairwise products of the flat arrays in rows divided by peak^2, taken on rows / peak.

    With peak the largest entry no square overflows.
    """
    unit = np.array(rows) / peak
    return np.einsum("ik,jk->ij", unit, unit).tolist()


def _norm(a) -> float:
    """Frobenius norm of a, through _gram."""
    peak = float(np.abs(a).max()) or 1.0
    return peak * math.sqrt(_gram((a.reshape(-1),), peak)[0][0])


def _block_maxima(*blocks) -> list:
    """The max-abs entry of each array, from one abs and one reduceat over all of them."""
    starts = [0]
    for block in blocks[:-1]:
        starts.append(starts[-1] + block.size)
    flat = np.concatenate(blocks, axis=None)
    return np.maximum.reduceat(np.abs(flat, out=flat), starts).tolist()


def decompose(s) -> TypeDecomposition:
    """Split a structure tensor into its three orthogonal type components.

    Components are taken in an orthonormal basis (a Frame's S is; see
    Frame.types).  The split is defined once, by _split_formula; for
    n <= _OPERATOR_MAX_N it is read through that formula's cached dense
    matrix, one product with S, and above it the formula runs directly.
    For n <= 2 both give S1 = S and S2 = S3 = 0 exactly.  Its
    self-checks are bounded by the tensor's own scale.
    """
    a = (s if isinstance(s, StructureTensor) else StructureTensor(s)).components
    s1, three_s3, phi = _evaluate(_split_formula, a)
    s3 = three_s3 / 3.0
    s2 = a.reshape(-1) - s1 - s3
    # the norms and the pairwise products come from one Gram product of
    # the parts, divided by the largest entry of S first
    peak = float(np.abs(a).max()) or 1.0
    gram = _gram((s1, s2, s3), peak)
    dec = TypeDecomposition(
        *(_frozen(part.reshape(a.shape)) for part in (s1, s2, s3)), _frozen(phi),
        {name: peak * math.sqrt(gram[i][i]) for i, name in enumerate(("s1", "s2", "s3"))},
    )
    _decomposition_selfcheck(a, dec, peak, max(abs(gram[0][1]), abs(gram[0][2]),
                                               abs(gram[1][2])))
    return dec


def _decomposition_selfcheck(a, dec, peak, overlap):
    """Reconstruction, mutual orthogonality and the defining traces.

    peak is max |S| (1 when S = 0), and overlap the largest pairwise
    product of the parts divided by peak^2; the orthogonality bound is
    divided by peak^2 to match.
    """
    scale = max(1.0, peak)
    slack = 1e-11 * scale
    check(float(np.abs(a - (dec.s1 + dec.s2 + dec.s3)).max()), slack,
          "type components do not reconstruct the tensor")
    ratio = scale / peak
    check(overlap, 1e-11 * ratio * ratio, "type components are not orthogonal")
    skew, trace, cyc = _block_maxima(*_evaluate(_check_formula, np.array((dec.s2, dec.s3))))
    check(skew, slack, "skew component is not totally skew")
    check(trace, slack, "traceless component has a nonzero trace")
    check(cyc, slack, "traceless cyclic component has a cyclic sum")


def _vectorial_target(eta) -> np.ndarray:
    """(delta_ac eta_b - delta_bc eta_a) / max(n-1, 1), a broadcast of eta."""
    n = eta.shape[0]
    half = np.eye(n)[:, None, :] * (eta / max(n - 1, 1))[None, :, None]
    return half - half.transpose(1, 0, 2)  # the second term is the first with a, b exchanged


@dataclass(frozen=True, eq=False)
class ClassificationReport(_ClassBooleans):
    """Class membership booleans plus the norms and residuals behind them.

    traceless_cyclic means a nonvanishing structure tensor lying in the
    traceless cyclic class, i.e. traceless and cyclic and S != 0.
    eta holds the canonical trace form evaluated on the m-index basis
    vectors of the input decomposition.  tol is the tolerance the
    booleans were decided at, the Frame's; it is not part of the JSON
    form.
    """

    cyclic: bool
    traceless: bool
    traceless_cyclic: bool
    vectorial: bool
    naturally_reductive: bool
    symmetric: bool
    norms: dict
    eta: tuple
    residuals: dict
    tol: float

    def to_json_dict(self) -> dict:
        return {
            **self.booleans(),
            "norms": {k: float(v) for k, v in self.norms.items()},
            "eta": [float(v) for v in self.eta],
        }


def classify(dec, metric=None) -> ClassificationReport:
    """Classify a reductive homogeneous space by its structure tensor.

    The booleans are decided on the raw bracket data:

      cyclic:       the cyclic sum of <[X,Y]_m, Z> vanishes,
      traceless:    the canonical trace form vanishes,
      vectorial:    [X,Y]_m = (1/max(n-1,1)) (X eta(Y) - Y eta(X)),
      nat. red.:    <[X,Y]_m, Z> is antisymmetric in Y, Z,
      symmetric:    S = 0.

    The cyclic and naturally reductive residual tensors come from
    _lte_formula, through its cached matrix for n <= _OPERATOR_MAX_N as
    the split does (see decompose); the vectorial target is a broadcast
    of eta, which comes from the trace of ad, not from lte.  Each
    residual is the max-abs of its block, all taken in one pass.  Each
    decision is cross-checked against the type-component norms
    (Frame.types).  The tolerance is the Frame's, and the report records
    it: pass Frame(dec, metric, tol) as dec to decide at another one.
    """
    frame = as_frame(dec, metric)
    tol = frame.tol
    eta = frame.eta
    types = frame.types  # first, so no residual block is alive while it is built
    cyc_res, nat_res, vect_res, sym_res, trace_res = _block_maxima(
        *frame._lte_residuals, frame.lte - _vectorial_target(eta), frame.s, eta)

    cyclic = cyc_res <= tol
    traceless = trace_res <= tol
    symmetric = sym_res <= tol
    vectorial = vect_res <= tol
    naturally_reductive = nat_res <= tol
    traceless_cyclic = traceless and cyclic and not symmetric

    report = ClassificationReport(
        cyclic=cyclic,
        traceless=traceless,
        traceless_cyclic=traceless_cyclic,
        vectorial=vectorial,
        naturally_reductive=naturally_reductive,
        symmetric=symmetric,
        norms=dict(types.norms),
        eta=tuple((-trace_vector(frame.dec.algebra)[list(frame.dec.m_indices)]).tolist()),
        residuals={
            "cyclic": cyc_res,
            "traceless": trace_res,
            "vectorial": vect_res,
            "naturally_reductive": nat_res,
            "symmetric": sym_res,
        },
        tol=tol,
    )
    _classify_crosscheck(report, frame)
    return report


def _classify_crosscheck(report, frame):
    """Bracket-level decisions must match the component-norm picture.

    Exact identities tie the two routes together.  The cyclic sum of U
    vanishes, so 3 S3, the cyclic sum of S, is minus half the cyclic sum
    of the projected bracket lte (Tricerri-Vanhecke); the trace c12(S)
    equals eta; S - S1 has norm sqrt(s2^2 + s3^2); and S vanishes
    exactly when lte does.  A wide guard band (factor 50) keeps the
    check meaningful without flapping at the threshold.
    """
    s, types, n, tol = frame.s, frame.types, frame.n, frame.tol
    s_scale = max(1.0, report.residuals["symmetric"])  # max |S|
    check(float(np.abs(3.0 * types.s3.reshape(-1) + 0.5 * frame._lte_residuals[0]).max()),
          1e-10 * s_scale,
          "3 S3 does not equal minus half the cyclic sum of the projected bracket")
    gap = float(np.abs(contract_12(s) - frame.eta).max())
    check(gap, max(tol, 1e-11 * s_scale),
          "c12(S) disagrees with the canonical trace form")

    checks = [
        (report.cyclic, types.norms["s3"]),
        (report.traceless, types.norms["s1"]),
        (report.vectorial, math.hypot(types.norms["s2"], types.norms["s3"])),
        (report.naturally_reductive, math.hypot(types.norms["s1"], types.norms["s2"])),
        (report.symmetric, _norm(frame.lte)),
    ]
    scale = s_scale * n ** 1.5
    for decided, norm in checks:
        if decided:
            check(norm, 50.0 * tol * scale,
                  "bracket-level classification disagrees with component norms")
        elif norm <= tol / (50.0 * scale):
            raise ConsistencyError(
                "component norms disagree with bracket-level classification"
            )
