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

For n <= 2 only the vectorial part exists, and the same formulas give
S2 = S3 = 0 there.

The classification booleans reported by classify are computed from the
brackets directly and cross-checked against the component norms.

Every linear part of classify is written once, as a formula on tensors
stacked along leading axes, and a point costs two products.  The
bracket side, _bracket_formula of (lte, eta), gives S = -lte/2 - U,
the cyclic sum of lte, lte + lte_acb, lte minus the vectorial target of
eta and c12(S) - eta.  The split side, _split_formula of S, gives S's
slot-(2, 3) skew defect, S1, S2, S3, phi and the split's defining
traces.  No product computes both sides of a cross-check: crosscheck_s3
adds 3 S3 from the split side to half the cyclic sum of lte from the
bracket side.  Up to n = _OPERATOR_MAX_N each formula is read through a
dense matrix, the formula applied to the unit inputs, built and
verified on first use and cached per n; a space then costs one product
per side instead of dozens of small array operations.  Above that size,
where the matrices would cost more than they save, the formulas run
directly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import ClassVar

import numpy as np

from .config import DEFAULT_TOL, check
from .errors import ConsistencyError, SlotSymmetryViolation
from .lie import _block_maxima, _frozen
from .reductive import _symmetric_map, as_frame, cyclic_sum

# the six class booleans, in report order
CLASS_FIELDS = ("cyclic", "traceless", "traceless_cyclic", "vectorial",
                "naturally_reductive", "symmetric")


class _ClassBooleans:
    """booleans() over CLASS_FIELDS, shared by reports and expectations."""

    @property
    def traceless_cyclic(self) -> bool:
        """Traceless and cyclic with S != 0: S lies in the traceless cyclic class."""
        return self.traceless and self.cyclic and not self.symmetric

    def booleans(self) -> dict:
        return {name: getattr(self, name) for name in CLASS_FIELDS}


def _cubic(components) -> np.ndarray:
    """components as a float array, or SlotSymmetryViolation unless nonempty, cubic and rank 3."""
    a = np.asarray(components, dtype=float)
    if a.ndim != 3 or len(set(a.shape)) != 1 or not a.size:
        raise SlotSymmetryViolation(f"expected nonempty cubic rank-3 components, got {a.shape}")
    return a


@dataclass(frozen=True, eq=False)
class _SkewPairTensor:
    """Cubic rank-3 components, antisymmetric in one pair of slots."""

    components: np.ndarray
    _swap: ClassVar[tuple]  # axes order exchanging the antisymmetric slot pair
    _check: ClassVar[str]  # the slot check's row in config.CHECKS

    def __post_init__(self):
        a = _cubic(self.components)
        defect, peak = _block_maxima(a + a.transpose(self._swap), a)
        check(self._check, defect, max(1.0, peak), DEFAULT_TOL)
        object.__setattr__(self, "components", _frozen(a))

    @property
    def n(self) -> int:
        return self.components.shape[0]


@dataclass(frozen=True, eq=False)
class StructureTensor(_SkewPairTensor):
    """Lowered structure tensor, antisymmetric in the last two slots."""

    _swap, _check = (0, 2, 1), "structure_tensor_skew"


@dataclass(frozen=True, eq=False)
class TorsionTensor(_SkewPairTensor):
    """Lowered torsion tensor, antisymmetric in the first two slots."""

    _swap, _check = (1, 0, 2), "torsion_tensor_skew"


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
    check("trace_form_identity", gap, max(1.0, float(np.abs(t.components).max())), DEFAULT_TOL)
    return eta


@dataclass(frozen=True, eq=False)
class TypeDecomposition:
    """Orthogonal splitting S = S1 + S2 + S3 with component norms."""

    s1: np.ndarray
    s2: np.ndarray
    s3: np.ndarray
    phi: np.ndarray
    norms: dict = field(default_factory=dict)


def _vectorial(phi) -> np.ndarray:
    """<X,Y> phi(Z) - <X,Z> phi(Y) for forms phi stacked along leading axes.

    Written through diagonal views of a zero tensor.
    """
    n = phi.shape[-1]
    v = np.zeros(phi.shape + (n, n))
    np.einsum("...aac->...ac", v)[...] += phi[..., None, :]
    np.einsum("...aba->...ab", v)[...] -= phi[..., None, :]
    return v


def _bracket_formula(lte, eta):
    """classify's bracket-side tensors of stacked projected brackets lte and trace forms eta.

    S = -lte/2 - U, the cyclic sum of lte, lte + lte_acb, lte minus the
    vectorial target (delta_ac eta_b - delta_bc eta_a) / max(n-1, 1),
    and c12(S) - eta.  The target is minus _vectorial of
    eta / max(n-1, 1) with slots 1, 3 exchanged.
    """
    s = -0.5 * lte - _symmetric_map(lte)
    minus_target = np.swapaxes(_vectorial(eta / max(eta.shape[-1] - 1, 1)), -1, -3)
    return (s, cyclic_sum(lte), lte + np.swapaxes(lte, -1, -2),
            lte + minus_target, contract_12(s) - eta)


def _split_formula(s):
    """The split of structure tensors stacked along leading axes, with its checks.

    S + S with slots 2, 3 exchanged; S1, S2, S3 joined along the first
    slot, so that each flattens to the three parts end to end; phi; and
    the defining traces of S2 and S3, which must vanish: S3 + S3 with
    slots 1, 2 exchanged, c12(S2) and the cyclic sum of S2.
    """
    phi = contract_12(s) / max(s.shape[-1] - 1, 1)
    s1, s3 = _vectorial(phi), cyclic_sum(s) / 3.0
    s2 = s - s1 - s3
    return (s + np.swapaxes(s, -1, -2), np.concatenate((s1, s2, s3), axis=-3), phi,
            s3 + np.swapaxes(s3, -3, -2), contract_12(s2), cyclic_sum(s2))


# The formulas above go through a cached dense matrix for n <= 4, the
# dimensions the paper classifies, and are evaluated directly above.
# Both sides, matrices against formulas (minima of 7 in-process repeats
# on a shared 2-core Xeon, one OpenBLAS thread): 8 vs 48 us at n = 3,
# 13 vs 49 at n = 4, 28 vs 51 at n = 5 and 154 vs 52 at n = 6.  No
# catalog space or workload has n = 5, and its 1.3 MB of matrices took
# 145 ms to build and verify in a fresh process under OpenBLAS's default
# thread pool (4 ms with one thread; n = 4: under 1 ms).
_OPERATOR_MAX_N = 4


def _matrix(formula, *shapes):
    """A linear formula on inputs of these shapes as (dense matrix, output slices).

    The matrix maps the inputs, flattened and joined end to end, to the
    formula's outputs, each flattened and joined end to end; the slices
    cut that vector back into the outputs.  Its columns are the formula
    applied to the unit inputs, which run along one leading axis.
    """
    sizes = [math.prod(shape) for shape in shapes]
    size = sum(sizes)
    units = np.split(np.eye(size), np.cumsum(sizes[:-1]), axis=1)
    outputs = formula(*(u.reshape((size,) + shape) for u, shape in zip(units, shapes)))
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
    ops = {_bracket_formula: _matrix(_bracket_formula, shape, shape[:1]),
           _split_formula: _matrix(_split_formula, shape)}
    skew, _ = _matrix(lambda x: (0.5 * (x - np.swapaxes(x, -1, -2)),), shape)
    split, (_, parts, *_) = ops[_split_formula]
    projectors = split[parts].reshape(3, n ** 3, n ** 3) @ skew
    worst = max(float(np.abs(p @ p - p).max()) for p in projectors)
    check("projector_idempotent", worst)
    worst = max(float(np.abs(projectors[i].T @ projectors[j]).max())
                for i in range(3) for j in range(i + 1, 3))
    check("projector_orthogonal", worst)
    check("projector_sum", float(np.abs(sum(projectors) - skew).max()))
    return MappingProxyType(ops)


def _evaluate(formula, *inputs) -> list:
    """formula(*inputs) as a list of flat read-only arrays.

    For n <= _OPERATOR_MAX_N this is one product of the formula's
    _operator matrix with the inputs joined end to end; above it the
    formula itself runs.
    """
    n = inputs[0].shape[-1]
    if n > _OPERATOR_MAX_N:
        return [_frozen(out).reshape(-1) for out in formula(*inputs)]
    matrix, slices = _operator(n)[formula]
    y = _frozen(matrix @ np.concatenate([x.reshape(-1) for x in inputs]))
    return [y[part] for part in slices]


def _gram(rows, peak) -> list:
    """Pairwise products of the rows of a (k, size) array divided by peak^2, taken on rows / peak.

    With peak the largest entry no square overflows.
    """
    unit = np.divide(rows, peak)
    return np.einsum("ik,jk->ij", unit, unit).tolist()


def decompose(s) -> TypeDecomposition:
    """Split a structure tensor into its three orthogonal type components.

    Components are taken in an orthonormal basis (a Frame's S is; see
    Frame.types).  The split and its checks are defined once, by
    _split_formula; for n <= _OPERATOR_MAX_N they are read through that
    formula's cached dense matrix, one product with S, and above it the
    formula runs directly.  For n <= 2 only S1 can be nonzero.

    S must be antisymmetric in its last two slots
    (structure_tensor_skew, SlotSymmetryViolation).  The split's
    self-checks (reconstruction, mutual orthogonality and the defining
    traces of S2 and S3) follow, bounded by the tensor's own scale.
    Max |S| and every max-abs residual come from one pass, and the norms
    and pairwise products of the parts from one Gram product of the
    parts divided by max |S|; the orthogonality bound is divided by
    max |S|^2 to match.  The three parts are views of one read-only
    array.
    """
    a = s.components if isinstance(s, StructureTensor) else _cubic(s)
    defect, parts, phi, *traces = _evaluate(_split_formula, a)
    parts = parts.reshape(3, -1)  # S1, S2, S3
    peak, defect, recon, skew, trace, cyc = _block_maxima(
        a, defect, a.reshape(-1) - parts.sum(axis=0), *traces)
    check("structure_tensor_skew", defect, max(1.0, peak), DEFAULT_TOL)
    peak = peak or 1.0
    gram = _gram(parts, peak)
    scale = max(1.0, peak)
    ratio = scale / peak
    check("split_reconstruction", recon, scale)
    check("split_orthogonality", max(abs(gram[0][1]), abs(gram[0][2]), abs(gram[1][2])),
          ratio * ratio)
    check("split_skew", skew, scale)
    check("split_trace", trace, scale)
    check("split_cyclic", cyc, scale)
    return TypeDecomposition(
        *parts.reshape((3,) + a.shape), phi,
        {name: peak * math.sqrt(gram[i][i]) for i, name in enumerate(("s1", "s2", "s3"))},
    )


@dataclass(frozen=True, eq=False)
class ClassificationReport(_ClassBooleans):
    """Class membership booleans plus the norms and residuals behind them.

    eta holds the canonical trace form evaluated on the m-index basis
    vectors of the input decomposition.  tol is the tolerance the
    booleans were decided at, the Frame's; it is not part of the JSON
    form.
    """

    cyclic: bool
    traceless: bool
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

    Every residual tensor, S and the trace identity's gap come from
    one product of (lte, eta), read through Frame._bracket_side
    (_bracket_formula), and the split from a second one, of S (see
    decompose); eta comes from the trace of ad, not from lte.  Each
    decision is cross-checked against the type-component norms
    (Frame.types).  The max-abs of every residual block, of the
    cross-check's two identities and of lte are taken in one pass.  The
    tolerance is the Frame's, and the report records it: pass
    Frame(dec, metric, tol) as dec to decide at another one.
    """
    frame = as_frame(dec, metric)
    tol, lte = frame.tol, frame.lte
    types = frame.types
    s, cyc_lte, nat_lte, vect_lte, trace_gap = frame._bracket_side
    (cyc_res, nat_res, vect_res, sym_res, trace_res,
     s3_gap, trace_gap, lte_peak) = _block_maxima(
        cyc_lte, nat_lte, vect_lte, s, frame.eta,
        3.0 * types.s3.reshape(-1) + 0.5 * cyc_lte, trace_gap, lte)

    report = ClassificationReport(
        cyclic=cyc_res <= tol,
        traceless=trace_res <= tol,
        vectorial=vect_res <= tol,
        naturally_reductive=nat_res <= tol,
        symmetric=sym_res <= tol,
        norms=dict(types.norms),
        eta=tuple(frame.eta_m.tolist()),
        residuals={
            "cyclic": cyc_res,
            "traceless": trace_res,
            "vectorial": vect_res,
            "naturally_reductive": nat_res,
            "symmetric": sym_res,
        },
        tol=tol,
    )
    lte_peak = lte_peak or 1.0
    lte_norm = lte_peak * math.sqrt(_gram(lte.reshape(1, -1), lte_peak)[0][0])
    _classify_crosscheck(report, types, frame.n, s3_gap, trace_gap, lte_norm)
    return report


def _classify_crosscheck(report, types, n, s3_gap, trace_gap, lte_norm):
    """Bracket-level decisions must match the component-norm picture.

    Exact identities tie the two routes together.  The cyclic sum of U
    vanishes, so 3 S3, the cyclic sum of S, is minus half the cyclic sum
    of the projected bracket lte (Tricerri-Vanhecke): s3_gap is the
    max-abs of their sum.  The trace c12(S) equals eta: trace_gap is the
    max-abs of their difference.  S - S1 has norm sqrt(s2^2 + s3^2), and
    S vanishes exactly when lte does, whose norm is lte_norm.  A wide
    guard band (crosscheck_norms) keeps the check meaningful without
    flapping at the threshold.
    """
    tol = report.tol
    s_scale = max(1.0, report.residuals["symmetric"])  # max |S|
    check("crosscheck_s3", s3_gap, s_scale)
    check("crosscheck_trace", trace_gap, s_scale, tol)

    checks = [
        (report.cyclic, types.norms["s3"]),
        (report.traceless, types.norms["s1"]),
        (report.vectorial, math.hypot(types.norms["s2"], types.norms["s3"])),
        (report.naturally_reductive, math.hypot(types.norms["s1"], types.norms["s2"])),
        (report.symmetric, lte_norm),
    ]
    scale = s_scale * n ** 1.5
    for decided, norm in checks:
        if decided:
            check("crosscheck_norms", norm, scale, tol)
        elif norm <= tol / (50.0 * scale):
            raise ConsistencyError(
                "component norms disagree with bracket-level classification"
            )
