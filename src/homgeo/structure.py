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
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    _swap: ClassVar[str]  # einsum exchanging the antisymmetric slot pair
    _what: ClassVar[str]  # what the slot check's error says

    def __post_init__(self):
        a = np.asarray(self.components, dtype=float)
        if a.ndim != 3 or len(set(a.shape)) != 1 or not a.size:
            raise SlotSymmetryViolation(
                f"expected nonempty cubic rank-3 components, got {a.shape}")
        defect = float(np.abs(a + np.einsum(self._swap, a)).max())
        check(defect, max(1e-9, 1e-12 * max(1.0, float(np.abs(a).max()))),
              self._what, SlotSymmetryViolation)
        object.__setattr__(self, "components", _frozen(a))

    @property
    def n(self) -> int:
        return self.components.shape[0]


@dataclass(frozen=True, eq=False)
class StructureTensor(_SkewPairTensor):
    """Lowered structure tensor, antisymmetric in the last two slots."""

    _swap, _what = "abc->acb", "structure tensor not antisymmetric in slots 2,3"

    def norm(self) -> float:
        return float(np.linalg.norm(self.components))


@dataclass(frozen=True, eq=False)
class TorsionTensor(_SkewPairTensor):
    """Lowered torsion tensor, antisymmetric in the first two slots."""

    _swap, _what = "abc->bac", "torsion tensor not antisymmetric in slots 1,2"


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
    """c12(S)(Z) = sum_a S_{a a Z}."""
    return np.einsum("aax->x", s_components)


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


def decompose(s) -> TypeDecomposition:
    """Split a structure tensor into its three orthogonal type components.

    Components are taken in an orthonormal basis (a Frame's S is; see
    Frame.types).  For n <= 2 the formulas give S1 = S and S2 = S3 = 0
    exactly.  Its self-checks are bounded by the tensor's own scale.
    """
    a = (s if isinstance(s, StructureTensor) else StructureTensor(s)).components
    n = a.shape[0]
    eye = np.eye(n)
    phi = contract_12(a) / max(n - 1, 1)
    s1 = np.einsum("ab,c->abc", eye, phi) - np.einsum("ac,b->abc", eye, phi)
    s3 = cyclic_sum(a) / 3.0
    s2 = a - s1 - s3

    dec = TypeDecomposition(
        _frozen(s1), _frozen(s2), _frozen(s3), _frozen(phi),
        {"s1": float(np.linalg.norm(s1)),
         "s2": float(np.linalg.norm(s2)),
         "s3": float(np.linalg.norm(s3))},
    )
    _decomposition_selfcheck(a, dec)
    return dec


def _decomposition_selfcheck(a, dec):
    """Reconstruction, mutual orthogonality and the defining traces."""
    scale = max(1.0, float(np.abs(a).max()))
    slack = 1e-11 * scale
    parts = (dec.s1, dec.s2, dec.s3)
    check(float(np.abs(a - sum(parts)).max()), slack,
          "type components do not reconstruct the tensor")
    for i in range(3):
        for j in range(i + 1, 3):
            check(float(np.abs(np.sum(parts[i] * parts[j]))), slack * max(1.0, scale),
                  "type components are not orthogonal")
    check(float(np.abs(dec.s3 + np.einsum("abc->bac", dec.s3)).max()), slack,
          "skew component is not totally skew")
    check(float(np.abs(contract_12(dec.s2)).max()), slack,
          "traceless component has a nonzero trace")
    check(float(np.abs(cyclic_sum(dec.s2)).max()), slack,
          "traceless cyclic component has a cyclic sum")


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

    Each decision is cross-checked against the type-component norms
    (Frame.types).  The tolerance is the Frame's, and the report records
    it: pass Frame(dec, metric, tol) as dec to decide at another one.
    """
    frame = as_frame(dec, metric)
    tol = frame.tol
    n = frame.n
    lte = frame.lte
    eta = frame.eta

    cyc_res = frame.cyclic_residual
    nat_res = float(np.abs(lte + np.einsum("abc->acb", lte)).max())
    trace_res = float(np.abs(eta).max())
    sym_res = float(np.abs(frame.s).max())
    eye = np.eye(n)
    vect_target = (np.einsum("ac,b->abc", eye, eta)
                   - np.einsum("bc,a->abc", eye, eta)) / max(n - 1, 1)
    vect_res = float(np.abs(lte - vect_target).max())

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
        norms=dict(frame.types.norms),
        eta=tuple(float(v) for v in
                  -trace_vector(frame.dec.algebra)[list(frame.dec.m_indices)]),
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
    check(float(np.abs(3.0 * types.s3 + 0.5 * frame._lte_cyclic_sum).max()),
          1e-10 * max(1.0, float(np.abs(s).max())),
          "3 S3 does not equal minus half the cyclic sum of the projected bracket")
    gap = float(np.abs(contract_12(s) - frame.eta).max())
    check(gap, max(tol, 1e-11 * max(1.0, float(np.abs(s).max()))),
          "c12(S) disagrees with the canonical trace form")

    checks = [
        (report.cyclic, types.norms["s3"]),
        (report.traceless, types.norms["s1"]),
        (report.vectorial, np.hypot(types.norms["s2"], types.norms["s3"])),
        (report.naturally_reductive, np.hypot(types.norms["s1"], types.norms["s2"])),
        (report.symmetric, float(np.linalg.norm(frame.lte))),
    ]
    scale = max(1.0, float(np.abs(s).max())) * n ** 1.5
    for decided, norm in checks:
        if decided:
            check(norm, 50.0 * tol * scale,
                  "bracket-level classification disagrees with component norms")
        elif norm <= tol / (50.0 * scale):
            raise ConsistencyError(
                "component norms disagree with bracket-level classification"
            )
