"""Concrete homogeneous spaces with known classification labels.

Each builder returns a CatalogEntry: a reductive splitting (which holds
the algebra), an invariant metric, and the expected class booleans that
verification compares against classify.  A builder states each boolean
as one rule over its parameter domain, and `_entry` is the only place
that turns those rules into an ExpectedClass and a CatalogEntry.
Entries cover metric Lie groups (empty isotropy), two Heisenberg
presentations with rotational isotropy, two product examples, and the
two rank-one quotients whose block metrics realize the 3-symmetric
cyclic families.  Both quotients come from complex matrix models
through `_matrix_model`; each model's record states its bracket spans
and cyclic cone once, and `_block_entry` takes coordinates on that cone.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from inspect import signature

import numpy as np

from .config import bound, check
from .errors import ParamOutOfRange, UnknownEntry
from .lie import (
    LieAlgebra,
    build_lie_algebra,
    change_basis,
    derivation,
    from_tensor,
    killing_form,
    semidirect_sum,
)
from .reductive import InvariantMetric, ReductiveDecomposition
from .spectrum import BlockGrading, cyclic_metric, grading_decomposition
from .structure import _ClassBooleans


@dataclass(frozen=True)
class ExpectedClass(_ClassBooleans):
    """Class booleans a builder promises, plus the trace form on m."""

    cyclic: bool
    traceless: bool
    vectorial: bool
    naturally_reductive: bool
    symmetric: bool
    eta: tuple

    def mismatches(self, report) -> list:
        """Names of fields on which a ClassificationReport disagrees; eta at report.tol."""
        bad = [name for name, want in self.booleans().items()
               if report.booleans()[name] != want]
        eta = np.asarray(self.eta, dtype=float)
        got = np.asarray(report.eta, dtype=float)
        if eta.shape != got.shape or float(np.abs(eta - got).max()) > bound(
                "expected_eta", max(1.0, float(np.abs(eta).max())), report.tol):
            bad.append("eta")
        return bad


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    name: str
    params: dict
    decomposition: ReductiveDecomposition
    metric: InvariantMetric
    expected: ExpectedClass
    provenance: str
    grading: BlockGrading | None = None
    spans: tuple | None = None

    @property
    def algebra(self) -> LieAlgebra:
        return self.decomposition.algebra

    @property
    def label(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.name}({inner})"


def _entry(name, params, dec, metric, provenance, eta, *, cyclic, traceless,
           vectorial=False, naturally_reductive=False, symmetric=False,
           grading=None, spans=None) -> CatalogEntry:
    """A catalog entry with its expected class booleans and trace form."""
    expected = ExpectedClass(cyclic, traceless, vectorial, naturally_reductive,
                             symmetric, tuple(eta))
    return CatalogEntry(name, params, dec, metric, expected, provenance, grading, spans)


def _near(x, y) -> bool:
    return abs(x - y) <= bound("catalog_near", max(1.0, abs(x), abs(y)))


def _real(value) -> float:
    """A parameter as a finite float; a bool or a string is not a number."""
    if isinstance(value, (bool, np.bool_, str)):
        raise ParamOutOfRange(f"expected a number, got {value!r}")
    value = float(value)
    if not np.isfinite(value):
        raise ParamOutOfRange(f"expected a finite number, got {value!r}")
    return value


def _coefficients(values) -> list:
    """A coefficient list as floats; a string is not one."""
    if isinstance(values, str):
        raise ParamOutOfRange(f"expected a list of coefficients, got {values!r}")
    return [_real(v) for v in values]


# --- metric Lie groups ------------------------------------------------


def milnor3(lam) -> CatalogEntry:
    """Three-dimensional unimodular group in a bracket-diagonal frame.

    Brackets [e1,e2] = lam[0] e0, [e2,e0] = lam[1] e1,
    [e0,e1] = lam[2] e2 with the identity metric.
    """
    lam = _coefficients(lam)
    if len(lam) != 3:
        raise ParamOutOfRange(f"expected three coefficients, got {len(lam)}")
    l1, l2, l3 = lam
    alg = build_lie_algebra(3, {(1, 2): {0: l1}, (2, 0): {1: l2}, (0, 1): {2: l3}})
    abelian = all(_near(v, 0.0) for v in lam)
    return _entry(
        "milnor3", {"lam": lam}, ReductiveDecomposition(alg, (), (0, 1, 2)),
        InvariantMetric.identity(3),
        "unimodular three-dimensional metric Lie group with "
        "bracket-diagonal orthonormal frame",
        (0.0, 0.0, 0.0),
        cyclic=_near(l1 + l2 + l3, 0.0), traceless=True, vectorial=abelian,
        naturally_reductive=_near(l1, l2) and _near(l2, l3), symmetric=abelian,
    )


def g_solvable(alpha) -> CatalogEntry:
    """Solvable group with [X0, Xi] = alpha[i-1] Xi on an abelian ideal.

    Constant negative curvature when all coefficients agree; cyclic for
    every choice.
    """
    alpha = _coefficients(alpha)
    if not alpha:
        raise ParamOutOfRange("need at least one scaling coefficient")
    n = len(alpha) + 1
    alg = build_lie_algebra(n, {(0, i): {i: alpha[i - 1]} for i in range(1, n)})
    total = float(sum(alpha))
    abelian = all(_near(v, 0.0) for v in alpha)
    return _entry(
        "g", {"alpha": alpha}, ReductiveDecomposition(alg, (), tuple(range(n))),
        InvariantMetric.identity(n),
        "solvable group with one generator scaling an abelian "
        "normal subgroup; hyperbolic space when the scales agree",
        (-total,) + (0.0,) * (n - 1),
        cyclic=True, traceless=_near(total, 0.0),
        vectorial=all(_near(v, alpha[0]) for v in alpha),
        naturally_reductive=abelian, symmetric=abelian,
    )


# --- Heisenberg presentations -----------------------------------------


def _so2_heisenberg_algebra(lam3: float) -> LieAlgebra:
    h3 = build_lie_algebra(3, {(0, 1): {2: lam3}}, basis_labels=("x", "y", "z"))
    rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    ext = semidirect_sum(derivation(h3, rot), h3, new_label="a12")
    # shear the center so that m = span of the last three coordinates is
    # ad(a12)-invariant with an orthonormal bracket table
    p = np.eye(4)
    p[0, 3] = -lam3 / 2.0
    return change_basis(ext, p)


def so2_heisenberg(lam3: float) -> CatalogEntry:
    """Heisenberg group written with its rotation isotropy."""
    lam3 = _real(lam3)
    if lam3 <= 0:
        raise ParamOutOfRange(f"central coefficient must be positive, got {lam3}")
    alg = _so2_heisenberg_algebra(lam3)
    return _entry(
        "so2_heisenberg", {"lam3": lam3}, ReductiveDecomposition(alg, (0,), (1, 2, 3)),
        InvariantMetric.identity(3),
        "Heisenberg group presented as a quotient of its "
        "rotation-extended isometry group",
        (0.0, 0.0, 0.0),
        cyclic=True, traceless=True,
    )


def r_heisenberg(alpha: float, lam3: float) -> CatalogEntry:
    """Solvable extension of the rotation-framed Heisenberg presentation."""
    alpha, lam3 = _real(alpha), _real(lam3)
    if _near(alpha, 0.0):
        raise ParamOutOfRange("the extension scale must be nonzero")
    if lam3 <= 0:
        raise ParamOutOfRange(f"central coefficient must be positive, got {lam3}")
    base = _so2_heisenberg_algebra(lam3)
    d2 = np.diag([0.0, alpha, alpha, 2.0 * alpha])
    d2[0, 3] = alpha * lam3
    alg = semidirect_sum(derivation(base, d2), base, new_label="t")
    return _entry(
        "r_heisenberg", {"alpha": alpha, "lam3": lam3},
        ReductiveDecomposition(alg, (1,), (0, 2, 3, 4)), InvariantMetric.identity(4),
        "one-dimensional solvable extension of the "
        "rotation-framed Heisenberg presentation",
        (-4.0 * alpha, 0.0, 0.0, 0.0),
        cyclic=True, traceless=False,
    )


# --- product examples -------------------------------------------------


def b2_product(rho: float, sigma: float, lam: float) -> CatalogEntry:
    """Two commuting diagonal generators acting on an abelian plane."""
    rho, sigma, lam = _real(rho), _real(sigma), _real(lam)
    if _near(rho + sigma, 0.0):
        raise ParamOutOfRange("the diagonal scales must not cancel")
    if lam <= 0:
        raise ParamOutOfRange(f"the twisting scale must be positive, got {lam}")
    alg = build_lie_algebra(4, {
        (0, 2): {2: rho}, (0, 3): {3: sigma},
        (1, 2): {2: lam}, (1, 3): {3: -lam},
    })
    return _entry(
        "b2_product", {"rho": rho, "sigma": sigma, "lam": lam},
        ReductiveDecomposition(alg, (), (0, 1, 2, 3)), InvariantMetric.identity(4),
        "four-dimensional solvable group with two commuting "
        "diagonal generators on an abelian plane",
        (-(rho + sigma), 0.0, 0.0, 0.0),
        cyclic=True, traceless=False,
    )


def b4_product(alpha: float, c: float, sign: int) -> CatalogEntry:
    """Hyperbolic plane group times a constant-curvature surface.

    The surface factor is presented with its rotation isotropy; sign
    +1 gives the round sphere factor, -1 the hyperbolic one.
    """
    alpha, c = _real(alpha), _real(c)
    if _near(alpha, 0.0):
        raise ParamOutOfRange("the plane scale must be nonzero")
    if c <= 0:
        raise ParamOutOfRange(f"the surface scale must be positive, got {c}")
    if _real(sign) not in (-1, 1):
        raise ParamOutOfRange(f"sign must be +1 or -1, got {sign!r}")
    sign = int(sign)
    alg = build_lie_algebra(5, {
        (0, 1): {1: alpha},
        (3, 4): {2: float(sign) * c},
        (2, 3): {4: c},
        (2, 4): {3: -c},
    }, basis_labels=("e0", "f1", "u", "f2", "f3"))
    return _entry(
        "b4_product", {"alpha": alpha, "c": c, "sign": sign},
        ReductiveDecomposition(alg, (2,), (0, 1, 3, 4)), InvariantMetric.identity(4),
        "product of a hyperbolic plane group with a "
        "constant-curvature surface carrying rotation isotropy",
        (-alpha, 0.0, 0.0, 0.0),
        cyclic=True, traceless=False,
    )


# --- rank-one quotients with block metrics ----------------------------


def _real_coords(matrices) -> np.ndarray:
    """Complex (..., r, r) matrices as real vectors: real parts, then imaginary parts."""
    flat = np.asarray(matrices)
    flat = flat.reshape(flat.shape[:-2] + (-1,))
    return np.concatenate([flat.real, flat.imag], axis=-1)


def _matrix_model(matrices, labels, z, grading):
    """Algebra, grading, and order-3 automorphism of a complex matrix model.

    The structure constants of the closed list of matrices are built at
    from_tensor's default tolerance, and the Killing form is checked
    against 6 tr at the algebra's tolerance; theta is the real matrix of
    X -> z X z^{-1} on their span.  Each is one least-squares solve over
    all its right-hand sides, checked at its worst column.
    """
    dim = len(matrices)
    mats = np.array(matrices)
    basis = _real_coords(mats).T
    i, j = np.triu_indices(dim, 1)
    vecs = _real_coords(mats[i] @ mats[j] - mats[j] @ mats[i]).T
    coeffs = np.linalg.lstsq(basis, vecs, rcond=None)[0]
    remainders = np.linalg.norm(basis @ coeffs - vecs, axis=0)
    scales = np.maximum(1.0, np.linalg.norm(vecs, axis=0))
    worst = int(np.argmax(remainders / scales))
    check("model_closure", float(remainders[worst]), float(scales[worst]),
          i=int(i[worst]), j=int(j[worst]))
    tensor = np.zeros((dim, dim, dim))
    tensor[i, j] = coeffs.T
    tensor[j, i] = -coeffs.T
    alg = from_tensor(np.round(tensor, 12), basis_labels=labels)

    expected_b = np.array([[6.0 * np.trace(x @ y).real for y in matrices]
                           for x in matrices])
    check("model_killing", float(np.abs(killing_form(alg) - expected_b).max()), tol=alg.tol)

    vecs = _real_coords(z @ mats @ np.linalg.inv(z)).T
    theta = np.linalg.lstsq(basis, vecs, rcond=None)[0]
    check("model_conjugation", float(np.linalg.norm(basis @ theta - vecs, axis=0).max()))
    return alg, grading, theta


@dataclass(frozen=True)
class _BlockModel:
    """A matrix model's builder, bracket spans and cyclic cone.

    spans lists the (a, b, p), a <= b, for which [block a, block b] may
    reach part p, part len(blocks) being k.  Positive combinations of
    the cone generators are the block coefficients of cyclic metrics.
    """

    name: str
    build: Callable[[], tuple]
    spans: tuple
    cone: tuple


@lru_cache(maxsize=None)
def su21_model():
    """Algebra, grading, and order-3 automorphism of the su(2,1) quotient.

    Basis: two diagonal torus generators, then three 2-dimensional
    blocks mixing the coordinate axes pairwise.  The Killing form is
    negative definite on the first block and positive on the others.
    """
    def e(r, s):  # the complex matrix unit E_rs
        return np.outer(np.eye(3)[r], np.eye(3)[s]).astype(complex)

    i_ = 1j
    matrices = [
        i_ * e(0, 0) - i_ * e(2, 2),
        i_ * e(1, 1) - i_ * e(2, 2),
        e(0, 1) - e(1, 0),
        i_ * (e(0, 1) + e(1, 0)),
        e(0, 2) + e(2, 0),
        i_ * (e(0, 2) - e(2, 0)),
        e(1, 2) + e(2, 1),
        i_ * (e(1, 2) - e(2, 1)),
    ]
    omega = np.exp(2j * np.pi / 3.0)
    return _matrix_model(
        matrices, ("k1", "k2", "a1", "a2", "b1", "b2", "c1", "c2"),
        np.diag([1.0 + 0j, omega, np.conj(omega)]),
        BlockGrading(blocks=((2, 3), (4, 5), (6, 7)), signs=(-1, 1, 1)),
    )


# each block brackets with itself into k and with another into the third
_SU21 = _BlockModel(
    "su21", su21_model,
    spans=((0, 0, 3), (1, 1, 3), (2, 2, 3), (0, 1, 2), (0, 2, 1), (1, 2, 0)),
    cone=((-1.0, 1.0, 0.0), (-1.0, 0.0, 1.0)),
)


def _quat(x, y, z, w) -> np.ndarray:
    """Quaternion x + yi + zj + wk as a 2x2 complex matrix."""
    return np.array([[x + 1j * y, z + 1j * w],
                     [-z + 1j * w, x - 1j * y]])


def _quat_block(q11, q12, q21, q22) -> np.ndarray:
    return np.block([[q11, q12], [q21, q22]])


@lru_cache(maxsize=None)
def sp11_model():
    """Algebra, grading, and order-3 automorphism of the sp(1,1) quotient.

    Quaternionic 2x2 matrices preserving a signature (1,1) form, in the
    standard complex embedding.  The isotropy is four-dimensional; m
    splits into a 2-dimensional compact block V and a 4-dimensional
    noncompact block H.
    """
    zero = _quat(0, 0, 0, 0)
    one = _quat(1, 0, 0, 0)
    qi = _quat(0, 1, 0, 0)
    qj = _quat(0, 0, 1, 0)
    qk = _quat(0, 0, 0, 1)

    matrices = [
        _quat_block(qi, zero, zero, zero),
        _quat_block(zero, zero, zero, qi),
        _quat_block(zero, zero, zero, qj),
        _quat_block(zero, zero, zero, qk),
        _quat_block(qj, zero, zero, zero),
        _quat_block(qk, zero, zero, zero),
        _quat_block(zero, one, one, zero),
        _quat_block(zero, -qi, qi, zero),
        _quat_block(zero, -qj, qj, zero),
        _quat_block(zero, -qk, qk, zero),
    ]
    uq = _quat(np.cos(2.0 * np.pi / 3.0), np.sin(2.0 * np.pi / 3.0), 0.0, 0.0)
    return _matrix_model(
        matrices, ("k1", "k2", "k3", "k4", "v1", "v2", "h1", "h2", "h3", "h4"),
        _quat_block(uq, zero, zero, one),
        BlockGrading(blocks=((4, 5), (6, 7, 8, 9)), signs=(-1, 1)),
    )


# [V, V] and [H, H] reach k, [V, H] stays in H, and [H, H] also reaches V
_SP11 = _BlockModel(
    "sp11", sp11_model,
    spans=((0, 0, 2), (0, 1, 1), (1, 1, 2), (1, 1, 0)),
    cone=((-2.0, 1.0),),
)

_BLOCK_MODELS = (_SU21, _SP11)


def _block_entry(name, params, model, provenance) -> CatalogEntry:
    """A model's quotient with lam[a] times the Killing form on block a.

    lam weighs the model's cone generators by the parameters, in order,
    so every such entry is traceless cyclic with a vanishing trace form.
    """
    alg, grading, _ = model.build()
    lam = np.asarray(list(params.values())) @ np.asarray(model.cone)
    return _entry(
        name, params, grading_decomposition(alg, grading),
        cyclic_metric(alg, grading, lam), provenance,
        (0.0,) * len(grading.m_indices),
        cyclic=True, traceless=True, grading=grading, spans=model.spans,
    )


def su21_a3ii(lam: float, mu: float) -> CatalogEntry:
    """Torus quotient of the signature (2,1) special unitary group.

    The metric puts -(lam+mu), lam, mu times the Killing form on the
    three blocks of m; the coefficients sum to zero, which makes every
    member of the family cyclic.
    """
    lam, mu = _real(lam), _real(mu)
    if lam <= 0 or mu <= 0:
        raise ParamOutOfRange("both block coefficients must be positive")
    return _block_entry(
        "su21_a3ii", {"lam": lam, "mu": mu}, _SU21,
        "torus quotient of the special unitary group of "
        "signature (2,1) with a three-block metric",
    )


def sp11_a3iii(mu: float) -> CatalogEntry:
    """Quotient of the signature (1,1) symplectic unitary group.

    The cyclic family is the single ray with coefficient -2 mu on the
    compact block and mu on the noncompact one.
    """
    mu = _real(mu)
    if mu <= 0:
        raise ParamOutOfRange(f"the ray parameter must be positive, got {mu}")
    return _block_entry(
        "sp11_a3iii", {"mu": mu}, _SP11,
        "quotient of the rank-one symplectic unitary group of "
        "signature (1,1) by its four-dimensional isotropy",
    )


# --- registry ----------------------------------------------------------


# each builder with its parameter names, read from its signature once
_BUILDERS = {
    name: (func, tuple(signature(func).parameters))
    for name, func in {
        "milnor3": milnor3,
        "g": g_solvable,
        "so2_heisenberg": so2_heisenberg,
        "r_heisenberg": r_heisenberg,
        "b2_product": b2_product,
        "b4_product": b4_product,
        "su21_a3ii": su21_a3ii,
        "sp11_a3iii": sp11_a3iii,
    }.items()
}


def list_entries() -> list[str]:
    return sorted(_BUILDERS)


def build(name: str, **params) -> CatalogEntry:
    if name not in _BUILDERS:
        raise UnknownEntry(
            f"no catalog entry named {name!r}; available: {', '.join(list_entries())}"
        )
    func, keys = _BUILDERS[name]
    unknown = set(params) - set(keys)
    if unknown:
        raise ParamOutOfRange(
            f"{name} does not take parameters {sorted(unknown)}; expects {list(keys)}"
        )
    missing = set(keys) - set(params)
    if missing:
        raise ParamOutOfRange(
            f"{name} is missing parameters {sorted(missing)}"
        )
    try:
        return func(**params)
    except (TypeError, ValueError) as exc:  # a value the builder cannot convert
        raise ParamOutOfRange(f"{name}: invalid parameter value ({exc})") from exc


_DEFAULTS = (
    ("milnor3", {"lam": (1.0, 1.0, 1.0)}),
    ("milnor3", {"lam": (1.0, 2.0, -3.0)}),
    ("milnor3", {"lam": (1.0, 0.0, -1.0)}),
    ("milnor3", {"lam": (2.0, 1.0, 1.0)}),
    ("g", {"alpha": (1.0,)}),
    ("g", {"alpha": (1.0, 1.0)}),
    ("g", {"alpha": (1.0, -1.0)}),
    ("g", {"alpha": (0.5, 1.0, 2.0)}),
    ("so2_heisenberg", {"lam3": 1.0}),
    ("r_heisenberg", {"alpha": 1.0, "lam3": 1.0}),
    ("b2_product", {"rho": 1.0, "sigma": 2.0, "lam": 1.5}),
    ("b4_product", {"alpha": 1.0, "c": 1.0, "sign": 1}),
    ("b4_product", {"alpha": 1.0, "c": 1.0, "sign": -1}),
    ("su21_a3ii", {"lam": 1.0, "mu": 1.0}),
    ("sp11_a3iii", {"mu": 1.0}),
)


def default_entries() -> list[CatalogEntry]:
    """The entries verification sweeps, in a stable order."""
    entries = [build(name, **dict(params)) for name, params in _DEFAULTS]
    return sorted(entries, key=lambda e: e.label)
