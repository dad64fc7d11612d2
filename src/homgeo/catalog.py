"""Concrete homogeneous spaces with known classification labels.

Each builder returns a CatalogEntry: the algebra, a reductive
splitting, an invariant metric, and the expected class booleans that
verification compares against classify.  Entries cover metric Lie
groups (empty isotropy), two Heisenberg presentations with rotational
isotropy, two product examples, and the two rank-one quotients whose
block metrics realize the 3-symmetric cyclic families.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .config import CATALOG_TOL, DEFAULT_TOL
from .errors import ConsistencyError, ParamOutOfRange, UnknownEntry
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
    traceless_cyclic: bool
    vectorial: bool
    naturally_reductive: bool
    symmetric: bool
    eta: tuple

    def mismatches(self, report, tol=DEFAULT_TOL) -> list:
        """Names of fields on which a ClassificationReport disagrees."""
        bad = [name for name, want in self.booleans().items()
               if report.booleans()[name] != want]
        eta = np.asarray(self.eta, dtype=float)
        got = np.asarray(report.eta, dtype=float)
        if eta.shape != got.shape or float(np.abs(eta - got).max()) > max(
                tol, 1e-9 * max(1.0, float(np.abs(eta).max()))):
            bad.append("eta")
        return bad


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    name: str
    params: dict
    algebra: LieAlgebra
    decomposition: ReductiveDecomposition
    metric: InvariantMetric
    expected: ExpectedClass
    provenance: str
    grading: BlockGrading | None = None

    @property
    def label(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.name}({inner})"


def _near(x, y) -> bool:
    return abs(x - y) <= 1e-12 * max(1.0, abs(x), abs(y))


def _coefficients(values) -> list:
    """A coefficient list as floats; a string is not one."""
    if isinstance(values, str):
        raise ParamOutOfRange(f"expected a list of coefficients, got {values!r}")
    return [float(v) for v in values]


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
    dec = ReductiveDecomposition(alg, (), (0, 1, 2))
    total = l1 + l2 + l3
    abelian = all(_near(v, 0.0) for v in lam)
    cyclic = _near(total, 0.0)
    expected = ExpectedClass(
        cyclic=cyclic,
        traceless=True,
        traceless_cyclic=cyclic and not abelian,
        vectorial=abelian,
        naturally_reductive=_near(l1, l2) and _near(l2, l3),
        symmetric=abelian,
        eta=(0.0, 0.0, 0.0),
    )
    return CatalogEntry(
        name="milnor3",
        params={"lam": lam},
        algebra=alg,
        decomposition=dec,
        metric=InvariantMetric.identity(3),
        expected=expected,
        provenance="unimodular three-dimensional metric Lie group with "
                   "bracket-diagonal orthonormal frame",
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
    brackets = {(0, i): {i: alpha[i - 1]} for i in range(1, n)}
    alg = build_lie_algebra(n, brackets)
    dec = ReductiveDecomposition(alg, (), tuple(range(n)))
    total = float(sum(alpha))
    abelian = all(_near(v, 0.0) for v in alpha)
    traceless = _near(total, 0.0)
    expected = ExpectedClass(
        cyclic=True,
        traceless=traceless,
        traceless_cyclic=traceless and not abelian,
        vectorial=all(_near(v, alpha[0]) for v in alpha),
        naturally_reductive=abelian,
        symmetric=abelian,
        eta=(-total,) + (0.0,) * (n - 1),
    )
    return CatalogEntry(
        name="g",
        params={"alpha": alpha},
        algebra=alg,
        decomposition=dec,
        metric=InvariantMetric.identity(n),
        expected=expected,
        provenance="solvable group with one generator scaling an abelian "
                   "normal subgroup; hyperbolic space when the scales agree",
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
    lam3 = float(lam3)
    if lam3 <= 0:
        raise ParamOutOfRange(f"central coefficient must be positive, got {lam3}")
    alg = _so2_heisenberg_algebra(lam3)
    dec = ReductiveDecomposition(alg, (0,), (1, 2, 3))
    expected = ExpectedClass(
        cyclic=True,
        traceless=True,
        traceless_cyclic=True,
        vectorial=False,
        naturally_reductive=False,
        symmetric=False,
        eta=(0.0, 0.0, 0.0),
    )
    return CatalogEntry(
        name="so2_heisenberg",
        params={"lam3": lam3},
        algebra=alg,
        decomposition=dec,
        metric=InvariantMetric.identity(3),
        expected=expected,
        provenance="Heisenberg group presented as a quotient of its "
                   "rotation-extended isometry group",
    )


def r_heisenberg(alpha: float, lam3: float) -> CatalogEntry:
    """Solvable extension of the rotation-framed Heisenberg presentation."""
    alpha = float(alpha)
    lam3 = float(lam3)
    if _near(alpha, 0.0):
        raise ParamOutOfRange("the extension scale must be nonzero")
    if lam3 <= 0:
        raise ParamOutOfRange(f"central coefficient must be positive, got {lam3}")
    base = _so2_heisenberg_algebra(lam3)
    d2 = np.diag([0.0, alpha, alpha, 2.0 * alpha])
    d2[0, 3] = alpha * lam3
    alg = semidirect_sum(derivation(base, d2), base, new_label="t")
    dec = ReductiveDecomposition(alg, (1,), (0, 2, 3, 4))
    expected = ExpectedClass(
        cyclic=True,
        traceless=False,
        traceless_cyclic=False,
        vectorial=False,
        naturally_reductive=False,
        symmetric=False,
        eta=(-4.0 * alpha, 0.0, 0.0, 0.0),
    )
    return CatalogEntry(
        name="r_heisenberg",
        params={"alpha": alpha, "lam3": lam3},
        algebra=alg,
        decomposition=dec,
        metric=InvariantMetric.identity(4),
        expected=expected,
        provenance="one-dimensional solvable extension of the "
                   "rotation-framed Heisenberg presentation",
    )


# --- product examples -------------------------------------------------


def b2_product(rho: float, sigma: float, lam: float) -> CatalogEntry:
    """Two commuting diagonal generators acting on an abelian plane."""
    rho, sigma, lam = float(rho), float(sigma), float(lam)
    if _near(rho + sigma, 0.0):
        raise ParamOutOfRange("the diagonal scales must not cancel")
    if lam <= 0:
        raise ParamOutOfRange(f"the twisting scale must be positive, got {lam}")
    alg = build_lie_algebra(4, {
        (0, 2): {2: rho}, (0, 3): {3: sigma},
        (1, 2): {2: lam}, (1, 3): {3: -lam},
    })
    dec = ReductiveDecomposition(alg, (), (0, 1, 2, 3))
    expected = ExpectedClass(
        cyclic=True,
        traceless=False,
        traceless_cyclic=False,
        vectorial=False,
        naturally_reductive=False,
        symmetric=False,
        eta=(-(rho + sigma), 0.0, 0.0, 0.0),
    )
    return CatalogEntry(
        name="b2_product",
        params={"rho": rho, "sigma": sigma, "lam": lam},
        algebra=alg,
        decomposition=dec,
        metric=InvariantMetric.identity(4),
        expected=expected,
        provenance="four-dimensional solvable group with two commuting "
                   "diagonal generators on an abelian plane",
    )


def b4_product(alpha: float, c: float, sign: int) -> CatalogEntry:
    """Hyperbolic plane group times a constant-curvature surface.

    The surface factor is presented with its rotation isotropy; sign
    +1 gives the round sphere factor, -1 the hyperbolic one.
    """
    alpha, c = float(alpha), float(c)
    if _near(alpha, 0.0):
        raise ParamOutOfRange("the plane scale must be nonzero")
    if c <= 0:
        raise ParamOutOfRange(f"the surface scale must be positive, got {c}")
    if sign not in (-1, 1):
        raise ParamOutOfRange(f"sign must be +1 or -1, got {sign!r}")
    sign = int(sign)
    alg = build_lie_algebra(5, {
        (0, 1): {1: alpha},
        (3, 4): {2: float(sign) * c},
        (2, 3): {4: c},
        (2, 4): {3: -c},
    }, basis_labels=("e0", "f1", "u", "f2", "f3"))
    dec = ReductiveDecomposition(alg, (2,), (0, 1, 3, 4))
    expected = ExpectedClass(
        cyclic=True,
        traceless=False,
        traceless_cyclic=False,
        vectorial=False,
        naturally_reductive=False,
        symmetric=False,
        eta=(-alpha, 0.0, 0.0, 0.0),
    )
    return CatalogEntry(
        name="b4_product",
        params={"alpha": alpha, "c": c, "sign": sign},
        algebra=alg,
        decomposition=dec,
        metric=InvariantMetric.identity(4),
        expected=expected,
        provenance="product of a hyperbolic plane group with a "
                   "constant-curvature surface carrying rotation isotropy",
    )


# --- rank-one quotients with block metrics ----------------------------


def _real_coords(matrices) -> np.ndarray:
    """Stack complex matrices into real column vectors."""
    cols = []
    for m in matrices:
        flat = np.asarray(m).ravel()
        cols.append(np.concatenate([flat.real, flat.imag]))
    return np.array(cols).T


def _algebra_from_matrices(matrices, labels) -> LieAlgebra:
    """Structure constants of a closed list of complex matrices, at CATALOG_TOL."""
    dim = len(matrices)
    basis = _real_coords(matrices)
    tensor = np.zeros((dim, dim, dim))
    for i in range(dim):
        for j in range(i + 1, dim):
            target = matrices[i] @ matrices[j] - matrices[j] @ matrices[i]
            vec = np.concatenate([target.ravel().real, target.ravel().imag])
            coeff, res, _, _ = np.linalg.lstsq(basis, vec, rcond=None)
            remainder = float(np.linalg.norm(basis @ coeff - vec))
            if remainder > 1e-9 * max(1.0, float(np.linalg.norm(vec))):
                raise ConsistencyError(
                    f"matrix basis is not closed under brackets at ({i},{j})"
                )
            tensor[i, j, :] = coeff
            tensor[j, i, :] = -coeff
    tensor = np.round(tensor, 12)
    return from_tensor(tensor, basis_labels=labels, tol=CATALOG_TOL)


def _conjugation_matrix(matrices, z) -> np.ndarray:
    """Real matrix of X -> z X z^{-1} on the span of the basis."""
    basis = _real_coords(matrices)
    zinv = np.linalg.inv(z)
    cols = []
    for m in matrices:
        t = z @ m @ zinv
        vec = np.concatenate([t.ravel().real, t.ravel().imag])
        coeff, _, _, _ = np.linalg.lstsq(basis, vec, rcond=None)
        if float(np.linalg.norm(basis @ coeff - vec)) > 1e-9:
            raise ConsistencyError("conjugation does not preserve the span")
        cols.append(coeff)
    return np.array(cols).T


@lru_cache(maxsize=None)
def su21_model():
    """Algebra, grading, and order-3 automorphism of the su(2,1) quotient.

    Basis: two diagonal torus generators, then three 2-dimensional
    blocks mixing the coordinate axes pairwise.  The Killing form is
    negative definite on the first block and positive on the others.
    """
    e = [[np.zeros((3, 3), dtype=complex) for _ in range(3)] for _ in range(3)]
    for r in range(3):
        for s in range(3):
            m = np.zeros((3, 3), dtype=complex)
            m[r, s] = 1.0
            e[r][s] = m
    i_ = 1j
    matrices = [
        i_ * e[0][0] - i_ * e[2][2],
        i_ * e[1][1] - i_ * e[2][2],
        e[0][1] - e[1][0],
        i_ * (e[0][1] + e[1][0]),
        e[0][2] + e[2][0],
        i_ * (e[0][2] - e[2][0]),
        e[1][2] + e[2][1],
        i_ * (e[1][2] - e[2][1]),
    ]
    labels = ("k1", "k2", "a1", "a2", "b1", "b2", "c1", "c2")
    alg = _algebra_from_matrices(matrices, labels)

    b = killing_form(alg)
    expected_b = np.array([[6.0 * np.trace(x @ y).real for y in matrices]
                           for x in matrices])
    if float(np.abs(b - expected_b).max()) > CATALOG_TOL:
        raise ConsistencyError("Killing form does not match six times the trace form")

    omega = np.exp(2j * np.pi / 3.0)
    z = np.diag([1.0 + 0j, omega, np.conj(omega)])
    theta = _conjugation_matrix(matrices, z)

    grading = BlockGrading(blocks=((2, 3), (4, 5), (6, 7)), signs=(-1, 1, 1))
    return alg, grading, theta


def _quat(x, y, z, w) -> np.ndarray:
    """Quaternion x + yi + zj + wk as a 2x2 complex matrix."""
    return np.array([[x + 1j * y, z + 1j * w],
                     [-z + 1j * w, x - 1j * y]])


def _quat_block(q11, q12, q21, q22) -> np.ndarray:
    out = np.zeros((4, 4), dtype=complex)
    out[0:2, 0:2] = q11
    out[0:2, 2:4] = q12
    out[2:4, 0:2] = q21
    out[2:4, 2:4] = q22
    return out


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
    labels = ("k1", "k2", "k3", "k4", "v1", "v2", "h1", "h2", "h3", "h4")
    alg = _algebra_from_matrices(matrices, labels)

    b = killing_form(alg)
    expected_b = np.array([[6.0 * np.trace(x @ y).real for y in matrices]
                           for x in matrices])
    if float(np.abs(b - expected_b).max()) > CATALOG_TOL:
        raise ConsistencyError("Killing form does not match six times the trace form")

    uq = _quat(np.cos(2.0 * np.pi / 3.0), np.sin(2.0 * np.pi / 3.0), 0.0, 0.0)
    z = _quat_block(uq, zero, zero, one)
    theta = _conjugation_matrix(matrices, z)

    grading = BlockGrading(blocks=((4, 5), (6, 7, 8, 9)), signs=(-1, 1))
    return alg, grading, theta


def su21_a3ii(lam: float, mu: float) -> CatalogEntry:
    """Torus quotient of the signature (2,1) special unitary group.

    The metric puts -(lam+mu), lam, mu times the Killing form on the
    three blocks of m; the coefficients sum to zero, which makes every
    member of the family cyclic.
    """
    lam, mu = float(lam), float(mu)
    if lam <= 0 or mu <= 0:
        raise ParamOutOfRange("both block coefficients must be positive")
    alg, grading, _ = su21_model()
    dec = grading_decomposition(alg, grading)
    metric = cyclic_metric(alg, grading, [-(lam + mu), lam, mu])
    expected = ExpectedClass(
        cyclic=True,
        traceless=True,
        traceless_cyclic=True,
        vectorial=False,
        naturally_reductive=False,
        symmetric=False,
        eta=(0.0,) * 6,
    )
    return CatalogEntry(
        name="su21_a3ii",
        params={"lam": lam, "mu": mu},
        algebra=alg,
        decomposition=dec,
        metric=metric,
        expected=expected,
        provenance="torus quotient of the special unitary group of "
                   "signature (2,1) with a three-block metric",
        grading=grading,
    )


def sp11_a3iii(mu: float) -> CatalogEntry:
    """Quotient of the signature (1,1) symplectic unitary group.

    The cyclic family is the single ray with coefficient -2 mu on the
    compact block and mu on the noncompact one.
    """
    mu = float(mu)
    if mu <= 0:
        raise ParamOutOfRange(f"the ray parameter must be positive, got {mu}")
    alg, grading, _ = sp11_model()
    dec = grading_decomposition(alg, grading)
    metric = cyclic_metric(alg, grading, [-2.0 * mu, mu])
    expected = ExpectedClass(
        cyclic=True,
        traceless=True,
        traceless_cyclic=True,
        vectorial=False,
        naturally_reductive=False,
        symmetric=False,
        eta=(0.0,) * 6,
    )
    return CatalogEntry(
        name="sp11_a3iii",
        params={"mu": mu},
        algebra=alg,
        decomposition=dec,
        metric=metric,
        expected=expected,
        provenance="quotient of the rank-one symplectic unitary group of "
                   "signature (1,1) by its four-dimensional isotropy",
        grading=grading,
    )


# --- registry ----------------------------------------------------------


_BUILDERS = {
    "milnor3": (milnor3, ("lam",)),
    "g": (g_solvable, ("alpha",)),
    "so2_heisenberg": (so2_heisenberg, ("lam3",)),
    "r_heisenberg": (r_heisenberg, ("alpha", "lam3")),
    "b2_product": (b2_product, ("rho", "sigma", "lam")),
    "b4_product": (b4_product, ("alpha", "c", "sign")),
    "su21_a3ii": (su21_a3ii, ("lam", "mu")),
    "sp11_a3iii": (sp11_a3iii, ("mu",)),
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
