import numpy as np
import pytest

from homgeo.curvature import (
    curvature_diagonal_general,
    curvature_tensor,
    cyclic_curvature_diagonal,
    einstein_check,
    killing_quadratic_via_brackets,
    ricci_routes,
    sectional_curvature,
    xi_curvatures,
)
from homgeo.errors import DegeneratePlane, NotCyclic, UnimodularInput
from homgeo.lie import build_lie_algebra, killing_form
from homgeo.reductive import Frame, InvariantMetric, ReductiveDecomposition


def milnor_dec(l1, l2, l3):
    alg = build_lie_algebra(
        3, {(1, 2): {0: l1}, (2, 0): {1: l2}, (0, 1): {2: l3}}
    )
    return ReductiveDecomposition(alg, (), (0, 1, 2)), InvariantMetric.identity(3)


def g_dec(*alpha):
    n = len(alpha) + 1
    alg = build_lie_algebra(n, {(0, i): {i: alpha[i - 1]} for i in range(1, n)})
    return ReductiveDecomposition(alg, (), tuple(range(n))), InvariantMetric.identity(n)


def test_levi_civita_biinvariant():
    dec, g = milnor_dec(1.0, 1.0, 1.0)
    frame = Frame(dec, g)
    gamma = frame.gamma
    assert np.allclose(gamma, 0.5 * frame.lte)


def test_round_sphere_curvature():
    dec, g = milnor_dec(1.0, 1.0, 1.0)
    r4 = curvature_tensor(dec, g)
    for a in range(3):
        for b in range(3):
            if a != b:
                assert r4[a, b, a, b] == pytest.approx(0.25)
    assert sectional_curvature(dec, g, [1.0, 0, 0], [0, 1.0, 0]) == pytest.approx(0.25)
    # K is constant on every plane, not only coordinate ones
    rng = np.random.default_rng(10)
    for _ in range(5):
        x, y = rng.standard_normal((2, 3))
        assert sectional_curvature(dec, g, x, y) == pytest.approx(0.25)
    ric = einstein_check(dec, g).ricci
    assert np.allclose(ric, 0.5 * np.eye(3))
    assert float(np.trace(ric)) == pytest.approx(1.5)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_hyperbolic_plane_curvature(alpha):
    dec, g = g_dec(alpha)
    assert sectional_curvature(dec, g, [1.0, 0], [0, 1.0]) == pytest.approx(-alpha**2)
    rep = einstein_check(dec, g)
    assert rep.is_einstein
    assert rep.einstein_constant == pytest.approx(-alpha**2)
    assert rep.deviation <= 1e-12


def test_ricci_equals_minus_killing_for_e11():
    dec, g = milnor_dec(1.0, 0.0, -1.0)
    ric = einstein_check(dec, g).ricci
    b = killing_form(dec.algebra)
    assert np.abs(ric + b).max() <= 1e-8
    assert np.allclose(ric, np.diag([0.0, -2.0, 0.0]))


def test_ricci_signature_mixed_case():
    dec, g = milnor_dec(1.0, 2.0, -3.0)
    ev = np.linalg.eigvalsh(einstein_check(dec, g).ricci)
    assert (ev < -1e-9).sum() == 2
    assert (ev > 1e-9).sum() == 1


def test_ricci_routes_reported():
    dec, g = milnor_dec(1.0, 0.0, -1.0)
    routes = ricci_routes(dec, g)
    assert set(routes) == {"trace", "general", "cyclic"}
    dec, g = milnor_dec(1.0, 1.0, 1.0)  # not cyclic
    assert set(ricci_routes(dec, g)) == {"trace", "general"}


def test_diagonal_routes_agree_randomly():
    dec, g = milnor_dec(1.0, 0.0, -1.0)
    frame = Frame(dec, g)
    r4 = curvature_tensor(frame)
    rng = np.random.default_rng(11)
    for _ in range(25):
        x, y = rng.standard_normal((2, 3))
        expected = float(np.einsum("a,b,c,d,abcd->", x, y, x, y, r4))
        assert curvature_diagonal_general(frame, None, x, y) == pytest.approx(
            expected, abs=1e-10)
        assert cyclic_curvature_diagonal(frame, None, x, y) == pytest.approx(
            expected, abs=1e-10)


def test_cyclic_formula_guard():
    dec, g = milnor_dec(1.0, 1.0, 1.0)
    with pytest.raises(NotCyclic):
        cyclic_curvature_diagonal(dec, g, [1.0, 0, 0], [0, 1.0, 0])


def test_sectional_scaling_and_degeneracy():
    dec, g = g_dec(1.0)
    k = sectional_curvature(dec, g, [1.0, 0], [0, 1.0])
    for t in (0.5, 2.0):
        scaled = InvariantMetric(t * g.matrix)
        assert sectional_curvature(dec, scaled, [1.0, 0], [0, 1.0]) == pytest.approx(k / t)
    with pytest.raises(DegeneratePlane):
        sectional_curvature(dec, g, [1.0, 0.0], [2.0, 0.0])


def test_xi_curvatures_constant_negative_family():
    for n, alpha in ((3, 1.0), (4, 0.5)):
        dec, g = g_dec(*([alpha] * (n - 1)))
        rep = xi_curvatures(dec, g)
        assert rep.c == pytest.approx((n - 1) * alpha)
        assert rep.kappa == pytest.approx(-(n - 1) * alpha**2)
        assert rep.umbilical
        assert np.allclose(rep.sectional, -(alpha**2))
        assert np.allclose(rep.sectional, -((rep.c / (n - 1)) ** 2))
        assert rep.radial_residual <= 1e-10


def test_xi_curvatures_guards():
    dec, g = milnor_dec(1.0, 0.0, -1.0)
    with pytest.raises(UnimodularInput):
        xi_curvatures(dec, g)  # unimodular
    alg = build_lie_algebra(3, {(0, 1): {1: 1.0}, (0, 2): {1: 1.0, 2: 2.0}})
    dec = ReductiveDecomposition(alg, (), (0, 1, 2))
    with pytest.raises(NotCyclic):
        xi_curvatures(dec, InvariantMetric.identity(3))


def test_killing_identity_over_m_frame():
    alg = build_lie_algebra(4, {
        (0, 1): {2: 1.0},
        (0, 2): {1: -1.0},
        (1, 2): {3: 1.0, 0: 0.5},
        (1, 3): {2: 0.5},
        (2, 3): {1: -0.5},
    })
    dec = ReductiveDecomposition(alg, (0,), (1, 2, 3))
    frame = Frame(dec, InvariantMetric.identity(3))
    b = killing_form(alg)
    rng = np.random.default_rng(12)
    for _ in range(8):
        x = rng.standard_normal(3)
        xg = frame.g_coords(x)
        assert killing_quadratic_via_brackets(frame, x) == pytest.approx(
            float(xg @ b @ xg), abs=1e-10)


def test_isotropy_curvature_contribution():
    # the sphere factor of a product with rotation isotropy has K = c^2
    alg = build_lie_algebra(5, {
        (0, 1): {1: 1.0},
        (3, 4): {2: 1.0},
        (2, 3): {4: 1.0},
        (2, 4): {3: -1.0},
    }, basis_labels=("e0", "f1", "u", "f2", "f3"))
    dec = ReductiveDecomposition(alg, (2,), (0, 1, 3, 4))
    g = InvariantMetric.identity(4)
    # plane in the surface factor (m coordinates 2, 3)
    assert sectional_curvature(dec, g, [0, 0, 1.0, 0], [0, 0, 0, 1.0]) == pytest.approx(1.0)
    # plane in the hyperbolic factor
    assert sectional_curvature(dec, g, [1.0, 0, 0, 0], [0, 1.0, 0, 0]) == pytest.approx(-1.0)
    # mixed planes are flat
    assert sectional_curvature(dec, g, [1.0, 0, 0, 0], [0, 0, 1.0, 0]) == pytest.approx(0.0, abs=1e-12)
