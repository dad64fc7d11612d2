from dataclasses import fields

import numpy as np
import pytest
import scipy.linalg

from homgeo.catalog import default_entries, su21_model
from homgeo.errors import (
    IndexOutOfRange,
    JacobiViolation,
    NotADerivation,
    ParamOutOfRange,
)
from homgeo.lie import (
    Derivation,
    LieAlgebra,
    _null_space,
    ad_matrix,
    build_lie_algebra,
    change_basis,
    derivation,
    derivation_residual,
    from_tensor,
    jacobi_residual,
    killing_form,
    semidirect_sum,
    trace_vector,
    unimodular_kernel,
)


def milnor(l1, l2, l3):
    return build_lie_algebra(
        3, {(1, 2): {0: l1}, (2, 0): {1: l2}, (0, 1): {2: l3}}
    )


def test_build_and_normalize():
    alg = milnor(1.0, 2.0, -3.0)
    assert alg.dim == 3
    assert alg.basis_labels == ("e0", "e1", "e2")
    # (2, 0) entries get normalized to (0, 2) with flipped sign
    assert alg.brackets[(0, 2)] == {1: -2.0}
    assert alg.tensor[2, 0, 1] == 2.0
    assert alg.tensor[0, 2, 1] == -2.0
    assert alg.jacobi_defect <= 1e-12


def test_bracket_evaluation():
    alg = milnor(1.0, 1.0, 1.0)
    # with all couplings 1 the bracket is the cross product
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([0.0, 1.0, 0.0])
    assert np.allclose(alg.bracket(x, y), [0.0, 0.0, 1.0])
    assert np.allclose(alg.bracket(y, x), [0.0, 0.0, -1.0])
    rng = np.random.default_rng(0)
    for _ in range(5):
        u, v = rng.standard_normal((2, 3))
        assert np.allclose(alg.bracket(u, v), np.cross(u, v))


def test_index_validation():
    with pytest.raises(IndexOutOfRange):
        build_lie_algebra(2, {(0, 3): {0: 1.0}})
    with pytest.raises(IndexOutOfRange):
        build_lie_algebra(2, {(0, 1): {5: 1.0}})
    with pytest.raises(IndexOutOfRange):
        build_lie_algebra(2, {(1, 1): {0: 1.0}})
    with pytest.raises(IndexOutOfRange):
        build_lie_algebra(-1, {})


@pytest.mark.parametrize("table", [
    {(0, 1): {2.7: 1.0}},  # a float output index is not truncated
    {(0, 1): {np.float64(2.0): 1.0}},  # nor is a whole-valued float
    {(0, 1): {"x": 1.0}},
    {(0.0, 1): {2: 1.0}},
    {(0, 1, 5): {2: 1.0}},  # a third pair index is not dropped
    {(0, 1, 2): {2: 1.0}},
    {(0,): {2: 1.0}},
    {1: {2: 1.0}},
    {(0, 0): {99: 0.0}},  # output indices of [e_i, e_i] are range-checked too
    {(0, 0): {-1: 0.0}},
    {(0, 1): {-1: 1.0}},
], ids=repr)
def test_indices_must_be_basis_integers(table):
    with pytest.raises(IndexOutOfRange):
        build_lie_algebra(3, table)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_coefficients_rejected(bad):
    with pytest.raises(ParamOutOfRange, match=r"\[e0, e1\] has a non-finite"):
        build_lie_algebra(3, {(1, 0): {2: bad}})
    with pytest.raises(IndexOutOfRange):
        build_lie_algebra(3, {(1, 1): {2: bad}})


def test_jacobi_violation_raises():
    with pytest.raises(JacobiViolation,
                       match=r"Jacobi identity fails: residual 1\.000e\+00 \(bound 1\.0e-09\)"):
        build_lie_algebra(3, {(0, 1): {2: 1.0}, (1, 2): {1: 1.0}})
    # the same table passes at a tolerance beyond its residual
    alg = build_lie_algebra(3, {(0, 1): {2: 1.0}, (1, 2): {1: 1e-13}})
    assert alg.jacobi_defect <= 1e-9


def test_jacobi_residual_value():
    # [e0,[e1,e2]] = [e0, e1] = e2 is the only surviving term
    t = np.zeros((3, 3, 3))
    t[0, 1, 2], t[1, 0, 2] = 1.0, -1.0
    t[1, 2, 1], t[2, 1, 1] = 1.0, -1.0
    assert jacobi_residual(t) == pytest.approx(1.0)


def test_ad_matrix_columns():
    alg = milnor(1.0, 2.0, -3.0)
    ad0 = ad_matrix(alg, np.eye(3)[0])
    # [e0, e1] = -3 e2 and [e0, e2] = -2 e1
    expected = np.zeros((3, 3))
    expected[2, 1] = -3.0
    expected[1, 2] = -2.0
    assert np.allclose(ad0, expected)
    # ad is a homomorphism onto commuting matrices: ad_[x,y] = [ad_x, ad_y]
    rng = np.random.default_rng(1)
    x, y = rng.standard_normal((2, 3))
    lhs = ad_matrix(alg, alg.bracket(x, y))
    adx, ady = ad_matrix(alg, x), ad_matrix(alg, y)
    assert np.allclose(lhs, adx @ ady - ady @ adx, atol=1e-12)


def test_killing_form_frozen_values():
    # diag(-2 l2 l3, -2 l1 l3, -2 l1 l2) for the bracket-diagonal frame
    b = killing_form(milnor(1.0, 2.0, -3.0))
    assert np.allclose(b, np.diag([12.0, 6.0, -4.0]))
    b1 = killing_form(milnor(1.0, 1.0, 1.0))
    assert np.allclose(b1, -2.0 * np.eye(3))


def test_killing_form_invariance():
    alg = milnor(1.0, 2.0, -3.0)
    b = killing_form(alg)
    rng = np.random.default_rng(2)
    for _ in range(5):
        x, y, z = rng.standard_normal((3, 3))
        lhs = alg.bracket(x, y) @ b @ z
        rhs = -y @ b @ alg.bracket(x, z)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_trace_vector_and_unimodular_kernel():
    alg = milnor(1.0, 0.0, -1.0)
    assert np.allclose(trace_vector(alg), 0.0)
    uni, basis = unimodular_kernel(alg)
    assert uni and basis.shape == (3, 3)

    solv = build_lie_algebra(2, {(0, 1): {1: 1.0}})
    assert np.allclose(trace_vector(solv), [1.0, 0.0])
    uni, basis = unimodular_kernel(solv)
    assert not uni
    assert basis.shape == (2, 1)
    assert abs(abs(basis[1, 0]) - 1.0) <= 1e-12


def _null_space_cases():
    rng = np.random.default_rng(2101)

    def deficient(m, n, rank, noise=0.0):
        a = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
        return a + noise * rng.standard_normal((m, n))

    _, _, theta = su21_model()
    eye = np.eye(len(theta))
    return [
        pytest.param(deficient(1, 4, 1), id="trace-row"),
        pytest.param(deficient(3, 5, 2), id="wide"),
        pytest.param(deficient(5, 3, 2), id="tall"),
        pytest.param(deficient(6, 6, 3), id="square"),
        pytest.param(deficient(8, 8, 6, 1e-14), id="square-noisy"),
        pytest.param(np.zeros((1, 4)), id="zero-row"),
        pytest.param(np.vstack([deficient(2, 4, 2), np.zeros(4)]), id="with-zero-row"),
        pytest.param(eye + theta + theta @ theta, id="theta-phi"),
    ]


@pytest.mark.parametrize("a", _null_space_cases())
def test_null_space_matches_scipy(a):
    got = _null_space(a)
    want = scipy.linalg.null_space(a)
    assert got.shape == want.shape
    assert np.abs(got.T @ got - np.eye(got.shape[1])).max() <= 1e-12
    assert np.abs(got @ got.T - want @ want.T).max() <= 1e-12


def test_derivation_validation():
    alg = milnor(0.0, 0.0, 1.0)  # Heisenberg-like: [e0,e1] = e2
    d = np.diag([1.0, 1.0, 2.0])
    dv = derivation(alg, d)
    assert dv.defect <= 1e-12
    with pytest.raises(NotADerivation):
        derivation(alg, np.diag([1.0, 1.0, 1.0]))
    with pytest.raises(IndexOutOfRange):
        derivation(alg, np.eye(2))
    assert derivation_residual(alg, np.diag([1.0, 1.0, 1.0])) == pytest.approx(1.0)


def test_derivation_reads_the_algebra_tolerance():
    d = np.diag([1.0, 1.0, 2.0 + 1e-7])  # defect 1e-7 on [e0, e1] = e2
    loose = build_lie_algebra(3, {(0, 1): {2: 1.0}}, tol=1e-6)
    assert loose.tol == 1e-6
    assert derivation(loose, d).defect == pytest.approx(1e-7)
    with pytest.raises(NotADerivation):
        derivation(build_lie_algebra(3, {(0, 1): {2: 1.0}}), d)
    # algebras built from it keep its tolerance
    assert semidirect_sum(d, loose).tol == 1e-6
    assert change_basis(loose, 2.0 * np.eye(3)).tol == 1e-6


def test_semidirect_sum_layout():
    alg = build_lie_algebra(2, {(0, 1): {0: 1.0}}, basis_labels=("x", "y"))
    ext = semidirect_sum(np.diag([2.0, 0.0]), alg, new_label="t")
    assert ext.dim == 3
    assert ext.basis_labels == ("t", "x", "y")
    # new generator at index 0 acts by the derivation on the shifted copy
    assert np.allclose(ext.bracket(np.eye(3)[0], np.eye(3)[1]), [0.0, 2.0, 0.0])
    # original bracket survives one index up
    assert np.allclose(ext.bracket(np.eye(3)[1], np.eye(3)[2]), [0.0, 1.0, 0.0])


def test_semidirect_rejects_non_derivation():
    alg = milnor(1.0, 1.0, 1.0)
    with pytest.raises(NotADerivation):
        semidirect_sum(np.diag([1.0, 1.0, 1.0]), alg)


def test_change_basis_scaling():
    alg = milnor(1.0, 1.0, 1.0)
    p = np.diag([2.0, 1.0, 1.0])
    new = change_basis(alg, p)
    # [f1, f2] = [e1, e2] = e0 = (1/2) f0
    assert np.allclose(new.tensor[1, 2, :], [0.5, 0.0, 0.0])
    # conjugation by a rotation preserves the cross-product table
    th = 0.3
    rot = np.array([
        [np.cos(th), -np.sin(th), 0.0],
        [np.sin(th), np.cos(th), 0.0],
        [0.0, 0.0, 1.0],
    ])
    assert np.allclose(change_basis(alg, rot).tensor, alg.tensor, atol=1e-12)


def test_from_tensor_round_trip():
    alg = milnor(1.0, 2.0, -3.0)
    again = from_tensor(alg.tensor, basis_labels=alg.basis_labels)
    assert again.brackets == alg.brackets
    with pytest.raises(IndexOutOfRange):
        from_tensor(np.ones((2, 2, 2)))


def test_unimodular_kernel_is_ideal():
    # solvable 3-dim: [e0, e1] = e1, [e0, e2] = 2 e2; kernel = span(e1, e2)
    alg = build_lie_algebra(3, {(0, 1): {1: 1.0}, (0, 2): {2: 2.0}})
    uni, basis = unimodular_kernel(alg)
    assert not uni
    assert basis.shape == (3, 2)
    assert np.abs(basis[0, :]).max() <= 1e-12


def test_algebra_stores_only_the_tensor():
    names = [f.name for f in fields(LieAlgebra)]
    assert names == ["dim", "basis_labels", "tensor", "jacobi_defect", "tol"]
    assert repr(milnor(1.0, 2.0, -3.0)) == "LieAlgebra(dim=3, nonzero_pairs=3)"


@pytest.mark.parametrize("table, expected", [
    ({(0, 1): {2: 1.0}, (1, 0): {2: 0.25}}, {(0, 1): {2: 0.75}}),  # orientations sum
    ({(0, 1): {2: 1.0}, (1, 0): {2: 1.0}}, {}),  # a pair that cancels is absent
    ({(0, 1): {2: -0.0}}, {}),  # so is a -0.0 coefficient
    ({(2, 0): {1: 2.0}}, {(0, 2): {1: -2.0}}),  # only (j, i) given
    ({(1, 2): {1: 3.0, 0: 1.0}, (0, 1): {1: 0.0}}, {(1, 2): {0: 1.0, 1: 3.0}}),
])
def test_brackets_view_is_canonical(table, expected):
    alg = build_lie_algebra(3, table)
    assert alg.brackets == expected
    for row in alg.brackets.values():
        assert list(row) == sorted(row)
    assert list(alg.brackets) == sorted(alg.brackets)
    assert not np.signbit(alg.tensor[alg.tensor == 0.0]).any()


def test_every_constructor_output_is_canonical():
    alg = milnor(1.0, 2.0, -3.0)
    p = np.random.default_rng(7).standard_normal((3, 3))
    cases = [(e.label, e.algebra) for e in default_entries()] + [
        ("change_basis", change_basis(alg, p)),
        ("semidirect_sum", semidirect_sum(np.diag([1.0, 1.0, 2.0]), milnor(0.0, 0.0, 1.0))),
        ("from_tensor", from_tensor(alg.tensor + 1e-12 * np.eye(3)[:, :, None])),
        ("from_tensor -0.0", from_tensor(np.where(alg.tensor == 0.0, -0.0, alg.tensor))),
    ]
    for label, out in cases:
        c = out.tensor
        assert np.array_equal(c, -c.transpose(1, 0, 2)), label
        assert not np.diagonal(c, axis1=0, axis2=1).any(), label
        assert not np.signbit(c[c == 0.0]).any(), label
        again = build_lie_algebra(out.dim, out.brackets, out.basis_labels)
        assert again.tensor.tobytes() == c.tobytes(), label


@pytest.mark.parametrize("shape", [(2, 2, 3), (2, 3, 4), (3, 3), (2, 2, 2, 2)], ids=str)
def test_from_tensor_rejects_non_cubic_shapes(shape):
    t = np.zeros(shape)
    if shape == (2, 2, 3):
        t[0, 1, 2], t[1, 0, 2] = 1.0, -1.0  # [e0, e1] = e2 outside the basis
    with pytest.raises(IndexOutOfRange):
        from_tensor(t)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("where", [(0, 1, 2), (1, 0, 2), (0, 0, 1)], ids=str)
def test_from_tensor_rejects_non_finite_entries(bad, where):
    t = np.zeros((3, 3, 3))
    t[where] = bad
    with pytest.raises(ParamOutOfRange):
        from_tensor(t)


def test_change_basis_validates_its_matrix():
    alg = milnor(0.0, 0.0, 1.0)
    with pytest.raises(IndexOutOfRange):
        change_basis(alg, np.eye(2))
    for bad in (float("nan"), float("inf")):
        p = np.eye(3)
        p[1, 2] = bad
        with pytest.raises(ParamOutOfRange):
            change_basis(alg, p)
    with pytest.raises(ParamOutOfRange, match="singular"):
        change_basis(alg, np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]]))


def test_derivation_rejects_non_finite_matrices():
    alg = milnor(0.0, 0.0, 1.0)
    with pytest.raises(ParamOutOfRange):
        derivation(alg, np.full((3, 3), np.nan))
    with pytest.raises(ParamOutOfRange):
        derivation_residual(alg, np.full((3, 3), np.nan))
    with pytest.raises(IndexOutOfRange):
        derivation_residual(alg, np.eye(2))
    d = np.diag([1.0, 1.0, 2.0])
    d[0, 1] = np.inf
    with pytest.raises(ParamOutOfRange):
        derivation(alg, d)
    # an unvalidated Derivation still meets the finiteness check on the way in
    with pytest.raises(ParamOutOfRange):
        semidirect_sum(Derivation(np.full((3, 3), np.nan), 0.0), alg)

