import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homgeo import structure
from homgeo.catalog import build
from homgeo.curvature import ricci_tensor
from homgeo.errors import ConsistencyError, SlotSymmetryViolation
from homgeo.lie import build_lie_algebra, change_basis
from homgeo.reductive import Frame, InvariantMetric, ReductiveDecomposition
from homgeo.structure import (
    StructureTensor,
    TorsionTensor,
    classify,
    contract_12,
    cyclic_sum,
    decompose,
    homogeneous_structure,
    structure_to_torsion,
    torsion_to_structure,
    trace_form,
)


def milnor_dec(l1, l2, l3):
    alg = build_lie_algebra(
        3, {(1, 2): {0: l1}, (2, 0): {1: l2}, (0, 1): {2: l3}}
    )
    return ReductiveDecomposition(alg, (), (0, 1, 2)), InvariantMetric.identity(3)


def random_structure(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n, n))
    return (a - np.einsum("abc->acb", a)) / 2.0


def random_torsion(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n, n))
    return (a - np.einsum("abc->bac", a)) / 2.0


def test_slot_validation():
    good = random_structure(3, 0)
    StructureTensor(good)
    with pytest.raises(SlotSymmetryViolation):
        StructureTensor(np.ones((3, 3, 3)))
    with pytest.raises(SlotSymmetryViolation):
        StructureTensor(np.ones((3, 3, 2)))
    with pytest.raises(SlotSymmetryViolation):
        TorsionTensor(good)  # wrong slot pair
    TorsionTensor(random_torsion(3, 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10**6))
def test_conversion_round_trips(n, seed):
    s = StructureTensor(random_structure(n, seed))
    t = structure_to_torsion(s)
    back = torsion_to_structure(t)
    assert np.allclose(back.components, s.components, atol=1e-12)

    t0 = TorsionTensor(random_torsion(n, seed + 1))
    s0 = torsion_to_structure(t0)
    assert np.allclose(structure_to_torsion(s0).components, t0.components,
                       atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10**6))
def test_trace_form_matches_structure_contraction(n, seed):
    t = TorsionTensor(random_torsion(n, seed))
    eta = trace_form(t)
    s = torsion_to_structure(t)
    assert np.allclose(eta, contract_12(s.components), atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 6), st.integers(0, 10**6))
def test_decompose_properties(n, seed):
    a = random_structure(n, seed)
    d = decompose(a)
    parts = (d.s1, d.s2, d.s3)
    assert np.allclose(sum(parts), a, atol=1e-10)
    for i in range(3):
        for j in range(i + 1, 3):
            assert abs(float(np.sum(parts[i] * parts[j]))) <= 1e-10
    # defining traces of each summand
    assert np.abs(d.s3 + np.einsum("abc->bac", d.s3)).max() <= 1e-10
    assert np.abs(cyclic_sum(d.s2)).max() <= 1e-10
    assert np.abs(contract_12(d.s2)).max() <= 1e-10
    # norms are the Frobenius norms and satisfy Pythagoras
    total = sum(v**2 for v in d.component_norms())
    assert total == pytest.approx(float(np.sum(a * a)), rel=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 5), st.integers(0, 10**6))
def test_decompose_idempotence(n, seed):
    d = decompose(random_structure(n, seed))
    for slot, comp in (("s1", d.s1), ("s2", d.s2), ("s3", d.s3)):
        again = decompose(comp)
        assert np.allclose(getattr(again, slot), comp, atol=1e-10)
        for other in {"s1", "s2", "s3"} - {slot}:
            assert np.abs(getattr(again, other)).max() <= 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([1e-200, 1e-5, 1.0, 1e5, 1e200]))
def test_dimension_two_is_vectorial(seed, scale):
    # S2 and S3 vanish for n <= 2; the general formulas give them as exact zeros
    a = scale * random_structure(2, seed)
    d = decompose(a)
    assert np.array_equal(d.s1, a)
    assert np.abs(d.s2).max() == 0.0
    assert np.abs(d.s3).max() == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [2, 3, 6])
def test_norms_do_not_overflow(n):
    # the norms are taken on the tensor divided by its largest entry, so
    # entries near 1e200 give finite norms and no overflow warning
    a = random_structure(n, 11)
    unit = decompose(a).component_norms()
    assert decompose(1e200 * a).component_norms() == pytest.approx(
        [1e200 * v for v in unit], rel=1e-12)
    assert StructureTensor(1e200 * a).norm() == pytest.approx(
        1e200 * StructureTensor(a).norm(), rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_classify_norms_do_not_overflow():
    # brackets of size 1e100 in a metric of size 1e-200 give lte near 1e200
    alg = build_lie_algebra(3, {(1, 2): {0: 1e100}, (2, 0): {1: 2e100}, (0, 1): {2: -3e100}})
    dec = ReductiveDecomposition(alg, (), (0, 1, 2))
    unit = classify(dec, InvariantMetric.identity(3))
    big = classify(dec, InvariantMetric(1e-200 * np.eye(3)))
    assert big.booleans() == unit.booleans()
    assert big.norms["s2"] == pytest.approx(1e100 * unit.norms["s2"], rel=1e-12)


def _random_inputs(n, seed):
    """A structure tensor, a projected bracket and a stacked (S2, S3) pair."""
    rng = np.random.default_rng([seed, n])
    return {structure._split_formula: random_structure(n, seed),
            structure._lte_formula: rng.standard_normal((n, n, n)),
            structure._check_formula: rng.standard_normal((2, n, n, n))}


@pytest.mark.parametrize("n", range(1, 8))
def test_operator_and_formulas_agree(n):
    # n <= _OPERATOR_MAX_N reads the matrices, larger n the formulas;
    # both sides of the cutoff are compared here
    ops = structure._operator(n)
    for scale in (1e-5, 1.0, 1e5):
        for formula, x in _random_inputs(n, 3).items():
            x = scale * x
            matrix, slices = ops[formula]
            y = matrix @ x.reshape(-1)
            outputs = formula(x)
            assert len(outputs) == len(slices)
            for out, part in zip(outputs, slices):
                assert np.abs(y[part] - out.reshape(-1)).max() <= 1e-13 * scale


def test_operator_verification_catches_a_transposed_slot(monkeypatch):
    # slots 1 and 2 of the input exchanged: the cyclic sum changes sign
    # on the S-space, so the S3 projector is no longer idempotent
    split = structure._split_formula
    monkeypatch.setattr(structure, "_split_formula",
                        lambda s: split(np.swapaxes(s, -3, -2)))
    structure._operator.cache_clear()
    try:
        with pytest.raises(ConsistencyError, match="type projectors"):
            structure._operator(3)
        with pytest.raises(ConsistencyError, match="type projectors"):
            decompose(random_structure(3, 0))
    finally:
        monkeypatch.undo()
        structure._operator.cache_clear()


def _rotated(entry, seed):
    """The entry's space (k = 0) in a random orthonormal basis, metric carried along."""
    n = entry.algebra.dim
    q, r = np.linalg.qr(np.random.default_rng([seed, n]).standard_normal((n, n)))
    q = q * np.sign(np.diagonal(r))
    dec = ReductiveDecomposition(change_basis(entry.algebra, q), (), tuple(range(n)))
    return dec, InvariantMetric(q.T @ entry.metric.matrix @ q)


@pytest.mark.parametrize("name, params", [
    ("g", {"alpha": (1.5,)}),                                 # n = 2, operator
    ("milnor3", {"lam": (1.0, 2.0, -3.0)}),                   # n = 3, operator
    ("milnor3", {"lam": (1.0, 0.0, -1.0)}),
    ("b2_product", {"rho": 1.0, "sigma": 2.0, "lam": 1.5}),   # n = 4, operator
    ("g", {"alpha": (0.5, 1.0, 2.0, -0.7, 1.3)}),             # n = 6, formulas
    ("g", {"alpha": (1.0, -1.0, 2.0, -2.0, 0.5, -0.5)}),      # n = 7, formulas
])
def test_orthogonal_basis_change_keeps_the_class(name, params):
    # the type split is O(n)-equivariant, so the booleans and the three
    # norms cannot depend on the orthonormal basis of m; an index
    # transposed in a formula would break that
    entry = build(name, **params)
    assert entry.decomposition.dim_k == 0
    before = classify(entry.decomposition, entry.metric)
    for seed in range(3):
        after = classify(*_rotated(entry, seed))
        assert after.booleans() == before.booleans()
        for k in ("s1", "s2", "s3"):
            # a norm that is zero in one basis is roundoff in the other
            assert after.norms[k] == pytest.approx(before.norms[k], rel=1e-10, abs=1e-12)


def test_dimension_one_splits_to_zeros():
    d = decompose(np.zeros((1, 1, 1)))
    for part in (d.s1, d.s2, d.s3, d.phi):
        assert not part.any()
    assert d.component_norms() == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("cls", [StructureTensor, TorsionTensor])
def test_empty_slot_tensor_is_refused(cls):
    with pytest.raises(SlotSymmetryViolation, match="nonempty"):
        cls(np.zeros((0, 0, 0)))


def test_classify_dimension_one():
    # the real line: S = 0, so every class holds but traceless cyclic (S != 0)
    dec = ReductiveDecomposition(build_lie_algebra(1, {}), (), (0,))
    rep = classify(dec, InvariantMetric.identity(1))
    assert rep.booleans() == {name: name != "traceless_cyclic" for name in rep.booleans()}
    assert set(rep.residuals.values()) == {0.0}
    assert rep.norms == {"s1": 0.0, "s2": 0.0, "s3": 0.0}


def test_classify_hyperbolic_plane():
    # [e0, e1] = e1: the hyperbolic plane, purely vectorial with eta = (-1, 0)
    dec = ReductiveDecomposition(build_lie_algebra(2, {(0, 1): {1: 1.0}}), (), (0, 1))
    rep = classify(dec, InvariantMetric.identity(2))
    assert rep.cyclic and rep.vectorial and not rep.traceless
    assert not (rep.naturally_reductive or rep.symmetric or rep.traceless_cyclic)
    assert rep.norms["s1"] == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert rep.norms["s2"] == rep.norms["s3"] == 0.0
    assert [rep.residuals[k] for k in ("cyclic", "traceless", "vectorial",
                                       "naturally_reductive", "symmetric")] == [0, 1, 0, 2, 1]


def test_classify_round_sphere():
    # so(3)/so(2) with the normal metric is the round 2-sphere
    alg = build_lie_algebra(3, {(0, 1): {2: 1.0}, (1, 2): {0: 1.0}, (2, 0): {1: 1.0}})
    dec = ReductiveDecomposition(alg, (2,), (0, 1))
    rep = classify(dec, InvariantMetric.identity(2))
    assert rep.symmetric and not rep.traceless_cyclic
    # the report records the tolerance its booleans were decided at
    assert rep.tol == 1e-9
    assert classify(Frame(dec, InvariantMetric.identity(2), 1e-6)).tol == 1e-6


@pytest.mark.parametrize("name, params", [("milnor3", {"lam": (1.0, 2.0, -3.0)}),
                                          ("g", {"alpha": (0.5, 1.0, 2.0)})])
def test_basis_change_keeps_geometry(name, params):
    # the same space in a non-orthogonal basis, with the metric p^T g p
    entry = build(name, **params)
    n = entry.algebra.dim
    p = np.random.default_rng(8).standard_normal((n, n)) + 3.0 * np.eye(n)
    dec = ReductiveDecomposition(change_basis(entry.algebra, p), (), tuple(range(n)))
    g = InvariantMetric(p.T @ entry.metric.matrix @ p)
    before = classify(entry.decomposition, entry.metric)
    after = classify(dec, g)
    assert after.booleans() == before.booleans()
    for k in ("s1", "s2", "s3"):
        assert after.norms[k] == pytest.approx(before.norms[k], abs=1e-8)
    assert np.allclose(np.linalg.eigvalsh(ricci_tensor(dec, g)),
                       np.linalg.eigvalsh(ricci_tensor(entry.decomposition, entry.metric)),
                       rtol=0, atol=1e-8)


def test_homogeneous_structure_values():
    # abelian algebra: S vanishes identically
    dec, g = milnor_dec(0.0, 0.0, 0.0)
    assert homogeneous_structure(dec, g).norm() == 0.0
    # bi-invariant case: U = 0 and S = -(1/2) lte is totally skew
    dec, g = milnor_dec(1.0, 1.0, 1.0)
    frame = Frame(dec, g)
    s = homogeneous_structure(dec, g)
    assert np.allclose(s.components, -0.5 * frame.lte)
    d = decompose(s)
    assert d.norms["s3"] == pytest.approx(np.sqrt(1.5))
    assert d.norms["s1"] == pytest.approx(0.0, abs=1e-12)
    assert d.norms["s2"] == pytest.approx(0.0, abs=1e-12)


def test_classify_milnor_cases():
    dec, g = milnor_dec(1.0, 0.0, -1.0)
    rep = classify(dec, g)
    assert rep.traceless_cyclic and rep.cyclic and rep.traceless
    assert not rep.naturally_reductive and not rep.symmetric and not rep.vectorial
    assert rep.norms["s2"] == pytest.approx(2.0)
    assert rep.norms["s1"] == pytest.approx(0.0, abs=1e-12)
    assert rep.norms["s3"] == pytest.approx(0.0, abs=1e-12)

    rep = classify(*milnor_dec(1.0, 1.0, 1.0))
    assert rep.naturally_reductive and not rep.cyclic
    assert not rep.traceless_cyclic

    rep = classify(*milnor_dec(2.0, 1.0, 1.0))
    assert rep.traceless and not rep.cyclic and not rep.naturally_reductive

    rep = classify(*milnor_dec(0.0, 0.0, 0.0))
    assert rep.symmetric and rep.vectorial and rep.naturally_reductive
    assert rep.cyclic and rep.traceless and not rep.traceless_cyclic


def test_classify_solvable_families():
    # equal scalings: vectorial and cyclic, not traceless
    alg = build_lie_algebra(3, {(0, 1): {1: 1.0}, (0, 2): {2: 1.0}})
    dec = ReductiveDecomposition(alg, (), (0, 1, 2))
    rep = classify(dec, InvariantMetric.identity(3))
    assert rep.cyclic and rep.vectorial and not rep.traceless
    assert np.allclose(rep.eta, [-2.0, 0.0, 0.0])

    # opposite scalings: traceless cyclic
    alg = build_lie_algebra(3, {(0, 1): {1: 1.0}, (0, 2): {2: -1.0}})
    dec = ReductiveDecomposition(alg, (), (0, 1, 2))
    rep = classify(dec, InvariantMetric.identity(3))
    assert rep.traceless_cyclic and not rep.vectorial


def test_classify_crosscheck_catches_a_sign_slip_in_s(monkeypatch):
    # S = (1/2) lte - U in place of -(1/2) lte - U: the S1/S2/S3 split of
    # the wrong S is still exact, but 3 S3 then differs from minus half
    # the cyclic sum of lte on a space that is not cyclic
    dec, g = milnor_dec(1.0, 1.0, 1.0)
    classify(Frame(dec, g))
    monkeypatch.setattr(Frame, "s", property(lambda self: 0.5 * self.lte - self.u))
    with pytest.raises(ConsistencyError, match="3 S3 does not equal minus half"):
        classify(Frame(dec, g))


def test_classification_report_round_trip():
    rep = classify(*milnor_dec(1.0, 0.0, -1.0))
    d = rep.to_json_dict()
    assert set(d) == {"cyclic", "traceless", "traceless_cyclic", "vectorial",
                      "naturally_reductive", "symmetric", "norms", "eta"}
    assert set(d["norms"]) == {"s1", "s2", "s3"}
    assert d["traceless_cyclic"] is True
    assert rep.booleans()["cyclic"] is True


def test_trace_form_of_canonical_torsion():
    alg = build_lie_algebra(3, {(0, 1): {1: 1.0}, (0, 2): {2: 2.0}})
    dec = ReductiveDecomposition(alg, (), (0, 1, 2))
    frame = Frame(dec, InvariantMetric.identity(3))
    eta = trace_form(TorsionTensor(-frame.lte))
    assert np.allclose(eta, frame.eta)
    assert np.allclose(eta, [-3.0, 0.0, 0.0])
