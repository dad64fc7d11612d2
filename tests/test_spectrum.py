import warnings

import numpy as np
import pytest

from homgeo.catalog import sp11_model, su21_model
from homgeo.errors import (
    DegenerateKillingForm,
    IndexOutOfRange,
    NoWitness,
    NotAutomorphism,
    NotOrder3,
    ParamOutOfRange,
)
from homgeo.lie import build_lie_algebra, change_basis, from_tensor
from homgeo.spectrum import (
    BlockGrading,
    _block_couplings,
    active_triples,
    cyclic_metric,
    flat_section_witness,
    grading_decomposition,
    solve_cyclic,
    theta_split,
)


def milnor(l1, l2, l3):
    return build_lie_algebra(
        3, {(1, 2): {0: l1}, (2, 0): {1: l2}, (0, 1): {2: l3}}
    )


def g_solv(*alpha):
    n = len(alpha) + 1
    return build_lie_algebra(n, {(0, i): {i: alpha[i - 1]} for i in range(1, n)})


def test_grading_validation():
    with pytest.raises(ParamOutOfRange):
        BlockGrading((), ())
    with pytest.raises(ParamOutOfRange):
        BlockGrading(((0,), ()), (1, 1))
    with pytest.raises(ParamOutOfRange):
        BlockGrading(((0,), (1,)), (1,))
    with pytest.raises(ParamOutOfRange):
        BlockGrading(((0,),), (2,))
    with pytest.raises(IndexOutOfRange):
        BlockGrading(((0, 1), (1, 2)), (1, 1))
    with pytest.raises(IndexOutOfRange):
        BlockGrading(((0, 5),), (1,)).k_indices(3)
    g = BlockGrading(((2, 3), (0, 1)), (-1, 1))
    assert g.m_indices == (2, 3, 0, 1)
    assert g.k_indices(5) == (4,)


def test_grading_indices_and_signs_must_be_integers():
    # int() would read these as ((0, 1),) and (1,)
    with pytest.raises(IndexOutOfRange, match="integer indices"):
        BlockGrading(blocks=((0.5, 1.2),), signs=(1,))
    for sign in (1.9, 1.0, "1"):
        with pytest.raises(ParamOutOfRange, match=r"\+1 or -1"):
            BlockGrading(blocks=((0, 1),), signs=(sign,))
    g = BlockGrading(blocks=(np.arange(2),), signs=(np.int64(-1),))
    assert g.blocks == ((0, 1),) and g.signs == (-1,)
    assert all(type(i) is int for i in g.blocks[0] + g.signs)


def test_grading_decomposition_su21():
    alg, grading, _ = su21_model()
    dec = grading_decomposition(alg, grading)
    assert dec.k_indices == (0, 1)
    assert dec.m_indices == (2, 3, 4, 5, 6, 7)


def test_cyclic_metric_values():
    alg, grading, _ = su21_model()
    g = cyclic_metric(alg, grading, [-1.0, 0.5, 0.5])
    ev = np.linalg.eigvalsh(g.matrix)
    assert ev.min() > 0
    # block structure: 2x2 diagonal pieces scaled from the Killing form
    assert np.abs(g.matrix[:2, 2:]).max() == 0.0
    with pytest.raises(ParamOutOfRange):
        cyclic_metric(alg, grading, [1.0, 1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cyclic_metric_rejects_non_finite_coefficients(bad):
    alg, grading, _ = su21_model()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic warns
        with pytest.raises(ParamOutOfRange, match="finite"):
            cyclic_metric(alg, grading, [-1.0, bad, 1.0])


def test_cyclic_metric_sign_declaration_checked():
    alg, _, _ = su21_model()
    wrong = BlockGrading(((2, 3), (4, 5), (6, 7)), (1, 1, 1))
    with pytest.raises(ParamOutOfRange):
        cyclic_metric(alg, wrong, [1.0, 1.0, 1.0])


def test_degenerate_killing_rejected():
    alg = milnor(1.0, 0.0, -1.0)  # Killing form diag(0, 2, 0)
    with pytest.raises(DegenerateKillingForm):
        cyclic_metric(alg, BlockGrading(((0,),), (1,)), [1.0])


# blocks past the end of su(2,1), and negative blocks numpy would wrap to 6 and 7
OUTSIDE_GRADINGS = [
    BlockGrading(((2, 3), (4, 5), (6, 99)), (-1, 1, 1)),
    BlockGrading(((2, 3), (4, 5), (-2, -1)), (-1, 1, 1)),
]


@pytest.mark.parametrize("grading", OUTSIDE_GRADINGS, ids=["large", "negative"])
def test_grading_indices_checked_against_the_algebra(grading):
    alg, _, _ = su21_model()
    with pytest.raises(IndexOutOfRange):
        cyclic_metric(alg, grading, [-2.0, 1.0, 1.0])
    with pytest.raises(IndexOutOfRange):
        active_triples(alg, grading)
    with pytest.raises(IndexOutOfRange):
        solve_cyclic(alg, grading)


def test_active_triples():
    su_alg, su_grading, _ = su21_model()
    assert active_triples(su_alg, su_grading) == [(0, 1, 2)]
    sp_alg, sp_grading, _ = sp11_model()
    assert active_triples(sp_alg, sp_grading) == [(0, 1, 1)]


def test_active_triples_are_python_ints():
    for model in (su21_model, sp11_model):
        alg, grading, _ = model()
        for triple in active_triples(alg, grading):
            assert type(triple) is tuple
            assert all(type(i) is int for i in triple)


def _couplings_by_index(alg, grading):
    """The block couplings, one bracket component at a time."""
    parts = list(grading.blocks) + [grading.k_indices(alg.dim)]
    nb = len(grading.blocks)
    out = np.zeros((nb, nb, nb + 1))
    for a, ia in enumerate(grading.blocks):
        for b, ib in enumerate(grading.blocks):
            for p, ip in enumerate(parts):
                for i in ia:
                    for j in ib:
                        for l in ip:
                            out[a, b, p] = max(out[a, b, p], abs(alg.tensor[i, j, l]))
    return out


def _random_graded_algebra(seed, k_size):
    """A rotated solvable algebra of dim 7 with a random grading.

    k holds k_size random indices; the rest split at random into blocks,
    the first of which is a singleton.
    """
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
    alg = change_basis(g_solv(*rng.uniform(0.5, 2.0, 6)), q)
    order = [int(i) for i in rng.permutation(7)[k_size:]]
    cuts = sorted(rng.choice(np.arange(2, len(order)), size=2, replace=False))
    blocks = [order[:1], order[1:cuts[0]], order[cuts[0]:cuts[1]], order[cuts[1]:]]
    blocks = [b for b in blocks if b]
    return alg, BlockGrading(blocks, [1] * len(blocks))


@pytest.mark.parametrize("case", ["su21", "sp11", "k_empty", "k_two", "k_three"])
def test_block_couplings_match_a_per_index_loop(case):
    if case in ("su21", "sp11"):
        alg, grading, _ = {"su21": su21_model, "sp11": sp11_model}[case]()
    else:
        k_size = {"k_empty": 0, "k_two": 2, "k_three": 3}[case]
        alg, grading = _random_graded_algebra(k_size, k_size)
        assert len(grading.k_indices(alg.dim)) == k_size
        assert min(len(b) for b in grading.blocks) == 1
    got = _block_couplings(alg, grading)
    nb = len(grading.blocks)
    assert got.shape == (nb, nb, nb + 1)
    assert np.array_equal(got, _couplings_by_index(alg, grading))
    if case == "k_empty":
        assert not got[:, :, -1].any()
    else:
        assert got.any()


def test_solve_cyclic_two_parameter_cone():
    alg, grading, _ = su21_model()
    fam = solve_cyclic(alg, grading)
    assert fam.dimension == 2
    assert fam.feasible
    assert fam.description == "2-parameter cone"
    assert fam.constraints.shape == (1, 3)
    row = fam.constraints[0]
    assert np.allclose(row / row[0], [1.0, 1.0, 1.0])
    s = fam.sample
    assert s is not None
    assert abs(s.sum()) <= 1e-9 * np.abs(s).max()
    assert s[0] < 0 and s[1] > 0 and s[2] > 0
    ev = np.linalg.eigvalsh(cyclic_metric(alg, grading, s).matrix)
    assert ev.min() > 0


def test_solve_cyclic_reads_the_algebra_tolerance():
    # su(2,1) with a 1e-7 leak from [a1, b1] into a1 passes Jacobi at
    # 1e-6 (residual 2e-7); the solver then decides at that tolerance too
    alg, grading, _ = su21_model()
    c = np.array(alg.tensor)
    c[2, 4, 2] += 1e-7
    c[4, 2, 2] -= 1e-7
    noisy = from_tensor(c, alg.basis_labels, tol=1e-6)
    fam = solve_cyclic(noisy, grading)
    assert fam.triples == ((0, 1, 2),)
    assert fam.dimension == 2 and fam.description == "2-parameter cone"


def test_solve_cyclic_ray():
    alg, grading, _ = sp11_model()
    fam = solve_cyclic(alg, grading)
    assert fam.dimension == 1
    assert fam.description == "ray"
    assert fam.feasible
    ray = fam.null_basis[:, 0]
    assert ray[0] / ray[1] == pytest.approx(-2.0)
    s = fam.sample
    assert s[0] < 0 and s[1] > 0


def test_solve_cyclic_compact_infeasible():
    alg = milnor(1.0, 1.0, 1.0)
    fam = solve_cyclic(alg, BlockGrading(((0,), (1,), (2,)), (-1, -1, -1)))
    assert not fam.feasible
    assert fam.dimension == 0
    assert fam.description == "empty"
    assert fam.sample is None
    assert fam.triples == ((0, 1, 2),)
    # one fused block leaves no free parameter at all
    fam1 = solve_cyclic(alg, BlockGrading(((0, 1, 2),), (-1,)))
    assert fam1.triples == ((0, 0, 0),)
    assert not fam1.feasible


def test_theta_split_cyclic_permutation():
    alg = milnor(1.0, 1.0, 1.0)
    theta = np.zeros((3, 3))
    theta[1, 0] = theta[2, 1] = theta[0, 2] = 1.0
    split = theta_split(alg, theta)
    assert split.k_basis.shape == (3, 1)
    assert split.m_basis.shape == (3, 2)
    fixed = split.k_basis[:, 0]
    assert np.allclose(np.abs(fixed), np.abs(fixed[0]))
    j = split.j_matrix
    assert np.allclose(j @ j, -np.eye(2))


def test_theta_split_model_dimensions():
    su_alg, _, su_theta = su21_model()
    split = theta_split(su_alg, su_theta)
    assert split.k_basis.shape[1] == 2
    assert split.m_basis.shape[1] == 6
    sp_alg, _, sp_theta = sp11_model()
    split = theta_split(sp_alg, sp_theta)
    assert split.k_basis.shape[1] == 4
    assert split.m_basis.shape[1] == 6


def test_theta_split_guards():
    alg = milnor(1.0, 1.0, 1.0)
    with pytest.raises(NotOrder3):
        theta_split(alg, np.eye(3))
    with pytest.raises(NotOrder3):
        theta_split(alg, np.diag([1.0, 1.0, -1.0]))
    with pytest.raises(ParamOutOfRange):
        theta_split(alg, np.eye(4))
    perm = np.zeros((3, 3))
    perm[1, 0] = perm[2, 1] = perm[0, 2] = 1.0
    with pytest.raises(NotAutomorphism):
        theta_split(milnor(1.0, 2.0, -3.0), perm)


def test_flat_section_witness_found():
    alg = g_solv(0.5, 1.0, 2.0)
    assert flat_section_witness(alg, [(0.5, 1), (1.0, 2), (2.0, 3)]) == (0, 1)


def test_flat_section_witness_vector_input():
    alg = g_solv(1.0, 1.0)
    v = np.array([0.0, 1.0, 1.0])
    assert flat_section_witness(alg, [(1.0, v), (1.0, 1)]) == (0, 1)


def test_flat_section_witness_guards():
    su2 = milnor(1.0, 1.0, 1.0)
    # nonzero eigenvalue sums with noncommuting vectors are inconsistent
    with pytest.raises(ParamOutOfRange):
        flat_section_witness(su2, [(1.0, 0), (1.0, 1)])
    with pytest.raises(NoWitness):
        flat_section_witness(su2, [(0.0, 0), (0.0, 1), (0.0, 2)])
    with pytest.raises(ParamOutOfRange):
        flat_section_witness(su2, [(1.0, np.ones(4))])
    # a basis index is an integer in 0..dim-1: no wrap-around, no truncation
    alg = g_solv(0.5, 1.0, 2.0)
    for bad in (-1, 7, 2.7):
        with pytest.raises(IndexOutOfRange):
            flat_section_witness(alg, [(0.5, 1), (1.0, bad), (2.0, 3)])
