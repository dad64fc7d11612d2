import dataclasses
import itertools
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

import homgeo.spectrum as spectrum
from homgeo.catalog import sp11_model, su21_model
from homgeo.errors import (
    ConsistencyError,
    DegenerateKillingForm,
    IndexOutOfRange,
    NoWitness,
    NotAutomorphism,
    NotOrder3,
    ParamOutOfRange,
)
from homgeo.lie import build_lie_algebra, change_basis, from_tensor, killing_form
from homgeo.reductive import InvariantMetric
from homgeo.spectrum import (
    BlockGrading,
    _block_couplings,
    _chamber_point,
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


def _random_model_grading(model, rng):
    """A random grading of a model algebra: same-sign indices in random blocks.

    The Killing form is diagonal on the model basis except for the
    negative pair (0, 1) of su(2,1), which stays in one block; indices
    left out of every block form k.
    """
    alg, _, _ = model()
    diag = np.diagonal(killing_form(alg))
    units = [[0, 1]] if model is su21_model else []
    units += [[i] for i in range(alg.dim) if not units or i > 1]
    blocks, signs = [], []
    for sign in (-1, 1):
        same = [units[i] for i in rng.permutation(len(units)) if diag[units[i][0]] * sign > 0]
        cuts = sorted(rng.choice(np.arange(1, len(same)), size=rng.integers(0, len(same)),
                                 replace=False))
        for part in np.split(np.arange(len(same)), cuts):
            if rng.random() < 0.8 or not blocks:
                blocks.append([i for u in part for i in same[u]])
                signs.append(sign)
    order = rng.permutation(len(blocks))
    return alg, BlockGrading([blocks[i] for i in order], [signs[i] for i in order])


def test_cyclic_metric_equals_block_diag_bit_for_bit():
    rng = np.random.default_rng(7)
    cases = [(*su21_model()[:2], [-1.0, 0.5, 0.5]), (*sp11_model()[:2], [-1.0, 0.5])]
    for model in (su21_model, sp11_model) * 20:
        alg, grading = _random_model_grading(model, rng)
        cases.append((alg, grading, rng.normal(size=len(grading.blocks))))
    for alg, grading, lam in cases:
        b = killing_form(alg)
        want = InvariantMetric(scipy.linalg.block_diag(
            *(c * b[np.ix_(blk, blk)] for c, blk in zip(lam, grading.blocks))))
        got = cyclic_metric(alg, grading, lam)
        assert got.matrix.tobytes() == want.matrix.tobytes()


def test_cyclic_metric_sign_declaration_checked():
    alg, _, _ = su21_model()
    wrong = BlockGrading(((2, 3), (4, 5), (6, 7)), (1, 1, 1))
    with pytest.raises(ParamOutOfRange):
        cyclic_metric(alg, wrong, [1.0, 1.0, 1.0])


def test_degenerate_killing_rejected():
    alg = milnor(1.0, 0.0, -1.0)  # Killing form diag(0, 2, 0)
    with pytest.raises(DegenerateKillingForm):
        cyclic_metric(alg, BlockGrading(((0,),), (1,)), [1.0])


def count_killing_forms(monkeypatch):
    calls = []

    def counting(algebra):
        calls.append(algebra)
        return killing_form(algebra)

    monkeypatch.setattr(spectrum, "killing_form", counting)
    return calls


def fresh_su21():
    """su(2,1) and its grading as objects no earlier call has seen."""
    alg, grading, _ = su21_model()
    return dataclasses.replace(alg), BlockGrading(grading.blocks, grading.signs)


def test_block_killing_runs_once_per_algebra_and_grading(monkeypatch):
    calls = count_killing_forms(monkeypatch)
    alg, grading = fresh_su21()
    family = solve_cyclic(alg, grading)
    first = cyclic_metric(alg, grading, family.sample)
    second = cyclic_metric(alg, grading, family.sample)
    assert calls == [alg]
    assert first.matrix.tobytes() == second.matrix.tobytes()
    restrictions = spectrum._block_killing(alg, grading)
    assert all(not sub.flags.writeable for sub in restrictions)
    # an equal grading is another object, so it is validated again
    equal = BlockGrading(grading.blocks, grading.signs)
    assert cyclic_metric(alg, equal, family.sample).matrix.tobytes() == first.matrix.tobytes()
    assert calls == [alg, alg]
    other = dataclasses.replace(alg)
    cyclic_metric(other, equal, family.sample)
    assert calls == [alg, alg, other]


def test_block_killing_keeps_no_refused_grading(monkeypatch):
    calls = count_killing_forms(monkeypatch)
    su21, _ = fresh_su21()
    cases = [
        (milnor(1.0, 0.0, -1.0), BlockGrading(((0,),), (1,)), DegenerateKillingForm),
        (su21, BlockGrading(((2, 3), (4, 5), (6, 7)), (1, 1, 1)), ParamOutOfRange),
        # the isotropy directions 0 and 1 as two blocks: B(e0, e1) = -6
        (su21, BlockGrading(((0,), (1,), (2, 3), (4, 5), (6, 7)), (-1, -1, -1, 1, 1)),
         ParamOutOfRange),
    ]
    for alg, grading, error in cases:
        for _ in range(2):
            with pytest.raises(error):
                solve_cyclic(alg, grading)
    assert len(calls) == 2 * len(cases)
    for _ in range(2):  # refused before the Killing form is formed
        with pytest.raises(IndexOutOfRange):
            cyclic_metric(su21, OUTSIDE_GRADINGS[0], [1.0, 1.0, 1.0])
    assert len(calls) == 2 * len(cases)


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
    np.testing.assert_allclose(s, [-1.0, 0.5, 0.5], rtol=0, atol=1e-12)
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
    np.testing.assert_allclose(s, [-1.0, 0.5], rtol=0, atol=1e-12)


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


def _lp_chamber(rows, signs):
    """Whether the kernel of rows meets the chamber signs * lam > 0, by linear program.

    The oracle for _chamber_point: maximise t subject to
    signs * (N x) in [t, 1] over an orthonormal kernel basis N, with
    HiGHS; the kernel meets the open chamber when t > 1e-6.
    """
    nb = rows.shape[1]
    null = scipy.linalg.null_space(rows) if len(rows) else np.eye(nb)
    r = null.shape[1]
    if not r:
        return False
    chamber = np.asarray(signs, dtype=float)[:, None] * null
    a_ub = np.zeros((2 * nb, r + 1))
    a_ub[:nb, :r] = -chamber
    a_ub[:nb, r] = 1.0
    a_ub[nb:, :r] = chamber
    b_ub = np.concatenate([np.zeros(nb), np.ones(nb)])
    res = scipy.optimize.linprog(np.append(np.zeros(r), -1.0), A_ub=a_ub, b_ub=b_ub,
                                 bounds=[(None, None)] * r + [(None, 1.0)], method="highs")
    assert res.success, res.message
    return res.x[-1] > 1e-6


def _chamber_cases(seed, per_pattern):
    """Constraint rows of random active-triple sets, per_pattern for each sign pattern.

    Every sign pattern of 1 to 6 blocks appears; each case takes 0 to
    nb distinct unordered triples (repeats allowed within a triple),
    and each triple adds one to a block's entry per occurrence, as in
    solve_cyclic.
    """
    rng = np.random.default_rng(seed)
    for nb in range(1, 7):
        triples = list(itertools.combinations_with_replacement(range(nb), 3))
        for signs in itertools.product((-1, 1), repeat=nb):
            for _ in range(per_pattern):
                picked = rng.choice(len(triples), size=min(int(rng.integers(0, nb + 1)),
                                                           len(triples)), replace=False)
                rows = np.zeros((len(picked), nb))
                for r, t in enumerate(picked):
                    for a in triples[t]:
                        rows[r, a] += 1.0
                yield rows, signs


def test_chamber_decision_matches_a_linear_program():
    decided = feasible = 0
    for rows, signs in _chamber_cases(11, 16):
        null, lam = _chamber_point(rows, signs)
        assert (lam is not None) == _lp_chamber(rows, signs), (rows.tolist(), signs)
        assert null.shape[0] == rows.shape[1]
        decided += 1
        if lam is not None:
            feasible += 1
            assert np.abs(lam).max() == 1.0
            assert (np.asarray(signs) * lam).min() > 1e-6
            if len(rows):
                assert np.abs(rows @ lam).max() <= 1e-8
    assert decided == 2016
    assert 400 < feasible < 1600


def test_chamber_infeasible_with_mixed_signs():
    # the active triple (0, 0, 0) forces lam_0 = 0, so no chamber point
    # exists whatever the signs; (0, 1, 2) alone would leave a cone
    signs = (1, -1, 1)
    null, lam = _chamber_point(np.array([[3.0, 0.0, 0.0], [1.0, 1.0, 1.0]]), signs)
    assert lam is None
    assert null.shape == (3, 1) and abs(null[0, 0]) <= 1e-12
    assert _chamber_point(np.array([[1.0, 1.0, 1.0]]), signs)[1] is not None
    # here the solver's P y is roundoff of zero with every entry positive
    # (largest 3.5e-17), which a margin ratio alone would take for a witness
    rows = np.array([[0.0, 1, 1, 0, 0, 1], [2, 0, 0, 0, 1, 0], [2, 1, 0, 0, 0, 0],
                     [0, 0, 0, 1, 0, 2]])
    signs = (-1, 1, 1, 1, -1, -1)
    assert not _lp_chamber(rows, signs)
    assert _chamber_point(rows, signs)[1] is None


def test_permuting_blocks_permutes_the_sample():
    rng = np.random.default_rng(4)
    for rows, signs in _chamber_cases(12, 1):
        perm = rng.permutation(rows.shape[1])
        _, lam = _chamber_point(rows, signs)
        _, moved = _chamber_point(rows[:, perm], np.asarray(signs)[perm])
        assert (lam is None) == (moved is None)
        if lam is not None:
            np.testing.assert_allclose(moved, lam[perm], rtol=0, atol=1e-12)
    for model in (su21_model, sp11_model):
        alg, grading, _ = model()
        fam = solve_cyclic(alg, grading)
        perm = np.roll(np.arange(len(grading.blocks)), 1)
        moved = solve_cyclic(alg, BlockGrading([grading.blocks[i] for i in perm],
                                               [grading.signs[i] for i in perm]))
        assert moved.feasible and moved.description == fam.description
        np.testing.assert_allclose(moved.sample, fam.sample[perm], rtol=0, atol=1e-12)


def test_chamber_undecided_raises(monkeypatch):
    rows = np.array([[1.0, 1.0, 1.0]])
    # y = 0 is neither a witness (no margin) nor a certificate (sum 0)
    monkeypatch.setattr(spectrum, "_nnls", lambda a, b: np.zeros(a.shape[1]))
    with pytest.raises(ConsistencyError, match="chamber undecided"):
        _chamber_point(rows, (-1, 1, 1))


def test_nnls_iteration_cap_raises(monkeypatch):
    # a subproblem solver that always answers negative never lets a column in
    monkeypatch.setattr(spectrum.np.linalg, "lstsq",
                        lambda a, b, rcond: (-np.ones(a.shape[1]), None, None, None))
    with pytest.raises(ConsistencyError, match="did not converge"):
        _chamber_point(np.array([[1.0, 1.0, 1.0]]), (-1, 1, 1))


def test_import_and_solve_leave_scipy_optimize_unloaded():
    # homgeo runs on numpy alone: importing it and calling each public route
    # that once reached scipy loads no scipy module at all
    code = ("import sys, homgeo, homgeo.cli\n"
            "from homgeo.catalog import build, su21_model\n"
            "entry = build('g', alpha=(0.5, 1.0, 2.0))\n"
            "dec, g = entry.decomposition, entry.metric\n"
            "homgeo.classify(dec, g)\n"
            "homgeo.xi_curvatures(dec, g)\n"
            "alg, grading, theta = su21_model()\n"
            "assert homgeo.solve_cyclic(alg, grading).feasible\n"
            "homgeo.theta_split(alg, theta)\n"
            "assert not homgeo.unimodular_kernel(entry.algebra)[0]\n"
            "assert homgeo.run_all().ok\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


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


@pytest.mark.parametrize("blocks", [1, 2])
def test_theta_split_without_fixed_vectors(blocks):
    # 120-degree rotations of abelian R^2 and R^4 fix no vector: 1 + theta
    # + theta^2 vanishes up to rounding, so k is empty and m is everything
    c, s = -0.5, np.sqrt(3.0) / 2.0
    theta = np.kron(np.eye(blocks), [[c, -s], [s, c]])
    dim = 2 * blocks
    split = theta_split(build_lie_algebra(dim, {}), theta)
    assert split.k_basis.shape == (dim, 0)
    assert split.m_basis.shape == (dim, dim)
    assert np.allclose(split.m_basis.T @ split.m_basis, np.eye(dim), rtol=0, atol=1e-12)
    j = split.j_matrix
    assert np.allclose(j @ j, -np.eye(dim), rtol=0, atol=1e-12)


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
