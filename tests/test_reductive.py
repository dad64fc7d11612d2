import numpy as np
import pytest

from homgeo.errors import (
    ConsistencyError,
    IndexOutOfRange,
    InvalidMetric,
    NotReductive,
    UnimodularInput,
)
from homgeo import reductive
from homgeo.config import bound
from homgeo.io import space_from_dict, space_to_dict
from homgeo.lie import build_lie_algebra, from_tensor, killing_form
from homgeo.reductive import (
    Frame,
    InvariantMetric,
    ReductiveDecomposition,
    closedness_residual,
)
from homgeo.spectrum import BlockGrading, grading_decomposition
from homgeo.structure import classify


def milnor(l1, l2, l3):
    return build_lie_algebra(
        3, {(1, 2): {0: l1}, (2, 0): {1: l2}, (0, 1): {2: l3}}
    )


def g_solv(*alpha):
    n = len(alpha) + 1
    return build_lie_algebra(n, {(0, i): {i: alpha[i - 1]} for i in range(1, n)})


def rotated_heisenberg(lam3=1.0):
    """Rotation generator at 0, then a sheared Heisenberg copy."""
    return build_lie_algebra(4, {
        (0, 1): {2: 1.0},
        (0, 2): {1: -1.0},
        (1, 2): {3: lam3, 0: lam3 ** 2 / 2.0},
        (1, 3): {2: lam3 / 2.0},
        (2, 3): {1: -lam3 / 2.0},
    })


def test_partition_validation():
    alg = milnor(1.0, 1.0, 1.0)
    with pytest.raises(IndexOutOfRange):
        ReductiveDecomposition(alg, (0,), (0, 1, 2))
    with pytest.raises(IndexOutOfRange):
        ReductiveDecomposition(alg, (), (0, 1))
    with pytest.raises(IndexOutOfRange):
        ReductiveDecomposition(alg, (3,), (0, 1, 2))
    with pytest.raises(IndexOutOfRange):
        ReductiveDecomposition(alg, (0, 1, 2), ())


@pytest.mark.parametrize("k, m", [((), (0.0, 1.9, 2.7)), ((0.0,), (1, 2)), ((), (0, 1, "2"))])
def test_partition_indices_must_be_integers(k, m):
    # int() would truncate 1.9 to 1 and read "2" as 2
    with pytest.raises(IndexOutOfRange, match="integer indices"):
        ReductiveDecomposition(milnor(1.0, 1.0, 1.0), k, m)


def test_partition_accepts_numpy_integers():
    dec = ReductiveDecomposition(milnor(1.0, 1.0, 1.0), np.arange(0), np.arange(3))
    assert dec.m_indices == (0, 1, 2)
    assert all(type(i) is int for i in dec.m_indices)


def test_check_reductive():
    # [e0, e1] = e0 leaks into k for k = (0,)
    alg = build_lie_algebra(2, {(0, 1): {0: 1.0}})
    with pytest.raises(NotReductive, match=r"\[k,m\] leak\): residual 1\.000e\+00 \(bound"):
        ReductiveDecomposition(alg, (0,), (1,))
    # the other orientation is reductive
    ReductiveDecomposition(alg, (1,), (0,))
    # Heisenberg with both generators as isotropy: [k,k] leaks into m
    heis = build_lie_algebra(3, {(0, 1): {2: 1.0}})
    with pytest.raises(NotReductive, match=r"\[k,k\] leak\): residual 1\.000e\+00 \(bound"):
        ReductiveDecomposition(heis, (0, 1), (2,))


def test_reductivity_reads_the_algebra_tolerance():
    # so(3) + R with k = (2, 3): [e3, e0] leaks 1e-7 into k, off the
    # diagonal of ad_{e0}, so the trace form stays exactly zero; the
    # algebra's 1e-6 accepts the leak
    so3_r = {(0, 1): {2: 1.0}, (1, 2): {0: 1.0}, (2, 0): {1: 1.0}, (3, 0): {2: 1e-7}}
    dec = ReductiveDecomposition(build_lie_algebra(4, so3_r, tol=1e-6), (2, 3), (0, 1))
    rep = classify(dec, InvariantMetric.identity(2))  # a Frame at 1e-9
    assert rep.symmetric and rep.tol == 1e-9
    # a 1e-5 [k, m] leak in an algebra built at 1e-9 is refused before
    # any Frame, and so whatever tolerance a Frame would be given
    alg = build_lie_algebra(2, {(0, 1): {0: 1e-5}})
    with pytest.raises(NotReductive, match=r"residual 1\.000e-05 \(bound 1\.0e-09\)"):
        ReductiveDecomposition(alg, (0,), (1,))


def test_a_non_reductive_splitting_is_refused_where_it_is_built():
    # [e0, e1] = e0: k = (0,) leaks [k, m] into k
    alg = build_lie_algebra(2, {(0, 1): {0: 1.0}})
    with pytest.raises(NotReductive, match=r"\[k,m\] leak"):
        grading_decomposition(alg, BlockGrading(((1,),), (1,)))
    doc = space_to_dict(ReductiveDecomposition(alg, (), (0, 1)), InvariantMetric.identity(2))
    doc["decomposition"] = {"k": [0], "m": [1]}
    doc["metric"] = {"diag": [1.0]}
    with pytest.raises(NotReductive, match=r"\[k,m\] leak"):
        space_from_dict(doc)


def test_metric_validation():
    with pytest.raises(InvalidMetric):
        InvariantMetric(np.ones((2, 3)))
    with pytest.raises(InvalidMetric):
        InvariantMetric(np.array([[1.0, 0.5], [-0.5, 1.0]]))
    with pytest.raises(InvalidMetric):
        InvariantMetric.from_diag([])
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidMetric, match="non-finite"):
            InvariantMetric.from_diag([1.0, bad, 1.0])
    dec = ReductiveDecomposition(milnor(1.0, 1.0, 1.0), (), (0, 1, 2))
    with pytest.raises(InvalidMetric):
        Frame(dec, InvariantMetric.from_diag([1.0, -1.0, 1.0]))
    with pytest.raises(InvalidMetric):
        Frame(dec, InvariantMetric.identity(2))


def test_metric_must_be_isotropy_invariant():
    alg = rotated_heisenberg()
    dec = ReductiveDecomposition(alg, (0,), (1, 2, 3))
    Frame(dec, InvariantMetric.identity(3))  # rotation-invariant: fine
    with pytest.raises(InvalidMetric, match=r"not ad_k-invariant: residual .* \(bound 1\.0e-09\)"):
        Frame(dec, InvariantMetric.from_diag([1.0, 2.0, 3.0]))


def test_frame_orthonormality_and_coords():
    alg = g_solv(1.0, 2.0)
    dec = ReductiveDecomposition(alg, (), (0, 1, 2))
    g = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 3.0]])
    frame = Frame(dec, InvariantMetric(g))
    # frame vectors are metric-orthonormal
    assert np.allclose(frame.q.T @ g @ frame.q, np.eye(3), atol=1e-12)
    # coordinate round trips
    rng = np.random.default_rng(3)
    v = rng.standard_normal(3)
    assert np.allclose(frame.frame_coords(frame.q @ v), v, atol=1e-12)
    assert np.allclose(frame.m_part_frame(frame.g_coords(v)), v, atol=1e-12)
    # lowered bracket is antisymmetric in the first two slots
    assert np.allclose(frame.lte, -np.einsum("abc->bac", frame.lte), atol=1e-12)


def test_frame_checks_its_inverse_cholesky_factor(monkeypatch):
    alg = g_solv(1.0, 2.0)
    dec = ReductiveDecomposition(alg, (), (0, 1, 2))
    g = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 3.0]])
    # a dense metric of condition number 1e8 still passes the check
    rot, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((3, 3)))
    stiff = Frame(dec, InvariantMetric(rot @ np.diag([1e-4, 1.0, 1e4]) @ rot.T))
    assert np.allclose(stiff.q.T @ stiff.metric.matrix @ stiff.q, np.eye(3), atol=1e-9)

    # the inverse of the lower Cholesky factor, off by a little
    inv = reductive.np.linalg.inv
    for perturb in (lambda a: a * (1.0 + 1e-8),
                    lambda a: a + 1e-8 * np.triu(np.ones_like(a), 1)):
        def inverse(a, p=perturb):
            return p(inv(a))

        monkeypatch.setattr(reductive.np.linalg, "inv", inverse)
        with pytest.raises(ConsistencyError, match="not orthonormal"):
            Frame(dec, InvariantMetric(g))
    monkeypatch.undo()
    Frame(dec, InvariantMetric(g))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 20])
def test_frame_refuses_exactly_the_metrics_cholesky_refuses(n):
    # at the positive-definite boundary: one eigenvalue at or next to 0,
    # diagonal or in a random basis, where roundoff decides the sign.  At
    # n = 6 and 20 LAPACK's dpotrf, called directly, disagrees with
    # np.linalg.cholesky on about 1 % of such matrices
    dec = ReductiveDecomposition(build_lie_algebra(n, {}), (), tuple(range(n)))
    rng = np.random.default_rng([11, n])
    seen = set()
    for smallest in (0.0, 1e-300, -1e-300, 5e-324, -5e-324, 1e-16, -1e-16, 1e-15, -1e-15):
        for trial in range(40):
            eig = rng.uniform(0.5, 2.0, n)
            eig[rng.integers(n)] = smallest
            rot, _ = np.linalg.qr(rng.standard_normal((n, n)))
            metric = InvariantMetric(np.diag(eig) if trial == 0 else rot @ np.diag(eig) @ rot.T)
            try:
                np.linalg.cholesky(metric.matrix)
            except np.linalg.LinAlgError:
                refused = True
            else:
                refused = False
            seen.add(refused)
            frame_refused = False
            try:
                Frame(dec, metric)
            except InvalidMetric:
                frame_refused = True
            except ConsistencyError:  # accepted, but too ill-conditioned for the orthonormal check
                pass
            assert frame_refused == refused, (smallest, trial)
    assert seen == {True, False}


def test_frame_eta_values():
    alg = g_solv(1.0, 2.0)
    dec = ReductiveDecomposition(alg, (), (0, 1, 2))
    frame = Frame(dec, InvariantMetric.identity(3))
    assert np.allclose(frame.eta, [-3.0, 0.0, 0.0])
    assert frame.c == pytest.approx(3.0)


def test_u_tensor_defining_identity():
    alg = rotated_heisenberg()
    dec = ReductiveDecomposition(alg, (0,), (1, 2, 3))
    frame = Frame(dec, InvariantMetric.identity(3))
    u = frame.u
    assert np.allclose(u, np.einsum("abc->bac", u), atol=1e-12)
    rng = np.random.default_rng(4)
    for _ in range(5):
        x, y, z = rng.standard_normal((3, frame.n))
        lhs = 2.0 * np.einsum("a,b,c,abc->", x, y, z, u)
        zx = np.einsum("a,b,abc->c", z, x, frame.lte)
        zy = np.einsum("a,b,abc->c", z, y, frame.lte)
        assert lhs == pytest.approx(float(zx @ y + zy @ x), abs=1e-10)


def test_canonical_data_and_closedness():
    alg = rotated_heisenberg()
    dec = ReductiveDecomposition(alg, (0,), (1, 2, 3))
    metric = InvariantMetric.identity(3)
    frame = Frame(dec, metric)
    assert np.allclose(frame.eta, 0.0)  # unimodular
    # canonical curvature <[[f_a,f_b]_k, f_c], f_d>: from the isotropy
    # action, and from the brackets of frame vectors
    rc = np.einsum("abw,wdc->abcd", frame.k_part, frame.ad_k)
    br = alg.bracket(frame.frame_g.T[:, None], frame.frame_g.T[None, :])
    outer = alg.bracket(frame.k_part_g(br)[:, :, None], frame.frame_g.T[None, None])
    assert np.abs(rc).max() > 0.1
    assert np.allclose(rc, frame.m_part_frame(outer), rtol=0, atol=1e-12)
    assert closedness_residual(dec, metric) <= 1e-12


def test_closedness_on_non_unimodular_sums():
    rng = np.random.default_rng(5)
    for _ in range(5):
        diag = rng.uniform(0.3, 2.0, size=4)
        n = 5
        alg = build_lie_algebra(
            n, {(0, i): {i: diag[i - 1]} for i in range(1, n)}
        )
        dec = ReductiveDecomposition(alg, (), tuple(range(n)))
        g = InvariantMetric.identity(n)
        assert closedness_residual(dec, g) <= 1e-10


def test_foliation_requires_non_unimodular():
    dec = ReductiveDecomposition(milnor(1.0, 1.0, 1.0), (), (0, 1, 2))
    with pytest.raises(UnimodularInput):
        Frame(dec, InvariantMetric.identity(3)).foliation


def test_foliation_hyperbolic_plane_family():
    # one generator scaling two directions by alpha: totally umbilic leaves
    alpha = 1.0
    alg = g_solv(alpha, alpha)
    dec = ReductiveDecomposition(alg, (), (0, 1, 2))
    fol = Frame(dec, InvariantMetric.identity(3)).foliation
    assert fol.c == pytest.approx(2.0 * alpha)
    assert np.allclose(fol.h_mean, -fol.xi / 2.0)
    assert np.allclose(fol.h_coeff, -0.5 * np.eye(2), atol=1e-12)
    # leaves are spanned by the scaled directions
    assert np.abs(fol.d_basis[0, :]).max() <= 1e-12


def solvable_along(direction, t=1.0):
    """g(alpha) in an orthonormal basis whose trace form eta points along direction.

    [e0, ei] = t alpha_i ei, and the basis e'_a = sum_i h[i,a] e_i comes
    from the reflection h taking e0 to the unit direction; eta(e'_a) is
    h[0,a] = direction_a times sum alpha, and the identity metric stays
    orthonormal.  Jacobi is checked at a tolerance that grows with t^2.
    """
    u = np.asarray(direction, dtype=float)
    u = u / np.linalg.norm(u)
    n = len(u)
    w = np.eye(n)[0] - u
    h = np.eye(n) if not w.any() else np.eye(n) - 2.0 * np.outer(w, w) / (w @ w)
    alpha = t * np.linspace(0.5, 2.0, n - 1)
    ad = (h[1:].T * alpha) @ h[1:]  # [e0, e'_b] in the new basis
    tensor = np.einsum("a,bc->abc", h[0], ad)
    tensor = tensor - tensor.transpose(1, 0, 2)
    alg = from_tensor(tensor, tol=max(1e-9, 1e-13 * t * t))
    return ReductiveDecomposition(alg, (), tuple(range(n)))


def gram_schmidt_basis(frame):
    """Orthonormal basis of ker eta by modified Gram-Schmidt, one column at a time,
    and the index of the column it leaves out: the projected frame vectors in
    index order, keeping the first n-1 independent directions."""
    n, tol, c2 = frame.n, frame.tol, frame.c ** 2
    cols, skipped = [], n - 1
    for a in range(n):
        v = np.eye(n)[a] - (frame.eta[a] / c2) * frame.eta
        for u in cols:
            v = v - (u @ v) * u
        norm = np.linalg.norm(v)
        if norm > max(np.sqrt(tol), 1e-8):
            cols.append(v / norm)
        else:
            skipped = a
        if len(cols) == n - 1:
            break
    assert len(cols) == n - 1
    return np.array(cols).T, skipped


def _directions():
    rng = np.random.default_rng(20)
    cases = [pytest.param(rng.standard_normal(n), 1e-9, n - 1, id=f"random-n{n}")
             for n in (2, 3, 4, 6, 16, 20, 32)]
    return cases + [
        pytest.param(np.eye(5)[0], 1e-9, 0, id="along-e0"),
        pytest.param([1.0, 0.0, 0.0, 2.0, 0.0, -1.0, 0.5], 1e-9, 6, id="zeros-in-the-middle"),
        pytest.param([1.0, -2.0, 0.0, 0.0, 0.0], 1e-9, 1, id="zero-tail"),
        pytest.param([0.8, -0.6, 1e-6], 1e-9, 1, id="tail-1e-6"),
        pytest.param(np.r_[rng.standard_normal(15), 0.0] / 4.0 + 1e-6 * np.eye(16)[15],
                     1e-9, 14, id="tail-1e-6-n16"),
        pytest.param([0.3, 0.5, -0.8, 1e-3], 1e-9, 3, id="tail-1e-3"),
        pytest.param([0.3, 0.5, -0.8, 1e-3], 1e-4, 2, id="tail-1e-3-loose"),
    ]


@pytest.mark.parametrize("t", [1e-4, 1.0, 1e4])
@pytest.mark.parametrize("direction, tol, skipped", _directions())
def test_foliation_basis_is_the_gram_schmidt_basis(direction, tol, skipped, t):
    # skipped: the column Gram-Schmidt leaves out, so each case is known
    # to reach the rule it is meant for
    frame = Frame(solvable_along(direction, t), InvariantMetric.identity(len(direction)), tol)
    want, left_out = gram_schmidt_basis(frame)
    assert left_out == skipped
    d = frame.foliation.d_basis
    assert d.shape == (frame.n, frame.n - 1)
    assert np.abs(d - want).max() <= 1e-12
    assert np.abs(d.T @ d - np.eye(frame.n - 1)).max() <= 1e-12
    assert np.abs(frame.eta @ d).max() <= 1e-12 * frame.c


def test_foliation_checks_its_factorisation(monkeypatch):
    dec = solvable_along([0.3, 0.5, -0.8, 0.1])
    g = InvariantMetric.identity(4)
    message = "failed to build an orthonormal basis of ker eta"
    kernel_basis = reductive._kernel_basis
    # the basis columns, off by a little
    for perturb in (lambda q: q * (1.0 + 1e-8),
                    lambda q: q + 1e-8 * np.triu(np.ones_like(q))):
        def orthogonal(v, thr, p=perturb):
            d, resid = kernel_basis(v, thr)
            d[:, :-1] = p(d[:, :-1])
            return d, resid

        monkeypatch.setattr(reductive, "_kernel_basis", orthogonal)
        with pytest.raises(ConsistencyError, match=message):
            Frame(dec, g).foliation
    monkeypatch.undo()

    # a second dependent column in the residual norms
    def dependent(v, thr):
        d, resid = kernel_basis(v, thr)
        resid[1] = 0.0
        return d, resid

    monkeypatch.setattr(reductive, "_kernel_basis", dependent)
    with pytest.raises(ConsistencyError, match=message):
        Frame(dec, g).foliation
    monkeypatch.undo()
    Frame(dec, g).foliation


def qr_kernel_basis(v, thr):
    """Gram-Schmidt basis of ker v as a QR factorisation with R's diagonal positive,
    and the kept columns' |r_aa|: the projected frame vectors I - v v^T in
    index order with the column _kernel_basis leaves out left out."""
    n = len(v)
    tail = np.cumsum((v * v)[::-1])[::-1]
    small = np.flatnonzero(np.append(tail[1:], 0.0) <= thr * thr * tail)
    skip = int(small[0]) if small.size else n - 1
    p = np.eye(n) - np.outer(v, v)
    q, r = np.linalg.qr(np.delete(p, skip, axis=1))
    diag = r.diagonal()
    return q * np.copysign(1.0, diag), np.abs(diag), skip


@pytest.mark.parametrize("n", [2, 3, 5, 8, 20])
def test_closed_form_kernel_basis_is_the_qr_basis(n):
    """At every position of the column left out, with the entries past it
    zero or tiny, the closed form matches the sign-fixed QR basis."""
    thr = bound("foliation_rank", tol=np.sqrt(1e-9))
    rng = np.random.default_rng(n)
    for skip in range(n):
        for tiny in (0.0, 1e-7):
            v = rng.standard_normal(n)
            v[skip + 1:] *= tiny
            v /= np.linalg.norm(v)
            want, want_resid, left_out = qr_kernel_basis(v, thr)
            assert left_out == skip
            d, resid = reductive._kernel_basis(v, thr)
            assert np.abs(d[:, :-1] - want).max() <= 1.1e-11
            assert np.array_equal(d[:, -1], v)
            assert np.abs(np.array(resid) - want_resid).max() <= 1.1e-11


@pytest.mark.parametrize("n, k", [(3, 3.0), (5, 1.5), (20, 1.5)])
def test_foliation_basis_stays_orthonormal_next_to_the_rank_threshold(n, k):
    """eta's last entry is k times foliation_rank's threshold times the one
    before, so the last kept column's Gram-Schmidt residual norm is about k
    times the threshold.  The closed form stays orthonormal to roundoff; a
    QR factorisation of the same columns is off by about eps over that
    norm, 4e-13 to 6e-12 here and beyond the foliation_basis bound at n = 3."""
    thr = bound("foliation_rank", tol=np.sqrt(1e-9))
    direction = np.linspace(1.0, 2.0, n)
    direction[-1] = k * thr * direction[-2]
    frame = Frame(solvable_along(direction), InvariantMetric.identity(n))
    full = np.column_stack([frame.foliation.d_basis, frame.eta / frame.c])
    assert np.abs(full.T @ full - np.eye(n)).max() <= 1e-14


def test_killing_restriction_helper():
    alg = milnor(1.0, 2.0, -3.0)
    dec = ReductiveDecomposition(alg, (), (0, 1, 2))
    frame = Frame(dec, InvariantMetric.identity(3))
    b = frame.killing_m
    assert np.array_equal(b, frame.frame_g.T @ killing_form(alg) @ frame.frame_g)
    assert np.allclose(b, np.diag([12.0, 6.0, -4.0]))
