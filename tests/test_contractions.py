"""Each matmul contraction agrees with the einsum that defines it.

The helpers that take a stack of vectors agree, row by row, with their
one-vector calls as well as with the defining einsum.

The references below are the index formulas written out with np.einsum
on the same inputs, and the bracket fill is compared bit for bit with a
per-coefficient loop.  Inputs are deliberately asymmetric, so a contraction
over a transposed index shows up: random reductive bracket tables with a
random metric, valid Lie algebras in a random non-orthogonal basis, and
the catalog spaces with nonempty isotropy.
"""

import itertools
import math
import sys
from functools import cache, partial

import numpy as np
import pytest

from homgeo import reductive
from homgeo.catalog import build, default_entries, sp11_model, su21_model
from homgeo.config import check
from homgeo.curvature import (
    _quartic_form,
    _r4_pair,
    curvature_diagonal_general,
    curvature_tensor,
    cyclic_curvature_diagonal,
    einstein_check,
    killing_quadratic_via_brackets,
    ricci_routes,
    sectional_curvature,
    xi_curvatures,
)
from homgeo.errors import ConsistencyError, JacobiViolation, NotCyclic
from homgeo.lie import (
    LieAlgebra,
    _pullback,
    build_lie_algebra,
    change_basis,
    jacobi_residual,
    killing_form,
)
from homgeo.reductive import (
    Frame,
    InvariantMetric,
    ReductiveDecomposition,
    _slices,
    _symmetry_peaks,
    as_frame,
)
from homgeo.spectrum import theta_split
from homgeo.verify import _check_diagonal_routes, _check_killing_identity, _unit_rows

SIZES = (1, 2, 3, 5, 8)
# sizes that _slices sweeps in several slices, the second with a short last one
SLICED = (20, 17)
# one row per slice: the halved symmetry sweeps leave out nearly half of
# each residual they halve
LARGE = 32
ISOTROPY = (0, 2)
ISOTROPY_ENTRIES = (
    ("so2_heisenberg", {"lam3": 1.0}),
    ("su21_a3ii", {"lam": 1.3, "mu": 0.7}),
    ("sp11_a3iii", {"mu": 1.4}),
)


def assert_close(got, want, scale=None):
    """Agreement to 1e-12 relative to scale, by default the reference's size."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    if scale is None:
        scale = float(np.abs(want).max(initial=0.0))
    scale = max(1.0, scale)
    assert float(np.abs(got - want).max(initial=0.0)) <= 1e-12 * scale


def canonical_curvature(frame):
    """rc[a,b,c,d] = <[[f_a,f_b]_k, f_c], f_d>, from k_part and ad_k."""
    return np.einsum("abw,wdc->abcd", frame.k_part, frame.ad_k)


def r4_by_index_formula(frame):
    """R4 from lte, gamma and the isotropy action, written out with np.einsum."""
    lam = np.einsum("abd->adb", frame.gamma)
    m_term = np.einsum("abe,edc->abdc", frame.lte, lam)
    comm = (np.einsum("ade,bec->abdc", lam, lam)
            - np.einsum("bde,aec->abdc", lam, lam))
    return np.einsum("abdc->abcd", m_term - comm) + canonical_curvature(frame)


def random_spd(n, rng):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def skew(a):
    return a - np.swapaxes(a, 0, 1)


def raw_frame(n, dim_k, seed):
    """A random reductive bracket table (Jacobi not imposed) and its Frame.

    k comes first.  [k,k] lies in k and [k,m] in m, and ad_k acts on m by
    G^-1 A with A antisymmetric, so the random metric G is ad_k-invariant.
    """
    rng = np.random.default_rng(seed)
    dim = dim_k + n
    k, m = slice(0, dim_k), slice(dim_k, dim)
    g = random_spd(n, rng)
    c = np.zeros((dim, dim, dim))
    c[k, k, k] = skew(rng.standard_normal((dim_k, dim_k, dim_k)))
    c[m, m, :] = skew(rng.standard_normal((n, n, dim)))
    for w in range(dim_k):
        ad = np.linalg.solve(g, skew(rng.standard_normal((n, n))))  # ad[l, j]
        c[w, m, m] = ad.T
        c[m, w, m] = -ad.T
    alg = LieAlgebra(dim, tuple(f"e{i}" for i in range(dim)), c, 0.0, 1e-9)
    dec = ReductiveDecomposition(alg, tuple(range(dim_k)), tuple(range(dim_k, dim)))
    return Frame(dec, InvariantMetric(g))


def lie_frame(n, dim_k, seed):
    """A cyclic, non-unimodular space in a random non-orthogonal basis.

    m = R e0 + V with [e0, v] = D v for a symmetric D; k (the first dim_k
    indices) rotates two planes of V, on each of which D is a multiple of
    the identity.  The basis change keeps k and m apart, and the metric
    is the pull-back of the one making e0 and V orthonormal.
    """
    rng = np.random.default_rng(seed)
    dim = dim_k + n
    v = list(range(dim_k + 1, dim))
    d = rng.standard_normal((n - 1, n - 1))
    d = d @ d.T + np.eye(n - 1)  # positive trace: not unimodular
    rot = np.zeros((dim_k, n - 1, n - 1))
    for w in range(dim_k):
        a, b = 2 * w, 2 * w + 1
        if b < n - 1:
            d[[a, b], :] = d[:, [a, b]] = 0.0
            d[a, a] = d[b, b] = 1.0 + w
            rot[w, b, a], rot[w, a, b] = 1.0, -1.0
    brackets = {}
    for j, vj in enumerate(v):
        brackets[(dim_k, vj)] = {vi: float(d[i, j]) for i, vi in enumerate(v)}
        for w in range(dim_k):
            brackets[(w, vj)] = {vi: float(rot[w, i, j]) for i, vi in enumerate(v)}
    alg = build_lie_algebra(dim, brackets)
    p = np.zeros((dim, dim))
    p[:dim_k, :dim_k] = np.eye(dim_k) + 0.3 * rng.standard_normal((dim_k, dim_k))
    p_m = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    p[dim_k:, dim_k:] = p_m
    dec = ReductiveDecomposition(change_basis(alg, p), tuple(range(dim_k)),
                                 tuple(range(dim_k, dim)))
    return Frame(dec, InvariantMetric(p_m.T @ p_m))


def catalog_frame(name, params):
    entry = build(name, **params)
    return Frame(entry.decomposition, entry.metric)


# builders, not frames, so that a broken contraction fails its own tests
# rather than the collection of this module
LIE_SPACES = {f"n{n}-k{dim_k}": partial(lie_frame, n, dim_k, 10 * n + dim_k)
              for n in SIZES[1:] for dim_k in ISOTROPY}
CURVATURE_SPACES = {
    **LIE_SPACES,
    **{f"n{n}-k{dim_k}": partial(lie_frame, n, dim_k, 10 * n + dim_k)
       for n, dim_k in zip(SLICED, ISOTROPY)},
    **{name: partial(catalog_frame, name, params) for name, params in ISOTROPY_ENTRIES},
}
BRACKET_SPACES = {
    **{f"raw-n{n}-k{dim_k}": partial(raw_frame, n, dim_k, 100 * n + dim_k)
       for n in SIZES for dim_k in ISOTROPY},
    **CURVATURE_SPACES,
}


LARGE_SPACES = {f"n{LARGE}-k0": partial(lie_frame, LARGE, 0, 10 * LARGE)}


@cache
def frame_of(name):
    return {**BRACKET_SPACES, **LARGE_SPACES}[name]()


def test_inputs_are_asymmetric():
    for name in LIE_SPACES:
        metric = frame_of(name).metric.matrix
        assert np.abs(metric - np.diag(np.diagonal(metric))).max() > 0.01
    frame = frame_of("raw-n5-k2")
    assert np.abs(frame.lte + np.einsum("abc->acb", frame.lte)).max() > 0.1
    assert np.abs(canonical_curvature(frame)).max() > 0.1
    assert np.abs(frame_of("n5-k2").ad_k).max() > 0.1


@pytest.mark.parametrize("name", sorted(BRACKET_SPACES))
def test_frame_bracket_projection(name):
    frame = frame_of(name)
    c = frame.dec.algebra.tensor
    k, m = list(frame.dec.k_indices), list(frame.dec.m_indices)
    br = np.einsum("ia,jb,ijk->abk", frame.frame_g, frame.frame_g, c)
    assert_close(frame.lte, np.einsum("fk,abk->abf", frame.q_inv, br[:, :, m]))
    assert_close(frame.k_part, br[:, :, k])


@pytest.mark.parametrize("name", sorted(BRACKET_SPACES))
def test_isotropy_curvature(name):
    """canonical_curvature against <[[f_a,f_b]_k, f_c], f_d> from the bracket tensor."""
    frame = frame_of(name)
    c = frame.dec.algebra.tensor
    k, m = list(frame.dec.k_indices), list(frame.dec.m_indices)
    br = np.einsum("ia,jb,ijk->abk", frame.frame_g, frame.frame_g, c)
    br_k = np.zeros_like(br)
    br_k[:, :, k] = br[:, :, k]
    outer = np.einsum("abi,jc,ijk->abck", br_k, frame.frame_g, c)
    assert_close(canonical_curvature(frame),
                 np.einsum("dk,abck->abcd", frame.q_inv, outer[..., m]))


def full_symmetry_defects(r4):
    """The max-abs defects of r4's four symmetries, each over every entry, in order."""
    bianchi = r4 + r4.transpose(1, 2, 0, 3) + r4.transpose(2, 0, 1, 3)
    defects = [r4 + r4.transpose(1, 0, 2, 3), r4 + r4.transpose(0, 1, 3, 2),
               r4 - r4.transpose(2, 3, 0, 1), bianchi]
    return [float(np.abs(d).max()) for d in defects]


def symmetry_defects(r4):
    """The sliced and halved sweeps' defect of each of r4's four symmetries, in order."""
    peaks = _symmetry_peaks(r4, _slices(r4.shape[0]))
    return [max(peaks[i::4]) for i in range(4)]


@pytest.mark.parametrize("name", sorted(CURVATURE_SPACES) + sorted(LARGE_SPACES))
def test_curvature_tensor(name):
    frame = frame_of(name)
    assert_close(frame.r4, r4_by_index_formula(frame))
    # the sliced and halved checks find what the whole-tensor checks find
    assert frame.r4_defect == max(full_symmetry_defects(frame.r4))


@pytest.mark.parametrize("n", SLICED + (LARGE,))
def test_halved_symmetry_sweeps_are_the_full_sweeps(n):
    """Each defect bit for bit, on any tensor: each residual left out is one read, up to sign."""
    rng = np.random.default_rng(n)
    r4 = rng.standard_normal((n,) * 4)
    assert len(_slices(n)) > 1
    assert symmetry_defects(r4) == full_symmetry_defects(r4)


def late_pair(n):
    """(a, b): a the last index of the next-to-last slice of n, b the last index.

    Sweeping the other half of each halved residual, b < n - a0 for a
    slice starting at a0, would read neither (a, b) nor (b, a).
    """
    a, b = _slices(n)[-1][0].start - 1, n - 1
    assert a not in range(n)[_slices(n)[-1][0]]
    return a, b


@pytest.mark.parametrize(
    "name", [f"n{n}-k{dim_k}" for n, dim_k in zip(SLICED, ISOTROPY)] + sorted(LARGE_SPACES))
def test_r4_defect_planted_in_a_skipped_orientation_is_caught(name):
    """r4[b, a, a, 0] with b > a in a later slice: the sweeps of b's slice leave
    both halved residuals there out, and the sweep of a's slice reads them."""
    frame = frame_of(name)
    n = frame.n
    a, b = late_pair(n)
    r4 = frame.r4.copy()
    r4[b, a, a, 0] += 1e-3
    defects = symmetry_defects(r4)
    assert defects == full_symmetry_defects(r4)
    swap_ab, _, swap_pairs, _ = defects
    assert min(swap_ab, swap_pairs) >= 0.99e-3
    scale = max(1.0, float(np.abs(r4).max()))
    with pytest.raises(ConsistencyError, match="algebraic symmetries"):
        check("curvature_symmetries", max(defects), scale)


def leading_bianchi_residual(r4):
    """The Bianchi sum of full_symmetry_defects, in its order, over the entries
    the sweep of a's slice reads: b and c from that slice's start a0 on."""
    n = r4.shape[0]
    a0 = np.array([s.start for s, buf in _slices(n) for _ in range(len(buf))])
    a, b, c = np.indices((n,) * 3)
    read = (b >= a0[a]) & (c >= a0[a])
    bianchi = r4 + r4.transpose(1, 2, 0, 3) + r4.transpose(2, 0, 1, 3)
    return float(np.abs(bianchi[read]).max())


def spread_triple(n):
    """(a, b, c): the first index, the start of the second slice and the last index."""
    a, b, c = 0, _slices(n)[1][0].start, n - 1
    assert _slices(n)[1][0].stop <= c
    return a, b, c


@pytest.mark.parametrize(
    "name", [f"n{n}-k{dim_k}" for n, dim_k in zip(SLICED, ISOTROPY)] + sorted(LARGE_SPACES))
def test_bianchi_defect_planted_at_a_late_rotation_is_caught(name):
    """r4[c, a, b, 0] with a < b < c and a's slice before b's: the Bianchi sums
    at (b, c, a) and (c, a, b) read it too, but only the sweep of a's slice,
    at (a, b, c), reads one of the three."""
    frame = frame_of(name)
    a, b, c = spread_triple(frame.n)
    r4 = frame.r4.copy()
    r4[c, a, b, 0] += 1e-3
    bianchi = symmetry_defects(r4)[3]
    assert bianchi == leading_bianchi_residual(r4) >= 0.99e-3
    scale = max(1.0, float(np.abs(r4).max()))
    with pytest.raises(ConsistencyError, match="algebraic symmetries"):
        check("curvature_symmetries", bianchi, scale)


@pytest.mark.parametrize("n", SLICED + (LARGE,))
def test_bianchi_sweep_reads_one_rotation_of_each_orbit(n):
    """Bit for bit the Bianchi sums of the sweep's entries, on any tensor.

    With x, y, z = 1, -1, 2**-53 at r4[a, b, c], r4[b, c, a] and r4[c, a, b],
    a < b < c in three slices, the sum at (a, b, c) is (x + z) + y = 0, and
    the sums at (b, c, a) and (c, a, b), which no slice reads, are
    (y + x) + z = (z + y) + x = 2**-53.  The same values sit on the other
    cyclic class, at r4[a, c, b], r4[c, b, a] and r4[b, a, c].  The sweep's
    defect is then short of the full sweep's by rounding, and it reads no
    rotation it leaves out.
    """
    rng = np.random.default_rng(n)
    r4 = rng.standard_normal((n,) * 4)
    assert symmetry_defects(r4)[3] == leading_bianchi_residual(r4)
    a, b, c = spread_triple(n)
    r4 = np.zeros((n,) * 4)
    for p, q, r in ((a, b, c), (a, c, b)):
        r4[p, q, r, 0], r4[q, r, p, 0], r4[r, p, q, 0] = 1.0, -1.0, 2.0 ** -53
    assert symmetry_defects(r4)[3] == leading_bianchi_residual(r4) == 0.0
    assert full_symmetry_defects(r4)[3] == 2.0 ** -53


def test_slices_tile_the_first_axis():
    for n in SIZES + SLICED:
        pieces = _slices(n)
        covered = [i for s, buf in pieces for i in range(n)[s]]
        assert covered == list(range(n))
        assert all(buf.shape == (len(range(n)[s]), n, n, n) for s, buf in pieces)
    assert len(_slices(3)) == 1
    big, short = SLICED
    assert len(_slices(big)) > 1
    assert len(_slices(short)) > 1
    assert len(_slices(short)[-1][1]) < len(_slices(short)[0][1])


def stored_skew(tensor):
    """The antisymmetric tensor whose rows (j, k), j < k, are tensor's."""
    upper = np.triu(tensor.transpose(2, 0, 1), 1).transpose(1, 2, 0)
    return skew(upper)


@pytest.mark.parametrize("dim", SIZES + SLICED)
def test_jacobi_residual(dim):
    """The einsum residual, each inner bracket [e_j, e_k] read from the row j < k.

    On the first draw, which is not antisymmetric, the rows j > k are then
    not read as inner brackets; the outer bracket reads the whole tensor.
    """
    rng = np.random.default_rng(dim)
    for tensor in (rng.standard_normal((dim,) * 3),
                   skew(rng.standard_normal((dim,) * 3))):
        t = np.einsum("jkl,ilm->ijkm", stored_skew(tensor), tensor)
        jac = t + np.transpose(t, (1, 2, 0, 3)) + np.transpose(t, (2, 0, 1, 3))
        assert_close(jacobi_residual(tensor), np.abs(jac).max())


def full_jacobi_sums(tensor):
    """The cyclic sum at every (i, j, k), from t[i,j,k,m] = [e_i, [e_j, e_k]]_m.

    The terms are added in jacobi_residual's order, and t is formed as it
    forms h, one product per outer index i, here over every pair (j, k).
    """
    dim = tensor.shape[0]
    t = (tensor.reshape(dim * dim, dim) @ tensor).reshape((dim,) * 4)
    jac = t + np.transpose(t, (1, 2, 0, 3))  # + [e_k, [e_i, e_j]]
    jac += np.transpose(t, (2, 0, 1, 3))  # + [e_j, [e_k, e_i]]
    return jac


def full_jacobi_residual(tensor):
    """The max-abs cyclic sum over every (i, j, k)."""
    return float(np.abs(full_jacobi_sums(tensor)).max())


def leading_jacobi_residual(tensor):
    """The max-abs cyclic sum over i < j < k of the full sweep."""
    i, j, k = np.indices((tensor.shape[0],) * 3)
    return float(np.abs(full_jacobi_sums(tensor)[(i < j) & (j < k)]).max(initial=0.0))


@pytest.mark.parametrize("dim", SLICED + (LARGE,))
def test_halved_jacobi_sweep_is_the_full_sweep(dim):
    """Bit for bit the full sweep over i < j < k, on exactly antisymmetric tensors,
    Lie or not; at most the full sweep over every (i, j, k), and short of it
    by no more than the rounding of a sum of three terms."""
    rng = np.random.default_rng(dim)
    lie = build_lie_algebra(dim, dense_table(dim, dim)).tensor
    for tensor in (skew(rng.standard_normal((dim,) * 3)), lie):
        got, full = jacobi_residual(tensor), full_jacobi_residual(tensor)
        assert got == leading_jacobi_residual(tensor)
        term = dim * float(np.abs(tensor).max()) ** 2
        assert full - 4 * np.finfo(float).eps * term <= got <= full


def reversed_table(indices, rng):
    """Random brackets among three basis vectors, each pair given as (i, j) with
    i > j: they fail Jacobi, and the residual lives on those three indices."""
    return {(i, j): {k: float(rng.standard_normal()) for k in indices}
            for i in indices for j in indices if i > j}


def table_tensor(dim, table):
    """The dense bracket tensor of a table, filled in both orientations."""
    tensor = np.zeros((dim,) * 3)
    for (i, j), out in table.items():
        for k, v in out.items():
            tensor[i, j, k], tensor[j, i, k] = v, -v
    return tensor


@pytest.mark.parametrize("dim", SLICED + (LARGE,))
def test_jacobi_defect_planted_in_a_skipped_orientation_is_caught(dim):
    """A reversed table on the last three basis vectors: of the six orderings
    of those indices, the sweep reads only the increasing one."""
    rng = np.random.default_rng(dim)
    table = reversed_table(range(dim - 3, dim), rng)
    with pytest.raises(JacobiViolation):
        build_lie_algebra(dim, table)
    tensor = table_tensor(dim, table)
    assert jacobi_residual(tensor) == leading_jacobi_residual(tensor) > 0.1


@pytest.mark.parametrize("dim", (3,) + SLICED + (LARGE,))
def test_jacobi_defect_on_spread_indices_given_reversed_is_caught(dim):
    """A reversed table on the first, a middle and the last basis vector."""
    rng = np.random.default_rng(dim + 1)
    table = reversed_table((0, dim // 2, dim - 1), rng)
    with pytest.raises(JacobiViolation):
        build_lie_algebra(dim, table)
    tensor = table_tensor(dim, table)
    assert jacobi_residual(tensor) == leading_jacobi_residual(tensor) > 0.1


@pytest.mark.parametrize("dim", (3,) + SLICED)
def test_overflowed_jacobi_sum_is_refused(dim):
    """so(3) scaled by 1e200 on the last three indices sums inf - inf.

    The NaN lies only at triples with a repeated index; every triple of
    three distinct indices has residual 0.
    """
    a, b, c = dim - 3, dim - 2, dim - 1
    table = {(a, b): {c: 1e200}, (b, c): {a: 1e200}, (c, a): {b: 1e200}}
    tensor = np.zeros((dim,) * 3)
    for (i, j), out in table.items():
        for k, v in out.items():
            tensor[i, j, k], tensor[j, i, k] = v, -v
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(jacobi_residual(tensor))
        with pytest.raises(JacobiViolation, match="residual nan"):
            build_lie_algebra(dim, table)


def so3_table(dim, scale):
    """so(3), scaled by scale, on the last three basis vectors."""
    a, b, c = dim - 3, dim - 2, dim - 1
    return {(a, b): {c: scale}, (b, c): {a: scale}, (c, a): {b: scale}}


def guard_passes(dim, peak):
    """Whether jacobi_residual skips the triples with a repeated index."""
    return math.isfinite(3.0 * dim * peak * peak)


@pytest.mark.parametrize("dim", (3,) + SLICED + (LARGE,))
def test_overflow_only_a_repeated_index_reads_is_refused(dim):
    """so(3) scaled just past and just short of sqrt(max float): [e_a, [e_a, e_b]]
    overflows at the first scale and not at the second, and every triple of
    three distinct indices has residual 0 at both.  Both lie beyond the guard,
    which is what makes the sweep read the triples with a repeated index."""
    edge = math.sqrt(sys.float_info.max)
    over, under = edge * (1 + 2 ** -40), edge * (1 - 2 ** -40)
    assert not math.isfinite(over * over) and math.isfinite(under * under)
    assert not guard_passes(dim, under)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(JacobiViolation, match="residual nan"):
            build_lie_algebra(dim, so3_table(dim, over))
    with np.errstate(all="raise"):
        assert build_lie_algebra(dim, so3_table(dim, under)).jacobi_defect == 0.0


def aligned_tensor(dim):
    """Every stored bracket coefficient 1: [e_x, [e_j, e_k]] on the first basis
    vector x = 0 then sums dim - 1 products of one sign, as large as a table
    whose largest coefficient is 1 allows."""
    return stored_skew(np.ones((dim,) * 3))


@pytest.mark.parametrize("dim", (3,) + SLICED + (LARGE,))
def test_overflow_guard_leaves_out_only_finite_reads(dim):
    """A table at max |c| just short of and just past the guard's edge,
    sqrt(max float / (3 dim)): every sum of the full sweep is finite at both,
    and the sweep, skipping or reading the triples with a repeated index, is
    the full sweep over i < j < k."""
    edge = math.sqrt(sys.float_info.max / (3 * dim))
    for scale, passes in ((edge * (1 - 2 ** -40), True), (edge * (1 + 2 ** -40), False)):
        assert guard_passes(dim, scale) is passes
        tensor = scale * aligned_tensor(dim)
        with np.errstate(all="raise"):
            got = jacobi_residual(tensor)
            assert np.isfinite(full_jacobi_sums(tensor)).all()
        assert got == leading_jacobi_residual(tensor) > 0.0


class Items(list):
    """A table given as its (key, value) items, so that a key may repeat."""

    def items(self):
        return iter(self)


def dense_table(n, seed):
    """g(alpha) rotated to a dense table, half its pairs given as (j, i)."""
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(0.5, 2.0, n - 1)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    t = (q[1:].T * alpha) @ q[1:]
    c = skew(np.einsum("a,bd->abd", q[0], t))
    table = {}
    for a in range(n):
        for b in range(a + 1, n):
            pair = (b, a) if (a + b) % 2 else (a, b)
            table[pair] = {d: float(c[pair][d]) for d in range(n)}
    return table


FILL_TABLES = {
    "orientations": (3, {(0, 1): {2: 1.0}, (1, 0): {2: 0.25}}),
    # the sum depends on the order: (0.1 + 0.2) - 0.3 != 0.1 + (0.2 - 0.3)
    "repeated pairs": (3, Items([((0, 1), {2: 0.1}), ((0, 1), {2: 0.2}), ((1, 0), {2: 0.3})])),
    "repeated outputs": (3, {(0, 1): Items([(2, 0.1), (2, 0.2), (2, -0.3)])}),
    "numpy integers": (3, {(np.int64(2), np.int32(0)): {np.uint8(1): 1.5},
                           (np.intp(0), 2): {1: 0.5}}),
    "zero diagonal": (3, {(1, 1): {0: 0.0, 2: -0.0}, (0, 1): {2: 1.0}}),
    "empty": (4, {}),
    "dense": (6, dense_table(6, 1)),
    "dense sliced": (SLICED[0], dense_table(SLICED[0], 2)),
}


@pytest.mark.parametrize("name", sorted(FILL_TABLES))
def test_bracket_fill_is_the_per_coefficient_fill(name):
    dim, table = FILL_TABLES[name]
    upper = np.zeros((dim, dim, dim))
    for (i, j), out in table.items():
        if i == j:
            continue
        sign = 1.0
        if i > j:
            i, j, sign = j, i, -1.0
        for k, v in out.items():
            upper[i, j, k] += sign * float(v)
    want = upper - upper.transpose(1, 0, 2)
    want += 0.0
    got = build_lie_algebra(dim, table).tensor
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", SIZES)
def test_pullback(n):
    rng = np.random.default_rng(n)
    tensor = rng.standard_normal((7, 7, 4))
    p = rng.standard_normal((7, n))
    assert_close(_pullback(tensor, p), np.einsum("ia,jb,ijk->abk", p, p, tensor))


@pytest.mark.parametrize("name", sorted(CURVATURE_SPACES))
def test_change_basis(name):
    alg = frame_of(name).dec.algebra
    rng = np.random.default_rng(alg.dim)
    p = np.eye(alg.dim) + 0.3 * rng.standard_normal((alg.dim, alg.dim))
    vec = np.einsum("ai,bj,abk->ijk", p, p, alg.tensor)
    want = np.einsum("mk,ijk->ijm", np.linalg.inv(p), vec)
    assert_close(change_basis(alg, p).tensor, want)


@pytest.mark.parametrize("model", [su21_model, sp11_model])
def test_theta_split_accepts_a_conjugated_automorphism(model):
    alg, _, theta = model()
    rng = np.random.default_rng(alg.dim)
    p = np.eye(alg.dim) + 0.3 * rng.standard_normal((alg.dim, alg.dim))
    alg = change_basis(alg, p)
    theta = np.linalg.solve(p, theta @ p)
    c = alg.tensor
    for th, is_automorphism in ((theta, True), (theta.T, False)):
        defect = (np.einsum("ai,bj,abk->ijk", th, th, c)
                  - np.einsum("ijl,kl->ijk", c, th))
        assert (np.abs(defect).max() < 1e-9) == is_automorphism
    split = theta_split(alg, theta)
    assert split.k_basis.shape[1] + split.m_basis.shape[1] == alg.dim


def test_cyclic_route_isotropy_term():
    """The cyclic route's isotropy term is the trace of the canonical curvature,
    on every catalog space with k."""
    entries = [e for e in default_entries() if e.decomposition.dim_k]
    assert len(entries) >= 3
    for entry in entries:
        frame = Frame(entry.decomposition, entry.metric)
        routes = frame.ricci_routes
        iso = np.einsum("xaya->xy", canonical_curvature(frame))
        assert np.abs(iso).max() > 0.1, entry.label
        eta_u = np.einsum("xyc,c->xy", frame.u, frame.eta)
        assert_close(routes["cyclic"], eta_u - frame.killing_m - 0.5 * (iso + iso.T))


@pytest.mark.parametrize("name", sorted(CURVATURE_SPACES))
def test_ricci_routes_match_their_index_formulas(name):
    """The general and cyclic routes against their defining einsums."""
    frame = frame_of(name)
    lte, eta, routes = frame.lte, frame.eta, frame.ricci_routes
    b_m = np.einsum("ia,ij,jb->ab", frame.frame_g, killing_form(frame.dec.algebra),
                    frame.frame_g)
    xi_term = np.einsum("a,axy->xy", eta, lte)
    general = (-0.5 * np.einsum("xac,yac->xy", lte, lte) - 0.5 * b_m
               + 0.25 * np.einsum("abx,aby->xy", lte, lte) + 0.5 * (xi_term + xi_term.T))
    assert_close(routes["general"], general)
    assert ("cyclic" in routes) == (frame.cyclic_residual <= frame.tol)
    if "cyclic" in routes:
        eta_u = np.einsum("xyc,c->xy", frame.u, eta)
        iso = np.einsum("xaw,way->xy", frame.k_part, frame.ad_k)
        assert_close(routes["cyclic"], eta_u - b_m - 0.5 * (iso + iso.T))


@pytest.mark.parametrize("dim_k", ISOTROPY)
def test_frame_calls_never_build_rc(dim_k):
    frame = lie_frame(5, dim_k, 50 + dim_k)
    dec, metric = frame.dec, frame.metric
    ricci_routes(dec, metric)
    built = as_frame(dec, metric)
    # the Ricci routes leave no n^4 array on the Frame, r4 included
    big = [name for name, value in vars(built).items()
           if isinstance(value, np.ndarray) and value.size >= built.n ** 4]
    assert big == []


# lie_frame at every size, with k empty and with k nonempty, beside the
# curvature spaces and the default catalog entries.  n = 17 with k empty is
# left out: its table in lie_frame's random basis has entries near 100 and a
# Jacobi residual of 1.7e-9, which the absolute Jacobi bound (1e-9 at the
# default tolerance, whatever the table's scale) refuses
ROUTE_SPACES = {
    **{f"n{n}-k{dim_k}": partial(lie_frame, n, dim_k, 10 * n + dim_k)
       for n in SIZES + SLICED for dim_k in ISOTROPY if (n, dim_k) != (17, 0)},
    **CURVATURE_SPACES,
    **{entry.label: partial(Frame, entry.decomposition, entry.metric)
       for entry in default_entries()},
}


@pytest.mark.parametrize("name", sorted(ROUTE_SPACES))
def test_trace_route_and_killing_on_m_match_their_definitions(name):
    """The trace route, contracted without R4, against sum_a R4[x,a,y,a];
    killing_m, from the Frame's adjoint product, against the Killing form of g."""
    frame = ROUTE_SPACES[name]()
    trace = frame.ricci_routes["trace"]
    assert "r4" not in vars(frame)
    assert_close(trace, np.einsum("xaya->xy", frame.r4))
    b_full = killing_form(frame.dec.algebra)
    assert_close(frame.killing_m, frame.frame_g.T @ b_full @ frame.frame_g)
    assert np.array_equal(frame.killing_m, frame.killing_m.T)


@pytest.mark.parametrize("call", [ricci_routes, einstein_check])
def test_ricci_readers_build_no_r4(call, monkeypatch):
    def spy(self):
        raise AssertionError("r4 was built")

    monkeypatch.setattr(Frame, "r4", property(spy))
    for entry in default_entries():
        frame = Frame(entry.decomposition, entry.metric)
        call(frame)
        call(entry.decomposition, entry.metric)
        assert "r4" not in vars(frame)
        assert "r4" not in vars(as_frame(entry.decomposition, entry.metric))


# the default entries on which the commutator term of the curvature tensor,
# and with it its trace sum_a [G_x, G_a][y, a], is not zero
COMMUTATOR_ENTRIES = [
    "b2_product(rho=1.0,sigma=2.0,lam=1.5)",
    "g(alpha=[0.5, 1.0, 2.0])",
    "g(alpha=[1.0, -1.0])",
    "g(alpha=[1.0, 1.0])",
    "milnor3(lam=[1.0, 0.0, -1.0])",
    "milnor3(lam=[1.0, 1.0, 1.0])",
    "milnor3(lam=[1.0, 2.0, -3.0])",
    "milnor3(lam=[2.0, 1.0, 1.0])",
    "r_heisenberg(alpha=1.0,lam3=1.0)",
    "so2_heisenberg(lam3=1.0)",
    "sp11_a3iii(mu=1.0)",
    "su21_a3ii(lam=1.0,mu=1.0)",
]


def commutator_trace(gamma):
    """sum_a [G_x, G_a][y, a] with G_x = gamma[x], written out with np.einsum,
    over any leading axes, as _ricci_trace takes them."""
    return (np.einsum("...xyb,...aba->...xy", gamma, gamma)
            - np.einsum("...ayb,...xba->...xy", gamma, gamma))


def ricci_failures(monkeypatch, mutant):
    """{label: error text} of the default entries whose ricci_routes raise with
    reductive._ricci_trace replaced by mutant(original, gamma, lte, iso).

    The Ricci operator is built from _ricci_trace, so it is rebuilt from the
    mutant, and again from the original afterwards.
    """
    original = reductive._ricci_trace
    monkeypatch.setattr(reductive, "_ricci_trace",
                        lambda gamma, lte, iso: mutant(original, gamma, lte, iso))
    reductive._ricci_operator.cache_clear()
    failed = {}
    try:
        for entry in default_entries():
            try:
                Frame(entry.decomposition, entry.metric).ricci_routes
            except ConsistencyError as exc:
                failed[entry.label] = str(exc)
    finally:
        monkeypatch.undo()
        reductive._ricci_operator.cache_clear()
    return failed


def test_trace_route_with_the_commutator_flipped_fails(monkeypatch):
    terms = {entry.label: np.abs(commutator_trace(
        Frame(entry.decomposition, entry.metric).gamma)).max() for entry in default_entries()}
    assert sorted(label for label, term in terms.items() if term > 0.1) == COMMUTATOR_ENTRIES
    assert all(term == 0.0 for label, term in terms.items() if label not in COMMUTATOR_ENTRIES)

    failed = ricci_failures(monkeypatch, lambda original, gamma, lte, iso:
                            original(gamma, lte, iso) - 2.0 * commutator_trace(gamma))
    assert sorted(failed) == COMMUTATOR_ENTRIES
    assert all("Ricci routes 'trace' and 'general' disagree" in text
               for text in failed.values())


def test_trace_route_without_the_isotropy_term_fails(monkeypatch):
    failed = ricci_failures(monkeypatch, lambda original, gamma, lte, iso:
                            original(gamma, lte, 0.0 * iso))
    with_k = sorted(entry.label for entry in default_entries() if entry.decomposition.dim_k)
    assert len(with_k) == 6
    assert sorted(failed) == with_k
    assert all("Ricci routes 'trace' and 'general' disagree" in text
               for text in failed.values())


def test_trace_route_with_two_slots_of_u_transposed_fails(monkeypatch):
    # U(X, Y) read with its last two slots exchanged inside the trace route
    # alone, where the operator's connection check does not see it; on every
    # entry but su(2) with its bi-invariant metric, where U = 0, the routes
    # then disagree, on the entries the operator serves as on the others
    def transposed_u(original, gamma, lte, iso):
        return original(0.5 * lte + (gamma - 0.5 * lte).mT, lte, iso)

    frames = {entry.label: Frame(entry.decomposition, entry.metric)
              for entry in default_entries()}
    with_u = sorted(label for label, frame in frames.items() if np.abs(frame.u).max() > 0.1)
    assert [label for label in frames if label not in with_u] == ["milnor3(lam=[1.0, 1.0, 1.0])"]
    through_operator = [label for label in with_u if frames[label].n <= 3
                        and not frames[label].dec.dim_k]
    assert len(through_operator) == 6
    failed = ricci_failures(monkeypatch, transposed_u)
    assert sorted(failed) == with_u
    assert all("Ricci routes 'trace' and 'general' disagree" in text
               for text in failed.values())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ricci_operator_agrees_with_its_formulas(n):
    matrix = reductive._ricci_operator(n)
    assert matrix.shape == (3 * n * n, (n ** 3 + n) ** 2)
    rng = np.random.default_rng(n)
    for scale in (1e-5, 1.0, 1e5):
        lte = scale * skew(rng.standard_normal((n, n, n)))
        eta = scale * rng.standard_normal(n)
        direct = np.stack(reductive._ricci_formula(lte, eta))
        x = np.concatenate((lte.reshape(-1), eta))
        by_matrix = (matrix @ np.outer(x, x).reshape(-1)).reshape(3, n, n)
        assert np.abs(by_matrix - direct).max() <= 1e-13 * max(1.0, np.abs(direct).max())


def test_ricci_operator_verification_catches_a_broken_connection(monkeypatch):
    # U doubled: the connection the formula reads is still torsion free, but
    # no longer metric compatible
    original = reductive._symmetric_map
    monkeypatch.setattr(reductive, "_symmetric_map", lambda lte: 2.0 * original(lte))
    reductive._ricci_operator.cache_clear()
    try:
        with pytest.raises(ConsistencyError, match="Ricci route operator fails metric"):
            reductive._ricci_operator(3)
    finally:
        monkeypatch.undo()
        reductive._ricci_operator.cache_clear()


def milnor_grid():
    """Criterion 01's 11^3 Milnor algebras with the identity metric."""
    grid = np.linspace(-3.0, 3.0, 11)
    for lam in itertools.product(grid, repeat=3):
        alg = build_lie_algebra(3, {(1, 2): {0: lam[0]}, (2, 0): {1: lam[1]},
                                    (0, 1): {2: lam[2]}})
        yield ReductiveDecomposition(alg, (), (0, 1, 2)), InvariantMetric.identity(3)


def test_ricci_routes_agree_with_the_operator_forced_off(monkeypatch):
    spaces = [*milnor_grid(),
              *((entry.decomposition, entry.metric) for entry in default_entries())]
    through_operator = 0
    for dec, metric in spaces:
        frame = Frame(dec, metric)
        report = einstein_check(frame)
        with monkeypatch.context() as m:
            m.setattr(reductive, "_RICCI_OPERATOR_MAX_N", 0)
            forced = Frame(dec, metric)
            forced_report = einstein_check(forced)
        through_operator += "gamma" not in vars(frame) and "gamma" in vars(forced)
        assert list(frame.ricci_routes) == list(forced.ricci_routes)
        assert report.is_einstein == forced_report.is_einstein
        scale = max(1.0, np.abs(forced_report.ricci).max())
        for name, ric in frame.ricci_routes.items():
            assert np.abs(ric - forced.ricci_routes[name]).max() <= 1e-14 * scale
    assert through_operator == 1331 + 7  # the grid and the n <= 3, k = 0 entries


def test_einstein_check_at_n3_builds_no_connection():
    entry = build("milnor3", lam=[1.0, 2.0, -3.0])
    frame = Frame(entry.decomposition, entry.metric)
    einstein_check(frame)
    assert not {"gamma", "u", "r4"} & set(vars(frame))
    assert sorted(frame.ricci_routes) == ["cyclic", "general", "trace"]


class FlippedCommutator:
    """numpy, except that np.matmul into an out array negates the product.

    Frame.r4 forms each commutator G_a G_b - G_b G_a from its one matmul
    into a scratch buffer, so in reductive this flips the commutator's sign
    and nothing else.
    """

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def matmul(a, b, out):
        np.matmul(a, b, out=out)
        return np.negative(out, out=out)


# with the commutator flipped, the four symmetry checks of r4 catch it on
# these entries; on the other entries of COMMUTATOR_ENTRIES only the tie of
# its trace to the general Ricci route does
SYMMETRY_CATCHES_THE_FLIP = [
    "r_heisenberg(alpha=1.0,lam3=1.0)",
    "sp11_a3iii(mu=1.0)",
    "su21_a3ii(lam=1.0,mu=1.0)",
]


def test_curvature_tensor_with_the_commutator_flipped_fails(monkeypatch):
    monkeypatch.setattr(reductive, "np", FlippedCommutator())
    caught = {}
    for entry in default_entries():
        try:
            curvature_tensor(Frame(entry.decomposition, entry.metric))
        except ConsistencyError as exc:
            caught[entry.label] = str(exc)
    assert sorted(caught) == COMMUTATOR_ENTRIES
    for label, text in caught.items():
        if label in SYMMETRY_CATCHES_THE_FLIP:
            assert text.startswith("curvature tensor fails its algebraic symmetries"), label
        else:
            assert text.startswith("Ricci routes 'general' and 'r4' disagree"), label


@pytest.mark.parametrize("n, dim_k", zip(SLICED, ISOTROPY))
def test_nan_in_a_late_slice_of_r4_is_refused(n, dim_k):
    """A NaN confined to the last slice of r4 still fails its symmetry check."""
    frame = lie_frame(n, dim_k, 10 * n + dim_k)  # not the cached one: it is altered
    frame.gamma  # built and checked from the true lte
    lte = frame.lte.copy()
    lte[n - 1, n - 2, 0] = np.nan  # turns r4[n - 1, n - 2] alone to NaN
    frame.lte = lte
    last = range(n)[_slices(n)[-1][0]]
    assert n - 1 in last and n - 2 in last
    with pytest.raises(ConsistencyError, match="algebraic symmetries: residual nan"):
        frame.r4


@pytest.mark.parametrize("name", sorted(LIE_SPACES))
def test_foliation_second_fundamental_form(name):
    frame = frame_of(name)
    fol = frame.foliation
    d = fol.d_basis
    u_dd = np.einsum("ai,bj,abc->ijc", d, d, frame.u)
    assert_close(fol.h_coeff, np.einsum("ijc,c->ij", u_dd, frame.eta) / frame.c ** 2)


@pytest.mark.parametrize("name", sorted(LIE_SPACES))
def test_xi_curvatures(name):
    frame = frame_of(name)
    rep = xi_curvatures(frame)
    d = frame.foliation.d_basis
    ad_xi = np.einsum("a,abc->cb", frame.eta, frame.lte)
    num = np.array([np.einsum("a,b,c,d,abcd->", x, frame.eta, x, frame.eta, frame.r4)
                    for x in d.T])
    radial = max(abs(v + (ad_xi @ x) @ (ad_xi @ x)) for v, x in zip(num, d.T))
    assert_close(rep.sectional, num / frame.c ** 2)
    # the residual is a cancellation between terms of the size of num
    assert_close(rep.radial_residual, radial, scale=np.abs(num).max())
    assert len(rep.sectional) == frame.n - 1


@pytest.mark.parametrize("name", sorted(CURVATURE_SPACES))
def test_sectional_curvature(name):
    frame = frame_of(name)
    rng = np.random.default_rng(frame.n)
    for _ in range(3):
        x, y = rng.standard_normal((2, frame.n))
        xf, yf = frame.frame_coords(x), frame.frame_coords(y)
        area2 = (xf @ xf) * (yf @ yf) - (xf @ yf) ** 2
        want = np.einsum("a,b,c,d,abcd->", xf, yf, xf, yf, frame.r4) / area2
        assert_close(sectional_curvature(frame, None, x, y), want)


PAIR_SPACES = {
    **{f"raw-n{n}-k{dim_k}": partial(raw_frame, n, dim_k, 100 * n + dim_k)
       for n in SIZES + SLICED for dim_k in ISOTROPY},
    **CURVATURE_SPACES,
}


def assert_pair_contraction(frame, r4):
    """_r4_pair against x @ _quartic_form(r4, y) @ x on random unit pairs,
    and 0 on parallel ones, to 1e-12 of r4's size."""
    scale = float(np.abs(r4).max())
    rng = np.random.default_rng(frame.n)
    for x, y in rng.standard_normal((3, 2, frame.n)):
        x, y = x / np.linalg.norm(x), y / np.linalg.norm(y)
        got = _r4_pair(frame, x, y)
        assert type(got) is float
        assert_close(got, x @ _quartic_form(r4, y) @ x, scale=scale)
        for t in (1.0, -2.5):
            assert_close(_r4_pair(frame, x, t * x), 0.0, scale=scale)


@pytest.mark.parametrize("name", sorted(PAIR_SPACES))
def test_pair_contraction_on_bracket_spaces(name):
    # the raw tables satisfy no Jacobi identity, so r4's own symmetry
    # check would refuse them: compare with the index formula instead
    frame = PAIR_SPACES[name]()
    assert_pair_contraction(frame, r4_by_index_formula(frame))
    assert "r4" not in vars(frame)


@pytest.mark.parametrize("label", [entry.label for entry in default_entries()])
def test_pair_contraction_on_the_catalog(label):
    entry = next(e for e in default_entries() if e.label == label)
    frame = Frame(entry.decomposition, entry.metric)
    assert_pair_contraction(frame, frame.r4)


STACK = 4  # rows in each stack of sample vectors


def stack_pair(frame, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((2, STACK, frame.n))


@pytest.mark.parametrize("name", sorted(BRACKET_SPACES))
def test_bracket_on_stacks(name):
    alg = frame_of(name).dec.algebra
    rng = np.random.default_rng(alg.dim)
    x, y = rng.standard_normal((2, STACK, alg.dim))
    want = np.einsum("si,sj,ijk->sk", x, y, alg.tensor)
    got = alg.bracket(x, y)
    assert_close(got, want)
    assert_close(got, [alg.bracket(a, b) for a, b in zip(x, y)])
    # a stack broadcasts against a second stack along new leading axes
    assert_close(alg.bracket(x[:, None], y), np.einsum("si,tj,ijk->stk", x, y, alg.tensor))


@pytest.mark.parametrize("name", sorted(BRACKET_SPACES))
def test_frame_helpers_on_stacks(name):
    frame = frame_of(name)
    m = list(frame.dec.m_indices)
    rng = np.random.default_rng(frame.n)
    v_frame = rng.standard_normal((STACK, frame.n))
    v_g = rng.standard_normal((STACK, frame.dec.algebra.dim))
    k_part = v_g.copy()
    k_part[:, m] = 0.0
    cases = (
        (frame.g_coords, v_frame, np.einsum("ia,sa->si", frame.frame_g, v_frame)),
        (frame.m_part_frame, v_g, np.einsum("ab,sb->sa", frame.q_inv, v_g[:, m])),
        (frame.k_part_g, v_g, k_part),
    )
    for helper, arg, want in cases:
        got = helper(arg)
        assert_close(got, want)
        assert_close(got, [helper(row) for row in arg])


@pytest.mark.parametrize("n", SIZES)
def test_quartic_form_on_stacks(n):
    # a tensor with none of R4's symmetries, so a swapped slot shows
    rng = np.random.default_rng(n)
    tensor = rng.standard_normal((n, n, n, n))
    y = rng.standard_normal((STACK, n))
    got = _quartic_form(tensor, y)
    assert_close(got, np.einsum("abcd,sb,sd->sac", tensor, y, y))
    assert_close(got, [_quartic_form(tensor, row) for row in y])


@pytest.mark.parametrize("name", sorted(CURVATURE_SPACES))
@pytest.mark.parametrize("diagonal", [curvature_diagonal_general, cyclic_curvature_diagonal])
def test_curvature_diagonals_on_stacks(name, diagonal):
    frame = frame_of(name)
    x, y = stack_pair(frame, 2 * frame.n)
    got = diagonal(frame, None, x, y)
    assert got.shape == (STACK,)
    rows = [diagonal(frame, None, a, b) for a, b in zip(x, y)]
    assert all(type(v) is float for v in rows)
    assert_close(got, rows)
    assert_close(got, np.einsum("sa,sb,sc,sd,abcd->s", x, y, x, y, frame.r4))


def general_by_brackets(frame, x, y):
    """<R(X,Y)X, Y> from LieAlgebra.bracket and U, one vector at a time or row by row.

    The per-vector form of the general route: -3/4 |[X,Y]_m|^2
    - 1/2 (<[X,[X,Y]]_m, Y> + <[Y,[Y,X]]_m, X>) + |U(X,Y)|^2 - <U(X,X), U(Y,Y)>.
    """
    alg = frame.dec.algebra
    xg, yg = frame.g_coords(x), frame.g_coords(y)
    bxy = alg.bracket(xg, yg)
    bxy_m = frame.m_part_frame(bxy)
    xxy = frame.m_part_frame(alg.bracket(xg, bxy))
    yyx = frame.m_part_frame(alg.bracket(yg, alg.bracket(yg, xg)))
    u = frame.u
    uxy = np.einsum("...a,...b,abc->...c", x, y, u)
    uxx = np.einsum("...a,...b,abc->...c", x, x, u)
    uyy = np.einsum("...a,...b,abc->...c", y, y, u)
    return (-0.75 * bxy_m * bxy_m - 0.5 * (xxy * y + yyx * x)
            + uxy * uxy - uxx * uyy).sum(axis=-1)


def cyclic_by_brackets(frame, x, y):
    """<R(X,Y)X, Y> from LieAlgebra.bracket and S, one vector at a time or row by row.

    The per-vector form of the cyclic route: <[[X,Y]_k, X], Y> - |[X,Y]_m|^2
    + <S(X,Y), S(Y,X)> - <S(X,X), S(Y,Y)>.
    """
    alg = frame.dec.algebra
    xg, yg = frame.g_coords(x), frame.g_coords(y)
    bxy = alg.bracket(xg, yg)
    bxy_m = frame.m_part_frame(bxy)
    k_act = frame.m_part_frame(alg.bracket(frame.k_part_g(bxy), xg))
    s = frame.s
    sxy = np.einsum("...a,...b,abc->...c", x, y, s)
    syx = np.einsum("...a,...b,abc->...c", y, x, s)
    sxx = np.einsum("...a,...b,abc->...c", x, x, s)
    syy = np.einsum("...a,...b,abc->...c", y, y, s)
    return (k_act * y - bxy_m * bxy_m + sxy * syx - sxx * syy).sum(axis=-1)


def diagonal_space(name):
    """A curvature space (each is cyclic) or a default catalog entry, by name or label."""
    if name in CURVATURE_SPACES:
        return frame_of(name), True
    entry = next(e for e in default_entries() if e.label == name)
    return Frame(entry.decomposition, entry.metric), entry.expected.cyclic


@pytest.mark.parametrize(
    "name", sorted(CURVATURE_SPACES) + [entry.label for entry in default_entries()])
def test_diagonal_forms_match_the_bracket_formulas(name):
    """Both quartic forms give what the per-vector bracket formulas give.

    Single pairs, stacks, and one vector against a stack, on every
    curvature space and every default catalog entry.
    """
    frame, cyclic = diagonal_space(name)
    routes = [(curvature_diagonal_general, general_by_brackets)]
    if cyclic:
        routes.append((cyclic_curvature_diagonal, cyclic_by_brackets))
    x, y = stack_pair(frame, 5 * frame.n)
    for route, oracle in routes:
        assert_close(route(frame, None, x, y), oracle(frame, x, y))
        got = route(frame, None, x[0], y[0])
        assert type(got) is float
        assert_close(got, oracle(frame, x[0], y[0]))
        assert_close(route(frame, None, x[0], y), oracle(frame, np.broadcast_to(x[0], y.shape), y))
        assert_close(route(frame, None, x, y[1]), oracle(frame, x, np.broadcast_to(y[1], x.shape)))


def count_form_builds(monkeypatch):
    counts = []
    build = Frame._pair_matrix

    def counting(self, *args):
        counts.append(self)
        return build(self, *args)

    monkeypatch.setattr(Frame, "_pair_matrix", counting)
    return counts


@pytest.mark.parametrize("name", ["so2_heisenberg", "n5-k2"])
def test_diagonal_forms_are_built_once_and_read_only(name, monkeypatch):
    counts = count_form_builds(monkeypatch)
    fresh = frame_of(name)
    frame = Frame(fresh.dec, fresh.metric)
    x, y = stack_pair(frame, 7)
    for _ in range(3):
        curvature_diagonal_general(frame, None, x, y)
    assert len(counts) == 1 and "diagonal_form_cyclic" not in vars(frame)
    for _ in range(3):
        cyclic_curvature_diagonal(frame, None, x[0], y[0])
    assert counts == [frame, frame]
    for form in (frame.diagonal_form_general, frame.diagonal_form_cyclic):
        assert form.shape == (frame.n ** 2,) * 2
        assert not form.flags.writeable
        with pytest.raises(ValueError):
            form[0, 0] = 1.0
    # the routes check r4; they must not be read from it
    assert "r4" not in vars(frame) and "gamma" not in vars(frame)


def test_cyclic_route_builds_nothing_on_a_non_cyclic_space(monkeypatch):
    counts = count_form_builds(monkeypatch)
    fresh = frame_of("raw-n3-k2")
    frame = Frame(fresh.dec, fresh.metric)
    with pytest.raises(NotCyclic):
        cyclic_curvature_diagonal(frame, None, [1.0, 0, 0], [0, 1.0, 0])
    assert counts == []
    assert "_bracket_pairs" not in vars(frame) and "diagonal_form_cyclic" not in vars(frame)


def test_diagonal_routes_refuse_vectors_of_the_wrong_length():
    frame = frame_of("n3-k0")
    for route in (curvature_diagonal_general, cyclic_curvature_diagonal):
        with pytest.raises(ValueError, match="length 3"):
            route(frame, None, np.ones(1), np.ones(9))
        with pytest.raises(ValueError, match="length 3"):
            route(frame, None, np.ones((4, 2)), np.ones((4, 3)))


@pytest.mark.parametrize("name", sorted(BRACKET_SPACES))
def test_killing_quadratic_on_stacks(name):
    frame = frame_of(name)
    x, _ = stack_pair(frame, 3 * frame.n)
    xg = np.einsum("ia,sa->si", frame.frame_g, x)
    got = killing_quadratic_via_brackets(frame, x)
    rows = [killing_quadratic_via_brackets(frame, row) for row in x]
    assert all(type(v) is float for v in rows)
    assert_close(got, rows)
    assert_close(got, np.einsum("si,ij,sj->s", xg, killing_form(frame.dec.algebra), xg))


def test_cyclic_diagonal_on_a_stack_needs_a_cyclic_space():
    frame = frame_of("raw-n3-k2")
    assert frame.cyclic_residual > frame.tol
    x, y = stack_pair(frame, 0)
    with pytest.raises(NotCyclic):
        cyclic_curvature_diagonal(frame, None, x, y)


def test_verify_draws_the_same_samples():
    """The stacked checks draw what drawing one vector at a time draws.

    _check_diagonal_routes draws 20 pairs (x, then y) and
    _check_killing_identity 10 vectors; a row-major fill of one stack
    consumes the generator exactly as the sequential draws do.
    """
    for pos, entry in enumerate(default_entries()):
        frame = Frame(entry.decomposition, entry.metric)
        rng = np.random.default_rng(1729 + pos)
        twin = np.random.default_rng(1729 + pos)
        results = (_check_diagonal_routes(entry, frame, rng)
                   + _check_killing_identity(entry, frame, rng))
        assert [r.name for r in results] == ["diagonal_routes", "killing_identity"]
        assert all(r.passed for r in results)
        for _ in range(20 * 2 + 10):
            twin.standard_normal(frame.n)
        assert rng.bit_generator.state == twin.bit_generator.state

    # the stack holds the sequential draws, each scaled to unit length
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    rows = [twin.standard_normal(3) for _ in range(20 * 2)]
    want = [r / np.linalg.norm(r) for r in rows]
    assert_close(_unit_rows(rng, (20, 2, 3)), np.reshape(want, (20, 2, 3)))


@pytest.mark.parametrize("dim", range(1, 21))
def test_killing_form(dim):
    # a random antisymmetric table: the product must not lean on Jacobi
    rng = np.random.default_rng(dim)
    c = skew(rng.standard_normal((dim, dim, dim)))
    alg = LieAlgebra(dim, tuple(f"e{i}" for i in range(dim)), c, 0.0, 1e-9)
    want = np.einsum("ilm,jml->ij", c, c)
    got = killing_form(alg)
    assert_close(got, (want + want.T) / 2.0)
    assert np.array_equal(got, got.T)
    assert not got.flags.writeable
