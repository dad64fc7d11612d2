"""Reductive decompositions, invariant metrics, and the cached Frame.

A homogeneous space is presented infinitesimally: a Lie algebra g, a
coordinate splitting g = k + m given by two index sets, and an inner
product on m.  Reductivity means [k, k] in k and [k, m] in m, and a
ReductiveDecomposition checks it when it is built; the metric must be
symmetric positive definite and ad_k-invariant.  All tensor components
downstream are taken in an orthonormal frame of m, built by Frame,
which also caches every tensor derived from the bracket data.  as_frame
turns a (decomposition, metric) call into a Frame: consecutive calls on
the same two objects share one, and it keeps at most one.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .config import DEFAULT_SEED, DEFAULT_TOL, bound, check, tolerance
from .errors import ConsistencyError, IndexOutOfRange, InvalidMetric, UnimodularInput
from .lie import (LieAlgebra, _block_maxima, _frozen, _pullback, _worst,
                  trace_vector)


@dataclass(frozen=True, eq=False)
class ReductiveDecomposition:
    """Reductive index splitting g = k + m.  k may be empty (a metric Lie group), m not.

    [k, k] in k and [k, m] in m are checked here, at algebra.tol, and
    NotReductive is raised otherwise.
    """

    algebra: LieAlgebra
    k_indices: tuple[int, ...]
    m_indices: tuple[int, ...]

    def __post_init__(self):
        dim = self.algebra.dim
        try:  # int and numpy integers, never a float
            k = tuple(map(operator.index, self.k_indices))
            m = tuple(map(operator.index, self.m_indices))
        except TypeError:
            raise IndexOutOfRange(f"k={self.k_indices!r} and m={self.m_indices!r} "
                                  "must hold integer indices") from None
        object.__setattr__(self, "k_indices", k)
        object.__setattr__(self, "m_indices", m)
        seen = set(k) | set(m)
        if len(k) + len(m) != dim or seen != set(range(dim)):
            raise IndexOutOfRange(
                f"k={k} and m={m} do not partition the basis 0..{dim - 1}"
            )
        if not m:
            raise IndexOutOfRange("m must contain at least one basis index")
        if k:  # with k empty both brackets are trivially in place
            c, tol = self.algebra.tensor, self.algebra.tol
            check("reductive_kk", float(np.abs(c[np.ix_(k, k)][:, :, m]).max()), tol=tol)
            check("reductive_km", float(np.abs(c[np.ix_(k, m)][:, :, k]).max()), tol=tol)

    @property
    def dim_m(self) -> int:
        return len(self.m_indices)

    @property
    def dim_k(self) -> int:
        return len(self.k_indices)


@dataclass(frozen=True, eq=False)
class InvariantMetric:
    """Inner product on m, ordered like the decomposition's m_indices."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvalidMetric(f"metric must be a square matrix, got {mat.shape}")
        if not mat.size:
            raise InvalidMetric("metric must be at least 1x1, got a 0x0 matrix")
        if not np.isfinite(mat).all():
            raise InvalidMetric("metric has a non-finite entry")
        sym = float(np.abs(mat - mat.T).max())
        check("metric_symmetry", sym, max(1.0, float(np.abs(mat).max())))
        object.__setattr__(self, "matrix", _frozen((mat + mat.T) / 2.0))

    @classmethod
    def identity(cls, n: int) -> "InvariantMetric":
        return cls(np.eye(n))

    @classmethod
    def from_diag(cls, diag) -> "InvariantMetric":
        return cls(np.diag(np.asarray(diag, dtype=float)))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _index(indices: tuple):
    """indices as a slice when they run consecutively upward, else as a list.

    Both select the same entries; a slice reads a view where a list
    copies, and at n = 3 each copy costs more than the product it feeds.
    """
    start = indices[0] if indices else 0
    if indices == tuple(range(start, start + len(indices))):
        return slice(start, start + len(indices))
    return list(indices)


def _ricci_trace(gamma: np.ndarray, lte: np.ndarray, iso) -> np.ndarray:
    """sum_a R4[x, a, y, a] from the three terms Frame.r4 is assembled from, without forming it.

    sum_(a,e) lte[x,a,e] gamma[e,y,a] + iso[x,y] + sum_b gamma[x,y,b] tau_b
    - sum_(a,b) gamma[x,b,a] gamma[a,y,b], with tau_b = sum_a gamma[a,b,a]:
    the metric term, the isotropy term (the trace of the canonical
    curvature) and the trace of the commutator [G_x, G_a][y, a].  The
    first and last sums read the same (n*n, n) rearrangement of gamma,
    so they are one product.  gamma, lte and iso may be stacked along
    leading axes, which broadcast.
    """
    *lead, n, _, _ = gamma.shape
    g_t = gamma.mT.swapaxes(-3, -2).reshape(*lead, n * n, n)  # g_t[(a, e), y] = gamma[e, y, a]
    tau = gamma.trace(axis1=-3, axis2=-1)  # tau_b = sum_a gamma[a, b, a]
    return ((lte - gamma).reshape(*lead, n, n * n) @ g_t
            + np.matvec(gamma, tau[..., None, :]) + iso)


def _ricci_brackets(lte: np.ndarray, eta: np.ndarray, killing: np.ndarray) -> np.ndarray:
    """The general Ricci route, the bracket/Killing-form formula, over any leading axes.

    -1/2 sum_(a,c) lte[x,a,c] lte[y,a,c] - 1/2 B(f_x, f_y)
    + 1/4 sum_(a,b) lte[a,b,x] lte[a,b,y] + 1/2 (eta(lte[., x, y]) + eta(lte[., y, x])),
    with B the Killing form on m, killing.
    """
    *lead, n, _, _ = lte.shape
    rows = lte.reshape(*lead, n, n * n)  # rows[x, (a, c)] = lte[x, a, c]
    cols = lte.reshape(*lead, n * n, n)  # cols[(a, b), x] = lte[a, b, x]
    xi_term = np.vecmat(eta, rows).reshape(*lead, n, n)  # sum_a eta[a] lte[a, x, y]
    return (-0.5 * (rows @ rows.mT)
            - 0.5 * killing
            + 0.25 * (cols.mT @ cols)
            + 0.5 * (xi_term + xi_term.mT))


def _connection(lte: np.ndarray) -> tuple:
    """(U, gamma = lte/2 + U) of projected brackets stacked along leading axes.

    Frame.u and Frame.gamma at k = 0, as the route formula reads them.
    """
    u = _symmetric_map(lte)
    return u, 0.5 * lte + u


def _ricci_formula(lte: np.ndarray, eta: np.ndarray) -> tuple:
    """The trace, general and cyclic Ricci routes of k = 0 spaces, from lte and eta alone.

    lte and eta may be stacked along leading axes.  With k empty, m is
    all of g and lte is the whole bracket in the frame, so the Killing
    form on m is B[a, b] = sum_(j,l) lte[a,j,l] lte[b,l,j], and the
    isotropy terms of the trace and cyclic routes vanish.  The routes
    are Frame.ricci_routes' three, in its order; the cyclic one holds
    only on cyclic brackets, and the caller keeps it only there.
    """
    *lead, n, _, _ = lte.shape
    u, gamma = _connection(lte)
    killing = lte.reshape(*lead, n, n * n) @ lte.mT.reshape(*lead, n, n * n).mT
    return (_ricci_trace(gamma, lte, 0.0), _ricci_brackets(lte, eta, killing),
            np.matvec(u, eta[..., None, :]) - killing)


# Frame.ricci_routes' route names, in its order
_RICCI_ROUTES = ("trace", "general", "cyclic")

# The Ricci routes go through the cached _ricci_operator for k = 0 up to
# this n, and through the Frame's own tensors above it and whenever k is
# not empty.  Frame.ricci_routes with the Frame's cyclic residual built,
# operator against Frame tensors (minima of 7 in-process repeats of 2000
# calls on a shared 2-core Xeon, one OpenBLAS thread): 19 vs 61 us at
# n = 2 and 23 vs 62 at n = 3 (Milnor groups, g(alpha)), but 73 vs 62 at
# n = 4 (b2_product), where the (48, 4624) matrix costs more than the
# contractions it replaces.  The n = 3 matrix is 190 kB and builds and
# verifies in about 2 ms.
_RICCI_OPERATOR_MAX_N = 3


@functools.lru_cache(maxsize=None)
def _ricci_operator(n: int) -> np.ndarray:
    """The (3 n^2, m^2) matrix M with M @ (x (x) x) the routes of _ricci_formula, flattened.

    x = (lte, eta) flattened and joined, m = n^3 + n.  Column (i, j) is
    the symmetric bilinear form of the formula at unit inputs,
    (F(e_i + e_j) - F(e_i) - F(e_j)) / 2, evaluated along one leading axis;
    the formula's coefficients are dyadic, so the entries are exact.
    Built on first use per n and verified then (row ricci_operator): on
    seeded random inputs, lte antisymmetric in its first two slots, M
    must agree with the formula evaluated directly, and the connection
    the formula reads must be metric compatible and torsion free.
    """
    size = n ** 3 + n
    eye = np.eye(size)

    def routes(x):
        lte, eta = x[..., :n ** 3].reshape(*x.shape[:-1], n, n, n), x[..., n ** 3:]
        return np.stack(_ricci_formula(lte, eta), axis=-3).reshape(*x.shape[:-1], 3 * n * n)

    units = routes(eye)  # (size, 3 n^2)
    pairs = routes(eye[:, None] + eye) - units[:, None] - units  # (size, size, 3 n^2)
    matrix = _frozen(0.5 * pairs.reshape(size * size, -1).T)

    # Python's generator, not numpy's: importing numpy.random takes about
    # 13 ms, and a k = 0 space at n <= 3 reads it nowhere else
    rng = random.Random(DEFAULT_SEED)
    draw = np.array([rng.gauss(0.0, 1.0) for _ in range(4 * size)]).reshape(4, size)
    lte = draw[:, :n ** 3].reshape(4, n, n, n)
    lte = lte - np.swapaxes(lte, -3, -2)
    x = np.concatenate((lte.reshape(4, -1), draw[:, n ** 3:]), axis=1)
    direct = routes(x)
    gap, peak = _block_maxima((x[:, :, None] * x[:, None]).reshape(4, -1) @ matrix.T - direct,
                              direct)
    check("ricci_operator", gap, max(1.0, peak), part="its route formulas")
    _, gamma = _connection(lte)
    peak, compat, tors = _block_maxima(gamma, gamma + gamma.mT,
                                       gamma - np.swapaxes(gamma, -3, -2) - lte)
    check("ricci_operator", compat, max(1.0, peak), part="metric compatibility")
    check("ricci_operator", tors, max(1.0, peak), part="the torsion identity")
    return matrix


class Frame:
    """Orthonormal frame of (m, metric) plus the bracket data in it.

    Attributes
    ----------
    q : (n, n) columns express frame vectors in the m-index basis; it is
        the transposed inverse of the metric's Cholesky factor, and
        q.T @ metric @ q = I is checked (ConsistencyError otherwise)
    frame_g : (dim_g, n) frame vectors as algebra coefficient vectors
    lte : (n, n, n) lte[a,b,c] = <[f_a, f_b]_m, f_c>
    k_part : (n, n, dim_k) k-components of [f_a, f_b]
    ad : (n, dim_g, dim_g) ad[c, j] = [f_c, e_j] as a g-vector: the adjoint
        action of each frame vector, read by killing_m and _bracket_pairs
    br : (n, n, dim_g) br[a, b] = [f_a, f_b] = frame_g.T @ ad as a g-vector
    ad_k : (dim_k, n, n) ad_k[w, d, c] = <[k_w, f_c], f_d>
    eta : (n,) canonical trace form, eta[a] = -tr ad_{f_a}, which are
        also the frame coordinates of its metric dual xi; c = |eta|
    eta_m : (n,) the same form on the m-index basis vectors
    tol : the tolerance of every decision made on this space, finite and
        nonnegative; it is set here and nowhere else.  Reductivity, a
        property of the brackets, was checked when dec was built

    The cached properties below the coordinate helpers are built and
    verified on first access, then shared by every function handed this
    Frame, directly or through as_frame; their arrays and mappings are
    read-only.  r4 and ricci_routes also set r4_defect and ricci_gap.
    """

    def __init__(self, dec: ReductiveDecomposition, metric: InvariantMetric, tol=DEFAULT_TOL):
        tol = tolerance(tol)
        n = dec.dim_m
        if not isinstance(metric, InvariantMetric):
            raise InvalidMetric(f"expected an InvariantMetric, got {type(metric).__name__}")
        if metric.dim != n:
            raise InvalidMetric(
                f"metric is {metric.dim}-dimensional but m has dimension {n}"
            )
        try:
            chol = np.linalg.cholesky(metric.matrix)
        except np.linalg.LinAlgError as exc:
            raise InvalidMetric("metric is not positive definite") from exc

        self.dec = dec
        self.metric = metric
        self.tol = tol
        self.n = n
        # the factor's inverse; the check below is what vouches for it,
        # whatever the routine returned
        self.q = np.linalg.inv(chol).T
        self.q_inv = chol.T
        resid = self.q.T @ metric.matrix @ self.q
        resid.flat[::n + 1] -= 1.0
        ortho, chol_peak, q_peak = _block_maxima(resid, chol, self.q)
        check("frame_orthonormality", ortho, n * chol_peak * q_peak)
        algebra = dec.algebra
        dim = algebra.dim
        m_idx = _index(dec.m_indices)
        k_idx = _index(dec.k_indices)

        frame_g = np.zeros((dim, n))
        frame_g[m_idx, :] = self.q
        self.frame_g = frame_g

        # the two products of _pullback(algebra.tensor, frame_g), the first kept
        self.ad = ad = (frame_g.T @ algebra.tensor.reshape(dim, dim * dim)).reshape(n, dim, dim)
        self.br = br = frame_g.T @ ad
        self.lte = br[:, :, m_idx] @ self.q_inv.T
        self.k_part = br[:, :, k_idx]

        if dec.dim_k:
            # ad[c, w] = [f_c, k_w] = -[k_w, f_c]; its m part in frame coordinates
            self.ad_k = adk = -(ad[:, k_idx][:, :, m_idx] @ self.q_inv.T).transpose(1, 2, 0)
            inv = float(np.abs(adk + np.transpose(adk, (0, 2, 1))).max())
            check("ad_k_invariance", inv, tol=tol)
        else:
            self.ad_k = np.zeros((0, n, n))

        self.eta_m = -trace_vector(algebra)[m_idx]
        self.eta = self.eta_m @ self.q
        self.c = math.sqrt(float(self.eta @ self.eta))

    # coordinate helpers ------------------------------------------------
    def frame_coords(self, v_m):
        """m-index basis coordinates -> frame coordinates."""
        return self.q_inv @ np.asarray(v_m, dtype=float)

    # g_coords, m_part_frame and k_part_g take one vector or a stack of
    # vectors along leading axes, and act row by row
    def g_coords(self, v_frame):
        """Frame coordinates -> algebra coefficient vector."""
        return np.asarray(v_frame, dtype=float) @ self.frame_g.T

    def m_part_frame(self, v_g) -> np.ndarray:
        """m-component of a g-coefficient vector, in frame coordinates."""
        return np.asarray(v_g, dtype=float) @ self._m_proj

    def k_part_g(self, v_g) -> np.ndarray:
        """k-component of a g-coefficient vector, as a g-coefficient vector."""
        return np.asarray(v_g, dtype=float) * self._k_mask

    @cached_property
    def _m_proj(self) -> np.ndarray:
        """(dim_g, n): v_g @ _m_proj is the m-part of v_g in frame coordinates."""
        proj = np.zeros((self.dec.algebra.dim, self.n))
        proj[list(self.dec.m_indices)] = self.q_inv.T
        return _frozen(proj)

    @cached_property
    def _k_mask(self) -> np.ndarray:
        """(dim_g,): 1 on the k indices, 0 on the m indices."""
        mask = np.ones(self.dec.algebra.dim)
        mask[list(self.dec.m_indices)] = 0.0
        return _frozen(mask)

    # derived tensors, each built once ----------------------------------
    @cached_property
    def u(self) -> np.ndarray:
        """Symmetric map U, fixed by 2<U(X,Y),Z> = <[Z,X]_m,Y> + <[Z,Y]_m,X>."""
        return _frozen(_symmetric_map(self.lte))

    @cached_property
    def s(self) -> np.ndarray:
        """Components of the structure tensor S = (1/2) T^c - U, read from _bracket_side."""
        return self._bracket_side[0].reshape(self.n, self.n, self.n)

    @cached_property
    def types(self):
        """Self-checked S1/S2/S3 split of s (a structure.TypeDecomposition)."""
        from .structure import decompose

        return decompose(self.s)

    @cached_property
    def _bracket_pairs(self) -> tuple:
        """(br, p): br[a,b] = [f_a, f_b] as a g-vector, k part included, and
        p[c,j,d] = <[f_c, e_j]_m, f_d>, so p[c] @ v is [f_c, v]_m for a g-vector v.

        Both diagonal forms read them; neither builds gamma or r4.
        """
        return self.br, self.ad @ self._m_proj

    def _pair_matrix(self, left, right, t) -> np.ndarray:
        """Read-only (n*n, n*n) F with v @ F @ v = <left(X,Y), right(X,Y)> - <t(X,X), t(Y,Y)>
        at v = x (x) y, where left, right and t are (n, n, r) bilinear maps in frame slots.

        F[(a,b),(c,d)] = left[a,b] @ right[c,d] - t[a,c] @ t[b,d]: one product over
        the stacked last slot, and one batch of n*n small products.
        """
        nn = self.n * self.n
        form = left.reshape(nn, -1) @ right.reshape(nn, -1).T
        form -= np.matmul(t[:, None], np.swapaxes(t, 1, 2)[None]).reshape(nn, nn)
        return _frozen(form)

    @cached_property
    def diagonal_form_general(self) -> np.ndarray:
        """(n*n, n*n) F with <R(X,Y)X, Y> = v @ F @ v at v = x (x) y, from brackets and U.

        <R(X,Y)X,Y> = -3/4 |[X,Y]_m|^2 - 1/2 <[X,[X,Y]]_m, Y> - 1/2 <[Y,[Y,X]]_m, X>
        + |U(X,Y)|^2 - <U(X,X), U(Y,Y)>, inner brackets in full (k part
        included) before projecting to m.  Built from the bracket tensor,
        lte and U alone, never from gamma or r4, so it checks them.
        """
        br, p = self._bracket_pairs
        # [Y,X] = -[X,Y], so at v = x (x) y the term <[Y,[Y,X]]_m, X> is
        # the <[X,[X,Y]]_m, Y> term negated, with the outer slots of p swapped
        ad_pair = p.transpose(0, 2, 1) - p.transpose(2, 0, 1)
        u = self.u
        left = np.concatenate([self.lte, u, br], axis=2)
        right = np.concatenate([-0.75 * self.lte, u, -0.5 * ad_pair], axis=2)
        return self._pair_matrix(left, right, u)

    @cached_property
    def diagonal_form_cyclic(self) -> np.ndarray:
        """(n*n, n*n) F with <R(X,Y)X, Y> = v @ F @ v at v = x (x) y, from brackets and S.

        <R(X,Y)X,Y> = <[[X,Y]_k, X], Y> - |[X,Y]_m|^2 + <S(X,Y), S(Y,X)>
        - <S(X,X), S(Y,Y)>, which holds on cyclic spaces only; the caller
        checks that first.  Like diagonal_form_general it reads neither
        gamma nor r4.
        """
        br, p = self._bracket_pairs
        s = self.s
        left = np.concatenate([br * self._k_mask, self.lte, s], axis=2)
        right = np.concatenate([-p.transpose(0, 2, 1), -self.lte, s.transpose(1, 0, 2)],
                               axis=2)
        return self._pair_matrix(left, right, s)

    @cached_property
    def killing_m(self) -> np.ndarray:
        """Killing form restricted to m, in frame coordinates.

        B(f_a, f_b) = tr(ad_{f_a} ad_{f_b}) = sum_jl ad[a, j, l] ad[b, l, j]: one
        product of ad's (n, dim_g^2) view with that of its transpose in the
        last two slots, as lie.killing_form does on the whole algebra.
        """
        ad, n = self.ad, self.n
        b = ad.reshape(n, -1) @ ad.transpose(0, 2, 1).reshape(n, -1).T
        return _frozen((b + b.T) / 2.0)

    @cached_property
    def _bracket_side(self) -> tuple:
        """structure._bracket_formula of (lte, eta), flattened and read-only.

        S, the cyclic sum of lte, lte + lte_acb, lte minus the vectorial
        target of eta, and c12(S) - eta: s reads the first, classify all five.
        """
        from .structure import _bracket_formula, _evaluate

        return tuple(_evaluate(_bracket_formula, self.lte, self.eta))

    @cached_property
    def cyclic_residual(self) -> float:
        """Max-abs cyclic sum of lte; within tol exactly on cyclic spaces."""
        return float(np.abs(self._bracket_side[1]).max())

    @cached_property
    def gamma(self) -> np.ndarray:
        """Connection coefficients gamma[a,b,c] = <nabla_{f_a} f_b, f_c>.

        Metric compatibility (antisymmetry in the last two slots) and
        vanishing torsion (alternation in the first two slots equals the
        projected bracket) are verified.
        """
        gamma = 0.5 * self.lte + self.u
        peak, compat, tors = _block_maxima(gamma, gamma + gamma.transpose(0, 2, 1),
                                           gamma - gamma.transpose(1, 0, 2) - self.lte)
        scale = max(1.0, peak)
        check("connection_compatibility", compat, scale)
        check("connection_torsion", tors, scale)
        return _frozen(gamma)

    @cached_property
    def r4(self) -> np.ndarray:
        """Lowered curvature R4[a,b,c,d] = <R(f_a,f_b) f_c, f_d>.

        The algebraic symmetries (both pair antisymmetries, pair
        exchange, first Bianchi identity) are verified over every entry,
        each residual read once per set of entries where it is the same
        up to sign and the order of its terms (_symmetry_peaks); the
        worst defect is kept as r4_defect.  Its contraction
        sum_a R4[x,a,y,a] must then agree with the general Ricci route
        (row ricci_routes, route "r4"), which reads neither gamma nor
        r4.  The result is the only n^4 array built here: the metric and
        isotropy terms are one product, and the commutator products and
        the checks run a slice of the first index at a time in one small
        buffer.
        """
        n, dim_k = self.n, self.dec.dim_k
        gamma = self.gamma
        # r4[a,b,c,d] = sum_e lte[a,b,e] gamma[e,c,d] + sum_w k_part[a,b,w] ad_k[w,d,c]
        #             + [G_a, G_b][c,d], with G_a = gamma[a]; the first two sums
        # are one product over the stacked index (e, w).  With k empty there
        # is nothing to stack, and at n = 3 the copies would cost more than
        # the product.
        left, right = self.lte, gamma
        if dim_k:
            left = np.concatenate([left, self.k_part], axis=2)
            right = np.concatenate([right, np.swapaxes(self.ad_k, 1, 2)])
        r4 = left.reshape(n * n, n + dim_k) @ right.reshape(n + dim_k, n * n)
        r4 = r4.reshape(n, n, n, n)
        # gamma is checked skew in its last two slots, so G_b @ G_a is the
        # transpose of G_a @ G_b and each commutator takes one product
        slices = _slices(n)
        for s, prod in slices:
            part = r4[s]
            np.matmul(gamma[s, None], gamma[None, :], out=prod)  # G_a @ G_b
            part += prod
            part -= prod.transpose(0, 1, 3, 2)

        scale = max(1.0, float(r4.max()), -float(r4.min()))
        worst = _worst(_symmetry_peaks(r4, slices))
        check("curvature_symmetries", worst, scale)
        # the contraction the trace route takes without r4, tied to the
        # general route, which reads neither r4 nor gamma
        traced = np.einsum("xaya->xy", r4)
        general = self._ricci_general
        *peaks, gap = _block_maxima(traced, general, traced - general)
        check("ricci_routes", gap, max(1.0, *peaks), self.tol, ref="general", route="r4")
        self.r4_defect = worst
        return _frozen(r4)

    @cached_property
    def _ricci_general(self) -> np.ndarray:
        """The general Ricci route (_ricci_brackets), from lte, eta and killing_m.

        Read by r4's trace tie, and by ricci_routes where it does not
        read _ricci_operator.
        """
        return _frozen(_ricci_brackets(self.lte, self.eta, self.killing_m))

    @cached_property
    def ricci_routes(self) -> MappingProxyType:
        """Ricci tensor (frame components) by every applicable route.

        Routes:
          trace    sum_a R4[x,a,y,a], contracted from the connection and
                   the isotropy action without forming R4 (_ricci_trace;
                   always),
          general  the bracket/Killing-form formula (always),
          cyclic   trace form of U minus Killing form minus the isotropy
                   correction (cyclic brackets only).

        With k empty and n <= _RICCI_OPERATOR_MAX_N all three are one
        product, _ricci_operator(n) @ (x (x) x) with x = (lte, eta): the
        routes of _ricci_formula, which reads the Killing form on m from
        lte and builds neither gamma nor u on the Frame.  Otherwise they
        are read from the Frame's connection, isotropy action and
        killing_m.  Every route must agree with the trace route, or
        ConsistencyError is raised; the worst gap over all route pairs
        is kept as ricci_gap.  Building this never builds r4; r4,
        wherever it is built, ties its own contraction to the general
        route.
        """
        n, dim_k = self.n, self.dec.dim_k
        if dim_k or n > _RICCI_OPERATOR_MAX_N:
            # the trace of the canonical curvature <[[f_x, f_a]_k, f_y], f_a> over a,
            # sum_(a, w) k_part[x, a, w] ad_k[w, a, y]; a zero matrix when k is empty
            iso = (self.k_part.reshape(n, n * dim_k)
                   @ self.ad_k.transpose(1, 0, 2).reshape(n * dim_k, n))
            routes = [_ricci_trace(self.gamma, self.lte, iso), self._ricci_general]
            if self.cyclic_residual <= self.tol:
                routes.append(self.u @ self.eta - self.killing_m - 0.5 * (iso + iso.T))
            stack = _frozen(np.array(routes))
        else:
            x = np.concatenate((self.lte.reshape(-1), self.eta))
            stack = (_ricci_operator(n) @ (x[:, None] * x).reshape(-1)).reshape(3, n, n)
            stack = _frozen(stack if self.cyclic_residual <= self.tol else stack[:2])

        names = _RICCI_ROUTES[:len(stack)]
        # one max-abs pass: the stack, each route against the trace route,
        # and the cyclic route against the general one
        peak, *gaps = _block_maxima(stack, *(stack[1:] - stack[0]), *(stack[2:] - stack[1]))
        scale = max(1.0, peak)
        for name, gap in zip(names[1:], gaps):
            check("ricci_routes", gap, scale, self.tol, ref="trace", route=name)
        self.ricci_gap = max(gaps)  # the worst gap over all route pairs
        # each route a read-only view of one row of the stack
        return MappingProxyType(dict(zip(names, stack)))

    @cached_property
    def foliation(self) -> FoliationData:
        """Second fundamental form and mean curvature of the canonical foliation.

        Requires a non-unimodular space (c > 0); raises UnimodularInput
        otherwise.  The columns of d_basis are the Gram-Schmidt basis of
        the projected frame vectors P e_a, P = I - xi xi^T / c^2, taken in
        index order with one left out: the first whose Gram-Schmidt
        residual norm is at most bound("foliation_rank", tol=sqrt(tol)),
        or the last if there is none.  [d_basis | xi / c] is checked to be
        an orthogonal matrix (row foliation_basis, at scale n);
        ConsistencyError is raised otherwise or when a second column is
        dependent.  Internal identities (symmetry of h, U(xi,xi) = 0 and
        the trace identity xi = -sum_i U(d_i, d_i)) are verified.  A read
        that raises keeps nothing, so the next one raises again.
        """
        tol = self.tol
        n = self.n
        if self.c <= bound("foliation_c", tol=tol):
            raise UnimodularInput(
                "canonical trace form vanishes; the foliation needs c > 0"
            )
        c2 = self.c ** 2
        thr = bound("foliation_rank", tol=math.sqrt(tol))
        full, resid = _kernel_basis(self.eta / self.c, thr)
        if not all(r > thr for r in resid):
            raise ConsistencyError("failed to build an orthonormal basis of ker eta")
        # [d_basis | xi / c] must be an orthogonal matrix: the check is what
        # vouches for the closed form, whatever it returned
        gram = full.T @ full
        gram.reshape(-1)[::n + 1] -= 1.0
        check("foliation_basis", np.abs(gram).max(), n)
        d_basis = _frozen(full[:, :n - 1])

        u = self.u
        u_dd = _pullback(u, d_basis)
        h_coeff = u_dd @ self.eta / c2
        h_mean = -self.eta / (n - 1)

        sym = float(np.abs(h_coeff - h_coeff.T).max())
        u_xi = self.eta @ (self.eta @ u)
        trace_id = u_dd.trace() + self.eta
        worst = max(sym, float(np.abs(u_xi).max()) / max(c2, 1.0),
                    float(np.abs(trace_id).max()) / max(self.c, 1.0))
        check("foliation_identities", worst, tol=tol)
        return FoliationData(
            d_basis=d_basis,
            h_coeff=_frozen(h_coeff),
            h_mean=_frozen(h_mean),
            xi=_frozen(self.eta.copy()),
            c=self.c,
        )


# The Frame the last (dec, metric) call built.  It holds both objects, so
# their identities cannot be recycled while it is here.
_last_frame = None


def as_frame(dec, metric=None) -> Frame:
    """dec itself when it is a Frame already, else the Frame of (dec, metric).

    Consecutive calls on the same dec object and the same metric object
    share one Frame: the last Frame built here is kept in a single slot
    and returned while both objects match by identity.  Both are frozen
    and their arrays read-only, so a shared Frame holds exactly what a
    fresh one would.  A Frame passed in is returned as it is and never
    kept, and the slot holds at most one Frame.  A Frame carries its
    metric, so a metric passed with one raises InvalidMetric.
    """
    global _last_frame
    if isinstance(dec, Frame):
        if metric is not None:
            raise InvalidMetric("a Frame carries its metric; pass metric=None with a Frame")
        return dec
    last = _last_frame  # read once: another thread may replace it
    if last is not None and last.dec is dec and last.metric is metric:
        return last
    frame = Frame(dec, metric)
    _last_frame = frame
    return frame


def _kernel_basis(v: np.ndarray, thr: float) -> tuple:
    """The Gram-Schmidt basis of ker v for a unit vector v, in closed form.

    Gram-Schmidt runs on the projected frame vectors P e_a, P = I - v v^T,
    in index order with one left out: the first whose residual norm is at
    most thr, or the last if there is none.  While none is left out,
    column a's residual norm is sqrt(tail[a+1] / tail[a]), with
    tail[a] = sum_(b >= a) v_b^2.  With s the index left out,
    T_a = tail[a] and w_a = sum_(b >= a) v_b e_b, plus v_s^2 and v_s e_s
    when a > s, kept column a is (T_a e_a - v_a w_a) / sqrt(T_a (T_a - v_a^2))
    and its residual norm is sqrt((T_a - v_a^2) / T_a); T_a - v_a^2, its
    entry a before scaling, is T_(a+1), taken as it is rather than as a
    difference.  Returns the (n, n) array [basis | v] and the residual
    norms of the n - 1 kept columns, as a list in column order.
    """
    n = len(v)
    sq = v * v
    t = np.zeros(n + 1)
    t[:n] = np.cumsum(sq[::-1])[::-1]  # tail, summed from the end
    small = np.flatnonzero(t[1:] <= thr * thr * t[:n])
    skip = int(small[0]) if small.size else n - 1
    t[skip + 1:] += sq[skip]  # T, and T_(a+1) = T_a - v_a^2 for every kept a
    rest, t = t[1:], t[:n]
    d = np.tril(v[:, None] * -v)  # d[b, a] = -v_b v_a for b >= a
    d[skip, skip + 1:] = v[skip] * -v[skip + 1:]
    d.reshape(-1)[::n + 1] = rest
    d /= np.sqrt(t * rest)
    resid = np.sqrt(rest / t).tolist()
    del resid[skip]
    d[:, skip:n - 1] = d[:, skip + 1:]
    d[:, n - 1] = v
    return d, resid


# entries in one slice of an (n, n, n, n) array: a small array is one
# slice, and a large one is swept in slices far smaller than itself
_SLICE_ENTRIES = 1 << 15


def _slices(n: int) -> list:
    """(slice, buffer) pairs that sweep the first axis of an (n, n, n, n) array.

    Each buffer is the (rows, n, n, n) view of one scratch array that
    matches its slice; the last slice may be shorter than the others.
    """
    rows = min(n, max(1, _SLICE_ENTRIES // n ** 3))
    buf = np.empty((rows, n, n, n))
    return [(slice(i, i + rows), buf[:n - i]) for i in range(0, n, rows)]


def _head(buf: np.ndarray, *shape) -> np.ndarray:
    """The first prod(shape) entries of the contiguous array buf, viewed in shape.

    buf itself when it already has that shape, as every buffer has at
    n = 3, where the two reshapes would cost more than the sweep saves.
    """
    if buf.shape == shape:
        return buf
    return buf.reshape(-1)[:math.prod(shape)].reshape(shape)


def _symmetry_peaks(r4: np.ndarray, slices: list) -> list:
    """Max-abs residuals of the four algebraic symmetries of an (n, n, n, n) r4.

    R(X,Y) = -R(Y,X), R(X,Y) skew-adjoint, pair exchange and the first
    Bianchi identity, swept a slice of the first index a at a time in the
    buffers of slices, which is _slices(n); the peaks come four per
    slice, in that order, and a peak is NaN if any of its residuals is.
    The first residual is symmetric in (a, b) and the third antisymmetric
    in the pairs (a, b), (c, d), bitwise so for any r4, so for a slice
    starting at a0 they are read only where b >= a0 and where c >= a0:
    each entry left out is, up to sign, one read in an earlier slice or
    in this one.  The Bianchi residual sums the same three terms, in
    another order, at (a, b, c), (b, c, a) and (c, a, b), so it too is
    read only where b >= a0 and c >= a0: that keeps the rotation whose
    smallest index comes first, summed as over every entry.  The
    (c, d)-skew residual sweeps every entry.
    """
    n = r4.shape[0]

    def peak(x):
        return float(np.abs(x, out=x).max())

    peaks = []
    for s, out in slices:
        part, lo, rows = r4[s], s.start, len(out)
        pair = _head(out, rows, n - lo, n, n)
        np.add(part[:, lo:], r4[lo:, s].transpose(1, 0, 2, 3), out=pair)  # R(X,Y) = -R(Y,X)
        peaks.append(peak(pair))
        np.add(part, part.transpose(0, 1, 3, 2), out=out)  # R(X,Y) skew-adjoint
        peaks.append(peak(out))
        # pair exchange, in the axis order (c, d, a, b) of r4[:, :, s]: the
        # strided read then stays inside part instead of crossing all of r4
        exchange = _head(out, n - lo, n, rows, n)
        np.subtract(r4[lo:, :, s], part[:, :, lo:].transpose(2, 3, 0, 1), out=exchange)
        peaks.append(peak(exchange))
        bianchi = _head(out, rows, n - lo, n - lo, n)  # first Bianchi identity
        np.add(part[:, lo:, lo:], r4[lo:, s, lo:].transpose(1, 2, 0, 3), out=bianchi)
        bianchi += r4[lo:, lo:, s].transpose(2, 0, 1, 3)
        peaks.append(peak(bianchi))
    return peaks


def _symmetric_map(lte: np.ndarray) -> np.ndarray:
    """U, 2<U(X,Y),Z> = <[Z,X]_m,Y> + <[Z,Y]_m,X>, from lte over any leading axes."""
    t = np.swapaxes(lte, -1, -3)  # t[..., a, b, c] = lte[..., c, b, a]
    return 0.5 * (np.swapaxes(t, -3, -2) + t)


def cyclic_sum(components: np.ndarray) -> np.ndarray:
    """S_{XYZ} + S_{YZX} + S_{ZXY} over all index triples and any leading axes."""
    return (components + np.einsum("...abc->...cab", components)
            + np.einsum("...abc->...bca", components))


def closedness_residual(dec, metric=None) -> float:
    """Max of |eta([f_a, f_b]_m)| over frame pairs.

    The canonical trace form kills m-brackets on every reductive
    splitting, so this vanishes identically; the residual is exposed
    for verification.
    """
    frame = as_frame(dec, metric)
    return float(np.abs(np.einsum("abc,c->ab", frame.lte, frame.eta)).max())


@dataclass(frozen=True, eq=False)
class FoliationData:
    """Orthogonal foliation data of a non-unimodular space.

    d_basis columns form an orthonormal basis (frame coordinates) of
    the distribution D = ker eta; h_coeff[i,j] is the coefficient of xi
    in the second fundamental form h(d_i, d_j); h_mean is the mean
    curvature vector -(1/(n-1)) xi in frame coordinates.
    """

    d_basis: np.ndarray
    h_coeff: np.ndarray
    h_mean: np.ndarray
    xi: np.ndarray
    c: float
