"""Reductive decompositions, invariant metrics, and the cached Frame.

A homogeneous space is presented infinitesimally: a Lie algebra g, a
coordinate splitting g = k + m given by two index sets, and an inner
product on m.  Reductivity means [k, k] in k and [k, m] in m; the
metric must be symmetric positive definite and ad_k-invariant.  All
tensor components downstream are taken in an orthonormal frame of m,
built by Frame, which also caches every tensor derived from the bracket
data.  as_frame turns a (decomposition, metric) call into a Frame:
consecutive calls on the same two objects share one, and it keeps at
most one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .config import DEFAULT_TOL
from .errors import (
    ConsistencyError,
    IndexOutOfRange,
    InvalidMetric,
    NotReductive,
    UnimodularInput,
    check,
)
from .lie import LieAlgebra, _frozen, _pullback, _slices, _worst, killing_form, trace_vector


@dataclass(frozen=True, eq=False)
class ReductiveDecomposition:
    """Index splitting g = k + m.  k may be empty (a metric Lie group), m not."""

    algebra: LieAlgebra
    k_indices: tuple[int, ...]
    m_indices: tuple[int, ...]

    def __post_init__(self):
        dim = self.algebra.dim
        k = tuple(int(i) for i in self.k_indices)
        m = tuple(int(i) for i in self.m_indices)
        object.__setattr__(self, "k_indices", k)
        object.__setattr__(self, "m_indices", m)
        seen = set(k) | set(m)
        if len(k) + len(m) != dim or seen != set(range(dim)):
            raise IndexOutOfRange(
                f"k={k} and m={m} do not partition the basis 0..{dim - 1}"
            )
        if not m:
            raise IndexOutOfRange("m must contain at least one basis index")

    @property
    def dim_m(self) -> int:
        return len(self.m_indices)

    @property
    def dim_k(self) -> int:
        return len(self.k_indices)


@dataclass(frozen=True)
class ReductiveReport:
    kk_residual: float
    km_residual: float

    @property
    def residual(self) -> float:
        return max(self.kk_residual, self.km_residual)


def check_reductive(dec: ReductiveDecomposition) -> ReductiveReport:
    """Verify [k,k] in k and [k,m] in m at dec.algebra.tol; raise NotReductive otherwise."""
    tol = dec.algebra.tol
    c = dec.algebra.tensor
    k, m = list(dec.k_indices), list(dec.m_indices)
    kk = 0.0
    km = 0.0
    if k:
        kk = float(np.abs(c[np.ix_(k, k)][:, :, m]).max())
        km = float(np.abs(c[np.ix_(k, m)][:, :, k]).max())
    check(kk, tol, "splitting is not reductive ([k,k] leak)", NotReductive)
    check(km, tol, "splitting is not reductive ([k,m] leak)", NotReductive)
    return ReductiveReport(kk, km)


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
        check(sym, 1e-12 * max(1.0, float(np.abs(mat).max())),
              "metric is not symmetric", InvalidMetric)
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
    ad_k : (dim_k, n, n) ad_k[w, d, c] = <[k_w, f_c], f_d>
    eta : (n,) canonical trace form, eta[a] = -tr ad_{f_a}, which are
        also the frame coordinates of its metric dual xi; c = |eta|
    tol : the tolerance of every decision made on this space; it is set
        here and nowhere else.  Reductivity, a property of the brackets,
        is checked at dec.algebra.tol

    The cached properties below the coordinate helpers are built and
    verified on first access, then shared by every function handed this
    Frame, directly or through as_frame; their arrays and mappings are
    read-only.  r4 and ricci_routes also set r4_defect and ricci_gap.
    """

    def __init__(self, dec: ReductiveDecomposition, metric: InvariantMetric, tol=DEFAULT_TOL):
        check_reductive(dec)
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
        self.q = np.linalg.inv(chol).T
        self.q_inv = chol.T
        ortho = float(np.abs(self.q.T @ metric.matrix @ self.q - np.eye(n)).max())
        ortho_bound = 1e-12 * n * float(np.abs(chol).max()) * float(np.abs(self.q).max())
        check(ortho, ortho_bound, "frame is not orthonormal for the metric")
        algebra = dec.algebra
        dim = algebra.dim
        m_idx = list(dec.m_indices)
        k_idx = list(dec.k_indices)

        frame_g = np.zeros((dim, n))
        frame_g[m_idx, :] = self.q
        self.frame_g = frame_g

        c = algebra.tensor
        br = _pullback(c, frame_g)
        self.lte = br[:, :, m_idx] @ self.q_inv.T
        self.k_part = br[:, :, k_idx]

        if k_idx:
            adk = np.empty((len(k_idx), n, n))
            for w, kw in enumerate(k_idx):
                vec = c[kw].T @ frame_g  # (dim_g, n): column c holds [k_w, f_c]
                adk[w] = self.q_inv @ vec[m_idx, :]
            self.ad_k = adk
            inv = float(np.abs(adk + np.transpose(adk, (0, 2, 1))).max())
            check(inv, tol, "metric is not ad_k-invariant", InvalidMetric)
        else:
            self.ad_k = np.zeros((0, n, n))

        tau = trace_vector(algebra)
        self.eta = -(frame_g.T @ tau)
        self.c = float(np.linalg.norm(self.eta))

    # coordinate helpers ------------------------------------------------
    def m_coords(self, v_frame):
        """Frame coordinates -> coordinates in the m-index basis."""
        return self.q @ np.asarray(v_frame, dtype=float)

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
        lte = self.lte
        return _frozen(0.5 * (lte.transpose(1, 2, 0) + lte.transpose(2, 1, 0)))

    @cached_property
    def s(self) -> np.ndarray:
        """Components of the structure tensor S = (1/2) T^c - U."""
        return _frozen(-0.5 * self.lte - self.u)

    @cached_property
    def types(self):
        """Self-checked S1/S2/S3 split of s (a structure.TypeDecomposition)."""
        from .structure import decompose

        return decompose(self.s)

    @cached_property
    def rc(self) -> np.ndarray:
        """Canonical curvature rc[a,b,c,d] = <[[f_a,f_b]_k, f_c], f_d>.

        Built only when read.  r4 forms this term in the same product as
        its metric term, and ricci_routes takes its trace from k_part and
        ad_k, so neither builds this n^4 array.
        """
        n, dim_k = self.n, self.dec.dim_k
        rc = (self.k_part.reshape(n * n, dim_k)
              @ np.swapaxes(self.ad_k, 1, 2).reshape(dim_k, n * n))
        return _frozen(rc.reshape(n, n, n, n))

    @cached_property
    def killing_m(self) -> np.ndarray:
        """Killing form restricted to m, in frame coordinates."""
        return _frozen(self.frame_g.T @ killing_form(self.dec.algebra) @ self.frame_g)

    @cached_property
    def _lte_residuals(self) -> tuple:
        """The cyclic sum of lte and lte + lte_acb, flattened (structure._lte_formula).

        classify reads both and its cross-check the first again.
        """
        from .structure import _evaluate, _lte_formula

        return tuple(_frozen(r) for r in _evaluate(_lte_formula, self.lte))

    @cached_property
    def cyclic_residual(self) -> float:
        """Max-abs cyclic sum of lte; within tol exactly on cyclic spaces."""
        return float(np.abs(self._lte_residuals[0]).max())

    @cached_property
    def gamma(self) -> np.ndarray:
        """Connection coefficients gamma[a,b,c] = <nabla_{f_a} f_b, f_c>.

        Metric compatibility (antisymmetry in the last two slots) and
        vanishing torsion (alternation in the first two slots equals the
        projected bracket) are verified.
        """
        gamma = 0.5 * self.lte + self.u
        scale = max(1.0, float(np.abs(gamma).max()))
        compat = float(np.abs(gamma + np.einsum("abc->acb", gamma)).max())
        tors = float(np.abs(gamma - np.einsum("abc->bac", gamma) - self.lte).max())
        check(compat, 1e-11 * scale, "connection coefficients fail metric compatibility")
        check(tors, 1e-11 * scale, "connection coefficients fail the torsion identity")
        return _frozen(gamma)

    @cached_property
    def r4(self) -> np.ndarray:
        """Lowered curvature R4[a,b,c,d] = <R(f_a,f_b) f_c, f_d>.

        The algebraic symmetries (both pair antisymmetries, pair
        exchange, first Bianchi identity) are verified over every entry;
        the worst defect is kept as r4_defect.  The result is the only
        n^4 array built here: the metric and isotropy terms are one
        product, and the commutator products and the checks run a slice
        of the first index at a time in one small buffer.
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
        slices = _slices(n)
        for s, prod in slices:
            part = r4[s]
            part += np.matmul(gamma[s, None], gamma[None, :], out=prod)  # G_a @ G_b
            part -= np.matmul(gamma[None, :], gamma[s, None], out=prod)  # G_b @ G_a

        def peak(x):
            return float(np.abs(x, out=x).max())

        scale = max(1.0, float(r4.max()), -float(r4.min()))
        defects = []
        for s, out in slices:
            part = r4[s]
            np.add(part, r4[:, s].transpose(1, 0, 2, 3), out=out)  # R(X,Y) = -R(Y,X)
            defects.append(peak(out))
            np.add(part, part.transpose(0, 1, 3, 2), out=out)  # R(X,Y) skew-adjoint
            defects.append(peak(out))
            # pair exchange, in the axis order (c, d, a, b) of r4[:, :, s]: the
            # strided read then stays inside part instead of crossing all of r4
            swap = out.reshape(n, n, -1, n)
            np.subtract(r4[:, :, s], part.transpose(2, 3, 0, 1), out=swap)
            defects.append(peak(swap))
            np.add(part, r4[:, s].transpose(1, 2, 0, 3), out=out)  # first Bianchi identity
            out += r4[:, :, s].transpose(2, 0, 1, 3)
            defects.append(peak(out))
        worst = _worst(defects)
        check(worst, 1e-10 * scale, "curvature tensor fails its algebraic symmetries")
        self.r4_defect = worst
        return _frozen(r4)

    @cached_property
    def ricci_routes(self) -> MappingProxyType:
        """Ricci tensor (frame components) by every applicable route.

        Routes:
          trace    contraction of the curvature tensor (always),
          general  the bracket/Killing-form formula (always),
          cyclic   trace form of U minus Killing form minus the isotropy
                   correction (cyclic brackets only),
          cyclic_trivial_isotropy  same with the correction dropped
                   (cyclic brackets, empty k only).

        Every route must agree with the trace route, or ConsistencyError
        is raised; the worst gap over all route pairs is kept as
        ricci_gap.
        """
        lte = self.lte
        b_m = self.killing_m
        routes = {"trace": np.einsum("xaya->xy", self.r4)}

        xi_term = np.einsum("a,axy->xy", self.eta, lte)
        routes["general"] = (
            -0.5 * np.einsum("xac,yac->xy", lte, lte)
            - 0.5 * b_m
            + 0.25 * np.einsum("abx,aby->xy", lte, lte)
            + 0.5 * (xi_term + xi_term.T)
        )

        if self.cyclic_residual <= self.tol:
            eta_u = np.einsum("xyc,c->xy", self.u, self.eta)
            # the trace of rc over its second and fourth slots
            iso = np.einsum("xaw,way->xy", self.k_part, self.ad_k)
            routes["cyclic"] = eta_u - b_m - 0.5 * (iso + iso.T)
            if self.dec.dim_k == 0:
                routes["cyclic_trivial_isotropy"] = eta_u - b_m

        names = list(routes)
        stack = np.array(list(routes.values()))
        scale = max(1.0, float(np.abs(stack).max()))
        gaps = np.abs(stack[1:] - stack[0]).max(axis=(1, 2))
        for name, gap in zip(names[1:], gaps):
            check(gap, max(self.tol, 1e-9 * scale),
                  f"Ricci routes '{names[0]}' and '{name}' disagree")
        # the largest entrywise spread is the worst gap over all route pairs
        self.ricci_gap = float((stack.max(axis=0) - stack.min(axis=0)).max())
        return MappingProxyType({name: _frozen(m) for name, m in routes.items()})


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
    kept, and the slot holds at most one Frame.
    """
    global _last_frame
    if isinstance(dec, Frame):
        return dec
    last = _last_frame  # read once: another thread may replace it
    if last is not None and last.dec is dec and last.metric is metric:
        return last
    frame = Frame(dec, metric)
    _last_frame = frame
    return frame


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

    def h_vector(self, i: int, j: int) -> np.ndarray:
        """h(d_i, d_j) as a frame-coordinate vector."""
        return self.h_coeff[i, j] * self.xi


def foliation_data(dec, metric=None) -> FoliationData:
    """Second fundamental form and mean curvature of the canonical foliation.

    Requires a non-unimodular space (c > 0); raises UnimodularInput
    otherwise.  Internal identities (symmetry of h, U(xi,xi) = 0 and
    the trace identity xi = -sum_i U(d_i, d_i)) are verified.
    """
    frame = as_frame(dec, metric)
    tol = frame.tol
    n = frame.n
    if frame.c <= max(tol, 1e-12):
        raise UnimodularInput(
            "canonical trace form vanishes; the foliation needs c > 0"
        )
    c2 = frame.c ** 2

    # Orthonormal basis of ker eta: project frame vectors and Gram-Schmidt
    # in index order, keeping the first n-1 independent directions.
    cols = []
    for a in range(n):
        v = np.eye(n)[a] - (frame.eta[a] / c2) * frame.eta
        for u in cols:
            v = v - (u @ v) * u
        norm = np.linalg.norm(v)
        if norm > max(np.sqrt(tol), 1e-8):
            cols.append(v / norm)
        if len(cols) == n - 1:
            break
    if len(cols) != n - 1:
        raise ConsistencyError("failed to build an orthonormal basis of ker eta")
    d_basis = np.array(cols).T

    u = frame.u
    u_dd = _pullback(u, d_basis)
    h_coeff = u_dd @ frame.eta / c2
    h_mean = -frame.eta / (n - 1)

    sym = float(np.abs(h_coeff - h_coeff.T).max())
    u_xi = frame.eta @ (frame.eta @ u)
    trace_id = np.einsum("iic->c", u_dd) + frame.eta
    worst = max(sym, float(np.abs(u_xi).max()) / max(c2, 1.0),
                float(np.abs(trace_id).max()) / max(frame.c, 1.0))
    check(worst, max(tol, 1e-10), "foliation identities failed")
    return FoliationData(
        d_basis=_frozen(d_basis),
        h_coeff=_frozen(h_coeff),
        h_mean=_frozen(h_mean),
        xi=_frozen(frame.eta.copy()),
        c=frame.c,
    )
