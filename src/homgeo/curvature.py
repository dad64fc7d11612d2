"""Curvature of a reductive homogeneous space.

Everything is computed in an orthonormal frame of (m, metric).  The
sign convention is R(X,Y) = nabla_[X,Y] - [nabla_X, nabla_Y], lowered
as R4[a,b,c,d] = <R(f_a,f_b) f_c, f_d>, so the round metrics come out
with positive sectional curvature.

The tensor and the Ricci routes are built once per space as Frame.r4
and Frame.ricci_routes; the functions here read them off the Frame of
(dec, metric), or off a Frame passed as dec.  Consecutive calls on the
same dec and metric objects share that Frame (reductive.as_frame keeps
the last one), so they build the tensor once; the Ricci routes and
einstein_check never build it.  Two independent diagonal formulas (one
general, from brackets and U, one for cyclic brackets, from brackets
and S), the tie of the tensor's trace to the general Ricci route, and
several Ricci routes, which must agree or raise ConsistencyError, guard
the tensor assembly against sign slips.
Each diagonal formula is a quadratic form in x (x) y, built once per
Frame from the bracket data alone (Frame.diagonal_form_general and
Frame.diagonal_form_cyclic), never from gamma or the tensor it checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import bound, check
from .errors import DegeneratePlane, NotCyclic
from .lie import _block_maxima
from .reductive import Frame, as_frame


def curvature_tensor(dec, metric=None) -> np.ndarray:
    """Lowered curvature R4[a,b,c,d] = <R(f_a,f_b) f_c, f_d>; see Frame.r4."""
    return as_frame(dec, metric).r4


def _quartic_form(r4: np.ndarray, y) -> np.ndarray:
    """The matrix M[a,c] = R4[a,b,c,d] y[b] y[d], so R4(x,y,x,y) = x @ M @ x.

    y may be a stack of vectors along leading axes; M then has one
    matrix per row of y.
    """
    y = y[..., None, None, :]  # broadcasts over the slots a, b of r4
    return (y @ (r4 @ y[..., None])[..., 0])[..., 0, :]


def _float_or_rows(value):
    """A float for one vector's result, the (s,) array for a stack's."""
    return float(value) if np.ndim(value) == 0 else value


def _require_cyclic(frame: Frame) -> None:
    if frame.cyclic_residual > frame.tol:
        raise NotCyclic("the projected bracket has a nonzero cyclic sum")


def _pair_form(form: np.ndarray, x, y):
    """v @ form @ v at v = x (x) y, for one pair or row by row over stacks.

    x and y have shape (n,) or (s, n), and leading axes broadcast; one
    pair gives a float, a stack the (s,) array of its rows' values.
    """
    v = np.asarray(x, dtype=float)[..., :, None] * np.asarray(y, dtype=float)[..., None, :]
    n = math.isqrt(form.shape[0])
    if v.shape[-2:] != (n, n):
        raise ValueError(f"x and y must be frame coordinate vectors of length {n}, "
                         f"got lengths {v.shape[-2]} and {v.shape[-1]}")
    v = v.reshape(v.shape[:-2] + (n * n,))
    return _float_or_rows(((v @ form) * v).sum(axis=-1))


def curvature_diagonal_general(dec, metric, x, y):
    """<R(X,Y)X, Y> from brackets and U alone, for any reductive space.

    x, y are frame coordinate vectors of shape (n,), which gives a
    float, or stacks of shape (s, n), which give the (s,) array of the
    row pairs' values.  The value is the quadratic form
    Frame.diagonal_form_general at x (x) y, built on the first call per
    Frame; inner brackets are full algebra brackets (k-components
    included) before projecting to m.
    """
    return _pair_form(as_frame(dec, metric).diagonal_form_general, x, y)


def cyclic_curvature_diagonal(dec, metric, x, y):
    """<R(X,Y)X, Y> via the structure tensor, valid for cyclic brackets.

    x, y are frame coordinate vectors of shape (n,), which gives a
    float, or stacks of shape (s, n), which give the (s,) array of the
    row pairs' values.  The value is the quadratic form
    Frame.diagonal_form_cyclic at x (x) y, built on the first call per
    Frame.  Raises NotCyclic, before building anything, when the cyclic
    sum of the projected bracket does not vanish.
    """
    frame = as_frame(dec, metric)
    _require_cyclic(frame)
    return _pair_form(frame.diagonal_form_cyclic, x, y)


def _plane(frame: Frame, x, y) -> tuple:
    """(xf, yf, area2): the frame coordinates of the m-index vectors x and y
    and the squared area of the plane they span.

    Raises DegeneratePlane when the span is (numerically) degenerate.
    """
    xf = frame.frame_coords(x)
    yf = frame.frame_coords(y)
    nx2 = float(xf @ xf)
    ny2 = float(yf @ yf)
    area2 = nx2 * ny2 - float(xf @ yf) ** 2
    if area2 <= bound("degenerate_plane", max(1.0, nx2, ny2), frame.tol):
        raise DegeneratePlane("x and y do not span a nondegenerate plane")
    return xf, yf, area2


def _r4_pair(frame: Frame, x, y) -> float:
    """R4(x, y, x, y) for two frame vectors, in O(n^3) and without forming r4.

    The three terms Frame.r4 is assembled from, each contracted with x
    and y before any product is formed:
    <lte(x,y,.), x gamma[.] y> + <k_part(x,y,.), y ad_k[.] x>
    + x (G_x G_y - G_y G_x) y, with G_x = sum_a x_a gamma[a].
    """
    n, dim_k = frame.n, frame.dec.dim_k
    gy = frame.gamma @ y  # gy[a] = G_a y, so G_x y = x @ gy
    xg = x @ frame.gamma  # xg[a] = x G_a, so x G_x = x @ xg
    lte_xy = y @ (x @ frame.lte.reshape(n, -1)).reshape(n, n)
    value = lte_xy @ (gy @ x) + (x @ xg) @ (y @ gy) - (y @ xg) @ (x @ gy)
    if dim_k:
        k_xy = y @ (x @ frame.k_part.reshape(n, -1)).reshape(n, dim_k)
        value += k_xy @ (frame.ad_k @ x @ y)
    return float(value)


def sectional_curvature(dec, metric, x, y) -> float:
    """Sectional curvature of the plane spanned by x and y.

    x and y are coordinate vectors in the m-index basis.  Raises
    DegeneratePlane when the span is (numerically) degenerate.
    """
    frame = as_frame(dec, metric)
    xf, yf, area2 = _plane(frame, x, y)
    num = float(xf @ _quartic_form(frame.r4, yf) @ xf)
    return num / area2


def ricci_routes(dec, metric=None) -> dict:
    """Ricci tensor by every applicable route, cross-checked; see Frame.ricci_routes.

    The dict is a fresh copy; its matrices are the Frame's read-only
    arrays.
    """
    return dict(as_frame(dec, metric).ricci_routes)


@dataclass(frozen=True)
class EinsteinReport:
    ricci: np.ndarray
    einstein_constant: float
    deviation: float
    is_einstein: bool


def einstein_check(dec, metric=None) -> EinsteinReport:
    """Best Einstein constant tr(Ric)/n and the max deviation from it."""
    frame = as_frame(dec, metric)
    ric = frame.ricci_routes["trace"]
    n = frame.n
    lam = float(ric.trace()) / n
    shifted = ric.copy()
    shifted.flat[::n + 1] -= lam  # Ric - lam I
    dev, peak = _block_maxima(shifted, ric)
    limit = bound("einstein", max(1.0, peak), frame.tol)
    return EinsteinReport(ric, lam, dev, dev <= limit)


@dataclass(frozen=True)
class XiCurvatureReport:
    """Curvature data of the planes containing the mean-curvature axis.

    a_matrix is ad_xi restricted to D = ker eta (an n-1 square matrix
    on the chosen orthonormal basis of D); kappa its normalized trace.
    umbilical says whether a_matrix is kappa times the identity, in
    which case every K(X, xi) equals -(c/(n-1))^2.  sectional lists
    K(d_i, xi); radial_residual is the worst defect of the identity
    <R(X,xi)X, xi> = -|[X,xi]_m|^2 over the basis of D.
    """

    c: float
    a_matrix: np.ndarray
    kappa: float
    umbilical: bool
    sectional: tuple
    radial_residual: float


def xi_curvatures(dec, metric=None) -> XiCurvatureReport:
    """Needs a cyclic, non-unimodular space; see XiCurvatureReport."""
    frame = as_frame(dec, metric)
    tol = frame.tol
    _require_cyclic(frame)
    fol = frame.foliation
    n = frame.n
    d = fol.d_basis  # (n, n-1), frame coordinates
    c2 = frame.c ** 2

    # ad_xi restricted to D, A[i,j] = <[xi, d_j]_m, d_i>; closedness keeps
    # [xi, D]_m inside D, and the cyclic condition makes A symmetric
    ad_xi = np.einsum("a,abc->cb", frame.eta, frame.lte)  # maps frame coords
    a_matrix = d.T @ ad_xi @ d
    a_sym = float(np.abs(a_matrix - a_matrix.T).max())
    check("xi_symmetry", a_sym, max(1.0, float(np.abs(a_matrix).max())), tol)
    kappa = float(np.trace(a_matrix)) / (n - 1)
    umb_defect = float(np.abs(a_matrix - kappa * np.eye(n - 1)).max())
    umbilical = umb_defect <= bound("umbilical", max(1.0, c2), tol)

    # num[i] = R4(d_i, xi, d_i, xi); column i of bx is [xi, d_i]_m
    num = np.sum(d * (_quartic_form(frame.r4, frame.eta) @ d), axis=0)
    bx = ad_xi @ d
    radial = float(np.abs(num + np.sum(bx * bx, axis=0)).max())
    return XiCurvatureReport(
        c=frame.c,
        a_matrix=a_matrix,
        kappa=kappa,
        umbilical=umbilical,
        sectional=tuple(float(v) for v in num / c2),
        radial_residual=radial,
    )


def killing_quadratic_via_brackets(frame: Frame, x):
    """B(X,X) assembled from brackets over an m-frame alone.

    B(X,X) = sum_a <[X,[X,f_a]]_m, f_a> + <[X, [X,f_a]_k], f_a>, which
    lets verification compare the Killing form against raw brackets
    without a basis of k.  x is a frame coordinate vector of shape (n,),
    which gives a float, or a stack of shape (s, n), which gives the
    (s,) array of the rows' values.
    """
    x = np.asarray(x, dtype=float)
    alg = frame.dec.algebra
    xg = frame.g_coords(x)[..., None, :]  # against all n frame vectors f_a
    inner = alg.bracket(xg, frame.frame_g.T)  # inner[..., a, :] = [X, f_a]
    term1 = frame.m_part_frame(alg.bracket(xg, inner))
    term2 = frame.m_part_frame(alg.bracket(xg, frame.k_part_g(inner)))
    # <v_a, f_a> is the a-th frame coordinate of v_a: sum the diagonals
    return _float_or_rows(np.einsum("...aa->...", term1 + term2))
