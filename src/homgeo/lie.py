"""Finite-dimensional real Lie algebras given by structure constants.

An algebra is stored only as the dense tensor c[i, j, k] with
[e_i, e_j] = sum_k c[i, j, k] e_k; its sparse bracket table is read off
the tensor.  Every constructor ends in one validating step, so every
LieAlgebra in circulation is an actual Lie algebra, with finite
coefficients, up to the tolerance it was built with.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, bound, check, tolerance
from .errors import IndexOutOfRange, ParamOutOfRange


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


def _square(matrix, dim: int, what: str) -> np.ndarray:
    """matrix as a finite dim x dim float array, or IndexOutOfRange/ParamOutOfRange."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (dim, dim):
        raise IndexOutOfRange(f"{what} matrix must be {dim}x{dim}, got {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise ParamOutOfRange(f"{what} matrix has a non-finite entry")
    return matrix


def _pullback(tensor: np.ndarray, p: np.ndarray) -> np.ndarray:
    """out[a,b,k] = sum_ij p[i,a] p[j,b] tensor[i,j,k]: both lower slots along p.

    Two matrix products, one per slot; the last slot is left as it is.
    """
    dim, n = p.shape
    last = tensor.shape[2]
    half = (p.T @ tensor.reshape(dim, dim * last)).reshape(n, dim, last)
    return p.T @ half


def _block_maxima(*blocks) -> list:
    """The max-abs entry of each array, from one abs and one reduceat over all of them.

    Every array must be nonempty.  A NaN anywhere in an array is its
    maximum, since np.maximum propagates NaN.
    """
    starts = [0]
    for block in blocks[:-1]:
        starts.append(starts[-1] + block.size)
    flat = np.concatenate([block.ravel() for block in blocks])
    return np.maximum.reduceat(np.abs(flat, out=flat), starts).tolist()


def _worst(peaks: list) -> float:
    """The largest of the per-slice peaks, or NaN if any of them is NaN.

    Python's max keeps whichever of a number and a NaN it meets first,
    so it would pass an overflowed slice as long as an earlier one is finite.
    """
    return math.nan if any(map(math.isnan, peaks)) else max(peaks)


@functools.lru_cache(maxsize=16)  # a few dimensions in use at a time
def _jacobi_rows(dim: int) -> tuple:
    """Index arrays of jacobi_residual's sweep at dimension dim >= 2.

    pairs lists the rows (j, k), j < k, of the tensor's (dim^2, dim)
    view, in np.triu_indices order; p below is a position in that list.
    The others index the rows of h, the (dim * len(pairs), dim) view of
    h[x, p, m] = [e_x, [e_j, e_k]]_m: over the triples i < j < k in
    lexicographic order, first, second and third are the rows
    [e_i, [e_j, e_k]], [e_k, [e_i, e_j]] and [e_j, [e_i, e_k]], and
    repeated lists [e_j, [e_j, e_k]] and then [e_k, [e_j, e_k]] over the
    pairs, the rows the triples with a repeated index read.
    """
    j, k = np.triu_indices(dim, 1)
    count = len(j)
    pair = np.zeros((dim, dim), np.intp)
    pair[j, k] = np.arange(count)
    index = np.arange(dim)
    ti, tj, tk = np.nonzero((index[:, None, None] < index[:, None])
                            & (index[:, None] < index))
    rows = (ti * count + pair[tj, tk], tk * count + pair[ti, tj], tj * count + pair[ti, tk])
    repeated = np.concatenate([j * count, k * count]) + np.tile(np.arange(count), 2)
    return (j * dim + k, *rows, repeated)


def jacobi_residual(tensor: np.ndarray, peak: float | None = None) -> float:
    """Max-abs residual of [e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] + [e_k,[e_i,e_j]].

    Each inner bracket [e_j, e_k] is read from the stored row j < k,
    extended by antisymmetry; the outer bracket [e_x, Y] = sum_l Y_l c[x, l, :]
    reads the whole tensor.  The residual is then totally antisymmetric
    in (i, j, k), so it is swept once per index orbit: over i < j < k, as
    [e_i, [e_j, e_k]] + [e_k, [e_i, e_j]] - [e_j, [e_i, e_k]], read off
    h[x, p] = [e_x, [e_j, e_k]] over the pairs p = (j, k), j < k.  On an
    exactly antisymmetric tensor, as every LieAlgebra's is, that is the
    full sweep's sum at (i, j, k), term for term.  At a triple with a
    repeated index the full sweep reads x - x for an entry x of h, which
    is 0 unless x overflowed.  Those entries are read, as NaN where x
    overflowed, only when 3 * dim * peak**2 is not finite, peak being
    max |c| (taken from tensor unless given): below that no product or
    sum here overflows.
    """
    dim = tensor.shape[0]
    if dim < 2:
        return 0.0
    if peak is None:
        peak = float(np.abs(tensor).max())
    pairs, first, second, third, repeated = _jacobi_rows(dim)
    # h[x, p] = sum_l c[j, k, l] c[x, l, :]; h, the sweep and one term of it
    # share one allocation: as three arrays they left the heap's top free to be
    # returned to the kernel and faulted in again on every call
    size = dim * len(pairs) * dim
    buf = np.empty(size + 2 * len(first) * dim)
    h = buf[:size].reshape(dim, len(pairs), dim)
    np.matmul(tensor.reshape(dim * dim, dim).take(pairs, 0), tensor, out=h)
    h = h.reshape(-1, dim)
    jac, term = buf[size:].reshape(2, -1, dim)
    # take gathers rows faster than indexing; mode "raise" would copy through a buffer
    h.take(first, 0, out=jac, mode="clip")
    h.take(second, 0, out=term, mode="clip")
    jac += term
    h.take(third, 0, out=term, mode="clip")
    jac -= term
    peaks = [float(np.abs(jac, out=jac).max(initial=0.0))]
    if not math.isfinite(3.0 * dim * peak * peak):
        x = h.take(repeated, 0)
        peaks.append(float(np.abs(x - x).max()))
    return _worst(peaks)


def _upper(tensor: np.ndarray) -> np.ndarray:
    """tensor with every entry [e_i, e_j], i >= j, set to zero."""
    return np.triu(tensor.transpose(2, 0, 1), 1).transpose(1, 2, 0)


@dataclass(frozen=True, eq=False)
class LieAlgebra:
    """Immutable Lie algebra over an ordered basis.

    tensor holds c[i, j, k] with both orientations filled in, exactly
    antisymmetric and with no -0.0.  tol is the tolerance Jacobi was
    validated at; every algebra-level check reads it.
    """

    dim: int
    basis_labels: tuple[str, ...]
    tensor: np.ndarray
    jacobi_defect: float
    tol: float

    @property
    def brackets(self) -> dict:
        """Sparse form {(i, j): {k: coeff}}, i < j, in index order; absent pairs commute."""
        i, j, k = np.nonzero(self.tensor)
        nz = (i[i < j], j[i < j], k[i < j])
        out: dict = {}
        for a, b, c, v in zip(*(x.tolist() for x in nz), self.tensor[nz].tolist()):
            out.setdefault((a, b), {})[c] = v
        return out

    def bracket(self, x, y) -> np.ndarray:
        """Bracket of two coefficient vectors, as a coefficient vector.

        x and y may also be stacks of vectors along leading axes, which
        broadcast against each other; the bracket is taken row by row.
        Two matrix products: ad[..., j, k] = sum_i x_i c[i, j, k], then y @ ad.
        """
        dim = self.dim
        ad = np.asarray(x, dtype=float) @ self.tensor.reshape(dim, dim * dim)
        ad = ad.reshape(ad.shape[:-1] + (dim, dim))
        return (np.asarray(y, dtype=float)[..., None, :] @ ad)[..., 0, :]

    def __repr__(self):
        nz = len(self.brackets)
        return f"{type(self).__name__}(dim={self.dim}, nonzero_pairs={nz})"


def _algebra(upper: np.ndarray, basis_labels, tol: float) -> LieAlgebra:
    """The one LieAlgebra constructor; every other one ends here.

    upper[i, j, k] is the coefficient of e_k in [e_i, e_j] for i < j and
    zero for i >= j.  Checks the labels, finiteness and Jacobi at tol.
    """
    dim = upper.shape[0]
    if basis_labels is None:
        basis_labels = [f"e{i}" for i in range(dim)]
    labels = tuple(str(s) for s in basis_labels)
    if len(labels) != dim:
        raise IndexOutOfRange(f"got {len(labels)} labels for dimension {dim}")
    tensor = upper - upper.transpose(1, 0, 2)
    tensor += 0.0  # -0.0 + 0.0 is 0.0
    peak = float(np.abs(tensor).max(initial=0.0))  # NaN if any entry is
    if not math.isfinite(peak):  # a NaN Jacobi residual would compare false against tol
        i, j, _ = np.argwhere(~np.isfinite(tensor))[0]
        raise ParamOutOfRange(f"bracket [e{i}, e{j}] has a non-finite coefficient")
    defect = jacobi_residual(tensor, peak)
    check("jacobi", defect, tol=tol)
    return LieAlgebra(dim, labels, _frozen(tensor), defect, tol)


def build_lie_algebra(dim, brackets, basis_labels=None, tol=DEFAULT_TOL) -> LieAlgebra:
    """Construct and validate a LieAlgebra.

    brackets maps an index pair (i, j) with i != j to {k: coefficient}.
    Pairs given with i > j are normalized by antisymmetry, and entries
    for one coefficient add up in table order.  Every index is an int or
    a numpy integer in 0..dim-1, and a pair has exactly two; anything
    else raises IndexOutOfRange.  Raises JacobiViolation if the Jacobi
    identity fails beyond tol, which the algebra keeps, and
    ParamOutOfRange unless tol is finite and nonnegative.
    """
    tol = tolerance(tol)
    dim = int(dim)
    if dim < 0:
        raise IndexOutOfRange(f"dim must be nonnegative, got {dim}")
    index = operator.index  # int and numpy integers, never a float or a str
    # flat[(i*dim + j)*dim + k] sums the coefficients of e_k in [e_i, e_j],
    # i < j, in table order
    flat, vals = [], []
    for pair, out in brackets.items():
        try:
            i, j = map(index, pair)
        except (TypeError, ValueError):
            raise IndexOutOfRange(f"bracket pair {pair!r} is not two integers") from None
        for idx in (i, j):
            if not 0 <= idx < dim:
                raise IndexOutOfRange(f"bracket index {idx} outside basis 0..{dim - 1}")
        sign = 1.0
        if i > j:
            i, j, sign = j, i, -1.0
        base = (i * dim + j) * dim
        for k, v in out.items():
            try:
                k = index(k)
            except TypeError:
                raise IndexOutOfRange(f"bracket output index {k!r} is not an integer") from None
            if not 0 <= k < dim:
                raise IndexOutOfRange(f"bracket output index {k} outside basis")
            if i == j:
                if not abs(float(v)) <= tol:
                    raise IndexOutOfRange(f"nonzero bracket [e{i}, e{i}] is inconsistent")
                continue
            flat.append(base + k)
            vals.append(sign * float(v))
    # bincount adds repeated indices in input order, as += in a loop does;
    # with nothing to add it returns integers
    flat = np.fromiter(flat, np.intp, len(flat))
    vals = np.fromiter(vals, float, len(vals))
    upper = np.bincount(flat, weights=vals, minlength=dim ** 3).astype(float, copy=False)
    return _algebra(upper.reshape(dim, dim, dim), basis_labels, tol)


def from_tensor(tensor, basis_labels=None, tol=DEFAULT_TOL) -> LieAlgebra:
    """Build a LieAlgebra from a dense (dim, dim, dim) antisymmetric bracket tensor."""
    tol = tolerance(tol)
    tensor = np.asarray(tensor, dtype=float)
    if tensor.ndim != 3 or len(set(tensor.shape)) != 1:
        raise IndexOutOfRange(f"bracket tensor must be (dim, dim, dim), got {tensor.shape}")
    if not np.isfinite(tensor).all():
        raise ParamOutOfRange("bracket tensor has a non-finite entry")
    skew = float(np.abs(tensor + np.transpose(tensor, (1, 0, 2))).max()) if tensor.size else 0.0
    check("tensor_antisymmetry", skew, tol=tol)
    return _algebra(_upper(tensor), basis_labels, tol)


def ad_matrix(algebra: LieAlgebra, x) -> np.ndarray:
    """Matrix of ad_X : Y -> [X, Y] in the algebra basis.

    Column j holds the coefficients of [X, e_j].
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (algebra.dim,):
        raise IndexOutOfRange(f"expected coefficient vector of length {algebra.dim}")
    return np.einsum("i,ijk->kj", x, algebra.tensor)


def killing_form(algebra: LieAlgebra) -> np.ndarray:
    """Killing form B(X, Y) = tr(ad_X ad_Y) as a symmetric matrix.

    B[i, j] = sum_lm c[i, l, m] c[j, m, l]: one product of the tensor's
    (dim, dim^2) view with that of its transpose in the last two slots.
    """
    c, dim = algebra.tensor, algebra.dim
    b = c.reshape(dim, dim * dim) @ c.transpose(0, 2, 1).reshape(dim, dim * dim).T
    return _frozen((b + b.T) / 2.0)


def trace_vector(algebra: LieAlgebra) -> np.ndarray:
    """The linear functional X -> tr(ad_X), evaluated on the basis."""
    return np.einsum("imm->i", algebra.tensor)


def _null_space(a) -> np.ndarray:
    """Orthonormal columns spanning the null space of the matrix a.

    In a full SVD a = u diag(s) vh, these are the rows of vh past the
    singular values above max(s) * rcond, rcond = eps * max(a.shape),
    the default rule of scipy.linalg.null_space.
    """
    _, s, vh = np.linalg.svd(a)
    rcond = np.finfo(float).eps * max(a.shape)
    rank = int(np.sum(s > np.amax(s, initial=0.0) * rcond))
    return vh[rank:].T


def unimodular_kernel(algebra: LieAlgebra):
    """Kernel of X -> tr(ad_X).

    Returns (is_unimodular, basis) where basis columns span the kernel;
    for a unimodular algebra that is the whole algebra.  The kernel has
    codimension at most one and is always an ideal, which is verified.
    """
    tol = algebra.tol
    tau = trace_vector(algebra)
    if algebra.dim == 0:
        return True, np.zeros((0, 0))
    if np.abs(tau).max() <= tol:
        return True, _frozen(np.eye(algebra.dim))
    basis = _null_space(tau[None, :])
    proj = basis @ basis.T
    # w[i, :, c] = [e_i, basis_c] must lie in the kernel again
    w = np.tensordot(algebra.tensor, basis, axes=([1], [0]))
    worst = float(np.abs(w - proj @ w).max())
    check("unimodular_kernel", worst, tol=tol)
    return False, _frozen(basis)


@dataclass(frozen=True, eq=False)
class Derivation:
    """A validated derivation D of a Lie algebra: D[X,Y] = [DX,Y] + [X,DY]."""

    matrix: np.ndarray
    defect: float


def derivation_residual(algebra: LieAlgebra, matrix) -> float:
    d = _square(matrix, algebra.dim, "derivation")
    c = algebra.tensor
    lhs = np.einsum("ml,ijl->ijm", d, c)
    rhs = np.einsum("li,ljm->ijm", d, c) + np.einsum("lj,ilm->ijm", d, c)
    return float(np.abs(lhs - rhs).max()) if c.size else 0.0


def derivation(algebra: LieAlgebra, matrix) -> Derivation:
    """Validate matrix as a derivation, at the algebra's tolerance."""
    tol = algebra.tol
    defect = derivation_residual(algebra, matrix)
    check("derivation", defect, tol=tol)
    return Derivation(_frozen(matrix), defect)


def semidirect_sum(deriv, algebra: LieAlgebra, new_label="dt") -> LieAlgebra:
    """One-dimensional extension of an algebra by a derivation.

    The new generator sits at index 0 and acts by [d/dt, X] = D X; the
    original basis shifts up by one.  Raises NotADerivation when D is
    not a derivation (the only obstruction to Jacobi here).  The result
    keeps the algebra's tolerance.
    """
    if not isinstance(deriv, Derivation):
        deriv = derivation(algebra, deriv)
    n = algebra.dim
    upper = np.zeros((n + 1, n + 1, n + 1))
    upper[0, 1:, 1:] = deriv.matrix.T  # [d/dt, e_i] = sum_k D[k, i] e_k
    upper[1:, 1:, 1:] = _upper(algebra.tensor)
    return _algebra(upper, (new_label,) + algebra.basis_labels, algebra.tol)


def change_basis(algebra: LieAlgebra, p) -> LieAlgebra:
    """Re-express an algebra in the basis given by the columns of p, at its tol."""
    p = _square(p, algebra.dim, "change of basis")
    try:
        pinv = np.linalg.inv(p)
    except np.linalg.LinAlgError:
        raise ParamOutOfRange("change of basis matrix is singular") from None
    new = _pullback(algebra.tensor, p) @ pinv.T
    scale = max(1.0, float(np.abs(new).max()))
    new[np.abs(new) < bound("basis_roundoff", scale)] = 0.0  # rotation roundoff
    return _algebra(_upper(new), algebra.basis_labels, algebra.tol)
