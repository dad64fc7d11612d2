"""Finite-dimensional real Lie algebras given by structure constants.

An algebra is stored as the dense tensor c[i, j, k] with
[e_i, e_j] = sum_k c[i, j, k] e_k, together with the sparse bracket
table it was built from.  Construction validates the Jacobi identity,
so every LieAlgebra in circulation is an actual Lie algebra up to the
tolerance it was built with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .config import DEFAULT_TOL
from .errors import (
    ConsistencyError,
    IndexOutOfRange,
    JacobiViolation,
    NotADerivation,
    ParamOutOfRange,
)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


def _pullback(tensor: np.ndarray, p: np.ndarray) -> np.ndarray:
    """out[a,b,k] = sum_ij p[i,a] p[j,b] tensor[i,j,k]: both lower slots along p.

    Two matrix products, one per slot; the last slot is left as it is.
    """
    dim, n = p.shape
    last = tensor.shape[2]
    half = (p.T @ tensor.reshape(dim, dim * last)).reshape(n, dim, last)
    return p.T @ half


def jacobi_residual(tensor: np.ndarray) -> float:
    """Max-abs residual of [e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] + [e_k,[e_i,e_j]]."""
    dim = tensor.shape[0]
    # t[i,j,k,m] = sum_l c[j,k,l] c[i,l,m] = [e_i, [e_j, e_k]]
    t = (tensor.reshape(dim * dim, dim) @ tensor).reshape(dim, dim, dim, dim)
    jac = t + np.transpose(t, (1, 2, 0, 3)) + np.transpose(t, (2, 0, 1, 3))
    return float(np.abs(jac).max()) if tensor.size else 0.0


@dataclass(frozen=True, eq=False)
class LieAlgebra:
    """Immutable Lie algebra over an ordered basis.

    brackets holds the canonical sparse form {(i, j): {k: coeff}} with
    i < j; pairs absent from it bracket to zero.  tensor is the dense
    equivalent with both orientations filled in.  tol is the tolerance
    Jacobi was validated at; every algebra-level check reads it.
    """

    dim: int
    basis_labels: tuple[str, ...]
    brackets: dict
    tensor: np.ndarray
    jacobi_defect: float
    tol: float

    def bracket(self, x, y) -> np.ndarray:
        """Bracket of two coefficient vectors, as a coefficient vector."""
        return np.einsum("i,j,ijk->k", x, y, self.tensor)

    def __repr__(self):
        nz = len(self.brackets)
        return f"LieAlgebra(dim={self.dim}, nonzero_pairs={nz})"


def build_lie_algebra(dim, brackets, basis_labels=None, tol=DEFAULT_TOL) -> LieAlgebra:
    """Construct and validate a LieAlgebra.

    brackets maps an index pair (i, j) with i != j to {k: coefficient}.
    Pairs given with i > j are normalized by antisymmetry.  Raises
    IndexOutOfRange for bad indices and JacobiViolation if the Jacobi
    identity fails beyond tol, which the algebra keeps.
    """
    tol = float(tol)
    dim = int(dim)
    if dim < 0:
        raise IndexOutOfRange(f"dim must be nonnegative, got {dim}")
    if basis_labels is None:
        basis_labels = tuple(f"e{i}" for i in range(dim))
    else:
        basis_labels = tuple(str(s) for s in basis_labels)
        if len(basis_labels) != dim:
            raise IndexOutOfRange(
                f"got {len(basis_labels)} labels for dimension {dim}"
            )

    tensor = np.zeros((dim, dim, dim))
    canon: dict = {}
    for pair, out in brackets.items():
        i, j = int(pair[0]), int(pair[1])
        for idx in (i, j):
            if not 0 <= idx < dim:
                raise IndexOutOfRange(f"bracket index {idx} outside basis 0..{dim - 1}")
        if i == j:
            if any(not abs(float(v)) <= tol for v in out.values()):
                raise IndexOutOfRange(f"nonzero bracket [e{i}, e{i}] is inconsistent")
            continue
        sign = 1.0
        if i > j:
            i, j, sign = j, i, -1.0
        row = canon.setdefault((i, j), {})
        for k, v in out.items():
            k = int(k)
            if not 0 <= k < dim:
                raise IndexOutOfRange(f"bracket output index {k} outside basis")
            row[k] = row.get(k, 0.0) + sign * float(v)
    canon = {
        pair: {k: v for k, v in sorted(row.items()) if v != 0.0}
        for pair, row in sorted(canon.items())
    }
    canon = {pair: row for pair, row in canon.items() if row}
    for (i, j), row in canon.items():
        for k, v in row.items():
            tensor[i, j, k] = v
            tensor[j, i, k] = -v
    finite = np.isfinite(tensor)
    if not finite.all():  # a NaN Jacobi residual would compare false against tol
        i, j, _ = np.argwhere(~finite)[0]
        raise ParamOutOfRange(f"bracket [e{i}, e{j}] has a non-finite coefficient")

    defect = jacobi_residual(tensor)
    if defect > tol:
        raise JacobiViolation(
            f"Jacobi identity fails with residual {defect:.3e} (tol {tol:.1e})"
        )
    return LieAlgebra(dim, basis_labels, canon, _frozen(tensor), defect, tol)


def _sparse_from_tensor(tensor):
    dim = tensor.shape[0]
    out = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            row = {k: float(tensor[i, j, k]) for k in range(dim)
                   if abs(tensor[i, j, k]) > 0.0}
            if row:
                out[(i, j)] = row
    return out


def from_tensor(tensor, basis_labels=None, tol=DEFAULT_TOL) -> LieAlgebra:
    """Build a LieAlgebra from a dense antisymmetric bracket tensor."""
    tensor = np.asarray(tensor, dtype=float)
    skew = float(np.abs(tensor + np.transpose(tensor, (1, 0, 2))).max()) if tensor.size else 0.0
    if skew > tol:
        raise IndexOutOfRange(f"bracket tensor not antisymmetric (defect {skew:.3e})")
    return build_lie_algebra(
        tensor.shape[0], _sparse_from_tensor(tensor), basis_labels, tol
    )


def ad_matrix(algebra: LieAlgebra, x) -> np.ndarray:
    """Matrix of ad_X : Y -> [X, Y] in the algebra basis.

    Column j holds the coefficients of [X, e_j].
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (algebra.dim,):
        raise IndexOutOfRange(f"expected coefficient vector of length {algebra.dim}")
    return np.einsum("i,ijk->kj", x, algebra.tensor)


def killing_form(algebra: LieAlgebra) -> np.ndarray:
    """Killing form B(X, Y) = tr(ad_X ad_Y) as a symmetric matrix."""
    c = algebra.tensor
    b = np.einsum("ilm,jml->ij", c, c)
    return _frozen((b + b.T) / 2.0)


def trace_vector(algebra: LieAlgebra) -> np.ndarray:
    """The linear functional X -> tr(ad_X), evaluated on the basis."""
    return np.einsum("imm->i", algebra.tensor)


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
    basis = scipy.linalg.null_space(tau[None, :])
    proj = basis @ basis.T
    worst = 0.0
    for i in range(algebra.dim):
        for col in basis.T:
            w = algebra.bracket(np.eye(algebra.dim)[i], col)
            worst = max(worst, float(np.abs(w - proj @ w).max()))
    if worst > max(tol, 1e-12):
        raise ConsistencyError(
            f"unimodular kernel failed the ideal check (residual {worst:.3e})"
        )
    return False, _frozen(basis)


@dataclass(frozen=True)
class Derivation:
    """A validated derivation D of a Lie algebra: D[X,Y] = [DX,Y] + [X,DY]."""

    matrix: np.ndarray
    defect: float


def derivation_residual(algebra: LieAlgebra, matrix) -> float:
    d = np.asarray(matrix, dtype=float)
    c = algebra.tensor
    lhs = np.einsum("ml,ijl->ijm", d, c)
    rhs = np.einsum("li,ljm->ijm", d, c) + np.einsum("lj,ilm->ijm", d, c)
    return float(np.abs(lhs - rhs).max()) if c.size else 0.0


def derivation(algebra: LieAlgebra, matrix) -> Derivation:
    """Validate matrix as a derivation, at the algebra's tolerance."""
    tol = algebra.tol
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (algebra.dim, algebra.dim):
        raise IndexOutOfRange(
            f"derivation matrix must be {algebra.dim}x{algebra.dim}, got {matrix.shape}"
        )
    defect = derivation_residual(algebra, matrix)
    if defect > tol:
        raise NotADerivation(
            f"matrix is not a derivation (residual {defect:.3e}, tol {tol:.1e})"
        )
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
    d = deriv.matrix
    n = algebra.dim
    brackets = {}
    for i in range(n):
        col = {k + 1: float(d[k, i]) for k in range(n) if d[k, i] != 0.0}
        if col:
            brackets[(0, i + 1)] = col
    for (i, j), row in algebra.brackets.items():
        brackets[(i + 1, j + 1)] = {k + 1: v for k, v in row.items()}
    labels = (new_label,) + algebra.basis_labels
    return build_lie_algebra(n + 1, brackets, labels, algebra.tol)


def change_basis(algebra: LieAlgebra, p) -> LieAlgebra:
    """Re-express an algebra in the basis given by the columns of p, at its tol."""
    p = np.asarray(p, dtype=float)
    pinv = np.linalg.inv(p)
    new = _pullback(algebra.tensor, p) @ pinv.T
    scale = max(1.0, float(np.abs(new).max()))
    new[np.abs(new) < 1e-13 * scale] = 0.0  # rotation roundoff
    return build_lie_algebra(
        algebra.dim, _sparse_from_tensor(new), algebra.basis_labels, algebra.tol
    )
