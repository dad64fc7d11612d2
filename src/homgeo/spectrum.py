"""Cyclic-metric families on graded algebras, and related constructions.

For a semisimple algebra graded into Killing-orthogonal blocks inside
m, the block metrics lam_a * B|_block are the natural candidates, and
the cyclic condition reduces to one linear equation per "active"
triple of blocks: the eigenvalues of the metric relative to B must sum
to zero over every triple that the bracket couples.  solve_cyclic
builds those equations, intersects with the positivity chamber
(lam_a * eps_a > 0, where eps_a is the sign of B on the block), and
reports the resulting solution cone.  Whether the kernel meets the
chamber is decided by Gordan's alternative through one non-negative
least-squares problem, and the answer carries a checked certificate
either way: a chamber point, or a convex combination of the signed
coordinate vectors orthogonal to the kernel.

The module also carries the order-3 automorphism splitting used by
3-symmetric presentations, and the commuting-pair witness search for
flat sections in diagonalizable metric Lie groups.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate, combinations

import numpy as np

from .config import bound, check
from .errors import (
    ConsistencyError,
    DegenerateKillingForm,
    IndexOutOfRange,
    NoWitness,
    NotOrder3,
    ParamOutOfRange,
)
from .lie import LieAlgebra, _frozen, _null_space, _pullback, killing_form
from .reductive import InvariantMetric, ReductiveDecomposition


@dataclass(frozen=True, eq=False)
class BlockGrading:
    """Disjoint index blocks spanning m, with the Killing sign per block.

    signs[a] is +1 when the Killing form is positive definite on
    blocks[a] (noncompact directions) and -1 when negative definite.
    Indices not covered by any block form k.
    """

    blocks: tuple[tuple[int, ...], ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        try:  # int and numpy integers, never a float
            blocks = tuple(tuple(map(operator.index, b)) for b in self.blocks)
        except TypeError:
            raise IndexOutOfRange(f"grading blocks {self.blocks!r} must hold integer "
                                  "indices") from None
        try:
            signs = tuple(map(operator.index, self.signs))
        except TypeError:
            raise ParamOutOfRange(f"block signs must be +1 or -1, got {self.signs!r}") from None
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "signs", signs)
        if not blocks or any(not b for b in blocks):
            raise ParamOutOfRange("grading needs at least one nonempty block")
        if len(signs) != len(blocks):
            raise ParamOutOfRange(
                f"{len(blocks)} blocks but {len(signs)} signs"
            )
        if any(s not in (-1, 1) for s in signs):
            raise ParamOutOfRange("block signs must be +1 or -1")
        flat = [i for b in blocks for i in b]
        if len(set(flat)) != len(flat):
            raise IndexOutOfRange("grading blocks overlap")

    @property
    def m_indices(self) -> tuple[int, ...]:
        return tuple(i for b in self.blocks for i in b)

    def k_indices(self, dim: int) -> tuple[int, ...]:
        m = set(self.m_indices)
        if any(i < 0 or i >= dim for i in m):
            raise IndexOutOfRange(f"grading indices exceed the algebra (dim {dim})")
        return tuple(i for i in range(dim) if i not in m)


def grading_decomposition(algebra: LieAlgebra, grading: BlockGrading) -> ReductiveDecomposition:
    """Reductive splitting with m the concatenated blocks, k the rest."""
    return ReductiveDecomposition(
        algebra, grading.k_indices(algebra.dim), grading.m_indices
    )


# The last (algebra, grading, restrictions) _block_killing validated.  It
# holds both objects, so their identities cannot be recycled while it is here.
_last_blocks = None


def _block_killing(algebra, grading):
    """Validate the per-block Killing restrictions and return them, read-only.

    Both arguments are frozen, so a result stays valid for them: the last
    one is kept in a single slot and returned while the next call passes
    the same algebra object and the same grading object (compared with
    is), as reductive.as_frame does.  A call that raises keeps nothing.
    """
    global _last_blocks
    last = _last_blocks  # read once: another thread may replace it
    if last is not None and last[0] is algebra and last[1] is grading:
        return last[2]
    grading.k_indices(algebra.dim)  # IndexOutOfRange for an index outside the algebra
    tol = algebra.tol
    b = killing_form(algebra)
    scale = max(1.0, float(np.abs(b).max()))
    restrictions = []
    for blk, sign in zip(grading.blocks, grading.signs):
        sub = b[np.ix_(blk, blk)]
        eig = np.linalg.eigvalsh(sub)
        if float(np.abs(eig).min()) <= bound("block_killing_singular", scale, tol):
            raise DegenerateKillingForm(
                f"Killing form is singular on block {blk}"
            )
        if not (np.all(sign * eig > 0)):
            raise ParamOutOfRange(
                f"Killing form on block {blk} does not have sign {sign:+d}"
            )
        restrictions.append(_frozen(sub))
    # cross-block orthogonality keeps the family block diagonal
    for bi, bj in combinations(grading.blocks, 2):
        off = float(np.abs(b[np.ix_(bi, bj)]).max())
        check("block_orthogonality", off, scale, tol, bi=bi, bj=bj)
    restrictions = tuple(restrictions)
    _last_blocks = (algebra, grading, restrictions)
    return restrictions


def cyclic_metric(algebra: LieAlgebra, grading: BlockGrading, lam) -> InvariantMetric:
    """Block metric with lam[a] times the Killing form on each block."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (len(grading.blocks),):
        raise ParamOutOfRange(
            f"expected {len(grading.blocks)} coefficients, got shape {lam.shape}"
        )
    if not np.isfinite(lam).all():
        raise ParamOutOfRange(f"coefficients must be finite, got {lam.tolist()}")
    restrictions = _block_killing(algebra, grading)
    matrix = np.zeros((len(grading.m_indices),) * 2)
    start = 0
    for coeff, sub in zip(lam, restrictions):
        stop = start + len(sub)
        matrix[start:stop, start:stop] = coeff * sub
        start = stop
    return InvariantMetric(matrix)


def _block_couplings(algebra: LieAlgebra, grading: BlockGrading) -> np.ndarray:
    """Largest bracket component between blocks, per part of the algebra.

    Entry [a, b, p] is the max-abs component in part p of the brackets
    of block-a vectors with block-b vectors, where parts 0..nb-1 are the
    blocks and part nb is k; an empty k reads 0.
    """
    k = grading.k_indices(algebra.dim)  # IndexOutOfRange for an index outside the algebra
    m = grading.m_indices
    starts = [0, *accumulate(len(b) for b in grading.blocks)]
    c = np.abs(algebra.tensor[np.ix_(m, m, m + k)])
    for axis in (0, 1):
        c = np.maximum.reduceat(c, starts[:-1], axis=axis)
    c = np.concatenate([c, np.zeros(c.shape[:2] + (1,))], axis=2)  # for an empty k
    return np.maximum.reduceat(c, starts, axis=2)


def active_triples(algebra: LieAlgebra, grading: BlockGrading) -> list:
    """Unordered block triples (with repeats) coupled by the bracket.

    {a, b, c} is active when some bracket of a block-a vector with a
    block-b vector has a component in block c, in any arrangement.
    """
    coupled = _block_couplings(algebra, grading)[:, :, :-1]
    scale = max(1.0, float(np.abs(algebra.tensor).max()))
    hits = zip(*np.nonzero(coupled > algebra.tol * scale))
    return sorted({tuple(sorted(map(int, t))) for t in hits if t[0] <= t[1]})


def _nnls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lawson-Hanson active-set solution of min |a y - b| over y >= 0.

    Lawson and Hanson, Solving Least Squares Problems (1974), ch. 23.
    Raises ConsistencyError after 3 * n least-squares solves, n the
    number of columns of a.
    """
    n = a.shape[1]
    tol = 10 * max(a.shape) * np.finfo(float).eps * max(1.0, float(np.abs(a).sum(axis=0).max()))
    y = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    grow = True
    for _ in range(3 * n):
        if grow:  # free the coordinate with the steepest descent, if any descends
            w = a.T @ (b - a @ y)
            w[passive] = -np.inf
            j = int(np.argmax(w))
            if w[j] <= tol:
                return y
            passive[j] = True
        z = np.zeros(n)
        z[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
        grow = bool(z[passive].min() > 0)
        if grow:
            y = z
        else:  # move toward z until a coordinate reaches zero, and fix it there
            blocked = passive & (z <= 0)
            y += np.min(y[blocked] / (y[blocked] - z[blocked])) * (z - y)
            passive &= y > tol
            y[~passive] = 0.0
            grow = not passive.any()
    raise ConsistencyError(f"non-negative least squares did not converge in {3 * n} steps")


def _chamber_point(rows: np.ndarray, signs) -> tuple[np.ndarray, np.ndarray | None]:
    """Kernel basis of rows, and a kernel point in the chamber signs * lam > 0.

    Returns (N, lam) with N an orthonormal kernel basis and lam a chamber
    point scaled to max |lam| = 1, or (N, None) when the kernel misses
    the chamber.  By Gordan's alternative exactly one certificate
    exists: x with signs * (N x) > 0, or y >= 0 with sum(y) = 1 and
    N^T (signs * y) = 0.  Both come from one NNLS problem,
    min |P y|^2 + (1 - sum(y))^2 over y >= 0, with P the projector onto
    signs * N.  At its optimum rho = 1 - sum(y) is the squared residual
    and P y >= rho, so signs * (P y) is a chamber point when rho > 0 and
    y is the certificate when rho = 0.  Whichever comes back is checked
    here without trusting the solver; if neither holds, ConsistencyError.
    """
    nb = rows.shape[1]
    null = _null_space(rows) if len(rows) else np.eye(nb)
    eps = np.asarray(signs, dtype=float)
    chamber = eps[:, None] * null
    proj = chamber @ chamber.T
    target = np.zeros(nb + 1)
    target[-1] = 1.0
    y = _nnls(np.vstack([proj, np.ones(nb)]), target)

    margins = proj @ y  # eps * lam before scaling
    top = float(margins.max())
    # the absolute floor comes first: roundoff of P y = 0 can be all positive
    if top > bound("chamber_floor") and float(margins.min()) > bound("chamber_margin", top):
        lam = eps * margins / top
        if len(rows):
            check("chamber_point", float(np.abs(rows @ lam).max()))
        return null, lam
    residual = float(np.linalg.norm(null.T @ (eps * y)))
    limit = bound("gordan_certificate")
    if float(y.min()) >= 0.0 and abs(float(y.sum()) - 1.0) <= limit and residual <= limit:
        return null, None
    raise ConsistencyError(
        f"chamber undecided: largest margin {top:.3e} gives no chamber point, and the "
        f"Gordan certificate has sum {float(y.sum()):.6g} and residual {residual:.3e}"
    )


@dataclass(frozen=True, eq=False)
class CyclicSolutionFamily:
    """Solution cone of the cyclic condition on a block-metric family.

    constraints holds one row per active triple (coefficients of the
    lam variables); null_basis spans its kernel; dimension is the
    number of free parameters; feasible says whether the kernel meets
    the open positivity chamber, and sample is an interior point when
    it does.
    """

    algebra: LieAlgebra
    grading: BlockGrading
    triples: tuple
    constraints: np.ndarray
    null_basis: np.ndarray
    dimension: int
    feasible: bool
    sample: np.ndarray | None
    description: str


def solve_cyclic(algebra: LieAlgebra, grading: BlockGrading) -> CyclicSolutionFamily:
    """Solve the cyclic condition over a graded block-metric family.

    Returns the linear constraints (sum of lam over each active triple,
    with multiplicity), a basis of their kernel, and the feasibility of
    the positivity chamber lam_a * eps_a > 0.  Feasibility is decided by
    Gordan's alternative, solved as one non-negative least-squares
    problem: a feasible answer carries a chamber point, scaled to
    max |lam| = 1, that satisfies every constraint; an infeasible one a
    convex combination of the signed coordinate vectors orthogonal to
    the kernel.  Both are checked, and ConsistencyError is raised when
    neither holds.  The active triples are read at the algebra's
    tolerance.
    """
    _block_killing(algebra, grading)
    nb = len(grading.blocks)
    triples = active_triples(algebra, grading)

    rows = np.zeros((len(triples), nb))
    for r, trip in enumerate(triples):
        for a in trip:
            rows[r, a] += 1.0
    null, sample = _chamber_point(rows, grading.signs)
    feasible = sample is not None
    r = null.shape[1]

    if all(s == -1 for s in grading.signs):
        # with every block compact the coefficients are all negative, so
        # any active triple makes the sum strictly negative
        expected = len(triples) == 0
        if expected != feasible:
            raise ConsistencyError(
                "compact-case feasibility disagrees with the chamber decision"
            )

    if not feasible:
        description = "empty"
        dimension = 0
    elif r == 1:
        description = "ray"
        dimension = 1
    else:
        description = f"{r}-parameter cone"
        dimension = r
    return CyclicSolutionFamily(
        algebra=algebra,
        grading=grading,
        triples=tuple(triples),
        constraints=_frozen(rows),
        null_basis=_frozen(null),
        dimension=dimension,
        feasible=feasible,
        sample=None if sample is None else _frozen(sample),
        description=description,
    )


@dataclass(frozen=True, eq=False)
class Order3Split:
    """Fixed-space / moved-space splitting of an order-3 automorphism.

    k_basis and m_basis have orthonormal columns spanning the fixed
    space of theta and its invariant complement; j_matrix is the
    complex structure (2 theta + 1)/sqrt(3) restricted to m, written in
    the m_basis coordinates.
    """

    theta: np.ndarray
    k_basis: np.ndarray
    m_basis: np.ndarray
    j_matrix: np.ndarray


def theta_split(algebra: LieAlgebra, theta) -> Order3Split:
    """Split the algebra under an order-3 automorphism theta.

    Validates theta^3 = 1 and theta != 1 (NotOrder3) and that theta
    respects brackets (NotAutomorphism).  The fixed space k is the
    image of 1 + theta + theta^2, m its kernel; on m the normalized
    operator J = (2 theta + 1)/sqrt(3) squares to -1 and commutes with
    every ad of k, both of which are verified.
    """
    tol = algebra.tol
    theta = np.asarray(theta, dtype=float)
    dim = algebra.dim
    if theta.shape != (dim, dim):
        raise ParamOutOfRange(
            f"automorphism must be {dim}x{dim}, got {theta.shape}"
        )
    eye = np.eye(dim)
    scale = max(1.0, float(np.abs(theta).max()))
    check("theta_order3", float(np.abs(theta @ theta @ theta - eye).max()), scale ** 3, tol)
    if float(np.abs(theta - eye).max()) <= bound("theta_identity", scale, tol):
        raise NotOrder3("theta is the identity; the splitting is trivial")

    c = algebra.tensor
    lhs = _pullback(c, theta)
    rhs = c @ theta.T
    defect = float(np.abs(lhs - rhs).max())
    check("theta_automorphism", defect, max(1.0, float(np.abs(c).max())) * scale ** 2, tol)

    phi = eye + theta + theta @ theta
    # one SVD and one rank rule give both spaces, so their dimensions add up to dim
    u, s, vh = np.linalg.svd(phi)
    rank = int(np.sum(s > bound("theta_rank", max(1.0, s[0] if len(s) else 1.0), np.sqrt(tol))))
    k_basis = u[:, :rank]
    m_basis = vh[rank:].T

    j_matrix = m_basis.T @ ((2.0 * theta + eye) / np.sqrt(3.0)) @ m_basis
    nm = m_basis.shape[1]
    worst = float(np.abs(j_matrix @ j_matrix + np.eye(nm)).max()) if nm else 0.0
    for w in range(k_basis.shape[1]):
        ad = np.einsum("i,ijk->kj", k_basis[:, w], c)
        ad_m = m_basis.T @ ad @ m_basis
        worst = max(worst, float(np.abs(j_matrix @ ad_m - ad_m @ j_matrix).max()))
    check("theta_splitting", worst, max(1.0, scale, float(np.abs(c).max())), tol)
    return Order3Split(
        theta=_frozen(theta),
        k_basis=_frozen(k_basis),
        m_basis=_frozen(m_basis),
        j_matrix=_frozen(j_matrix),
    )


def flat_section_witness(algebra: LieAlgebra, eigen_list) -> tuple[int, int]:
    """First commuting pair among eigenvectors of a symmetric derivation.

    eigen_list holds (eigenvalue, vector) pairs, the vector given either
    as a basis index or a coefficient vector; an index that is not an
    integer in 0..dim-1 raises IndexOutOfRange.  Pairs whose eigenvalues
    do not cancel must commute already; that is validated up front.
    Returns the lexicographically first (i, j) with [v_i, v_j] = 0.
    When every pair fails, NoWitness is raised, which can only happen
    with trace-free data (the eigenvalues sum to zero); anything else
    means the input was inconsistent.
    """
    tol = algebra.tol
    lams = []
    vecs = []
    for lam, vec in eigen_list:
        lams.append(float(lam))
        if np.isscalar(vec):
            integer = isinstance(vec, (int, np.integer)) and not isinstance(vec, bool)
            if not (integer and 0 <= vec < algebra.dim):
                raise IndexOutOfRange(f"basis index {vec!r} is not in 0..{algebra.dim - 1}")
            v = np.eye(algebra.dim)[vec]
        else:
            v = np.asarray(vec, dtype=float)
            if v.shape != (algebra.dim,):
                raise ParamOutOfRange(
                    f"eigenvector shape {v.shape} does not match dim {algebra.dim}"
                )
        vecs.append(v)

    scale = max(1.0, float(np.abs(algebra.tensor).max()))
    norms = [max(1.0, float(np.linalg.norm(v))) for v in vecs]
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            mix = abs(lams[i] + lams[j]) * float(
                np.linalg.norm(algebra.bracket(vecs[i], vecs[j]))
            )
            check("witness_consistency", mix, scale * norms[i] * norms[j] * max(
                1.0, abs(lams[i]) + abs(lams[j])), tol, i=i, j=j)

    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            if float(np.linalg.norm(algebra.bracket(vecs[i], vecs[j]))) <= bound(
                    "witness", scale * norms[i] * norms[j], tol):
                return (i, j)

    if abs(sum(lams)) <= bound("no_witness", max(
            1.0, max((abs(v) for v in lams), default=0.0)), tol):
        raise NoWitness(
            "no commuting pair exists among the given eigenvectors"
        )
    raise ConsistencyError(
        "nonzero eigenvalue sum guarantees a commuting pair, but none was found"
    )
