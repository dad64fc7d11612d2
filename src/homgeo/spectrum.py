"""Cyclic-metric families on graded algebras, and related constructions.

For a semisimple algebra graded into Killing-orthogonal blocks inside
m, the block metrics lam_a * B|_block are the natural candidates, and
the cyclic condition reduces to one linear equation per "active"
triple of blocks: the eigenvalues of the metric relative to B must sum
to zero over every triple that the bracket couples.  solve_cyclic
builds those equations, intersects with the positivity chamber
(lam_a * eps_a > 0, where eps_a is the sign of B on the block), and
reports the resulting solution cone.

The module also carries the order-3 automorphism splitting used by
3-symmetric presentations, and the commuting-pair witness search for
flat sections in diagonalizable metric Lie groups.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate, combinations

import numpy as np
import scipy.linalg
import scipy.optimize

from .errors import (
    ConsistencyError,
    DegenerateKillingForm,
    IndexOutOfRange,
    NoWitness,
    NotAutomorphism,
    NotOrder3,
    ParamOutOfRange,
    check,
)
from .lie import LieAlgebra, _frozen, _pullback, killing_form
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


def _block_killing(algebra, grading):
    """Validate the per-block Killing restrictions and return them."""
    grading.k_indices(algebra.dim)  # IndexOutOfRange for an index outside the algebra
    tol = algebra.tol
    b = killing_form(algebra)
    scale = max(1.0, float(np.abs(b).max()))
    restrictions = []
    for blk, sign in zip(grading.blocks, grading.signs):
        sub = b[np.ix_(blk, blk)]
        eig = np.linalg.eigvalsh(sub)
        if float(np.abs(eig).min()) <= max(tol, 1e-12) * scale:
            raise DegenerateKillingForm(
                f"Killing form is singular on block {blk}"
            )
        if not (np.all(sign * eig > 0)):
            raise ParamOutOfRange(
                f"Killing form on block {blk} does not have sign {sign:+d}"
            )
        restrictions.append(sub)
    # cross-block orthogonality keeps the family block diagonal
    for bi, bj in combinations(grading.blocks, 2):
        off = float(np.abs(b[np.ix_(bi, bj)]).max())
        check(off, max(tol, 1e-10) * scale,
              f"blocks {bi} and {bj} are not Killing-orthogonal", ParamOutOfRange)
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
    return InvariantMetric(scipy.linalg.block_diag(
        *(coeff * sub for coeff, sub in zip(lam, restrictions))))


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
    the positivity chamber lam_a * eps_a > 0, decided by maximizing the
    chamber margin with a linear program.  Every decision is made at the
    algebra's tolerance.
    """
    _block_killing(algebra, grading)
    nb = len(grading.blocks)
    triples = active_triples(algebra, grading)

    rows = np.zeros((len(triples), nb))
    for r, trip in enumerate(triples):
        for a in trip:
            rows[r, a] += 1.0
    null = scipy.linalg.null_space(rows) if len(triples) else np.eye(nb)
    r = null.shape[1]

    feasible = False
    sample = None
    if r:
        eps = np.asarray(grading.signs, dtype=float)
        # variables (x, t): maximize t with eps*(N x) in [t, 1]
        a_ub = np.zeros((2 * nb, r + 1))
        b_ub = np.zeros(2 * nb)
        chamber = eps[:, None] * null
        a_ub[:nb, :r] = -chamber
        a_ub[:nb, r] = 1.0
        a_ub[nb:, :r] = chamber
        b_ub[nb:] = 1.0
        bounds = [(None, None)] * r + [(None, 1.0)]
        res = scipy.optimize.linprog(
            np.append(np.zeros(r), -1.0), A_ub=a_ub, b_ub=b_ub,
            bounds=bounds, method="highs",
        )
        if not res.success:
            raise ConsistencyError(
                f"chamber linear program failed: {res.message}"
            )
        if res.x[-1] > 1e-6:
            feasible = True
            lam = null @ res.x[:r]
            if len(triples):
                worst = float(np.abs(rows @ lam).max())
                check(worst, 1e-8 * max(1.0, float(np.abs(lam).max())),
                      "chamber point violates the cyclic constraints")
            sample = lam

    if all(s == -1 for s in grading.signs):
        # with every block compact the coefficients are all negative, so
        # any active triple makes the sum strictly negative
        expected = len(triples) == 0
        if expected != feasible:
            raise ConsistencyError(
                "compact-case feasibility disagrees with the chamber program"
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
    check(float(np.abs(theta @ theta @ theta - eye).max()), max(tol, 1e-10) * scale ** 3,
          "theta^3 is not the identity", NotOrder3)
    if float(np.abs(theta - eye).max()) <= max(tol, 1e-10) * scale:
        raise NotOrder3("theta is the identity; the splitting is trivial")

    c = algebra.tensor
    lhs = _pullback(c, theta)
    rhs = c @ theta.T
    defect = float(np.abs(lhs - rhs).max())
    check(defect, max(tol, 1e-10) * max(1.0, float(np.abs(c).max())) * scale ** 2,
          "theta does not respect the bracket", NotAutomorphism)

    phi = eye + theta + theta @ theta
    u, s, _ = np.linalg.svd(phi)
    rank = int(np.sum(s > max(np.sqrt(tol), 1e-8) * max(1.0, s[0] if len(s) else 1.0)))
    k_basis = u[:, :rank]
    m_basis = scipy.linalg.null_space(phi, rcond=max(np.sqrt(tol), 1e-8))
    if k_basis.shape[1] + m_basis.shape[1] != dim:
        raise ConsistencyError("fixed space and complement do not fill the algebra")

    j_matrix = m_basis.T @ ((2.0 * theta + eye) / np.sqrt(3.0)) @ m_basis
    nm = m_basis.shape[1]
    worst = float(np.abs(j_matrix @ j_matrix + np.eye(nm)).max()) if nm else 0.0
    for w in range(k_basis.shape[1]):
        ad = np.einsum("i,ijk->kj", k_basis[:, w], c)
        ad_m = m_basis.T @ ad @ m_basis
        worst = max(worst, float(np.abs(j_matrix @ ad_m - ad_m @ j_matrix).max()))
    check(worst, max(tol, 1e-9) * max(1.0, scale, float(np.abs(c).max())),
          "order-3 splitting identities failed")
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
            bound = max(tol, 1e-10) * scale * norms[i] * norms[j] * max(
                1.0, abs(lams[i]) + abs(lams[j]))
            check(mix, bound, f"eigen data is inconsistent: [v_{i}, v_{j}] does not vanish "
                  "although the eigenvalues do not cancel", ParamOutOfRange)

    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            if float(np.linalg.norm(algebra.bracket(vecs[i], vecs[j]))) <= max(
                    tol, 1e-10) * scale * norms[i] * norms[j]:
                return (i, j)

    if abs(sum(lams)) <= max(tol, 1e-10) * max(
            1.0, max((abs(v) for v in lams), default=0.0)):
        raise NoWitness(
            "no commuting pair exists among the given eigenvectors"
        )
    raise ConsistencyError(
        "nonzero eigenvalue sum guarantees a commuting pair, but none was found"
    )
