"""The benchmark's workloads: seeded inputs, one op, and its oracle.

Each workload generates its whole input pool from the seed when it is
constructed (this is part of set-up), hands op i the pool item i modulo
the pool size, and checks every result against an answer that does not
go through homgeo.  homgeo is called only through names exported by the
package, in the documented ``(dec, metric)`` form.

Every call into a layer goes through ``call(name, fn, *args)`` so that a
traced run can time it; ``expected`` lists exceptions that are a valid
outcome of that call.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

import homgeo as hg

# Relative tolerance of the oracle comparisons.  Every route here is
# exact up to rounding; the worst error seen is below 1e-13.
RTOL = 1e-9
# Cross-route tolerance for the curvature diagonals and sectional
# curvature: agreement with R4 within 1e-8 times the scale.
DIAG_RTOL = 1e-8
# Checks verify_all expects from run_all over the default catalog.
VERIFY_CHECKS = 176


def direct(name, fn, *args, expected=(), **kwargs):
    """Untraced call into a layer."""
    return fn(*args, **kwargs)


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), salt]))


def _hash(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def _close(got, want, scale=1.0, rtol=RTOL) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False
    bound = rtol * max(1.0, float(scale),
                       float(np.abs(want).max()) if want.size else 0.0)
    return bool(np.abs(got - want).max() <= bound) if want.size else True


def _spectrum(mat) -> np.ndarray:
    return np.linalg.eigvalsh((np.asarray(mat) + np.asarray(mat).T) / 2.0)


@dataclass
class Result:
    """What an op returns: its spaces (for the Frame probe) and outputs."""

    spaces: list
    out: dict = field(default_factory=dict)


# --- milnor_sweep -------------------------------------------------------


def milnor_mu(lam_p) -> np.ndarray:
    """Milnor's mu_i = (sum lam')/2 - lam'_i of a Milnor frame."""
    lam_p = np.asarray(lam_p, dtype=float)
    return 0.5 * lam_p.sum() - lam_p


def milnor_ricci(lam_p) -> np.ndarray:
    """Ricci tensor diag(2 mu_j mu_k) in the orthonormal Milnor frame."""
    mu = milnor_mu(lam_p)
    return np.diag([2.0 * mu[1] * mu[2], 2.0 * mu[0] * mu[2], 2.0 * mu[0] * mu[1]])


def milnor_brackets(lam) -> dict:
    """[e1,e2] = lam0 e0, [e2,e0] = lam1 e1, [e0,e1] = lam2 e2."""
    return {(1, 2): {0: float(lam[0])}, (2, 0): {1: float(lam[1])},
            (0, 1): {2: float(lam[2])}}


class MilnorSweep:
    """One Milnor group per op, n = 3, k = 0, with a diagonal metric.

    Frame constants lam' = 0.6 k with integer k in [-5, 5]; about a third
    of the points are forced to sum k = 0.  The table is
    lam_i = lam'_i sqrt(g_j g_k / g_i), so the g-orthonormal frame is
    again a Milnor frame with constants lam'.
    """

    name = "milnor_sweep"
    pool_size = 8192
    step = 0.6

    def __init__(self, seed: int):
        rng = _rng(seed, 1)
        n = self.pool_size
        k = rng.integers(-5, 6, size=(n, 3))
        forced = rng.random(n) < 1.0 / 3.0
        todo = forced.copy()
        while todo.any():
            k[todo, :2] = rng.integers(-5, 6, size=(int(todo.sum()), 2))
            k[todo, 2] = -(k[todo, 0] + k[todo, 1])
            todo = todo & (np.abs(k[:, 2]) > 5)
        self.k = k
        self.g = rng.uniform(0.5, 2.0, size=(n, 3))
        lam_p = self.step * k
        g0, g1, g2 = self.g.T
        scale = np.sqrt(np.stack([g1 * g2 / g0, g0 * g2 / g1, g0 * g1 / g2], axis=1))
        self.lam = lam_p * scale
        self.input_hash = _hash(self.name, self.k, self.g)

    def prepare(self, i: int):
        j = i % self.pool_size
        return j, milnor_brackets(self.lam[j]), hg.InvariantMetric(np.diag(self.g[j]))

    def op(self, inp, call) -> Result:
        _, brackets, metric = inp
        alg = call("lie.build_lie_algebra", hg.build_lie_algebra, 3, brackets)
        dec = hg.ReductiveDecomposition(alg, (), (0, 1, 2))
        report = call("structure.classify", hg.classify, dec, metric)
        einstein = call("curvature.einstein_check", hg.einstein_check, dec, metric)
        return Result([(dec, metric)], {"report": report, "einstein": einstein})

    def check(self, inp, res: Result) -> list:
        j = inp[0]
        k = self.k[j]
        lam_p = self.step * k
        report, einstein = res.out["report"], res.out["einstein"]
        zero_sum = int(k.sum()) == 0
        abelian = not k.any()
        want = {
            "cyclic": zero_sum,
            "traceless": True,
            "traceless_cyclic": zero_sum and not abelian,
            "vectorial": abelian,
            "naturally_reductive": bool(k[0] == k[1] == k[2]),
            "symmetric": abelian,
        }
        bad = [f"{name}: got {getattr(report, name)}, want {v}"
               for name, v in want.items() if getattr(report, name) != v]
        ric = milnor_ricci(lam_p)
        if not _close(einstein.ricci, ric):
            bad.append(f"ricci {np.diag(einstein.ricci)} != {np.diag(ric)}")
        if not _close(einstein.einstein_constant, np.trace(ric) / 3.0):
            bad.append("einstein constant")
        diag = np.diag(ric)
        if einstein.is_einstein != bool(np.ptp(diag) <= RTOL * max(1.0, np.abs(diag).max())):
            bad.append(f"is_einstein {einstein.is_einstein}")
        return bad


# --- solvable_large -----------------------------------------------------


def solvable_ricci_spectrum(alpha) -> np.ndarray:
    """Ricci eigenvalues of g(alpha): -sum a^2 once, -a_i sum a for each i."""
    alpha = np.asarray(alpha, dtype=float)
    return np.sort(np.append(-(alpha ** 2).sum(), -alpha * alpha.sum()))


def rotated_solvable_tensor(alpha, q) -> np.ndarray:
    """Structure constants of g(alpha) in the basis e'_a = sum_i q[i,a] e_i.

    g(alpha) has [e0, ei] = alpha_i ei; with q orthogonal,
    c'[a,b,d] = q0[a] t[b,d] - q0[b] t[a,d], t = sum_i alpha_i q_ib q_id.
    """
    q = np.asarray(q, dtype=float)
    t = np.einsum("i,ib,id->bd", alpha, q[1:], q[1:])
    return np.einsum("a,bd->abd", q[0], t) - np.einsum("b,ad->abd", q[0], t)


class SolvableLarge:
    """One g(alpha) group per op at n = 20, in a seeded orthonormal basis.

    The rotation makes the bracket table dense (about 3.8k entries) while
    the metric stays the identity, so every oracle below is basis-free.
    """

    name = "solvable_large"
    n = 20
    pool_size = 128

    def __init__(self, seed: int):
        rng = _rng(seed, 2)
        n = self.n
        self.alpha = rng.uniform(0.5, 2.0, size=(self.pool_size, n - 1))
        q, r = np.linalg.qr(rng.standard_normal((self.pool_size, n, n)))
        self.q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
        self.metric = hg.InvariantMetric.identity(n)
        self.input_hash = _hash(self.name, self.alpha, self.q)

    def prepare(self, i: int):
        j = i % self.pool_size
        c = rotated_solvable_tensor(self.alpha[j], self.q[j])
        n = self.n
        brackets = {}
        for a in range(n):
            for b in range(a + 1, n):
                row = c[a, b]
                nz = np.flatnonzero(row)
                if nz.size:
                    brackets[(a, b)] = {int(d): float(row[d]) for d in nz}
        return j, brackets

    def op(self, inp, call) -> Result:
        _, brackets = inp
        n, metric = self.n, self.metric
        alg = call("lie.build_lie_algebra", hg.build_lie_algebra, n, brackets)
        dec = hg.ReductiveDecomposition(alg, (), tuple(range(n)))
        out = {
            "report": call("structure.classify", hg.classify, dec, metric),
            "r4": call("curvature.curvature_tensor", hg.curvature_tensor, dec, metric),
            "routes": call("curvature.ricci_routes", hg.ricci_routes, dec, metric),
            "einstein": call("curvature.einstein_check", hg.einstein_check, dec, metric),
            "xi": call("curvature.xi_curvatures", hg.xi_curvatures, dec, metric),
        }
        return Result([(dec, metric)], out)

    def check(self, inp, res: Result) -> list:
        alpha = self.alpha[inp[0]]
        total, square = float(alpha.sum()), float((alpha ** 2).sum())
        spec = solvable_ricci_spectrum(alpha)
        out = res.out
        report = out["report"]
        bad = []
        want = {"cyclic": True, "traceless": False, "traceless_cyclic": False,
                "vectorial": False, "naturally_reductive": False, "symmetric": False}
        bad += [f"{name}: got {getattr(report, name)}" for name, v in want.items()
                if getattr(report, name) != v]
        if not _close(np.linalg.norm(report.eta), total):
            bad.append("|eta| != sum alpha")
        traced = np.einsum("xaya->xy", out["r4"])
        if not _close(np.sort(_spectrum(traced)), spec):
            bad.append("spectrum of the traced curvature tensor")
        for route, ric in out["routes"].items():
            if not _close(np.sort(_spectrum(ric)), spec):
                bad.append(f"spectrum of ricci route {route}")
        einstein = out["einstein"]
        if einstein.is_einstein or not _close(einstein.einstein_constant, spec.sum() / self.n):
            bad.append("einstein report")
        xi = out["xi"]
        if not _close(sum(xi.sectional), -square, scale=square):
            bad.append(f"sum K(d_i, xi) = {sum(xi.sectional)}, want {-square}")
        if not _close(xi.c, total) or xi.radial_residual > RTOL * max(1.0, square):
            bad.append("xi report")
        return bad


# --- catalog_report -----------------------------------------------------


CATALOG_BUILDERS = ("milnor3", "g", "so2_heisenberg", "r_heisenberg",
                    "b2_product", "b4_product", "su21_a3ii", "sp11_a3iii")
_POS = np.linspace(0.5, 2.0, 7)
_BLOCK = np.linspace(0.25, 2.0, 8)


def _catalog_params(name: str, j: int, rng) -> dict:
    """Parameters of the j-th space of one builder, from seeded grids.

    The structural choices (which milnor3 points are cyclic, the length
    of alpha, the sign of b4_product) follow j, so every seed has the
    same mix of work.
    """
    pick = lambda grid: float(rng.choice(grid))  # noqa: E731
    if name == "milnor3":
        while True:
            k = rng.integers(-5, 6, size=3)
            if j % 2 == 0:
                k[2] = -(k[0] + k[1])
            if abs(k[2]) <= 5 and (j % 2 == 0) == (k.sum() == 0):
                return {"lam": [0.6 * float(v) for v in k]}
    if name == "g":
        return {"alpha": [pick(_POS) for _ in range(1 + j % 3)]}
    if name == "so2_heisenberg":
        return {"lam3": pick(_POS)}
    if name == "r_heisenberg":
        return {"alpha": pick(_POS) * (1 if j % 2 else -1), "lam3": pick(_POS)}
    if name == "b2_product":
        return {"rho": pick(_POS), "sigma": pick(_POS), "lam": pick(_POS)}
    if name == "b4_product":
        return {"alpha": pick(_POS), "c": pick(_POS), "sign": 1 if j % 2 else -1}
    if name == "su21_a3ii":
        return {"lam": pick(_BLOCK), "mu": pick(_BLOCK)}
    if name == "sp11_a3iii":
        return {"mu": pick(_BLOCK)}
    raise ValueError(f"unknown builder {name}")


def _family_metrics(name: str, params: dict):
    """Block coefficients on the cyclic family and 0.15 off it."""
    if name == "su21_a3ii":
        lam, mu = params["lam"], params["mu"]
        return [-(lam + mu), lam, mu], [-(lam + mu) + 0.15, lam, mu]
    mu = params["mu"]
    return [-2.0 * mu, mu], [-2.0 * mu + 0.15, mu]


@dataclass
class CatalogSpace:
    path: str
    builder: str
    params: dict
    expected: dict
    eta: np.ndarray
    xi_c: float
    planes: np.ndarray  # (4, 2, n) m-index basis coordinates
    pairs: np.ndarray   # (8, 2, n) frame coordinates


class CatalogReport:
    """One catalog space per op, read from a space-JSON file."""

    name = "catalog_report"
    per_builder = 16
    n_planes = 4
    n_pairs = 8

    def __init__(self, seed: int, workdir: str):
        rng = _rng(seed, 3)
        os.makedirs(workdir, exist_ok=True)
        spaces = []
        blobs = []
        for b, builder in enumerate(CATALOG_BUILDERS):
            for j in range(self.per_builder):
                params = _catalog_params(builder, j, rng)
                entry = hg.build(builder, **params)
                doc = json.dumps(hg.space_to_dict(
                    entry.decomposition, entry.metric, entry.grading,
                    name=entry.label), indent=2)
                path = os.path.join(workdir, f"space-{b}-{j:02d}.json")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(doc)
                exp = entry.expected
                eta = np.asarray(exp.eta, dtype=float)
                gram = np.asarray(entry.metric.matrix)
                n = gram.shape[0]
                spaces.append(CatalogSpace(
                    path=path, builder=builder, params=params,
                    expected={name: bool(getattr(exp, name)) for name in (
                        "cyclic", "traceless", "traceless_cyclic", "vectorial",
                        "naturally_reductive", "symmetric")},
                    eta=eta,
                    xi_c=float(np.sqrt(eta @ np.linalg.solve(gram, eta))),
                    planes=rng.standard_normal((self.n_planes, 2, n)),
                    pairs=rng.standard_normal((self.n_pairs, 2, n)),
                ))
                blobs += [doc.encode(), spaces[-1].planes, spaces[-1].pairs]
        self.spaces = [spaces[i] for i in rng.permutation(len(spaces))]
        self.pool_size = len(self.spaces)
        self.input_hash = _hash(self.name, *blobs, [os.path.basename(s.path) for s in self.spaces])

    def prepare(self, i: int):
        return self.spaces[i % self.pool_size]

    def op(self, sp: CatalogSpace, call) -> Result:
        space = call("io.load_space", hg.load_space, sp.path)
        dec, metric = space.decomposition, space.metric
        out = {
            "report": call("structure.classify", hg.classify, dec, metric),
            "r4": call("curvature.curvature_tensor", hg.curvature_tensor, dec, metric),
            "routes": call("curvature.ricci_routes", hg.ricci_routes, dec, metric),
            "einstein": call("curvature.einstein_check", hg.einstein_check, dec, metric),
        }
        out["sectional"] = [
            call("curvature.sectional_curvature", hg.sectional_curvature,
                 dec, metric, x, y) for x, y in sp.planes]
        out["general"] = [
            call("curvature.curvature_diagonal_general", hg.curvature_diagonal_general,
                 dec, metric, x, y) for x, y in sp.pairs]
        if sp.expected["cyclic"]:
            out["cyclic"] = [
                call("curvature.cyclic_curvature_diagonal", hg.cyclic_curvature_diagonal,
                     dec, metric, x, y) for x, y in sp.pairs]
        try:
            out["xi"] = call("curvature.xi_curvatures", hg.xi_curvatures, dec, metric,
                             expected=(hg.NotCyclic, hg.UnimodularInput))
        except (hg.NotCyclic, hg.UnimodularInput) as exc:
            out["xi"] = type(exc).__name__
        if space.grading is not None:
            alg, grading = space.algebra, space.grading
            on, off = _family_metrics(sp.builder, sp.params)
            out["family"] = call("spectrum.solve_cyclic", hg.solve_cyclic, alg, grading)
            g_on = call("spectrum.cyclic_metric", hg.cyclic_metric, alg, grading, on)
            g_off = call("spectrum.cyclic_metric", hg.cyclic_metric, alg, grading, off)
            out["on"] = call("structure.classify", hg.classify, dec, g_on)
            out["off"] = call("structure.classify", hg.classify, dec, g_off)
        return Result([(dec, metric)], out)

    def check(self, sp: CatalogSpace, res: Result) -> list:
        out = res.out
        report = out["report"]
        bad = [f"{name}: got {getattr(report, name)}, want {v}"
               for name, v in sp.expected.items() if getattr(report, name) != v]
        if not _close(report.eta, sp.eta):
            bad.append(f"eta {report.eta} != {tuple(sp.eta)}")

        r4 = out["r4"]
        r_scale = float(np.abs(r4).max()) if r4.size else 0.0
        traced = np.einsum("xaya->xy", r4)
        for route, ric in out["routes"].items():
            if not _close(ric, traced, scale=r_scale):
                bad.append(f"ricci route {route} != trace of R4")
        if sp.builder == "milnor3":
            if not _close(out["einstein"].ricci, milnor_ricci(sp.params["lam"])):
                bad.append("milnor ricci")
        elif sp.builder == "g":
            if not _close(np.sort(_spectrum(out["einstein"].ricci)),
                          solvable_ricci_spectrum(sp.params["alpha"])):
                bad.append("g(alpha) ricci spectrum")
        n = r4.shape[0]
        if not _close(out["einstein"].einstein_constant, np.trace(traced) / n, scale=r_scale):
            bad.append("einstein constant")

        lower = np.linalg.cholesky(np.asarray(res.spaces[0][1].matrix))
        for (x, y), k in zip(sp.planes, out["sectional"]):
            xf, yf = lower.T @ x, lower.T @ y
            area2 = (xf @ xf) * (yf @ yf) - (xf @ yf) ** 2
            num = np.einsum("a,b,c,d,abcd->", xf, yf, xf, yf, r4)
            scale = r_scale * (xf @ xf) * (yf @ yf) / area2
            if not _close(k, num / area2, scale=scale, rtol=DIAG_RTOL):
                bad.append("sectional curvature != R4 on the plane")
        for route in ("general", "cyclic"):
            for (x, y), v in zip(sp.pairs, out.get(route, ())):
                num = np.einsum("a,b,c,d,abcd->", x, y, x, y, r4)
                if not _close(v, num, scale=r_scale * (x @ x) * (y @ y), rtol=DIAG_RTOL):
                    bad.append(f"{route} curvature diagonal != R4")

        xi = out["xi"]
        if not sp.expected["cyclic"]:
            want_xi = "NotCyclic"
        elif not sp.eta.any():
            want_xi = "UnimodularInput"
        else:
            want_xi = "report"
        got_xi = xi if isinstance(xi, str) else "report"
        if got_xi != want_xi:
            bad.append(f"xi_curvatures gave {got_xi}, want {want_xi}")
        elif want_xi == "report":
            if not _close(xi.c, sp.xi_c) or xi.radial_residual > RTOL * max(1.0, r_scale):
                bad.append("xi report")
            if sp.builder == "g":
                square = float(np.sum(np.square(sp.params["alpha"])))
                if not _close(sum(xi.sectional), -square, scale=square):
                    bad.append("sum K(d_i, xi) of g(alpha)")

        if sp.builder in ("su21_a3ii", "sp11_a3iii"):
            fam = out["family"]
            if sp.builder == "su21_a3ii":
                row = np.asarray(fam.constraints)
                ok = (fam.feasible and fam.dimension == 2 and row.shape == (1, 3)
                      and _close(row[0] / row[0, 0], [1.0, 1.0, 1.0]))
            else:
                ray = np.asarray(fam.null_basis)[:, 0]
                ok = fam.feasible and fam.dimension == 1 and _close(ray[0] / ray[1], -2.0)
            if not ok:
                bad.append(f"cyclic solution family {fam.description}")
            if not out["on"].cyclic or out["off"].cyclic:
                bad.append("on/off-family cyclic decision")
        return bad


# --- verify_all ---------------------------------------------------------


class VerifyAll:
    """One run_all(seed=s_op) over the default catalog per op."""

    name = "verify_all"
    pool_size = 1024

    def __init__(self, seed: int):
        rng = _rng(seed, 4)
        self.seeds = rng.integers(0, 2 ** 31 - 1, size=self.pool_size)
        self.entries = hg.default_entries()
        self.input_hash = _hash(self.name, self.seeds)

    def prepare(self, i: int) -> int:
        return int(self.seeds[i % self.pool_size])

    def op(self, s_op: int, call) -> Result:
        report = call("verify.run_all", hg.run_all, seed=s_op)
        return Result([(e.decomposition, e.metric) for e in self.entries],
                      {"report": report})

    def check(self, s_op: int, res: Result) -> list:
        report = res.out["report"]
        bad = [f"{r.name}: {r.detail}" for r in report.results if not r.passed]
        if len(report.results) != VERIFY_CHECKS:
            bad.append(f"{len(report.results)} checks, want {VERIFY_CHECKS}")
        return bad


WORKLOADS = {
    "milnor_sweep": MilnorSweep,
    "solvable_large": SolvableLarge,
    "catalog_report": CatalogReport,
    "verify_all": VerifyAll,
}


def make(name: str, seed: int, workdir: str):
    """Build a workload's inputs from the seed."""
    if name == "catalog_report":
        return CatalogReport(seed, workdir)
    return WORKLOADS[name](seed)
