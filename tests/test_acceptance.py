"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL
line directly to the terminal before asserting, so a full run always
shows ten lines regardless of capture settings.
"""

from time import perf_counter

import numpy as np

from homgeo.catalog import default_entries, sp11_model, su21_model
from homgeo.config import DEFAULT_SEED
from homgeo.curvature import (
    curvature_diagonal_general,
    curvature_tensor,
    cyclic_curvature_diagonal,
    einstein_check,
    sectional_curvature,
    xi_curvatures,
)
from homgeo.lie import (
    build_lie_algebra,
    derivation,
    killing_form,
    semidirect_sum,
    trace_vector,
)
from homgeo.reductive import (
    Frame,
    InvariantMetric,
    ReductiveDecomposition,
    closedness_residual,
)
from homgeo.spectrum import cyclic_metric, grading_decomposition, solve_cyclic
from homgeo.structure import classify, decompose


GRID = np.linspace(-3.0, 3.0, 11)


def _milnor(l1, l2, l3):
    alg = build_lie_algebra(
        3, {(1, 2): {0: l1}, (2, 0): {1: l2}, (0, 1): {2: l3}}
    )
    return ReductiveDecomposition(alg, (), (0, 1, 2)), InvariantMetric.identity(3)


def _g_space(*alpha):
    n = len(alpha) + 1
    alg = build_lie_algebra(n, {(0, i): {i: alpha[i - 1]} for i in range(1, n)})
    return ReductiveDecomposition(alg, (), tuple(range(n))), InvariantMetric.identity(n)


def _emit(capsys, number, ok, description):
    line = f"CRITERION {number:02d} {'PASS' if ok else 'FAIL'}: {description}"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_01_milnor_sweep(capsys):
    start = perf_counter()
    bad = 0
    for l1 in GRID:
        for l2 in GRID:
            for l3 in GRID:
                report = classify(*_milnor(l1, l2, l3))
                want = bool(abs(l1 + l2 + l3) <= 1e-9
                            and (l1, l2, l3) != (0.0, 0.0, 0.0))
                bad += report.traceless_cyclic is not want
    elapsed = perf_counter() - start
    ok = bad == 0 and elapsed < 1.0
    _emit(capsys, 1, ok,
          f"traceless cyclic over the 11^3 grid matches the trace condition "
          f"({bad} mismatches, {elapsed:.2f}s)")


def test_criterion_02_constant_curvature(capsys):
    worst = 0.0
    for n in (2, 3, 4):
        for alpha in (0.5, 1.0, 2.0):
            dec, g = _g_space(*([alpha] * (n - 1)))
            for a in range(n):
                for b in range(a + 1, n):
                    x = np.eye(n)[a]
                    y = np.eye(n)[b]
                    worst = max(worst, abs(
                        sectional_curvature(dec, g, x, y) + alpha**2))
            rep = xi_curvatures(dec, g)
            worst = max(worst, abs(rep.c - (n - 1) * alpha))
            target = -((rep.c / (n - 1)) ** 2)
            worst = max(worst, float(np.abs(np.asarray(rep.sectional) - target).max()))
    ok = worst <= 1e-8
    _emit(capsys, 2, ok,
          f"hyperbolic families have constant curvature -a^2 and "
          f"K(X, xi) = -(c/(n-1))^2 (worst residual {worst:.2e})")


def test_criterion_03_route_equivalence(capsys):
    worst = 0.0
    rng = np.random.default_rng(DEFAULT_SEED)
    for entry in default_entries():
        frame = Frame(entry.decomposition, entry.metric)
        r4 = curvature_tensor(frame)
        is_cyclic = classify(entry.decomposition, entry.metric).cyclic
        n = frame.n
        for _ in range(100):
            x, y = rng.standard_normal((2, n))
            x /= np.linalg.norm(x)
            y /= np.linalg.norm(y)
            from_tensor = float(np.einsum("a,b,c,d,abcd->", x, y, x, y, r4))
            general = curvature_diagonal_general(frame, None, x, y)
            worst = max(worst, abs(general - from_tensor))
            if is_cyclic:
                worst = max(worst, abs(
                    cyclic_curvature_diagonal(frame, None, x, y) - from_tensor))
    ok = worst <= 1e-8
    _emit(capsys, 3, ok,
          f"diagonal curvature routes agree on 100 random unit pairs per "
          f"catalog entry (worst gap {worst:.2e})")


def test_criterion_04_ricci_identities(capsys):
    dec, g = _milnor(1.0, 0.0, -1.0)
    gap_e11 = float(np.abs(einstein_check(dec, g).ricci + killing_form(dec.algebra)).max())

    dec, g = _milnor(1.0, 2.0, -3.0)
    ev = np.linalg.eigvalsh(einstein_check(dec, g).ricci)
    signature_ok = (ev < -1e-9).sum() == 2 and (ev > 1e-9).sum() == 1

    einstein_gap = 0.0
    for alpha in (0.5, 1.0, 2.0):
        rep = einstein_check(*_g_space(alpha))
        einstein_gap = max(einstein_gap, rep.deviation,
                           abs(rep.einstein_constant + alpha**2))
        einstein_gap = max(einstein_gap, 0.0 if rep.is_einstein else 1.0)

    ok = gap_e11 <= 1e-8 and signature_ok and einstein_gap <= 1e-8
    _emit(capsys, 4, ok,
          f"Ric = -B on the trace-free flat solvable case ({gap_e11:.2e}), "
          f"mixed-sign spectrum (-,-,+) {signature_ok}, hyperbolic planes "
          f"Einstein with constant -a^2 ({einstein_gap:.2e})")


def test_criterion_05_closedness(capsys):
    worst = 0.0
    for entry in default_entries():
        worst = max(worst, closedness_residual(entry.decomposition, entry.metric))
    rng = np.random.default_rng(DEFAULT_SEED + 5)
    for _ in range(50):
        k = int(rng.integers(2, 6))
        abelian = build_lie_algebra(k, {})
        deriv = derivation(abelian, np.diag(rng.uniform(0.3, 2.0, size=k)))
        ext = semidirect_sum(deriv, abelian)
        assert np.linalg.norm(trace_vector(ext)) > 0.1  # non-unimodular
        dec = ReductiveDecomposition(ext, (), tuple(range(k + 1)))
        worst = max(worst, closedness_residual(dec, InvariantMetric.identity(k + 1)))
    ok = worst <= 1e-10
    _emit(capsys, 5, ok,
          f"trace form kills m-brackets on the catalog and 50 random "
          f"non-unimodular semidirect sums (worst {worst:.2e})")


def test_criterion_06_no_unimodular_cyclic_einstein(capsys):
    offenders = []
    for entry in default_entries():
        alg = entry.decomposition.algebra
        unimodular = float(np.linalg.norm(trace_vector(alg))) <= 1e-12
        nonabelian = float(np.abs(alg.tensor).max()) > 0
        if not (unimodular and nonabelian):
            continue
        if not classify(entry.decomposition, entry.metric).cyclic:
            continue
        if einstein_check(entry.decomposition, entry.metric).is_einstein:
            offenders.append(entry.label)
    checked = 0
    for l1 in GRID:
        for l2 in GRID:
            for l3 in GRID:
                if abs(l1 + l2 + l3) > 1e-9 or (l1, l2, l3) == (0.0, 0.0, 0.0):
                    continue
                checked += 1
                if einstein_check(*_milnor(l1, l2, l3)).is_einstein:
                    offenders.append(f"milnor({l1:g},{l2:g},{l3:g})")
    ok = not offenders and checked > 0
    _emit(capsys, 6, ok,
          f"no unimodular nonabelian cyclic space is Einstein "
          f"({checked} sweep points, offenders: {offenders or 'none'})")


def test_criterion_07_type_decomposition(capsys):
    rng = np.random.default_rng(DEFAULT_SEED)
    worst = 0.0
    for n in (4, 5):
        for _ in range(100):
            raw = rng.standard_normal((n, n, n))
            s = (raw - raw.transpose(0, 2, 1)) / 2.0
            d = decompose(s)
            parts = (d.s1, d.s2, d.s3)
            worst = max(worst, float(np.abs(d.s1 + d.s2 + d.s3 - s).max()))
            for i in range(3):
                for j in range(i + 1, 3):
                    worst = max(worst, abs(float(np.sum(parts[i] * parts[j]))))
            for slot, comp in zip(("s1", "s2", "s3"), parts):
                again = decompose(comp)
                for name, piece in (("s1", again.s1), ("s2", again.s2),
                                    ("s3", again.s3)):
                    target = comp if name == slot else 0.0
                    worst = max(worst, float(np.abs(piece - target).max()))
    projections_ok = worst <= 1e-10

    agree = True
    reports = [classify(e.decomposition, e.metric) for e in default_entries()]
    reports += [classify(*_milnor(l1, l2, l3))
                for l1 in (-1.0, 0.0, 1.0)
                for l2 in (-1.0, 0.0, 1.0)
                for l3 in (-1.0, 0.0, 2.0)]
    for rep in reports:
        n1, n2, n3 = rep.norms["s1"], rep.norms["s2"], rep.norms["s3"]
        band = 1e-8 * max(1.0, n1, n2, n3)
        agree &= rep.symmetric == (max(n1, n2, n3) <= band)
        agree &= rep.naturally_reductive == (max(n1, n2) <= band)
        agree &= rep.vectorial == (max(n2, n3) <= band)
        agree &= rep.cyclic == (n3 <= band)
        agree &= rep.traceless == (n1 <= band)
        agree &= rep.traceless_cyclic == (
            rep.traceless and rep.cyclic and not rep.symmetric)
    ok = projections_ok and agree
    _emit(capsys, 7, ok,
          f"200 random tensors project cleanly (worst {worst:.2e}) and "
          f"classification booleans agree with component norms ({agree})")


def test_criterion_08_three_symmetric_families(capsys):
    start = perf_counter()
    su_alg, su_grading, _ = su21_model()
    fam = solve_cyclic(su_alg, su_grading)
    row = fam.constraints[0]
    su_ok = (fam.dimension == 2 and fam.feasible
             and fam.constraints.shape == (1, 3)
             and np.allclose(row / row[0], [1.0, 1.0, 1.0]))
    su_dec = grading_decomposition(su_alg, su_grading)
    for lam, mu in ((0.5, 0.5), (1.0, 2.0), (0.25, 1.5)):
        g = cyclic_metric(su_alg, su_grading, [-(lam + mu), lam, mu])
        su_ok &= classify(su_dec, g).cyclic
        g = cyclic_metric(su_alg, su_grading, [-(lam + mu) + 0.15, lam, mu])
        su_ok &= not classify(su_dec, g).cyclic

    sp_alg, sp_grading, _ = sp11_model()
    fam = solve_cyclic(sp_alg, sp_grading)
    ray = fam.null_basis[:, 0]
    sp_ok = (fam.dimension == 1 and fam.feasible
             and abs(ray[0] / ray[1] + 2.0) <= 1e-9)
    sp_dec = grading_decomposition(sp_alg, sp_grading)
    for mu in (0.5, 1.0):
        g = cyclic_metric(sp_alg, sp_grading, [-2.0 * mu, mu])
        sp_ok &= classify(sp_dec, g).cyclic
        g = cyclic_metric(sp_alg, sp_grading, [-2.0 * mu + 0.15, mu])
        sp_ok &= not classify(sp_dec, g).cyclic
    elapsed = perf_counter() - start
    ok = su_ok and sp_ok and elapsed < 5.0
    _emit(capsys, 8, ok,
          f"solution families: two-parameter cone with sum-zero constraint "
          f"({su_ok}) and the 2:1 ray ({sp_ok}), on/off-family classification "
          f"agrees ({elapsed:.2f}s)")


def test_criterion_09_foliation(capsys):
    worst = 0.0
    exact = True
    for a, b in ((1.0, 1.0), (0.5, 2.0), (2.0, -0.5)):
        dec, g = _g_space(a, b)
        frame = Frame(dec, g)
        fol = frame.foliation
        exact &= np.array_equal(fol.h_mean, -0.5 * fol.xi)
        worst = max(worst, float(np.abs(fol.h_coeff - fol.h_coeff.T).max()))
        s_xi = np.einsum("a,abc->bc", fol.xi, frame.s)
        worst = max(worst, float(np.abs(s_xi).max()))
    ok = exact and worst <= 1e-10
    _emit(capsys, 9, ok,
          f"canonical foliation has H = -xi/2 exactly ({exact}), symmetric h "
          f"and S_xi = 0 (worst {worst:.2e})")


def test_criterion_10_verify_suite(capsys):
    from homgeo.verify import run_all

    start = perf_counter()
    report = run_all()
    elapsed = perf_counter() - start
    ok = report.ok and elapsed < 60.0
    _emit(capsys, 10, ok,
          f"full invariant suite: {report.passed_count} checks passed, "
          f"{report.failed_count} failed in {elapsed:.1f}s")
