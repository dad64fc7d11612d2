"""The names and call forms perfbench/README.md lists as the benchmark's surface.

Each is imported from the top-level package and called the way the
benchmark calls it, so a refactor that breaks one fails here.
"""

import inspect
import json

import numpy as np
import pytest

import homgeo
from homgeo import (
    ClassificationReport,
    ExpectedClass,
    Frame,
    InvariantMetric,
    LieAlgebra,
    NotCyclic,
    ReductiveDecomposition,
    UnimodularInput,
    build,
    build_lie_algebra,
    classify,
    curvature_diagonal_general,
    curvature_tensor,
    cyclic_curvature_diagonal,
    cyclic_metric,
    default_entries,
    einstein_check,
    load_space,
    ricci_routes,
    run_all,
    sectional_curvature,
    solve_cyclic,
    space_to_dict,
    xi_curvatures,
)
from homgeo.structure import CLASS_FIELDS


def test_algebra_and_space_constructors():
    alg = build_lie_algebra(3, {(1, 2): {0: 1.0}, (2, 0): {1: 2.0}, (0, 1): {2: -3.0}})
    dec = ReductiveDecomposition(alg, (), (0, 1, 2))
    metric = InvariantMetric.identity(3)
    assert np.array_equal(metric.matrix, np.eye(3))
    assert InvariantMetric(np.diag([1.0, 2.0, 3.0])).matrix.shape == (3, 3)
    assert Frame(dec, metric).n == 3


def test_readers_in_dec_metric_form():
    entry = build("su21_a3ii", lam=1.0, mu=1.0)
    dec, metric = entry.decomposition, entry.metric
    n = dec.dim_m

    report = classify(dec, metric)
    for name in CLASS_FIELDS:
        assert getattr(report, name) == getattr(entry.expected, name)
    assert np.allclose(report.eta, entry.expected.eta)

    assert curvature_tensor(dec, metric).shape == (n, n, n, n)
    assert isinstance(ricci_routes(dec, metric), dict)
    ein = einstein_check(dec, metric)
    assert ein.ricci.shape == (n, n)
    assert isinstance(ein.einstein_constant, float)
    assert isinstance(ein.is_einstein, bool)

    x, y = np.eye(n)[:2]
    assert np.isfinite(sectional_curvature(dec, metric, x, y))
    general = curvature_diagonal_general(dec, metric, x, y)
    assert cyclic_curvature_diagonal(dec, metric, x, y) == pytest.approx(general, abs=1e-8)
    with pytest.raises((NotCyclic, UnimodularInput)):
        xi_curvatures(dec, metric)

    family = solve_cyclic(entry.algebra, entry.grading)
    assert family.feasible and family.dimension == 2
    assert family.constraints.shape == (1, 3)
    assert family.null_basis.shape == (3, 2)
    assert family.description == "2-parameter cone"
    on = cyclic_metric(entry.algebra, entry.grading, family.sample)
    assert classify(dec, on).cyclic


def test_xi_curvatures_report_fields():
    entry = build("g", alpha=(0.5, 1.0, 2.0))
    rep = xi_curvatures(entry.decomposition, entry.metric)
    assert rep.c == pytest.approx(3.5)
    assert len(rep.sectional) == 3
    assert rep.radial_residual <= 1e-9


def test_space_files_and_catalog(tmp_path):
    entry = build("su21_a3ii", lam=1.0, mu=1.0)
    assert entry.label and entry.grading is not None
    path = tmp_path / "space.json"
    doc = space_to_dict(entry.decomposition, entry.metric, entry.grading, name=entry.label)
    path.write_text(json.dumps(doc))
    space = load_space(str(path))
    assert space.algebra.dim == entry.algebra.dim
    assert space.decomposition.m_indices == entry.decomposition.m_indices
    assert np.allclose(space.metric.matrix, entry.metric.matrix)
    assert space.grading.blocks == entry.grading.blocks
    assert len(default_entries()) == 15


def test_run_all_report():
    report = run_all(seed=3)
    assert report.ok
    assert len(report.results) == 176
    for r in report.results:
        assert isinstance(r.name, str) and r.passed is True and isinstance(r.detail, str)


def test_tolerance_enters_at_build_points_only():
    # an algebra keeps the tolerance it was built with and a space the
    # one its Frame was built with; no other function takes its own.
    # LieAlgebra's and ClassificationReport's tol are record fields that
    # build_lie_algebra and classify fill.
    records = (LieAlgebra, ClassificationReport)
    takes_tol = {
        name for name in homgeo.__all__
        if callable(obj := getattr(homgeo, name)) and obj not in records
        and not (inspect.isclass(obj) and issubclass(obj, Exception))
        and "tol" in inspect.signature(obj).parameters
    }
    if "tol" in inspect.signature(ExpectedClass.mismatches).parameters:
        takes_tol.add("ExpectedClass.mismatches")
    assert takes_tol == {
        "build_lie_algebra", "from_tensor", "load_algebra", "load_space",
        "Frame", "run_all",
    }
    for record in records:
        assert "tol" in record.__dataclass_fields__
