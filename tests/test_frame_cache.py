"""A Frame builds each derived tensor once, shares it, and never caches a failure."""

import numpy as np
import pytest

import homgeo
from homgeo.catalog import build
from homgeo.curvature import curvature_tensor, einstein_check, levi_civita, ricci_routes
from homgeo.errors import ConsistencyError, InvalidMetric
from homgeo.reductive import Frame, as_frame
from homgeo.structure import classify, homogeneous_structure
from homgeo.verify import run_all


def milnor_frame():
    entry = build("milnor3", lam=(1, 2, -3))
    return Frame(entry.decomposition, entry.metric)


def test_derived_tensors_are_shared():
    frame = milnor_frame()
    assert curvature_tensor(frame) is curvature_tensor(frame)
    assert levi_civita(frame) is frame.gamma
    assert homogeneous_structure(frame).components is frame.s
    assert classify(frame).norms == frame.types.norms
    assert einstein_check(frame).ricci is frame.ricci_routes["trace"]


def test_derived_arrays_are_read_only():
    frame = milnor_frame()
    arrays = [curvature_tensor(frame), levi_civita(frame), frame.u, frame.rc,
              frame.killing_m, frame.s, *ricci_routes(frame).values()]
    for a in arrays:
        assert a.flags.writeable is False
    with pytest.raises(ValueError):
        curvature_tensor(frame)[0, 0, 0, 0] = 1.0


def test_ricci_routes_returns_a_fresh_dict():
    frame = milnor_frame()
    routes = ricci_routes(frame)
    names = sorted(routes)
    routes.pop("trace")
    routes["bogus"] = np.eye(3)
    again = ricci_routes(frame)
    assert sorted(again) == names
    assert again["trace"] is frame.ricci_routes["trace"]
    with pytest.raises(TypeError):
        frame.ricci_routes["bogus"] = np.eye(3)


def _run_with_failing(monkeypatch, prop):
    def fail(self):
        raise ConsistencyError(f"injected failure in Frame.{prop}")

    monkeypatch.setattr(Frame, prop, property(fail))
    report = run_all(entries=[build("milnor3", lam=(1, 2, -3))])
    return {r.name.split("::", 1)[1]: r for r in report.results}


def test_failing_curvature_tensor_fails_its_checks(monkeypatch):
    results = _run_with_failing(monkeypatch, "r4")
    for name in ("curvature_symmetries", "diagonal_routes"):
        assert not results[name].passed, name
        assert "ConsistencyError" in results[name].detail


def test_failing_ricci_routes_fails_its_check(monkeypatch):
    results = _run_with_failing(monkeypatch, "ricci_routes")
    assert not results["ricci_routes"].passed
    assert "ConsistencyError" in results["ricci_routes"].detail


READERS = ("levi_civita", "curvature_tensor", "ricci_routes", "ricci_tensor",
           "scalar_curvature", "einstein_check", "xi_curvatures", "classify",
           "homogeneous_structure", "closedness_residual", "foliation_data")
PLANE_READERS = ("curvature_diagonal_general", "cyclic_curvature_diagonal",
                 "sectional_curvature")


@pytest.mark.parametrize("name", READERS + PLANE_READERS)
def test_readers_take_no_tolerance(name):
    # a space's tolerance is set on its Frame and nowhere else
    frame = milnor_frame()
    plane = np.eye(3)[:2] if name in PLANE_READERS else ()
    with pytest.raises(TypeError):
        getattr(homgeo, name)(frame, None, *plane, tol=10.0)


def test_frame_tolerance_decides():
    entry = build("milnor3", lam=(1, 2, -3))
    assert not classify(Frame(entry.decomposition, entry.metric)).symmetric
    assert classify(Frame(entry.decomposition, entry.metric, 10.0)).symmetric
    with pytest.raises(TypeError):
        as_frame(entry.decomposition, entry.metric, tol=10.0)


def test_missing_metric_is_invalid():
    dec = build("milnor3", lam=(1, 2, -3)).decomposition
    calls = (lambda: Frame(dec, None), lambda: Frame(dec, np.eye(3)),
             lambda: classify(dec), lambda: curvature_tensor(dec))
    for call in calls:
        with pytest.raises(InvalidMetric):
            call()
