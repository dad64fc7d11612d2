"""A Frame builds each derived tensor once, shares it, and never caches a failure.

Consecutive (dec, metric) calls on the same two objects share one Frame.
"""

import gc
import sys
import threading
import weakref
from functools import cached_property

import numpy as np
import pytest

import homgeo
from homgeo import reductive
from homgeo.catalog import build, default_entries
from homgeo.curvature import (
    curvature_tensor,
    einstein_check,
    ricci_routes,
    xi_curvatures,
)
from homgeo.errors import ConsistencyError, InvalidMetric, UnimodularInput
from homgeo.lie import unimodular_kernel
from homgeo.reductive import Frame, InvariantMetric, as_frame
from homgeo.structure import classify
from homgeo.verify import run_all


def milnor_frame():
    entry = build("milnor3", lam=(1, 2, -3))
    return Frame(entry.decomposition, entry.metric)


def test_derived_tensors_are_shared():
    frame = milnor_frame()
    assert curvature_tensor(frame) is curvature_tensor(frame)
    assert classify(frame).norms == frame.types.norms
    assert einstein_check(frame).ricci is frame.ricci_routes["trace"]


def test_derived_arrays_are_read_only():
    frame = milnor_frame()
    arrays = [curvature_tensor(frame), frame.gamma, frame.u,
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


READERS = ("curvature_tensor", "ricci_routes", "einstein_check", "xi_curvatures", "classify",
           "closedness_residual")
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


def test_a_frame_refuses_a_metric():
    # a Frame carries its metric: one passed beside it would be ignored
    frame = milnor_frame()
    with pytest.raises(InvalidMetric):
        einstein_check(frame, InvariantMetric(4.0 * np.eye(3)))
    with pytest.raises(InvalidMetric):
        as_frame(frame, frame.metric)
    assert as_frame(frame) is frame


# --- consecutive (dec, metric) calls share one Frame --------------------


def g_space():
    """A fresh cyclic, non-unimodular space: every reader below applies."""
    entry = build("g", alpha=(0.5, 1.0, 2.0))
    return entry.decomposition, entry.metric


def count_builds(monkeypatch, fail=None):
    """Count Frame builds and first accesses of r4, ricci_routes and foliation.

    With fail set, that property raises after counting its attempt.
    """
    counts = {"Frame": 0, "r4": 0, "ricci_routes": 0, "foliation": 0}
    init = Frame.__init__

    def counting_init(self, *args, **kwargs):
        counts["Frame"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Frame, "__init__", counting_init)
    for name in ("r4", "ricci_routes", "foliation"):
        def counted(self, name=name, func=Frame.__dict__[name].func):
            counts[name] += 1
            if name == fail:
                raise ConsistencyError(f"injected failure in Frame.{name}")
            return func(self)

        prop = cached_property(counted)
        prop.__set_name__(Frame, name)
        monkeypatch.setattr(Frame, name, prop)
    return counts


def pipeline(dec, metric):
    """The five public calls of one space, in the benchmark's order."""
    return (classify(dec, metric), curvature_tensor(dec, metric),
            ricci_routes(dec, metric), einstein_check(dec, metric),
            xi_curvatures(dec, metric))


def test_one_space_is_built_once(monkeypatch):
    dec, g = g_space()
    counts = count_builds(monkeypatch)
    pipeline(dec, g)
    assert counts == {"Frame": 1, "r4": 1, "ricci_routes": 1, "foliation": 1}


def test_alternating_metrics_match_fresh_frames():
    dec, a = g_space()
    b = InvariantMetric.from_diag([1.0, 2.0, 3.0, 4.0])
    for metric in (a, b, a):
        fresh = Frame(dec, metric)
        assert np.array_equal(curvature_tensor(dec, metric), fresh.r4)
        assert np.array_equal(einstein_check(dec, metric).ricci,
                              einstein_check(fresh).ricci)
        assert classify(dec, metric).norms == classify(fresh).norms


def test_dropped_metrics_never_share_a_frame():
    # each metric dies before the next is made, so the allocator is free to
    # hand the next one the same id(); only identity can tell them apart
    dec, _ = g_space()
    for i in range(200):
        metric = InvariantMetric.from_diag([1.0 + 0.01 * i, 1.0, 2.0, 0.5])
        got = as_frame(dec, metric).gamma
        assert np.array_equal(got, Frame(dec, metric).gamma), i
        del metric, got


def test_a_passed_frame_is_not_kept():
    entry = build("milnor3", lam=(1, 2, -3))
    dec, g = entry.decomposition, entry.metric
    assert classify(Frame(dec, g, 10.0)).symmetric
    assert not classify(dec, g).symmetric


def test_the_slot_lets_dropped_objects_go():
    dec, g = g_space()
    classify(dec, g)
    dead = weakref.ref(dec)
    del dec, g
    classify(*g_space())
    gc.collect()
    assert dead() is None


def test_a_failure_is_not_kept(monkeypatch):
    dec, g = g_space()
    counts = count_builds(monkeypatch, fail="r4")
    for _ in range(3):
        with pytest.raises(ConsistencyError, match="injected"):
            curvature_tensor(dec, g)
    assert counts["Frame"] == 1
    assert counts["r4"] == 3


def test_a_failed_foliation_is_not_kept(monkeypatch):
    # a unimodular space is refused on every call
    frame = milnor_frame()
    for _ in range(2):
        with pytest.raises(UnimodularInput):
            frame.foliation
    dec, g = g_space()
    counts = count_builds(monkeypatch, fail="foliation")

    def foliation(dec, g):
        return as_frame(dec, g).foliation

    for call in (foliation, xi_curvatures, foliation):
        with pytest.raises(ConsistencyError, match="injected"):
            call(dec, g)
    assert counts["Frame"] == 1
    assert counts["foliation"] == 3


def test_run_all_builds_one_foliation_per_non_unimodular_entry(monkeypatch):
    # _check_foliation and the xi_curvatures it calls read one Frame's foliation
    counts = count_builds(monkeypatch)
    assert run_all().ok
    non_unimodular = sum(not unimodular_kernel(e.algebra)[0] for e in default_entries())
    assert non_unimodular == 7
    assert counts["foliation"] == non_unimodular


def test_run_all_builds_three_frames_per_entry_at_its_tolerance(monkeypatch):
    # the entry's own Frame and the scaling check's two rescaled spaces;
    # none of them goes through the (dec, metric) slot
    dec, g = g_space()
    kept = as_frame(dec, g)
    tols = []
    init = Frame.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tols.append(self.tol)

    monkeypatch.setattr(Frame, "__init__", recording_init)
    assert run_all(tol=1e-12).ok
    assert len(tols) == 3 * len(default_entries())
    assert set(tols) == {1e-12}
    assert reductive._last_frame is kept


def test_threads_get_the_frame_of_their_own_objects():
    spaces = [g_space() for _ in range(4)]
    start = threading.Barrier(len(spaces), timeout=60)
    bad = []

    def work(dec, g):
        start.wait()
        for _ in range(300):
            frame = as_frame(dec, g)
            if frame.dec is not dec or frame.metric is not g:
                bad.append(frame)

    threads = [threading.Thread(target=work, args=space) for space in spaces]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not bad
