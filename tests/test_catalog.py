from dataclasses import fields, replace
from itertools import product

import numpy as np
import pytest

from homgeo import verify
from homgeo.catalog import (
    _SP11,
    _SU21,
    CatalogEntry,
    ExpectedClass,
    build,
    default_entries,
    list_entries,
)
from homgeo.config import DEFAULT_TOL
from homgeo.curvature import _r4_pair
from homgeo.errors import ParamOutOfRange, UnknownEntry
from homgeo.io import SpaceFile, space_from_dict, space_to_dict
from homgeo.lie import build_lie_algebra, killing_form
from homgeo.reductive import Frame, InvariantMetric, ReductiveDecomposition
from homgeo.structure import ClassificationReport, classify
from homgeo.verify import _check_grading_relations, _model_checks, run_all


# the entries whose curvature tensor has a nonzero commutator term: on
# the other three (both b4_product entries and g(alpha=[1.0])) the flip
# changes nothing
SCALING_FAILURES_WITH_THE_COMMUTATOR_FLIPPED = [
    "b2_product(rho=1.0,sigma=2.0,lam=1.5)::scaling_covariance",
    "g(alpha=[0.5, 1.0, 2.0])::scaling_covariance",
    "g(alpha=[1.0, -1.0])::scaling_covariance",
    "g(alpha=[1.0, 1.0])::scaling_covariance",
    "milnor3(lam=[1.0, 0.0, -1.0])::scaling_covariance",
    "milnor3(lam=[1.0, 1.0, 1.0])::scaling_covariance",
    "milnor3(lam=[1.0, 2.0, -3.0])::scaling_covariance",
    "milnor3(lam=[2.0, 1.0, 1.0])::scaling_covariance",
    "r_heisenberg(alpha=1.0,lam3=1.0)::scaling_covariance",
    "so2_heisenberg(lam3=1.0)::scaling_covariance",
    "sp11_a3iii(mu=1.0)::scaling_covariance",
    "su21_a3ii(lam=1.0,mu=1.0)::scaling_covariance",
]

ALL_NAMES = [
    "b2_product",
    "b4_product",
    "g",
    "milnor3",
    "r_heisenberg",
    "so2_heisenberg",
    "sp11_a3iii",
    "su21_a3ii",
]


def test_listing():
    assert list_entries() == ALL_NAMES


# points away from the defaults, reaching every branch of each builder's
# expected-class rules: abelian, zero-sum, equal-coefficient and generic
GRID = (
    [("milnor3", {"lam": lam}) for lam in product((-1.0, 0.0, 1.0, 2.0), repeat=3)]
    + [("g", {"alpha": alpha}) for alpha in [
        (1.0,), (2.0,), (-1.0,), (1.0, 1.0), (1.0, -1.0), (0.5, 1.0, 2.0),
        (1.0, 1.0, -2.0), (0.0, 0.0), (3.0, 3.0, 3.0)]]
    + [("so2_heisenberg", {"lam3": v}) for v in (0.25, 2.0, 7.5)]
    + [("r_heisenberg", {"alpha": a, "lam3": v})
       for a, v in [(-0.5, 2.0), (3.0, 0.5), (-2.0, 1.0)]]
    + [("b2_product", {"rho": r, "sigma": s, "lam": v})
       for r, s, v in [(1.0, -3.0, 0.5), (-2.0, 0.5, 2.0), (0.5, 0.5, 3.0)]]
    + [("b4_product", {"alpha": a, "c": c, "sign": sign})
       for a, c in [(-0.5, 2.0), (2.0, 0.5)] for sign in (1, -1)]
    + [("su21_a3ii", {"lam": v, "mu": w}) for v, w in [(0.5, 2.0), (3.0, 0.25), (2.0, 2.0)]]
    + [("sp11_a3iii", {"mu": v}) for v in (0.25, 0.75, 4.0)]
)


def test_default_entries_match_expected_labels():
    entries = default_entries()
    assert len(entries) == 15
    labels = [e.label for e in entries]
    assert len(set(labels)) == len(labels)
    assert len(GRID) == 92
    for entry in entries + [build(name, **params) for name, params in GRID]:
        report = classify(entry.decomposition, entry.metric)
        assert entry.expected.mismatches(report) == [], entry.label


def test_entries_are_built_at_the_default_tolerance():
    for entry in default_entries():
        assert entry.algebra.tol == DEFAULT_TOL, entry.label


def test_derived_fields_are_not_stored():
    stored = {f.name for cls in (ExpectedClass, CatalogEntry, ClassificationReport, SpaceFile)
              for f in fields(cls)}
    assert not {"traceless_cyclic", "algebra"} & stored
    for entry in default_entries():
        assert entry.algebra is entry.decomposition.algebra


def test_expected_eta_against_frame():
    for entry in default_entries():
        frame = Frame(entry.decomposition, entry.metric)
        assert np.allclose(frame.eta, entry.expected.eta, atol=1e-9), entry.label


def test_grading_only_on_quotients():
    for entry in default_entries():
        has_isotropy_family = entry.name in ("su21_a3ii", "sp11_a3iii")
        assert (entry.grading is not None) == has_isotropy_family, entry.label


def test_graded_entries_carry_a_span_table():
    # without a table the generic grading check would have nothing to compare
    for entry in default_entries():
        if entry.grading is not None:
            nb = len(entry.grading.blocks)
            assert entry.spans, entry.label
            for a, b, part in entry.spans:
                assert 0 <= a <= b < nb and 0 <= part <= nb, entry.label


def test_grading_check_reads_the_span_table():
    entry = build("su21_a3ii", lam=1.0, mu=1.0)
    frame = Frame(entry.decomposition, entry.metric)
    [ok] = _check_grading_relations(entry, frame, None)
    assert ok.passed
    moved = tuple((0, 1, 1) if t == (0, 1, 2) else t for t in entry.spans)
    assert moved != entry.spans
    [bad] = _check_grading_relations(replace(entry, spans=moved), frame, None)
    assert not bad.passed
    assert bad.detail.startswith("residual 1.000e+00")
    [bare] = _check_grading_relations(replace(entry, spans=None), frame, None)
    assert not bare.passed


@pytest.mark.parametrize("factor", [1.0, 2.0])
def test_foliation_mean_curvature_reads_the_second_fundamental_form(monkeypatch, factor):
    # h_mean is compared with the mean of h_coeff, so an h_coeff off by a
    # factor fails the check
    foliation = Frame.foliation.func

    def scaled(frame):
        fol = foliation(frame)
        return replace(fol, h_coeff=factor * fol.h_coeff)

    monkeypatch.setattr(Frame, "foliation", property(scaled))
    report = run_all(entries=[build("g", alpha=(0.5, 1.0, 2.0))])
    result, = (r for r in report.results if r.name.endswith("::foliation_mean_curvature"))
    assert result.passed is (factor == 1.0)


def test_run_all_on_a_one_dimensional_space():
    # R: a 1-dimensional m has no 2-plane, so the scaling check does not
    # apply there, as the foliation check does not on unimodular spaces
    line = ReductiveDecomposition(build_lie_algebra(1, {}), (), (0,))
    expected = ExpectedClass(cyclic=True, traceless=True, vectorial=True,
                             naturally_reductive=True, symmetric=True, eta=(0.0,))
    entry = CatalogEntry("line", {}, line, InvariantMetric.identity(1), expected, "R")
    report = run_all(entries=[entry])
    names = [r.name for r in report.results if r.name.startswith("line()::")]
    assert all(r.passed for r in report.results)
    assert "line()::classification" in names
    assert not any("scaling" in name for name in names)


def test_scaling_check_builds_no_r4_on_the_rescaled_spaces(monkeypatch):
    built = []

    def spy(dec, metric, tol):
        frame = Frame(dec, metric, tol)
        built.append(frame)
        return frame

    monkeypatch.setattr(verify, "Frame", spy)
    for entry in default_entries():
        frame = Frame(entry.decomposition, entry.metric, 1e-7)
        built.clear()
        [result] = verify._check_scaling_covariance(entry, frame, np.random.default_rng(0))
        assert result.passed, (entry.label, result.detail)
        # both rescaled spaces go through their own Frame at the run's tolerance
        assert [f.tol for f in built] == [1e-7, 1e-7]
        for t, scaled in zip((0.5, 2.0), built):
            assert np.array_equal(scaled.metric.matrix, t * entry.metric.matrix)
            assert "gamma" in vars(scaled) and "r4" not in vars(scaled)


def test_scaling_check_fails_with_the_commutator_sign_flipped(monkeypatch):
    def flipped(frame, x, y):
        gx, gy = np.tensordot(x, frame.gamma, 1), np.tensordot(y, frame.gamma, 1)
        return _r4_pair(frame, x, y) - 2.0 * float(x @ (gx @ gy - gy @ gx) @ y)

    monkeypatch.setattr(verify, "_r4_pair", flipped)
    report = run_all()
    failed = sorted(r.name for r in report.results if not r.passed)
    assert failed == SCALING_FAILURES_WITH_THE_COMMUTATOR_FLIPPED


def test_model_checks_read_the_cone():
    assert all(r.passed for r in _model_checks())
    names = {r.name: r.passed for r in _model_checks((replace(_SP11, cone=((-3.0, 1.0),)),))}
    assert names == {"models::sp11_theta_split": True,
                     "models::sp11_cyclic_family": False,
                     "models::flat_section_witness": True}
    # one direction inside the su(2,1) cone does not span it, nor does it twice
    for cone in (((-2.0, 1.0, 1.0),), ((-2.0, 1.0, 1.0), (-4.0, 2.0, 2.0))):
        names = {r.name: r.passed for r in _model_checks((replace(_SU21, cone=cone),))}
        assert not names["models::su21_cyclic_family"], cone


def test_block_builders_are_cone_coordinates():
    su = build("su21_a3ii", lam=0.5, mu=2.0)
    sp = build("sp11_a3iii", mu=0.75)
    for entry, lam in ((su, [-2.5, 0.5, 2.0]), (sp, [-1.5, 0.75])):
        blocks = entry.grading.blocks
        b = killing_form(entry.algebra)
        m = entry.decomposition.m_indices
        for coeff, blk in zip(lam, blocks):
            pos = [m.index(i) for i in blk]
            assert np.array_equal(entry.metric.matrix[np.ix_(pos, pos)],
                                  coeff * b[np.ix_(blk, blk)]), entry.label


def test_unknown_entry_and_params():
    with pytest.raises(UnknownEntry):
        build("nope")
    with pytest.raises(ParamOutOfRange):
        build("milnor3")  # missing lam
    with pytest.raises(ParamOutOfRange):
        build("milnor3", lam=(1.0, 1.0, 1.0), extra=2)
    with pytest.raises(ParamOutOfRange):
        build("milnor3", lam=(1.0, 1.0))
    with pytest.raises(ParamOutOfRange):
        build("g", alpha=())
    with pytest.raises(ParamOutOfRange):
        build("so2_heisenberg", lam3=-1.0)
    with pytest.raises(ParamOutOfRange):
        build("r_heisenberg", alpha=0.0, lam3=1.0)
    with pytest.raises(ParamOutOfRange):
        build("b2_product", rho=1.0, sigma=-1.0, lam=1.0)
    with pytest.raises(ParamOutOfRange):
        build("b4_product", alpha=1.0, c=1.0, sign=2)
    with pytest.raises(ParamOutOfRange):
        build("su21_a3ii", lam=-1.0, mu=1.0)
    with pytest.raises(ParamOutOfRange):
        build("sp11_a3iii", mu=0.0)


def test_quotient_entries_are_cyclic_with_isotropy():
    su = build("su21_a3ii", lam=0.5, mu=2.0)
    assert su.decomposition.dim_k == 2
    assert su.decomposition.dim_m == 6
    report = classify(su.decomposition, su.metric)
    assert report.cyclic and not report.naturally_reductive
    sp = build("sp11_a3iii", mu=0.75)
    assert sp.decomposition.dim_k == 4
    assert sp.decomposition.dim_m == 6
    report = classify(sp.decomposition, sp.metric)
    assert report.cyclic and not report.naturally_reductive


def test_closedness_over_catalog():
    for entry in default_entries():
        frame = Frame(entry.decomposition, entry.metric)
        residual = np.abs(np.einsum("abc,c->ab", frame.lte, frame.eta)).max()
        assert residual <= 1e-10, entry.label


def test_serialization_round_trip():
    for entry in default_entries():
        doc = space_to_dict(entry.decomposition, entry.metric,
                            grading=entry.grading, name=entry.label)
        space = space_from_dict(doc)
        assert space.name == entry.label
        report = classify(space.decomposition, space.metric)
        assert entry.expected.mismatches(report) == [], entry.label
        if entry.grading is not None:
            assert space.grading.blocks == entry.grading.blocks
            assert space.grading.signs == entry.grading.signs


def test_provenance_strings_present():
    for entry in default_entries():
        assert isinstance(entry.provenance, str) and entry.provenance
