import math
from collections.abc import Mapping

import numpy as np
import pytest

from homgeo import config, reductive, structure
from homgeo.catalog import _BLOCK_MODELS, build, default_entries, list_entries, su21_model
from homgeo.config import CHECKS, bound, check, tolerance
from homgeo.errors import (
    ConsistencyError,
    HomgeoError,
    InvalidMetric,
    JacobiViolation,
    NotReductive,
    NoWitness,
    ParamOutOfRange,
)
from homgeo.lie import build_lie_algebra, from_tensor, unimodular_kernel
from homgeo.reductive import Frame, InvariantMetric, ReductiveDecomposition
from homgeo.spectrum import BlockGrading, flat_section_witness, solve_cyclic, theta_split
from homgeo.verify import run_all


def test_check_passes_at_its_bound():
    check("model_conjugation", 0.0)
    check("model_conjugation", 1e-9)
    check("model_conjugation", -1.0)


@pytest.mark.parametrize("residual", [math.nan, math.inf, 2e-9])
def test_check_fails_beyond_its_bound_and_on_nan(residual):
    with pytest.raises(ConsistencyError):
        check("model_conjugation", residual)


def test_check_message_carries_both_numbers():
    with pytest.raises(ConsistencyError) as info:
        check("ricci_routes", 2.5e-7, 1.0, 1e-9, ref="trace", route="general")
    assert str(info.value) == ("Ricci routes 'trace' and 'general' disagree: "
                               "residual 2.500e-07 (bound 1.0e-09)")
    with pytest.raises(InvalidMetric, match=r"^metric is not ad_k-invariant: "
                                            r"residual nan \(bound 5\.0e-01\)$"):
        check("ad_k_invariance", math.nan, tol=0.5)


def test_bound_has_two_shapes():
    # tol_scaled: max(tol, rel) * scale; floor: max(tol, rel * scale)
    assert bound("theta_identity", 4.0, 1e-12) == 1e-10 * 4.0
    assert bound("theta_identity", 4.0, 1e-6) == 1e-6 * 4.0
    assert bound("umbilical", 4.0, 1e-12) == 1e-10 * 4.0
    assert bound("umbilical", 4.0, 1e-6) == 1e-6
    assert bound("crosscheck_norms", 2.0, 1e-9) == 50.0 * 1e-9 * 2.0
    assert bound("split_skew", 3.0, 1.0) == 1e-11 * 3.0  # weight 0 ignores tol


def test_rows_hold_constants_and_an_error_class():
    for name, row in CHECKS.items():
        assert row.rel >= 0.0 and row.weight in (0, 1, 50), name
        assert issubclass(row.error, HomgeoError), name


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
def test_tolerance_refuses_negative_and_non_finite(tol):
    with pytest.raises(ParamOutOfRange, match="tolerance must be finite and nonnegative"):
        tolerance(tol)


def test_tolerance_accepts_zero():
    assert tolerance(0) == 0.0
    assert tolerance(1e-9) == 1e-9


BAD_TOLERANCES = [math.nan, math.inf, -1.0]


@pytest.mark.parametrize("tol", BAD_TOLERANCES)
def test_entry_points_refuse_a_bad_tolerance(tol):
    with pytest.raises(ParamOutOfRange, match="tolerance"):
        build_lie_algebra(3, {(0, 1): {2: 1.0}}, tol=tol)
    with pytest.raises(ParamOutOfRange, match="tolerance"):
        from_tensor(np.zeros((2, 2, 2)), tol=tol)
    entry = build("milnor3", lam=[1.0, 2.0, -3.0])
    with pytest.raises(ParamOutOfRange, match="tolerance"):
        Frame(entry.decomposition, entry.metric, tol)
    with pytest.raises(ParamOutOfRange, match="tolerance"):
        run_all(tol=tol, entries=[])


@pytest.mark.parametrize("tol", [0.0, 1e-300])
def test_verification_passes_at_the_smallest_tolerances(tol):
    # 0 is a valid tolerance: roundoff in the component norms stays under crosscheck_norms' floor
    assert run_all(tol=tol).ok


class _Reads(Mapping):
    """The check table, recording every row name read."""

    def __init__(self, rows):
        self.rows, self.read = rows, set()

    def __getitem__(self, name):
        self.read.add(name)
        return self.rows[name]

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)


def test_every_row_is_read(monkeypatch):
    reads = _Reads(config.CHECKS)
    monkeypatch.setattr(config, "CHECKS", reads)
    assert run_all().ok  # builds every default entry, so runs every catalog builder
    assert {entry.name for entry in default_entries()} == set(list_entries())
    for model in _BLOCK_MODELS:
        alg, grading, theta = model.build.__wrapped__()  # past the cache: the model checks
        solve_cyclic(alg, grading)
        theta_split(alg, theta)
    structure._operator.__wrapped__(3)  # past the cache: the projector checks
    reductive._ricci_operator.__wrapped__(3)  # past the cache: the operator checks
    # an infeasible chamber, a trace-free witness search and a kernel with c > 0
    su2 = build("milnor3", lam=[1.0, 1.0, 1.0]).algebra
    assert not solve_cyclic(su2, BlockGrading(((0,), (1,), (2,)), (-1, -1, -1))).feasible
    with pytest.raises(NoWitness):
        flat_section_witness(su2, [(0.0, 0), (0.0, 1)])
    assert not unimodular_kernel(build("g", alpha=[1.0, 2.0]).algebra)[0]
    # the refused inputs of tools/cli_snapshot.py
    with pytest.raises(JacobiViolation):
        build_lie_algebra(3, {(0, 1): {2: 1.0}, (1, 2): {1: 1.0}})
    heis = build_lie_algebra(3, {(0, 1): {2: 1.0}})
    with pytest.raises(NotReductive):
        Frame(ReductiveDecomposition(heis, (0, 1), (2,)), InvariantMetric.identity(1))
    so2 = build("so2_heisenberg", lam3=1.0).decomposition
    with pytest.raises(InvalidMetric):
        Frame(so2, InvariantMetric.from_diag([1.0, 2.0, 3.0]))
    alg, _, _ = su21_model()
    with pytest.raises(ParamOutOfRange, match="Killing-orthogonal"):
        solve_cyclic(alg, BlockGrading(((0,), (1,), (2, 3), (4, 5), (6, 7)),
                                       (-1, -1, -1, 1, 1)))
    assert set(config.CHECKS) - reads.read == set()
