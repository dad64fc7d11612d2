import math

import pytest

from homgeo.errors import ConsistencyError, InvalidMetric, check


def test_check_passes_at_its_bound():
    check(0.0, 0.0, "zero residual")
    check(1e-9, 1e-9, "residual equal to its bound")
    check(-1.0, 0.0, "negative residual")


@pytest.mark.parametrize("residual", [math.nan, math.inf, 2e-9])
def test_check_fails_beyond_its_bound_and_on_nan(residual):
    with pytest.raises(ConsistencyError):
        check(residual, 1e-9, "identity")


def test_check_message_carries_both_numbers():
    with pytest.raises(ConsistencyError) as info:
        check(2.5e-7, 1e-9, "routes disagree")
    assert str(info.value) == "routes disagree: residual 2.500e-07 (bound 1.0e-09)"
    with pytest.raises(InvalidMetric, match=r"^metric: residual nan \(bound 5\.0e-01\)$"):
        check(math.nan, 0.5, "metric", InvalidMetric)
