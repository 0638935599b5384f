import statistics

import pytest

from perfbench import stats


def test_median_and_quartiles_follow_statistics_quantiles():
    values = [7.0, 1.0, 3.0, 10.0, 2.0, 9.0, 4.0, 8.0, 6.0, 5.0]
    assert stats.median(values) == 5.5
    assert stats.quartiles(values) == (2.75, 8.25)
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / 5.5)


def test_quartiles_of_one_value_are_that_value():
    assert stats.quartiles([4.2]) == (4.2, 4.2)
    assert stats.spread([4.2]) == 0.0


@pytest.mark.parametrize("name", ["wall_s", "l2-scan", "opnorm.eval_mixed.samples_per_s",
                                  "0th", "a" * 64])
def test_valid_names(name):
    assert stats.valid_name(name)


@pytest.mark.parametrize("name", ["", "_wall", ".s", "wall s", "a/b", "a" * 65,
                                  "norm:rmax", "é"])
def test_invalid_names(name):
    assert not stats.valid_name(name)


def test_units():
    for unit in ("s", "MB", "1/s", "count", "%", "1"):
        assert stats.valid_unit(unit)
    for unit in ("", "m s", "x" * 17):
        assert not stats.valid_unit(unit)
