"""The "at least ten samples beyond" tail rule."""

import math

import pytest

from summary import median, tail_percentile


def test_tail_leaves_ten_samples_beyond():
    values = list(range(1, 101))  # 1..100
    p, value = tail_percentile(values)
    assert p == 90
    assert value == 90
    assert sum(v > value for v in values) == 10


@pytest.mark.parametrize("n", [20, 21, 37, 54, 99, 250])
def test_tail_is_the_highest_percentile_with_ten_beyond(n):
    values = [float(i) for i in range(n)]
    p, value = tail_percentile(values)
    assert sum(v > value for v in values) >= 10
    if p < 99:
        next_rank = math.ceil((p + 1) * n / 100)
        assert n - next_rank < 10


def test_tail_falls_back_to_the_median_with_few_samples():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert tail_percentile(values) == (50, median(values))


def test_tail_ignores_input_order():
    values = [float(i % 17) for i in range(60)]
    assert tail_percentile(values) == tail_percentile(sorted(values, reverse=True))


def test_empty_samples_are_an_error():
    with pytest.raises(ValueError):
        tail_percentile([])
    with pytest.raises(ValueError):
        median([])
