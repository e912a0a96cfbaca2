"""The benchmark's own helpers: percentiles, self time, failure accounting.

Run with `python3 -m pytest perfbench/tests`.
"""

import pytest

from perfbench.stats import (Tally, covered_length, nearest_rank, self_time,
                             tail_percentile)


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = list(range(1, 21))                  # 20 distinct samples
    pct, value = tail_percentile(samples)
    assert value == 10
    assert sum(s > value for s in samples) == 10
    assert pct == 50.0


def test_tail_percentile_on_a_survey_sized_sample():
    samples = [i / 1000 for i in range(2262)]
    pct, value = tail_percentile(samples)
    assert sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100 * 2252 / 2262)


def test_tail_percentile_needs_more_than_ten_samples():
    assert tail_percentile(list(range(10))) is None
    assert tail_percentile([]) is None
    assert tail_percentile(list(range(11)))[1] == 0


def test_tail_percentile_skips_ties_at_the_top():
    samples = [1.0] * 5 + [2.0] * 15
    # the 10th-from-top rank falls inside the tie, which has nothing above
    # it; the highest value with ten samples strictly above is 1.0
    assert tail_percentile(samples) == (25.0, 1.0)
    assert tail_percentile([3.0] * 30) is None


def test_nearest_rank():
    assert nearest_rank([5, 1, 3], 50) == 3
    assert nearest_rank(list(range(1, 101)), 99) == 99
    assert nearest_rank([7], 99) == 7


def test_self_time_subtracts_children_once():
    # children overlap (parallel workers) and one runs past the parent's end
    assert covered_length([(1, 3), (2, 4), (8, 12)], 0, 10) == 5
    assert self_time((0, 10), [(1, 3), (2, 4), (8, 12)]) == 5
    assert self_time((0, 10), []) == 10
    assert self_time((0, 10), [(0, 10), (2, 3)]) == 0


def test_tally_counts_each_failed_operation_once():
    tally = Tally()
    tally.attempt(10)
    assert tally.failed == 0 and tally.failed_frac == 0
    tally.fail((0, 3), "bad l1")
    tally.fail((0, 3), "bad status")           # same row, second reason
    tally.fail((0, 4), "bad l1")
    assert tally.failed == 2
    assert tally.failed_frac == 0.2
    assert tally.failures[(0, 3)] == ["bad l1", "bad status"]
