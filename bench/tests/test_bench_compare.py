"""Comparison verdicts on hand-made samples."""

import compare
import pytest

PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.1, 9.9]


def test_nine_of_ten_wins_beyond_the_parent_spread_is_better():
    change = [p - 1.0 for p in PARENT]
    change[0] = PARENT[0] + 0.5  # one lost pair
    v = compare.verdict(PARENT, change, "lower", 0.1)
    assert (v["wins"], v["losses"], v["pairs"]) == (9, 1, 10)
    assert v["verdict"] == "better"


def test_eight_of_ten_wins_is_not_better():
    change = [p - 1.0 for p in PARENT]
    change[0] = PARENT[0] + 0.5
    change[1] = PARENT[1] + 0.5
    v = compare.verdict(PARENT, change, "lower", 0.1)
    assert v["wins"] == 8
    assert v["verdict"] == "unchanged"


def test_every_pair_won_by_less_than_the_quartile_spread_is_not_better():
    # the parent's quartiles are 0.25 apart; the change wins each pair by 0.1
    change = [p - 0.1 for p in PARENT]
    v = compare.verdict(PARENT, change, "lower", 0.1)
    assert v["wins"] == 10
    assert v["verdict"] == "unchanged"


def test_higher_is_better_flips_the_sign():
    change = [p + 1.0 for p in PARENT]
    assert compare.verdict(PARENT, change, "higher", 0.1)["verdict"] == "better"
    assert compare.verdict(PARENT, change, "lower", 0.05)["verdict"] == "worse"


def test_median_worse_by_more_than_the_bound_is_worse():
    change = [p * 1.2 for p in PARENT]
    assert compare.verdict(PARENT, change, "lower", 0.1)["verdict"] == "worse"


def test_spread_wider_than_the_bound_is_unresolved():
    wide = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    change = [w + (0.5 if i % 2 else -0.5) for i, w in enumerate(wide)]
    v = compare.verdict(wide, change, "lower", 0.1)
    assert v["verdict"] == "unresolved"


def test_spread_wider_than_the_bound_but_every_change_run_faster_is_not_unresolved():
    wide = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    change = [4.0 + 0.01 * i for i in range(10)]
    assert compare.verdict(wide, change, "lower", 0.1)["verdict"] == "better"
    few = compare.verdict(wide[:5], change[:5], "lower", 0.1)
    assert few["verdict"] == "unchanged"  # too few pairs to claim a gain


def test_unpaired_samples_are_rejected():
    with pytest.raises(ValueError):
        compare.verdict(PARENT, PARENT[:5], "lower", 0.1)
