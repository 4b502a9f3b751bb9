"""The verdict arithmetic of tools/pairs.py, on fixed numbers (no benchmark runs)."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("pairs", Path(__file__).resolve().parents[1] / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.5, 99.5, 101.5, 98.5, 100.0]


def test_quartiles_interpolate_between_the_runs():
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 4.0)
    assert pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 3.25)


def test_better_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_quartiles():
    # Parent quartiles 99.125 and 100.875: an interquartile range of 1.75.
    faster = [p + 2.0 for p in PARENT]
    got = pairs.verdict(PARENT, faster, "higher", 0.25)
    assert got == {"parent_median": 100.0, "change_median": 102.0, "parent_quartiles": [99.125, 100.875],
                   "wins": 10, "pairs": 10, "verdict": "better"}
    # Nine wins of ten still suffice; eight do not.
    nine = [p + 3.0 for p in PARENT[:9]] + [PARENT[9]]
    assert pairs.verdict(PARENT, nine, "higher", 0.25)["verdict"] == "better"
    eight = [p + 3.0 for p in PARENT[:8]] + PARENT[8:]
    assert pairs.verdict(PARENT, eight, "higher", 0.25)["wins"] == 8
    assert pairs.verdict(PARENT, eight, "higher", 0.25)["verdict"] == "within bound"
    # Every pair won, but the medians differ by less than the spread.
    assert pairs.verdict(PARENT, [p + 1.0 for p in PARENT], "higher", 0.25)["verdict"] == "within bound"


def test_lower_is_better_flips_the_sign():
    got = pairs.verdict(PARENT, [p - 2.0 for p in PARENT], "lower", 0.25)
    assert (got["wins"], got["verdict"]) == (10, "better")
    assert pairs.verdict(PARENT, [p + 2.0 for p in PARENT], "lower", 0.25)["wins"] == 0


def test_worse_means_past_the_bound():
    assert pairs.verdict(PARENT, [p * 0.74 for p in PARENT], "higher", 0.25)["verdict"] == "worse"
    assert pairs.verdict(PARENT, [p * 0.76 for p in PARENT], "higher", 0.25)["verdict"] == "within bound"
    assert pairs.verdict(PARENT, [p * 1.26 for p in PARENT], "lower", 0.25)["verdict"] == "worse"


def test_a_spread_wider_than_the_bound_is_unresolved():
    wide = [60.0, 140.0, 100.0, 90.0, 110.0]
    assert pairs.verdict(wide, [95.0, 105.0, 98.0, 99.0, 101.0], "higher", 0.25)["verdict"] == "unresolved"
    # Unless every run of the change reads better than every parent run.
    clear = pairs.verdict(wide, [141.0, 142.0, 143.0, 141.5, 142.5], "higher", 0.5)
    assert clear["verdict"] == "within bound"
    # Ten such pairs clear the rule for a gain.
    got = pairs.verdict(wide * 2, [150.0, 160.0, 141.0, 145.0, 155.0] * 2, "higher", 0.25)
    assert got["verdict"] == "better"


def test_a_gain_needs_ten_pairs():
    assert pairs.verdict(PARENT[:9], [p + 5.0 for p in PARENT[:9]], "higher", 0.25)["verdict"] == "within bound"
    assert pairs.verdict([10.0], [12.0], "higher", 0.25)["verdict"] == "within bound"


def test_one_pair_and_mismatched_runs():
    assert pairs.verdict([10.0], [10.0], "higher", 0.25)["verdict"] == "within bound"
    with pytest.raises(ValueError, match="same positive number of runs"):
        pairs.verdict([1.0, 2.0], [1.0], "higher", 0.25)
