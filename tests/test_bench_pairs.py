"""Summary statistics of tools/bench_pairs.py on fixed runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_summary_of_pairs_of_runs():
    parent = [0.46, 0.49, 0.42, 0.50, 0.44]
    change = [0.32, 0.31, 0.43, 0.33, 0.30]
    s = bench_pairs.summarize(parent, change, "s", "lower")
    assert s["unit"] == "s" and s["better"] == "lower" and s["pairs"] == 5
    # inclusive quartiles of five values sit on the 2nd and 4th sorted runs
    assert s["parent"]["median"] == 0.46
    assert s["parent"]["q1"] == 0.44 and s["parent"]["q3"] == 0.49
    assert s["parent"]["iqr"] == pytest.approx(0.05)
    assert s["parent"]["runs"] == parent
    assert (s["change"]["q1"], s["change"]["median"], s["change"]["q3"]) == (0.31, 0.32, 0.33)
    # pair 3 is a loss: 0.43 > 0.42
    assert s["change_better_pairs"] == 4
    assert s["median_gain"] == pytest.approx(0.14)
    # 4 of 5 pairs is below 9 of 10, however large the gain
    assert s["claim_holds"] is False


def test_higher_is_better_and_ties_do_not_count():
    s = bench_pairs.summarize([1.0, 1.0, 0.5, 0.9], [1.0, 0.9, 0.6, 1.0],
                              "frac", "higher")
    assert s["change_better_pairs"] == 2
    # four values: the quartiles interpolate between sorted neighbours
    assert s["parent"]["q1"] == pytest.approx(0.8)
    assert s["parent"]["median"] == pytest.approx(0.95)
    assert s["parent"]["q3"] == 1.0


def test_summary_rejects_unpaired_or_unknown_direction():
    with pytest.raises(ValueError, match="pairs of runs"):
        bench_pairs.summarize([1.0, 2.0], [1.0], "s", "lower")
    with pytest.raises(ValueError, match="pairs of runs"):
        bench_pairs.summarize([1.0], [1.0], "s", "lower")
    with pytest.raises(ValueError, match="better must be"):
        bench_pairs.summarize([1.0, 2.0], [1.0, 2.0], "s", "faster")


def _pairs(gains, parent=(1.0, 1.1, 0.9, 1.0, 1.2, 0.8, 1.0, 1.05, 0.95, 1.0)):
    """Ten pairs of runs, the change lower than the parent by gains[i]."""
    return list(parent), [p - g for p, g in zip(parent, gains)]


def test_claim_needs_nine_of_ten_pairs_and_a_gap_beyond_the_parent_iqr():
    parent, change = _pairs([0.3] * 9 + [-0.1])
    s = bench_pairs.summarize(parent, change, "s", "lower")
    assert s["change_better_pairs"] == 9
    assert s["median_gain"] > s["parent"]["iqr"] == pytest.approx(0.075)
    assert s["claim_holds"] is True
    # the same wins with a median gap inside the parent's spread
    parent, change = _pairs([0.05] * 9 + [-0.1])
    s = bench_pairs.summarize(parent, change, "s", "lower")
    assert s["change_better_pairs"] == 9 and s["median_gain"] < s["parent"]["iqr"]
    assert s["claim_holds"] is False
    # a tie counts for neither side: 8 wins, 1 tie, 1 loss
    parent, change = _pairs([0.3] * 8 + [0.0, -0.1])
    s = bench_pairs.summarize(parent, change, "s", "lower")
    assert s["change_better_pairs"] == 8 and s["claim_holds"] is False


def test_claim_on_a_higher_is_better_metric():
    parent, change = _pairs([-0.3] * 10)
    s = bench_pairs.summarize(parent, change, "frac", "higher")
    assert s["change_better_pairs"] == 10
    assert s["median_gain"] == pytest.approx(0.3)
    assert s["claim_holds"] is True
    s = bench_pairs.summarize(change, parent, "frac", "higher")
    assert s["change_better_pairs"] == 0 and s["median_gain"] == pytest.approx(-0.3)
    assert s["claim_holds"] is False


def test_values_within_a_relative_tolerance_of_1e_9_are_ties():
    # an accept_margin that rose by 1.85e-11 in every pair, with no spread
    # on either side: no pair is better and no claim holds
    parent = [0.14695381258209528] * 10
    change = [0.14695381260063411] * 10
    s = bench_pairs.summarize(parent, change, "frac", "higher")
    assert s["change_better_pairs"] == 0
    assert s["median_gain"] == pytest.approx(1.85e-11, rel=1e-2)
    assert s["claim_holds"] is False
    # 1e-8 relative is no tie
    s = bench_pairs.summarize(parent, [x * (1.0 + 1e-8) for x in parent], "frac", "higher")
    assert s["change_better_pairs"] == 10 and s["claim_holds"] is True
