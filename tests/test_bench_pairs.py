"""The summary rule of ``scripts/bench_pairs.py`` on synthetic pairs: a side
wins when it is better in at least 9 pairs of 10 and the medians are further
apart than the parent's interquartile range; the bound is checked on the
relative change of the median."""

import importlib.util

import pytest

from conftest import ROOT


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


summarize = _bench_pairs().summarize

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_nine_wins_and_a_wide_gap_are_better():
    change = [0.6] * 9 + [1.5]
    s = summarize(PARENT, change, "lower", 0.25)
    assert (s["change_better_pairs"], s["change_worse_pairs"], s["pairs"]) == (9, 1, 10)
    assert s["median_gap_exceeds_parent_iqr"] and s["within_bound"]
    assert s["verdict"] == "better"
    assert s["parent_median"] == pytest.approx(1.0)
    assert s["median_change_rel"] == pytest.approx(-0.4)


def test_eight_wins_are_unresolved():
    change = [0.6] * 8 + [1.5, 1.5]
    assert summarize(PARENT, change, "lower", 0.25)["verdict"] == "unresolved"


def test_a_gap_inside_the_parent_iqr_is_unresolved():
    # every pair is won, but by less than the parent's own spread
    change = [p - 0.005 for p in PARENT]
    s = summarize(PARENT, change, "lower", 0.25)
    assert s["change_better_pairs"] == 10
    assert not s["median_gap_exceeds_parent_iqr"]
    assert s["verdict"] == "unresolved"


def test_ties_count_for_neither_side():
    s = summarize(PARENT, list(PARENT), "lower", 0.25)
    assert (s["change_better_pairs"], s["change_worse_pairs"]) == (0, 0)
    assert s["verdict"] == "unresolved"


def test_higher_is_better_and_losses_are_worse():
    s = summarize(PARENT, [2.0] * 10, "higher", 0.25)
    assert s["verdict"] == "better" and s["within_bound"]
    s = summarize(PARENT, [2.0] * 10, "lower", 0.25)
    assert s["verdict"] == "worse" and not s["within_bound"]


def test_bound_is_on_the_relative_change_of_the_median():
    assert summarize(PARENT, [1.2] * 10, "lower", 0.25)["within_bound"]
    assert not summarize(PARENT, [1.3] * 10, "lower", 0.25)["within_bound"]
    assert not summarize(PARENT, [0.7] * 10, "higher", 0.25)["within_bound"]
