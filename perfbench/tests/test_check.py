"""Doctored answers must trip the Section 2.3.1 correctness checks."""

import numpy as np
import pytest

from repro import FrequentItemsSketch

from perfbench import check
from perfbench.inputs import exact_counter

PHI = 0.01


@pytest.fixture(scope="module")
def served():
    """A real sketch over a skewed stream, with its exact oracle."""
    rng = np.random.default_rng(11)
    items = (rng.zipf(1.2, size=60_000) % 5_000).astype(np.uint64)
    weights = rng.integers(1, 100, size=items.shape[0]).astype(np.float64)
    sketch = FrequentItemsSketch(256, seed=3)
    sketch.update_batch(items, weights)
    return sketch, exact_counter(items, weights)


def _hh_rows(sketch):
    return [(row.item, row.estimate) for row in sketch.heavy_hitters(PHI)]


def test_genuine_answers_pass(served):
    sketch, oracle = served
    assert sketch.maximum_error > 0  # the sketch did decrement
    for item, f in list(oracle.items())[:300]:
        assert not check.bounds_violations(
            item, sketch.lower_bound(item), sketch.estimate(item),
            sketch.upper_bound(item), f,
        )
    assert not check.hh_violations(_hh_rows(sketch), oracle, PHI, sketch.maximum_error)


def test_a_lower_bound_above_the_truth_is_caught(served):
    sketch, oracle = served
    item, f = oracle.top_k(1)[0]
    lower, upper = sketch.lower_bound(item), sketch.upper_bound(item)
    assert check.bounds_violations(item, f + 1.0, f + 1.0, upper + 1.0, f)
    assert check.bounds_violations(item, lower, upper + 5.0, upper, f)
    assert check.midrun_lower_violations(item, f + 1.0, f)
    assert not check.midrun_lower_violations(item, lower, f)


def test_a_dropped_or_shrunk_heavy_hitter_is_caught(served):
    sketch, oracle = served
    rows = _hh_rows(sketch)
    assert check.hh_violations(rows[1:], oracle, PHI, sketch.maximum_error)
    shrunk = [(rows[0][0], rows[0][1] * 0.5)] + rows[1:]
    assert check.hh_violations(shrunk, oracle, PHI, sketch.maximum_error)
    inflated = [(rows[0][0], rows[0][1] + 10 * sketch.maximum_error + 1)] + rows[1:]
    assert check.hh_violations(inflated, oracle, PHI, sketch.maximum_error)


def test_an_item_reported_before_it_was_sent_is_caught():
    sent = {1, 2, 3}
    assert not check.midrun_tracked_violations([1, 3], sent.__contains__)
    assert check.midrun_tracked_violations([1, 4], sent.__contains__)


def test_a_diverging_follower_is_caught():
    leader = {("BOUNDS", 7): (1.0, 2.0, 3.0), "HH": [(7, 2.0)]}
    assert not check.replica_violations(leader, dict(leader))
    follower = dict(leader, HH=[(7, 2.5)])
    problems = check.replica_violations(leader, follower)
    assert len(problems) == 1 and "HH" in problems[0]
