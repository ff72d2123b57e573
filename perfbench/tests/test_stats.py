"""The tail-sample rule: a percentile needs ten samples beyond it."""

import numpy as np
import pytest

from perfbench.stats import (
    MIN_TAIL,
    TooFewSamples,
    calm_windows,
    min_samples_for,
    percentile,
    tail_count,
    tail_percentile,
)


def test_tail_count_matches_a_direct_count():
    rng = np.random.default_rng(7)
    for n in (50, 901, 902, 1000, 1234):
        samples = rng.random(n).tolist()
        p99 = percentile(samples, 99)
        assert tail_count(n, 99) == sum(s > p99 for s in samples)


def test_p99_needs_ten_samples_beyond_it():
    needed = min_samples_for(99)
    assert tail_count(needed, 99) == MIN_TAIL
    assert tail_count(needed - 1, 99) == MIN_TAIL - 1
    with pytest.raises(TooFewSamples):
        tail_percentile(list(range(needed - 1)), 99)
    samples = list(range(needed))
    assert tail_percentile(samples, 99) == percentile(samples, 99)


def test_median_needs_few_samples():
    assert min_samples_for(50) == 2 * MIN_TAIL
    assert tail_percentile(list(range(20)), 50) == 9.5


def test_calm_windows_keep_every_window_at_or_below_the_limit():
    steal = [0.0, 0.01, 0.08, 0.02, 0.0, 0.3]
    counts = [[10] * 6]
    assert calm_windows(steal, 0.02, counts, 40) == [0, 1, 3, 4]
    assert calm_windows([0.0] * 6, 0.02, counts, 40) == list(range(6))


def test_calm_windows_add_the_least_stolen_until_every_pool_is_full():
    steal = [0.1, 0.05, 0.2, 0.05, 0.01, 0.3, 0.05, 0.09]
    # Ten samples a window: four windows hold the 40 needed, the least
    # stolen first, the earlier of equals first.
    assert calm_windows(steal, 0.02, [[10] * 8], 40) == [1, 3, 4, 6]
    # The thinner pool sets how many are added.
    assert calm_windows(steal, 0.02, [[10] * 8, [8] * 8], 40) == [1, 3, 4, 6, 7]
    # Too few samples in the whole window: every window is kept.
    assert calm_windows([0.5, 0.4, 0.3], 0.02, [[10] * 3], 40) == [0, 1, 2]


def test_percentile_matches_numpy_linear_interpolation():
    rng = np.random.default_rng(3)
    samples = rng.exponential(size=517).tolist()
    for q in (0, 1, 50, 90, 99, 100):
        assert percentile(samples, q) == pytest.approx(np.percentile(samples, q))
