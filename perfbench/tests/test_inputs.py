"""The prefix oracle behind mid-run checks agrees with brute force."""

import numpy as np
import pytest

from perfbench.inputs import Frames, PrefixOracle


@pytest.fixture
def frames():
    rng = np.random.default_rng(5)
    fu, n = 16, 40
    items = rng.integers(0, 30, size=fu * n).astype(np.uint64)
    weights = rng.integers(1, 9, size=fu * n).astype(np.float64)
    tenant_of = rng.integers(0, 3, size=n)
    probes = np.array([0, 3, 7, 11, 29], dtype=np.uint64)
    return Frames(items, weights, fu, tenant_of, 3, probes, [])


def _brute(frames, tenant, item, sent):
    total, seen = 0.0, False
    for index in range(sent):
        if frames.tenant_of[index] != tenant:
            continue
        items, weights = frames.frame(index)
        hit = items == item
        total += float(weights[hit].sum())
        seen = seen or bool(hit.any())
    return total, seen


def test_prefix_weights_and_appearances_match_brute_force(frames):
    prefix = PrefixOracle(frames)
    for tenant in range(3):
        for sent in (0, 1, 7, 23, 40):
            for item in frames.probes.tolist():
                total, seen = _brute(frames, tenant, item, sent)
                assert prefix.weight(tenant, item, sent) == total
                assert prefix.appeared(tenant, item, sent) == seen
            assert not prefix.appeared(tenant, 1000, sent)


def test_a_cycled_closed_loop_oracle_counts_every_pass(frames):
    once = frames.oracle(len(frames), 1)
    twice_and_some = frames.oracle(2 * len(frames) + 5, 1)
    extra = frames.oracle(5, 1)
    for item, f in once.items():
        assert twice_and_some.frequency(item) == 2 * f + extra.frequency(item)
