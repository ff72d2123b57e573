"""End-to-end timings are taken over one set of sub-windows per run."""

import pytest

from perfbench.bench import choose_windows, window_metrics
from perfbench.loadgen import LoopSamples
from perfbench.phase import Mark, PhaseResult, Tally


def _result(per_window_latency, per_window_updates, per_window=1100):
    """1 s sub-windows; ``per_window`` requests complete inside each one."""
    marks, ack = [Mark(0.0, 0.0, 0, 0, 0, 0.0)], LoopSamples()
    for index, (latency, updates) in enumerate(zip(per_window_latency, per_window_updates)):
        for k in range(per_window):
            ack.record(latency, 0.0, index + (k + 0.5) / per_window)
        last = marks[-1]
        marks.append(
            Mark(index + 1.0, last.server_cpu_s + 0.5, last.updates + updates, 0, 0, 0.0)
        )
    return PhaseResult(
        ingest_ups=0.0, window_s=4.0, updates=marks[-1].updates, frames=0,
        ack=ack, reads=ack, heavy=LoopSamples(), marks=marks,
        server_cpu_s=2.0, follower_cpu_s=0.0, rss_mib=0.0, loadgen_cpu_frac=0.0,
        steal_frac=0.0, tally=Tally(), stats={},
    )


def test_only_the_chosen_windows_count():
    result = _result([0.001, 0.001, 0.5, 0.001], [1000, 1000, 100, 1000])
    calm = window_metrics(result, [0, 1, 3])
    assert calm["ack_ms_p99"] == pytest.approx(1.0)
    assert calm["ingest_ups"] == pytest.approx(1000.0)
    assert calm["cpu_us_per_update"] == pytest.approx(1.5 / 3000 * 1e6)
    whole = window_metrics(result, [0, 1, 2, 3])
    assert whole["ack_ms_p99"] == pytest.approx(500.0)
    assert whole["ingest_ups"] == pytest.approx(3100 / 4)


def test_the_calm_windows_are_used_when_they_carry_both_p99s():
    result = _result([0.001] * 4, [1000] * 4)
    # One calm sub-window holds 1100 samples, enough for both p99s.
    assert choose_windows(result, [0.0, 0.5, 0.5, 0.5]) == ("calm", [0])
    assert choose_windows(result, [0.0, 0.0, 0.01, 0.5]) == ("calm", [0, 1, 2])


def test_stolen_windows_are_added_until_the_p99s_have_their_samples():
    # 400 requests per sub-window: three of them hold the 902 a p99
    # needs, so the least-stolen stolen window joins the calm one.
    result = _result([0.001] * 4, [1000] * 4, per_window=400)
    assert choose_windows(result, [0.0, 0.5, 0.6, 0.3]) == ("calm", [0, 1, 3])


def test_every_metric_falls_back_to_the_whole_window_together():
    # 300 requests per sub-window: only the whole window's 1200 suffice.
    result = _result([0.001] * 4, [1000, 1000, 100, 1000], per_window=300)
    label, chosen = choose_windows(result, [0.0, 0.5, 0.6, 0.5])
    assert (label, chosen) == ("whole", [0, 1, 2, 3])
    # The rate comes from the same windows as the p99.
    assert window_metrics(result, chosen)["ingest_ups"] == pytest.approx(3100 / 4)
