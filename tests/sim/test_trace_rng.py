"""Tests for tracing, statistics, and RNG streams."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.config import BROADCOM_1G, KITTEN_NOISE, OsNoiseParams, default_host
from repro.host.kitten import KittenHost
from repro.host.machine import Host
from repro.sim import BoundedDraws, RandomStreams, SampleStats, Simulator, Tracer


def test_tracer_counters_always_on():
    t = Tracer(enabled=False)
    t.record(10, "tx")
    t.record(20, "tx")
    t.record(30, "rx")
    assert t.counters["tx"] == 2
    assert t.counters["rx"] == 1
    assert t.records == []  # full records off


def test_tracer_records_when_enabled():
    t = Tracer(enabled=True)
    t.record(10, "tx", "payload")
    assert t.of("tx") == [(10, "tx", "payload")]
    t.reset()
    assert t.counters == {}


def test_sample_stats_moments():
    s = SampleStats()
    s.extend([1.0, 2.0, 3.0, 4.0])
    assert s.n == 4
    assert s.mean == pytest.approx(2.5)
    assert s.min == 1.0 and s.max == 4.0
    assert s.variance == pytest.approx(5 / 3)
    assert s.stdev == pytest.approx(math.sqrt(5 / 3))


def test_sample_stats_percentile():
    s = SampleStats()
    s.extend(range(101))
    assert s.percentile(50) == 50
    assert s.percentile(0) == 0
    assert s.percentile(100) == 100


def test_sample_stats_empty():
    s = SampleStats()
    assert math.isnan(s.mean)
    assert s.variance == 0.0


def test_sample_stats_no_reservoir():
    s = SampleStats(keep_samples=False)
    s.add(5.0)
    with pytest.raises(ValueError):
        s.percentile(50)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=100))
def test_property_streaming_mean_matches_batch(xs):
    s = SampleStats()
    s.extend(xs)
    assert s.mean == pytest.approx(sum(xs) / len(xs), rel=1e-9, abs=1e-6)
    assert s.min == min(xs) and s.max == max(xs)


def test_rng_streams_deterministic():
    a = RandomStreams(seed=7).stream("latency")
    b = RandomStreams(seed=7).stream("latency")
    assert list(a.integers(0, 1000, 10)) == list(b.integers(0, 1000, 10))


def test_rng_streams_independent_by_name():
    rs = RandomStreams(seed=7)
    a = list(rs.stream("one").integers(0, 1_000_000, 8))
    b = list(rs.stream("two").integers(0, 1_000_000, 8))
    assert a != b


def test_rng_streams_differ_by_seed():
    a = list(RandomStreams(seed=1).stream("s").integers(0, 1_000_000, 8))
    b = list(RandomStreams(seed=2).stream("s").integers(0, 1_000_000, 8))
    assert a != b


def test_rng_stream_cached_per_name():
    rs = RandomStreams()
    assert rs.stream("x") is rs.stream("x")


def _scalar_draws(gen, highs):
    """The reference: one scalar ``integers`` call per draw."""
    return [int(gen.integers(0, h + 1)) if h > 0 else 0 for h in highs]


@pytest.mark.parametrize("bound", [3, 2001, 5001, 50001])
def test_bounded_draws_match_scalar_draws(bound):
    """Block draws equal scalar draws, across block edges."""
    n = 10 * BoundedDraws.BLOCK + 3
    highs = [bound - 1] * n
    ref = _scalar_draws(RandomStreams(3).stream("noise"), highs)
    draws = BoundedDraws(RandomStreams(3).stream("noise"))
    assert [draws.draw(h) for h in highs] == ref


def test_bounded_draws_zero_bound_draws_nothing():
    gen = RandomStreams(0).stream("noise")
    draws = BoundedDraws(gen)
    assert [draws.draw(0), draws.draw(-5)] == [0, 0]
    # The stream has not moved: the next draw is the stream's first.
    assert draws.draw(10) == int(RandomStreams(0).stream("noise").integers(0, 11))


def test_bounded_draws_discard_block_on_bound_change():
    """A new bound starts a new block at the stream's current position."""
    draws = BoundedDraws(RandomStreams(1).stream("noise"))
    first = [draws.draw(100) for _ in range(2)]
    changed = draws.draw(7)
    ref = RandomStreams(1).stream("noise")
    assert first == ref.integers(0, 101, size=BoundedDraws.BLOCK).tolist()[:2]
    assert changed == int(ref.integers(0, 8))


def test_host_noise_matches_scalar_stream():
    sim = Simulator()
    host = Host(sim, default_host(), BROADCOM_1G, ip="10.0.0.1", name="noisy")
    kitten = KittenHost(sim, default_host(), BROADCOM_1G, name="lwk")
    jitter = default_host().noise.jitter_max_ns
    assert jitter > 0
    got = [host.wakeup_noise_ns() for _ in range(300)]
    ref = _scalar_draws(RandomStreams(0).stream("noisy.noise"), [jitter] * 300)
    assert got == ref
    got = [kitten.wakeup_noise_ns() for _ in range(300)]
    ref = _scalar_draws(
        RandomStreams(0).stream("lwk.noise"), [KITTEN_NOISE.jitter_max_ns] * 300
    )
    assert got == ref
    quiet = Host(
        sim, default_host().with_(noise=OsNoiseParams(jitter_max_ns=0)),
        BROADCOM_1G, ip="10.0.0.2",
    )
    assert quiet.wakeup_noise_ns() == 0
