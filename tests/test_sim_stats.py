"""Unit tests for measurement instruments (repro.sim.stats)."""


import pytest
from hypothesis import given, strategies as st

from repro.sim import (
    CounterSet,
    ReservoirQuantiles,
    RunningStats,
    ThroughputMeter,
    UtilizationTracker,
)
from repro.sim.stats import WindowedSeries


class TestWindowedSeries:
    @pytest.mark.parametrize("window_ms", [0.0, -1.0, float("nan"),
                                           float("inf")])
    def test_window_must_be_positive_and_finite(self, window_ms):
        with pytest.raises(ValueError, match="window_ms must be positive"):
            WindowedSeries(window_ms)


class TestUtilizationTracker:
    def test_idle_is_zero(self):
        u = UtilizationTracker(1, now=0.0)
        assert u.utilization(10.0) == 0.0

    def test_fully_busy_is_one(self):
        u = UtilizationTracker(1, now=0.0)
        u.on_start(0.0)
        u.on_stop(10.0)
        assert u.utilization(10.0) == pytest.approx(1.0)

    def test_partial_busy(self):
        u = UtilizationTracker(1, now=0.0)
        u.on_start(2.0)
        u.on_stop(7.0)
        assert u.utilization(10.0) == pytest.approx(0.5)

    def test_capacity_normalization(self):
        u = UtilizationTracker(4, now=0.0)
        u.on_start(0.0)
        u.on_start(0.0)
        u.on_stop(10.0)
        u.on_stop(10.0)
        assert u.utilization(10.0) == pytest.approx(0.5)

    def test_ongoing_busy_counted(self):
        u = UtilizationTracker(1, now=0.0)
        u.on_start(0.0)
        assert u.utilization(4.0) == pytest.approx(1.0)

    def test_reset_starts_fresh_window(self):
        u = UtilizationTracker(1, now=0.0)
        u.on_start(0.0)
        u.on_stop(10.0)
        u.reset(10.0)
        assert u.utilization(20.0) == pytest.approx(0.0)

    def test_reset_mid_service_keeps_busy_state(self):
        u = UtilizationTracker(1, now=0.0)
        u.on_start(0.0)
        u.reset(5.0)
        u.on_stop(10.0)
        assert u.utilization(10.0) == pytest.approx(1.0)

    def test_overflow_raises(self):
        u = UtilizationTracker(1, now=0.0)
        u.on_start(0.0)
        with pytest.raises(ValueError):
            u.on_start(1.0)

    def test_underflow_raises(self):
        u = UtilizationTracker(1, now=0.0)
        with pytest.raises(ValueError):
            u.on_stop(1.0)

    def test_zero_window_is_zero(self):
        u = UtilizationTracker(1, now=5.0)
        assert u.utilization(5.0) == 0.0


class TestThroughputMeter:
    def test_rate_units_per_second(self):
        m = ThroughputMeter(now=0.0)
        for _ in range(100):
            m.record()
        # 100 completions in 1000 ms == 100/s
        assert m.per_second(1000.0) == pytest.approx(100.0)

    def test_reset_discards_warmup(self):
        m = ThroughputMeter(now=0.0)
        for _ in range(50):
            m.record()
        m.reset(500.0)
        for _ in range(10):
            m.record()
        assert m.count == 10
        assert m.per_second(1500.0) == pytest.approx(10.0)

    def test_zero_window(self):
        m = ThroughputMeter(now=3.0)
        assert m.per_second(3.0) == 0.0


class TestRunningStats:
    def test_empty(self):
        s = RunningStats()
        assert s.n == 0 and s.mean == 0.0

    def test_known_values(self):
        s = RunningStats()
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]:
            s.record(x)
        assert s.mean == pytest.approx(5.0)

    def test_reset(self):
        s = RunningStats()
        s.record(10.0)
        s.reset()
        assert s.n == 0 and s.mean == 0.0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=2, max_size=200))
    def test_matches_two_pass_formulas(self, xs):
        s = RunningStats()
        for x in xs:
            s.record(x)
        mean = sum(xs) / len(xs)
        assert s.mean == pytest.approx(mean, rel=1e-9, abs=1e-6)


class TestReservoirQuantiles:
    def test_small_exact(self):
        r = ReservoirQuantiles(capacity=100)
        for x in range(11):
            r.record(float(x))
        assert r.quantile(0.0) == 0.0
        assert r.quantile(0.5) == 5.0
        assert r.quantile(1.0) == 10.0

    def test_empty_returns_zero(self):
        assert ReservoirQuantiles().quantile(0.5) == 0.0

    def test_bad_q_raises(self):
        with pytest.raises(ValueError):
            ReservoirQuantiles().quantile(1.5)

    def test_subsampling_keeps_rough_quantiles(self):
        r = ReservoirQuantiles(capacity=64)
        n = 10_000
        for x in range(n):
            r.record(float(x))
        assert r.count == n
        # Median of 0..9999 ~ 5000, tolerate reservoir coarseness.
        assert abs(r.quantile(0.5) - 5000) < 1000

    def test_deterministic(self):
        def run():
            r = ReservoirQuantiles(capacity=32)
            for x in range(5000):
                r.record(float((x * 37) % 1000))
            return [r.quantile(q) for q in (0.1, 0.5, 0.9)]

        assert run() == run()

    def test_reset(self):
        r = ReservoirQuantiles()
        r.record(5.0)
        r.reset()
        assert r.count == 0 and r.quantile(0.5) == 0.0


class TestCounterSet:
    def test_incr_and_get(self):
        c = CounterSet()
        c.incr("hit")
        c.incr("hit", 2)
        assert c.get("hit") == 3
        assert c.get("miss") == 0

    def test_reset_and_as_dict(self):
        c = CounterSet()
        c.incr("x", 5)
        d = c.as_dict()
        assert d == {"x": 5}
        d["x"] = 99  # snapshot, not a view
        assert c.get("x") == 5
        c.reset()
        assert c.as_dict() == {}
