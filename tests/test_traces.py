"""Tests for trace model, synthesis, datasets and analysis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.rng import stream
from repro.traces import (
    SPECS,
    TRACE_NAMES,
    Trace,
    TraceSpec,
    bytes_for_request_fraction,
    generate,
    load,
    lognormal_sizes_kb,
    popularity_cdf,
    scaled,
    spec,
    table2_row,
    theoretical_max_hit_rate,
    zipf_weights,
)


class TestTraceSpec:
    def test_file_set_mb(self):
        s = TraceSpec("t", num_files=1024, num_requests=10, mean_file_kb=10.0)
        assert s.file_set_mb == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceSpec("t", 0, 10, 10.0)
        with pytest.raises(ValueError):
            TraceSpec("t", 10, 0, 10.0)
        with pytest.raises(ValueError):
            TraceSpec("t", 10, 10, -1.0)
        with pytest.raises(ValueError):
            TraceSpec("t", 10, 10, 10.0, zipf_theta=-0.1)
        with pytest.raises(ValueError):
            TraceSpec("t", 10, 10, 10.0, size_popularity_rho=2.0)

    def test_scaled_shrinks_counts_not_sizes(self):
        s = TraceSpec("t", 10_000, 100_000, 20.0)
        small = s.scaled(0.1)
        assert small.num_files == 1_000
        assert small.num_requests == 10_000
        assert small.mean_file_kb == 20.0
        assert small.name == "t@0.1"

    def test_scaled_floors(self):
        s = TraceSpec("t", 100, 1000, 20.0)
        tiny = s.scaled(0.001)
        assert tiny.num_files == 50 and tiny.num_requests == 500

    def test_scaled_invalid(self):
        with pytest.raises(ValueError):
            TraceSpec("t", 10, 10, 10.0).scaled(0)

    def test_with_requests(self):
        s = TraceSpec("t", 10, 10, 10.0).with_requests(55)
        assert s.num_requests == 55 and s.num_files == 10


class TestTraceModel:
    def make(self):
        return Trace(
            spec=TraceSpec("t", 3, 5, 10.0),
            sizes_kb=np.array([10.0, 20.0, 30.0]),
            requests=np.array([0, 0, 1, 2, 0]),
        )

    def test_aggregates(self):
        t = self.make()
        assert t.num_files == 3 and t.num_requests == 5
        assert t.mean_file_kb == pytest.approx(20.0)
        assert t.mean_request_kb == pytest.approx((10 + 10 + 20 + 30 + 10) / 5)
        assert t.file_set_mb == pytest.approx(60 / 1024)
        assert t.total_requested_mb == pytest.approx(80 / 1024)

    def test_head(self):
        t = self.make().head(2)
        assert t.num_requests == 2
        assert list(t) == [0, 0]

    def test_head_invalid(self):
        with pytest.raises(ValueError):
            self.make().head(0)

    def test_request_counts(self):
        assert list(self.make().request_counts()) == [3, 1, 1]

    def test_validation(self):
        s = TraceSpec("t", 2, 2, 10.0)
        with pytest.raises(ValueError):
            Trace(s, np.array([10.0, -1.0]), np.array([0, 1]))
        with pytest.raises(ValueError):
            Trace(s, np.array([10.0, 10.0]), np.array([0, 5]))
        with pytest.raises(ValueError):
            Trace(s, np.array([]), np.array([0]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_size_rejected(self, bad):
        s = TraceSpec("t", 3, 3, 10.0)
        with pytest.raises(ValueError, match="all file sizes must be positive"):
            Trace(s, np.array([4.0, bad, 8.0]), np.array([0, 1, 2]))


class TestSynthesis:
    def test_zipf_weights_normalized_and_decreasing(self):
        w = zipf_weights(100, 1.1)
        assert w.sum() == pytest.approx(1.0)
        assert (np.diff(w) < 0).all()

    def test_zipf_theta_zero_uniform(self):
        w = zipf_weights(10, 0.0)
        assert np.allclose(w, 0.1)

    def test_zipf_invalid(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)

    def test_lognormal_mean_exact(self):
        sizes = lognormal_sizes_kb(5000, 21.3, 1.4, stream(0, "s"))
        assert sizes.mean() == pytest.approx(21.3, rel=1e-6)
        assert (sizes >= 0.5).all() and (sizes <= 4096.0).all()

    def test_lognormal_heavy_tail(self):
        sizes = lognormal_sizes_kb(20000, 20.0, 1.4, stream(0, "s"))
        # Median well below mean: right-skewed.
        assert np.median(sizes) < 0.7 * sizes.mean()

    def test_lognormal_invalid(self):
        with pytest.raises(ValueError):
            lognormal_sizes_kb(0, 10.0, 1.0, stream(0, "s"))
        with pytest.raises(ValueError):
            lognormal_sizes_kb(10, 0.1, 1.0, stream(0, "s"))

    def test_generate_matches_spec_counts(self):
        s = TraceSpec("t", 500, 4000, 15.0, zipf_theta=1.0)
        t = generate(s)
        assert t.num_files == 500 and t.num_requests == 4000
        assert t.mean_file_kb == pytest.approx(15.0, rel=1e-6)

    def test_generate_deterministic(self):
        s = TraceSpec("t", 200, 1000, 15.0)
        a, b = generate(s), generate(s)
        assert np.array_equal(a.requests, b.requests)
        assert np.array_equal(a.sizes_kb, b.sizes_kb)

    def test_generate_seed_changes_stream(self):
        s1 = TraceSpec("t", 200, 1000, 15.0, seed=1)
        s2 = TraceSpec("t", 200, 1000, 15.0, seed=2)
        assert not np.array_equal(generate(s1).requests, generate(s2).requests)

    def test_popular_files_tend_small_with_rho(self):
        s = TraceSpec("t", 2000, 50_000, 20.0, zipf_theta=1.0,
                      size_popularity_rho=0.8)
        t = generate(s)
        assert t.mean_request_kb < t.mean_file_kb

    @given(st.integers(min_value=1, max_value=50),
           st.integers(min_value=1, max_value=500))
    @settings(max_examples=20, deadline=None)
    def test_generate_any_small_spec_is_valid(self, nf, nr):
        t = generate(TraceSpec("t", nf, nr, 12.0))
        assert t.num_files == nf and t.num_requests == nr
        assert t.requests.min() >= 0 and t.requests.max() < nf

    def test_temporal_alpha_raises_recency(self):
        from repro.traces.analysis import recency_reference_fraction

        base = TraceSpec("t", 800, 20_000, 15.0, zipf_theta=1.0)
        iid = generate(base)
        import dataclasses

        loc = generate(dataclasses.replace(base, temporal_alpha=0.4))
        assert (
            recency_reference_fraction(loc)
            > recency_reference_fraction(iid) + 0.03
        )

    def test_temporal_alpha_zero_is_identity(self):
        import dataclasses

        base = TraceSpec("t", 100, 2_000, 15.0)
        a = generate(base)
        b = generate(dataclasses.replace(base, temporal_alpha=0.0))
        assert np.array_equal(a.requests, b.requests)

    def test_temporal_preserves_file_set(self):
        import dataclasses

        base = TraceSpec("t", 100, 2_000, 15.0)
        loc = generate(dataclasses.replace(base, temporal_alpha=0.5))
        assert loc.requests.min() >= 0 and loc.requests.max() < 100
        assert loc.num_requests == 2_000

    def test_temporal_validation(self):
        with pytest.raises(ValueError):
            TraceSpec("t", 10, 10, 10.0, temporal_alpha=1.0)
        with pytest.raises(ValueError):
            TraceSpec("t", 10, 10, 10.0, temporal_window=0)

    def test_recency_fraction_validation(self):
        from repro.traces.analysis import recency_reference_fraction

        t = generate(TraceSpec("t", 10, 100, 10.0))
        with pytest.raises(ValueError):
            recency_reference_fraction(t, window=0)
        assert 0.0 <= recency_reference_fraction(t, window=5) <= 1.0


class TestDatasets:
    def test_four_traces_registered(self):
        assert set(SPECS) == set(TRACE_NAMES) == {
            "calgary", "clarknet", "nasa", "rutgers"
        }

    def test_spec_lookup(self):
        assert spec("rutgers").num_files == 38_000
        with pytest.raises(ValueError):
            spec("berkeley")

    def test_rutgers_figure1_anchor(self):
        # Paper: 789 MB file set; 494 MB covers 99% of requests.
        t = load("rutgers")
        assert t.file_set_mb == pytest.approx(789.3, rel=0.01)
        mb99 = bytes_for_request_fraction(t, 0.99)
        assert mb99 == pytest.approx(494.0, rel=0.05)

    def test_scaled_loader(self):
        t = scaled("calgary", 0.01, num_requests=2000)
        assert t.num_requests == 2000
        assert t.num_files == 75
        assert t.mean_file_kb == pytest.approx(19.0, rel=1e-6)

    def test_all_traces_working_sets_exceed_small_memory(self):
        # The premise of the study: working sets larger than one node's
        # memory, so per-node caches alone cannot hold them.
        for name in TRACE_NAMES:
            s = spec(name)
            assert s.file_set_mb > 64  # > paper's mid-range node memory


class TestAnalysis:
    def make(self):
        return Trace(
            spec=TraceSpec("t", 4, 10, 10.0),
            sizes_kb=np.array([100.0, 50.0, 25.0, 1000.0]),
            requests=np.array([0, 0, 0, 0, 1, 1, 1, 2, 2, 3]),
        )

    def test_popularity_cdf(self):
        cum_req, cum_mb = popularity_cdf(self.make())
        assert cum_req[-1] == pytest.approx(1.0)
        assert list(cum_req[:2]) == [pytest.approx(0.4), pytest.approx(0.7)]
        assert cum_mb[-1] == pytest.approx(1175 / 1024)
        # Monotone non-decreasing.
        assert (np.diff(cum_req) >= 0).all() and (np.diff(cum_mb) >= 0).all()

    def test_bytes_for_request_fraction(self):
        t = self.make()
        # 40% of requests -> just file 0 (100 KB).
        assert bytes_for_request_fraction(t, 0.4) == pytest.approx(100 / 1024)
        # 100% needs everything.
        assert bytes_for_request_fraction(t, 1.0) == pytest.approx(1175 / 1024)

    def test_bytes_fraction_invalid(self):
        with pytest.raises(ValueError):
            bytes_for_request_fraction(self.make(), 0.0)

    def test_theoretical_max_hit_rate(self):
        t = self.make()
        # Memory for file 0 only.
        assert theoretical_max_hit_rate(t, 100 / 1024) == pytest.approx(0.4)
        # Memory for files 0+1.
        assert theoretical_max_hit_rate(t, 150 / 1024) == pytest.approx(0.7)
        # No memory -> nothing.
        assert theoretical_max_hit_rate(t, 0.0) == 0.0
        # Unlimited -> everything.
        assert theoretical_max_hit_rate(t, 10.0) == pytest.approx(1.0)

    def test_table2_row_keys(self):
        row = table2_row(self.make())
        assert set(row) == {
            "num_files", "avg_file_kb", "num_requests",
            "avg_request_kb", "file_set_mb",
        }
