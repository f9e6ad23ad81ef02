"""Tests for the experiment harness: runner, sweeps, report, figures.

Simulation-heavy figure functions are exercised on deliberately tiny
workloads (few files, short traces, few memory points) — shape checks,
not paper-scale numbers; those live in the benchmark harness.
"""

import numpy as np
import pytest

from repro.core import CoopCacheConfig
from repro.experiments import (
    ALL_SYSTEMS,
    FIGURES,
    ExperimentConfig,
    banner,
    defaults,
    format_table,
    run_experiment,
    run_figures,
    system_label,
    table1,
    render_table1,
)
from repro.experiments.figures import cell_configs
from repro.experiments.parallel import run_cells
from repro.traces import Trace, TraceSpec


def tiny_trace(n_files=12, n_requests=300, file_kb=16.0, seed=21):
    rng = np.random.default_rng(seed)
    # Zipf-ish skew via squared uniform.
    popular = (rng.random(n_requests) ** 2 * n_files).astype(int)
    return Trace(
        spec=TraceSpec("tiny", n_files, n_requests, file_kb),
        sizes_kb=np.full(n_files, file_kb),
        requests=np.clip(popular, 0, n_files - 1),
    )


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(["name", "val"], [["a", 1.5], ["bb", 20.25]])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert "1.50" in out and "20.25" in out

    def test_format_table_none_cell(self):
        out = format_table(["x"], [[None]])
        assert "-" in out

    def test_format_table_title(self):
        out = format_table(["x"], [[1]], title="T")
        assert out.splitlines()[0] == "T"

    def test_format_table_ragged_row_raises(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_format_table_empty_rows(self):
        out = format_table(["a", "b"], [])
        assert "a" in out and "b" in out

    def test_banner(self):
        out = banner("hello")
        assert "# hello #" in out


class TestRunner:
    def test_unknown_system_raises(self):
        with pytest.raises(ValueError, match="unknown system"):
            run_experiment(
                ExperimentConfig(system="nginx", trace=tiny_trace())
            )

    def test_named_systems_run(self):
        trace = tiny_trace()
        for system in ("press", "cc-kmc"):
            res = run_experiment(
                ExperimentConfig(
                    system=system, trace=trace, num_nodes=2,
                    mem_mb_per_node=0.25, num_clients=4,
                )
            )
            assert res.throughput_rps > 0
            assert 0 <= res.hit_rates["total"] <= 1
            assert res.counters  # protocol counters captured

    def test_custom_config_system(self):
        cfg = CoopCacheConfig(policy="basic", forward_on_evict=False)
        res = run_experiment(
            ExperimentConfig(
                system=cfg, trace=tiny_trace(), num_nodes=2,
                mem_mb_per_node=0.25, num_clients=4,
            )
        )
        assert res.throughput_rps > 0
        assert system_label(res.config.system) == "cc[basic,scan,nofwd]"

    def test_deterministic(self):
        def run():
            return run_experiment(
                ExperimentConfig(
                    system="cc-kmc", trace=tiny_trace(), num_nodes=2,
                    mem_mb_per_node=0.25, num_clients=4,
                )
            ).throughput_rps

        assert run() == run()

    def test_result_properties(self):
        res = run_experiment(
            ExperimentConfig(
                system="press", trace=tiny_trace(), num_nodes=2,
                mem_mb_per_node=0.5, num_clients=4,
            )
        )
        assert res.mean_response_ms == res.workload.mean_response_ms
        assert res.throughput_rps == res.workload.throughput_rps


class TestSweeps:
    @pytest.fixture
    def tiny_defaults(self, monkeypatch):
        monkeypatch.setattr(defaults, "workload", lambda name: tiny_trace())
        monkeypatch.setattr(defaults, "NUM_CLIENTS", 4)

    def test_fig2_entry_shape(self, tiny_defaults):
        spec = FIGURES["fig2"]([0.125, 0.5], [("rutgers", 2)])
        assert spec.cells == [
            ("rutgers", 2, system, mem)
            for system in ALL_SYSTEMS for mem in [0.125, 0.5]
        ]
        configs = cell_configs(spec.cells)
        assert [(c.num_nodes, c.mem_mb_per_node, c.num_clients)
                for c in configs[:2]] == [(2, 0.125, 4), (2, 0.5, 4)]
        assert all(c.trace is configs[0].trace for c in configs)
        data = spec.view(dict(zip(spec.cells, run_cells(configs))))
        assert list(data) == ["rutgers"]
        panel = data["rutgers"]
        assert panel["memories_mb"] == [0.125, 0.5]
        assert list(panel["throughput_rps"]) == ALL_SYSTEMS
        assert all(len(v) == 2 for v in panel["throughput_rps"].values())

    def test_more_memory_not_worse(self, monkeypatch):
        monkeypatch.setattr(
            defaults, "workload",
            lambda name: tiny_trace(n_files=16, n_requests=500),
        )
        monkeypatch.setattr(defaults, "NUM_CLIENTS", 8)
        small, big = run_cells(cell_configs(
            [("rutgers", 2, "cc-kmc", 0.0625), ("rutgers", 2, "cc-kmc", 1.0)]
        ))
        assert big.hit_rates["total"] >= small.hit_rates["total"]

    def test_fig6b_node_axis(self, tiny_defaults):
        spec = FIGURES["fig6b"]([])
        assert [cell[1] for cell in spec.cells] == [4, 8, 16, 32]
        assert {cell[3] for cell in spec.cells} == {32.0 * defaults.SCALE}
        data = run_figures(["fig6b"])["fig6b"]
        assert data["node_counts"] == [4, 8, 16, 32]
        assert len(data["throughput_rps"]) == 4
        assert all(t > 0 for t in data["throughput_rps"])

    def test_system_label(self):
        assert system_label(CoopCacheConfig()) == "cc[kmc,scan]"
        assert (
            system_label(CoopCacheConfig(forward_on_evict=False))
            == "cc[kmc,scan,nofwd]"
        )
        assert "hints0.9" in system_label(
            CoopCacheConfig(directory="hints", hint_accuracy=0.9)
        )


class TestTables:
    def test_table1_rows(self):
        rows = table1()
        names = [r[0] for r in rows]
        assert any("Parsing" in n for n in names)
        assert any("non-contiguous" in n for n in names)

    def test_render_table1(self):
        out = render_table1()
        assert "Table 1" in out
        assert "0.07ms" in out


class TestFigureHelpers:
    def test_fig1_small(self, monkeypatch):
        import repro.experiments.figures as figs

        monkeypatch.setattr(
            figs.defaults, "workload", lambda name: tiny_trace()
        )
        data = figs.fig1()
        assert data["cum_request_fraction"][-1] == pytest.approx(1.0)
        assert data["mb_for_99pct"] <= data["file_set_mb"]
        out = figs.render_fig1(data)
        assert "Figure 1" in out

    def test_fig6b_render_with_fake_data(self):
        from repro.experiments.figures import render_fig6b

        data = {
            "trace": "rutgers",
            "mem_mb_per_node": 0.64,
            "node_counts": [4, 8],
            "throughput_rps": [1000.0, 1900.0],
            "hit_rates": [0.8, 0.82],
        }
        out = render_fig6b(data)
        assert "Figure 6b" in out
        assert "7.60" in out  # speedup 1.9 x base 4 nodes

    def test_render_fig3_with_fake_data(self):
        from repro.experiments.figures import render_fig3

        data = {
            "calgary-4nodes": {
                "memories_mb": [0.1, 0.2],
                "normalized": {
                    "cc-basic": [0.3, 0.4],
                    "cc-sched": [0.5, 0.6],
                    "cc-kmc": [0.9, 0.95],
                },
            }
        }
        out = render_fig3(data)
        assert "normalized to PRESS" in out
        assert "0.95" in out
