"""Tests for the terminal chart renderers."""

import pytest

from repro.experiments.charts import line_chart


class TestLineChart:
    def test_basic_render(self):
        out = line_chart(
            [1, 2, 4, 8],
            {"a": [0, 1, 2, 3], "b": [3, 2, 1, 0]},
            width=20,
            height=8,
            title="T",
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "*" in out and "o" in out  # two series glyphs
        assert "* a" in out and "o b" in out  # legend
        assert "1" in lines[-2] and "8" in lines[-2]  # x ticks

    def test_y_range_labels(self):
        out = line_chart([0, 1], {"s": [0.0, 100.0]}, width=10, height=5)
        assert "100" in out and "0" in out

    def test_flat_series(self):
        out = line_chart([0, 1, 2], {"s": [5.0, 5.0, 5.0]})
        assert "*" in out

    def test_single_point(self):
        out = line_chart([1], {"s": [2.0]}, width=10, height=4)
        assert "*" in out

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            line_chart([1, 2], {"s": [1.0]})

    def test_empty_x(self):
        with pytest.raises(ValueError):
            line_chart([], {"s": []})

    def test_no_series(self):
        with pytest.raises(ValueError):
            line_chart([1], {})

    def test_axis_labels(self):
        out = line_chart([1, 2], {"s": [1, 2]}, y_label="req/s",
                         x_label="MB/node")
        assert "req/s" in out and "MB/node" in out

    def test_deterministic(self):
        args = ([1, 2, 3], {"a": [3.0, 1.0, 2.0]})
        assert line_chart(*args) == line_chart(*args)

