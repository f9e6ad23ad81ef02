"""Table 2: characteristics of the four WWW traces.

Regenerates all four synthetic workloads at the active scale and prints
their Table 2 rows (file count, average file size, request count,
average request size, file-set size).
"""

from repro.experiments.tables import render_table2, table2
from repro.traces.datasets import TRACE_NAMES


def test_bench_table2(artifact):
    data = table2()
    assert set(data) == set(TRACE_NAMES)
    for row in data.values():
        assert row["num_files"] > 0
        # Arlitt & Williamson invariant: requests skew to smaller files.
        assert row["avg_request_kb"] <= row["avg_file_kb"] * 1.5
    artifact("table2", render_table2())
