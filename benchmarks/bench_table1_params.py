"""Table 1: the simulation modeling constants.

Static configuration: the bench renders the table from the default
parameter set, so every paper artifact has a bench target.
"""

from repro.experiments.tables import render_table1, table1
from repro.params import DEFAULT_PARAMS


def test_bench_table1(artifact):
    rows = table1(DEFAULT_PARAMS)
    assert any("Parsing" in r[0] for r in rows)
    artifact("table1", render_table1())
