"""Benchmark trajectory records and their regression gate.

Every benchmark result is wrapped in a shared record schema
(:mod:`repro.bench.schema`: git sha, seed, a digest of the run
parameters and a schema version) and written once, as
``benchmarks/results/<name>.json``.  :mod:`repro.bench.compare` is the
CI gate: the simulator is deterministic, so a record must equal its
committed baseline ``benchmarks/baselines/<name>.json`` value for value
(floats within 1e-9).  Any change of simulated output fails the gate
until the baseline is re-blessed on purpose.

CLI::

    python -m repro.bench compare benchmarks/results/fig2.json
"""

from .compare import compare_records, mismatches
from .schema import (
    SCHEMA_VERSION,
    dump_record,
    git_sha,
    load_record,
    params_digest,
    wrap_result,
)

__all__ = [
    "SCHEMA_VERSION",
    "wrap_result",
    "dump_record",
    "load_record",
    "git_sha",
    "params_digest",
    "compare_records",
    "mismatches",
]
