"""Benchmark trajectory records.

Every benchmark result is wrapped in a shared record schema
(:mod:`repro.bench.schema`: seed, the run parameters and their digest,
and a schema version) and written once, as
``benchmarks/results/<name>.json``.  The simulator is deterministic, so
the committed records are the regression gate: rerun the benches and
``git diff --exit-code -- benchmarks/results`` must print nothing.  Any
change of simulated output fails the gate until the changed records
are committed on purpose.
"""

from .schema import (
    SCHEMA_VERSION,
    dump_record,
    git_sha,
    params_digest,
    wrap_result,
)

__all__ = [
    "SCHEMA_VERSION",
    "wrap_result",
    "dump_record",
    "git_sha",
    "params_digest",
]
