"""The simulator runs on Python floats.

A trace keeps its file sizes as a numpy array.  They become Python
floats once, where they enter the model (``FileLayout``), so service
demands and, through ``now + delay``, the kernel clock never turn into
``numpy.float64`` scalars, whose arithmetic costs several times a
float's for the same bits.
"""

import pytest

from repro.cache.block import FileLayout
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.params import SimParams
from repro.sim import Simulator
from repro.traces import datasets


def _trace():
    return datasets.scaled("rutgers", 0.01, num_requests=200)


def test_layout_answers_in_python_floats():
    trace = _trace()
    assert type(trace.sizes_kb[0]) is not float  # the trace stays numpy
    layout = FileLayout(trace.sizes_kb, SimParams())
    for f in range(layout.num_files):
        assert type(layout.size_kb(f)) is float
        for blk in layout.blocks(f):
            assert type(layout.block_size_kb(blk)) is float
        for run in layout.extent_runs(f):
            assert type(run.size_kb) is float
    assert type(layout.total_size_kb()) is float


@pytest.mark.parametrize("system", ["press", "cc-basic", "cc-sched", "cc-kmc"])
def test_every_heap_time_is_a_python_float(system, monkeypatch):
    seen = set()
    push = Simulator._push

    def recording_push(self, delay, event):
        seen.add(type(self._now + delay))
        return push(self, delay, event)

    monkeypatch.setattr(Simulator, "_push", recording_push)
    run_experiment(ExperimentConfig(
        system=system, trace=_trace(), num_nodes=4, mem_mb_per_node=0.5,
        num_clients=8, seed=0,
    ))
    assert seen == {float}
