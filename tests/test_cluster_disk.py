"""Unit tests for the disk model: seek accounting and scheduling."""

import pytest

from repro.cluster import FIFO, SCAN, Disk, DiskRequest
from repro.params import DEFAULT_PARAMS
from repro.sim import Simulator


def run_requests(requests, discipline, params=DEFAULT_PARAMS, stagger=0.0):
    """Submit all requests (optionally staggered) and run to completion."""
    sim = Simulator()
    disk = Disk(sim, "d", params, discipline=discipline)
    completions = []
    t = 0.0
    for req in requests:
        def submit(r=req):
            disk.submit(r).callbacks.append(
                lambda e: completions.append((sim.now, e.value))
            )
        if stagger:
            sim.call_at(t, submit)
            t += stagger
        else:
            submit()
    sim.run()
    return sim, disk, completions


def seq_requests(file_id, nextents, blocks_per_extent=8, block_kb=8.0):
    """A file read as one run per extent."""
    out = []
    for e in range(nextents):
        out.append(
            DiskRequest(
                file_id=file_id,
                extent=e,
                start_block=e * blocks_per_extent,
                nblocks=blocks_per_extent,
                size_kb=blocks_per_extent * block_kb,
            )
        )
    return out


class TestDiskRequest:
    def test_end_block(self):
        r = DiskRequest(1, 0, 4, 4, 32.0)
        assert r.end_block == 8

    def test_invalid_nblocks(self):
        with pytest.raises(ValueError):
            DiskRequest(1, 0, 0, 0, 8.0)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            DiskRequest(1, 0, 0, 1, 0.0)

    @pytest.mark.parametrize("size_kb", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_size_rejected(self, size_kb):
        with pytest.raises(ValueError, match=repr(size_kb)):
            DiskRequest(0, 0, 0, 1, size_kb)

    def test_sort_key_order(self):
        a = DiskRequest(1, 0, 0, 1, 8.0)
        b = DiskRequest(1, 1, 8, 1, 8.0)
        c = DiskRequest(2, 0, 0, 1, 8.0)
        assert a.sort_key() < b.sort_key() < c.sort_key()


class TestSeekAccounting:
    def test_first_access_pays_both_seeks(self):
        sim, disk, _ = run_requests([DiskRequest(1, 0, 0, 1, 8.0)], FIFO)
        d = DEFAULT_PARAMS.disk
        expected = d.seek_ms + d.metadata_seek_ms + 8.0 * d.transfer_per_kb_ms
        assert sim.now == pytest.approx(expected)
        assert disk.seeks == 1 and disk.contiguous_hits == 0

    def test_continuation_within_extent_is_contiguous(self):
        reqs = [DiskRequest(1, 0, 0, 4, 32.0), DiskRequest(1, 0, 4, 4, 32.0)]
        _, disk, _ = run_requests(reqs, FIFO)
        assert disk.seeks == 1 and disk.contiguous_hits == 1

    def test_next_extent_pays_seek(self):
        # Extents are only contiguous internally (the paper's pre-allocation
        # guarantee), so crossing an extent boundary costs a fresh seek.
        reqs = seq_requests(1, nextents=2)
        _, disk, _ = run_requests(reqs, FIFO)
        assert disk.seeks == 2 and disk.contiguous_hits == 0

    def test_different_file_pays_seek(self):
        reqs = [DiskRequest(1, 0, 0, 4, 32.0), DiskRequest(2, 0, 0, 4, 32.0)]
        _, disk, _ = run_requests(reqs, FIFO)
        assert disk.seeks == 2

    def test_interleaving_under_fifo_all_seeks(self):
        # Two streams, runs interleaved a-x-b-y: every run seeks (the
        # paper's "12 seeks instead of 4" arithmetic).
        reqs = [
            DiskRequest(1, 0, 0, 2, 16.0),
            DiskRequest(2, 0, 0, 2, 16.0),
            DiskRequest(1, 0, 2, 2, 16.0),
            DiskRequest(2, 0, 2, 2, 16.0),
        ]
        _, disk, _ = run_requests(reqs, FIFO)
        assert disk.seeks == 4 and disk.contiguous_hits == 0

    def test_scan_undoes_interleaving(self):
        reqs = [
            DiskRequest(1, 0, 0, 2, 16.0),
            DiskRequest(2, 0, 0, 2, 16.0),
            DiskRequest(1, 0, 2, 2, 16.0),
            DiskRequest(2, 0, 2, 2, 16.0),
        ]
        _, disk, _ = run_requests(reqs, SCAN)
        # SCAN serves file 1 fully (seek + contiguous) then file 2
        # (seek + contiguous): 2 seeks instead of 4.
        assert disk.seeks == 2 and disk.contiguous_hits == 2

    def test_scan_faster_than_fifo_on_interleaved_streams(self):
        reqs = []
        for blk in range(0, 8, 2):
            reqs.append(DiskRequest(1, 0, blk, 2, 16.0))
            reqs.append(DiskRequest(2, 0, blk, 2, 16.0))
        sim_f, _, _ = run_requests(list(reqs), FIFO)
        sim_s, _, _ = run_requests(list(reqs), SCAN)
        assert sim_s.now < sim_f.now


class TestScanDiscipline:
    def test_sweep_order_by_file_then_extent(self):
        reqs = [
            DiskRequest(2, 0, 0, 1, 8.0),
            DiskRequest(1, 1, 8, 1, 8.0),
            DiskRequest(1, 0, 0, 1, 8.0),
        ]
        # Stagger so all arrive while the first is in service.
        sim = Simulator()
        disk = Disk(sim, "d", DEFAULT_PARAMS, discipline=SCAN)
        served = []
        # Seed the disk with a long run so the rest queue up.
        disk.submit(DiskRequest(0, 0, 0, 8, 64.0)).callbacks.append(
            lambda e: served.append(e.value.file_id)
        )
        for r in reqs:
            disk.submit(r).callbacks.append(
                lambda e: served.append((e.value.file_id, e.value.extent))
            )
        sim.run()
        assert served == [0, (1, 0), (1, 1), (2, 0)]

    def test_scan_prefers_head_continuation(self):
        sim = Simulator()
        disk = Disk(sim, "d", DEFAULT_PARAMS, discipline=SCAN)
        served = []
        disk.submit(DiskRequest(5, 0, 0, 2, 16.0)).callbacks.append(
            lambda e: served.append("first")
        )
        # Queued while first in service: a lower-keyed request and the
        # continuation of file 5.  Continuation must win.
        disk.submit(DiskRequest(1, 0, 0, 2, 16.0)).callbacks.append(
            lambda e: served.append("file1")
        )
        disk.submit(DiskRequest(5, 0, 2, 2, 16.0)).callbacks.append(
            lambda e: served.append("cont")
        )
        sim.run()
        assert served == ["first", "cont", "file1"]

    def test_scan_serves_immediate_resubmission_contiguously(self):
        # A stream that reads its blocks one at a time (submit block k+1
        # the instant block k completes) must keep head contiguity under
        # SCAN even with a competing request queued: the post-completion
        # dispatch is deferred one kernel step so the resubmission wins.
        sim = Simulator()
        disk = Disk(sim, "d", DEFAULT_PARAMS, discipline=SCAN)

        def stream():
            for blk in range(3):
                yield disk.submit(DiskRequest(1, 0, blk, 1, 8.0))

        p = sim.process(stream())
        # Competing block from another file arrives mid-service of the
        # stream's first block.
        sim.call_after(1.0, disk.submit, DiskRequest(2, 0, 0, 1, 8.0))
        sim.run()
        assert p.ok
        # File 1's three blocks: 1 seek + 2 contiguous; file 2: 1 seek.
        assert disk.contiguous_hits == 2
        assert disk.seeks == 2

    def test_fifo_immediate_resubmission_interleaves(self):
        # Under FIFO the same pattern interleaves: the queued competitor
        # is served between the stream's blocks, costing seeks.
        sim = Simulator()
        disk = Disk(sim, "d", DEFAULT_PARAMS, discipline=FIFO)

        def stream():
            for blk in range(3):
                yield disk.submit(DiskRequest(1, 0, blk, 1, 8.0))

        sim.process(stream())
        sim.call_after(1.0, disk.submit, DiskRequest(2, 0, 0, 1, 8.0))
        sim.run()
        assert disk.seeks >= 3  # competitor breaks the stream once

    def test_scan_wraps_to_lowest_key(self):
        sim = Simulator()
        disk = Disk(sim, "d", DEFAULT_PARAMS, discipline=SCAN)
        served = []
        disk.submit(DiskRequest(9, 0, 0, 1, 8.0)).callbacks.append(
            lambda e: served.append(9)
        )
        disk.submit(DiskRequest(3, 0, 0, 1, 8.0)).callbacks.append(
            lambda e: served.append(3)
        )
        sim.run()
        # Head at file 9; nothing >= head, so wrap to file 3.
        assert served == [9, 3]


class TestDiskStats:
    def test_completed_and_kb(self):
        reqs = seq_requests(1, nextents=3)
        _, disk, _ = run_requests(reqs, SCAN)
        assert disk.completed == 3
        assert disk.reads_kb == pytest.approx(3 * 64.0)

    def test_utilization_is_one_while_backlogged(self):
        reqs = seq_requests(1, nextents=4)
        sim, disk, _ = run_requests(reqs, SCAN)
        assert disk.utilization.utilization(sim.now) == pytest.approx(1.0)

    def test_reset_stats(self):
        reqs = seq_requests(1, nextents=2)
        sim, disk, _ = run_requests(reqs, SCAN)
        disk.reset_stats()
        assert disk.seeks == 0 and disk.reads_kb == 0.0

    def test_queue_limit_drop(self):
        sim = Simulator()
        disk = Disk(sim, "d", DEFAULT_PARAMS, discipline=FIFO, queue_limit=1)
        disk.submit(DiskRequest(1, 0, 0, 1, 8.0))   # in service
        disk.submit(DiskRequest(1, 0, 1, 1, 8.0))   # queued
        dropped = disk.submit(DiskRequest(1, 0, 2, 1, 8.0))
        assert dropped.triggered and not dropped.ok

    def test_invalid_discipline(self):
        with pytest.raises(ValueError):
            Disk(Simulator(), "d", DEFAULT_PARAMS, discipline="lifo")

    def test_load_property(self):
        sim = Simulator()
        disk = Disk(sim, "d", DEFAULT_PARAMS)
        disk.submit(DiskRequest(1, 0, 0, 1, 8.0))
        disk.submit(DiskRequest(1, 0, 1, 1, 8.0))
        assert disk.load == 2 and disk.queue_length == 1
        sim.run()
        assert disk.load == 0
