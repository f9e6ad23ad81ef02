"""Unit + property tests for AgedLRU and FileLayout."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import AgedLRU, BlockId, FileLayout
from repro.params import SimParams


def b(i):
    return BlockId(0, i)


class TestAgedLRU:
    def test_empty(self):
        lru = AgedLRU()
        assert len(lru) == 0
        assert lru.oldest() is None
        assert lru.oldest_age() == float("inf")

    def test_add_and_oldest(self):
        lru = AgedLRU()
        lru.add(b(1), 10.0)
        lru.add(b(2), 5.0)
        lru.add(b(3), 7.0)
        assert lru.oldest() == (b(2), 5.0)

    def test_add_duplicate_raises(self):
        lru = AgedLRU()
        lru.add(b(1), 1.0)
        with pytest.raises(KeyError):
            lru.add(b(1), 2.0)

    def test_touch_reorders(self):
        lru = AgedLRU()
        lru.add(b(1), 1.0)
        lru.add(b(2), 2.0)
        lru.touch(b(1), 3.0)
        assert lru.oldest() == (b(2), 2.0)

    def test_touch_missing_raises(self):
        with pytest.raises(KeyError):
            AgedLRU().touch(b(1), 1.0)

    def test_touch_backwards_raises(self):
        lru = AgedLRU()
        lru.add(b(1), 5.0)
        with pytest.raises(ValueError):
            lru.touch(b(1), 4.0)

    def test_touch_same_age_ok(self):
        lru = AgedLRU()
        lru.add(b(1), 5.0)
        lru.touch(b(1), 5.0)
        assert lru.age_of(b(1)) == 5.0

    def test_remove_returns_age(self):
        lru = AgedLRU()
        lru.add(b(1), 9.0)
        assert lru.remove(b(1)) == 9.0
        assert b(1) not in lru

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            AgedLRU().remove(b(1))

    def test_pop_oldest_sequence(self):
        lru = AgedLRU()
        for i, age in enumerate([5.0, 1.0, 3.0, 2.0, 4.0]):
            lru.add(b(i), age)
        popped = [lru.pop_oldest() for _ in range(5)]
        assert [age for _, age in popped] == [1.0, 2.0, 3.0, 4.0, 5.0]
        with pytest.raises(KeyError):
            lru.pop_oldest()

    def test_equal_ages_break_by_insertion_order(self):
        lru = AgedLRU()
        lru.add(b(1), 1.0)
        lru.add(b(2), 1.0)
        assert lru.pop_oldest()[0] == b(1)
        assert lru.pop_oldest()[0] == b(2)

    def test_stale_entries_skipped_after_churn(self):
        lru = AgedLRU()
        lru.add(b(1), 1.0)
        for t in range(2, 50):
            lru.touch(b(1), float(t))
        lru.add(b(2), 0.5)
        assert lru.oldest() == (b(2), 0.5)

    def test_iter_and_contains(self):
        lru = AgedLRU()
        lru.add(b(1), 1.0)
        lru.add(b(2), 2.0)
        assert set(lru) == {b(1), b(2)}
        assert b(1) in lru and b(3) not in lru

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["add", "touch", "remove", "pop"]),
                st.integers(min_value=0, max_value=9),
            ),
            max_size=200,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_model(self, ops):
        """AgedLRU behaves like a dict + argmin reference implementation."""
        lru = AgedLRU()
        model = {}  # block -> (age, seq)
        clock = 0.0
        seq = 0
        for op, i in ops:
            blk = b(i)
            clock += 1.0
            seq += 1
            if op == "add" and blk not in model:
                lru.add(blk, clock)
                model[blk] = (clock, seq)
            elif op == "touch" and blk in model:
                lru.touch(blk, clock)
                model[blk] = (clock, seq)
            elif op == "remove" and blk in model:
                assert lru.remove(blk) == model.pop(blk)[0]
            elif op == "pop" and model:
                blk2, age = lru.pop_oldest()
                expect = min(model, key=lambda k: model[k])
                assert blk2 == expect and age == model.pop(expect)[0]
            # Invariants after every step:
            assert len(lru) == len(model)
            if model:
                exp_oldest = min(model, key=lambda k: model[k])
                got = lru.oldest()
                assert got is not None and got[0] == exp_oldest
            else:
                assert lru.oldest() is None


def layout_arithmetic(size_kb, block_kb=8):
    """Block count and per-block KB of one file, as plain arithmetic."""
    nblocks = max(1, math.ceil(size_kb / block_kb))
    rem = size_kb - (nblocks - 1) * block_kb
    return nblocks, [float(block_kb)] * (nblocks - 1) + [float(rem if rem > 0 else block_kb)]


file_sizes = st.one_of(
    st.integers(1, 512).map(lambda k: 8.0 * k),  # exact multiples of a block
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),  # under 1 KB
    st.integers(0, 512).map(lambda k: math.nextafter(8.0 * k, math.inf)),  # just above
    st.tuples(st.integers(0, 512), st.floats(1e-9, 1e-3)).map(
        lambda t: 8.0 * t[0] + t[1]),  # a little above
    st.floats(1e3, 3e4),  # large
)


class TestFileLayout:
    def make(self, sizes):
        return FileLayout(sizes, SimParams())

    def test_num_blocks_rounding(self):
        layout = self.make([1.0, 8.0, 8.5, 16.0, 100.0])
        assert [layout.num_blocks(f) for f in range(5)] == [1, 1, 2, 2, 13]

    def test_num_extents(self):
        layout = self.make([1.0, 64.0, 65.0, 200.0])
        assert [layout.num_extents(f) for f in range(4)] == [1, 1, 2, 4]

    def test_extent_runs_cover_the_file(self):
        layout = self.make([200.0])
        runs = layout.extent_runs(0)
        assert [(r.extent, r.start_block, r.nblocks, r.size_kb)
                for r in runs] == [(0, 0, 8, 64.0), (1, 8, 8, 64.0),
                                   (2, 16, 8, 64.0), (3, 24, 1, 8.0)]

    def test_block_size_kb_partial_tail(self):
        layout = self.make([20.0])
        assert layout.block_size_kb(BlockId(0, 0)) == 8.0
        assert layout.block_size_kb(BlockId(0, 1)) == 8.0
        assert layout.block_size_kb(BlockId(0, 2)) == pytest.approx(4.0)

    def test_block_size_exact_multiple(self):
        layout = self.make([16.0])
        assert layout.block_size_kb(BlockId(0, 1)) == 8.0

    def test_block_out_of_range(self):
        layout = self.make([8.0])
        with pytest.raises(IndexError):
            layout.block_size_kb(BlockId(0, 1))

    def test_blocks_iterator(self):
        layout = self.make([20.0])
        assert list(layout.blocks(0)) == [BlockId(0, i) for i in range(3)]

    def test_extent_of(self):
        layout = self.make([200.0])
        assert layout.extent_of(BlockId(0, 0)) == 0
        assert layout.extent_of(BlockId(0, 7)) == 0
        assert layout.extent_of(BlockId(0, 8)) == 1

    def test_non_positive_size_rejected(self):
        with pytest.raises(ValueError):
            self.make([8.0, 0.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_size_rejected(self, bad):
        with pytest.raises(ValueError, match="file 1 has non-positive"):
            self.make([4.0, bad])

    def test_block_sizes_sum_to_file_size(self):
        layout = self.make([13.7, 64.0, 1.0, 100.3])
        for f in range(4):
            total = sum(layout.block_size_kb(blk) for blk in layout.blocks(f))
            assert total == pytest.approx(layout.size_kb(f))

    @given(st.lists(file_sizes, min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_table_matches_arithmetic(self, sizes):
        layout = self.make(sizes)
        for f, size in enumerate(sizes):
            nblocks, block_kbs = layout_arithmetic(size)
            assert layout.num_blocks(f) == nblocks
            blocks = layout.blocks(f)
            assert blocks == tuple(BlockId(f, i) for i in range(nblocks))
            assert layout.blocks(f) is blocks
            assert [layout.block_size_kb(blk) for blk in blocks] == block_kbs
            for bad in (nblocks, -1):
                with pytest.raises(IndexError):
                    layout.block_size_kb(BlockId(f, bad))
