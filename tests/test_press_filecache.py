"""Unit tests for the PRESS whole-file cache and replica directory."""

import pytest

from repro.press import FileCache, ReplicaDirectory


def make(capacity_kb=100.0, node_id=0, directory=None):
    d = directory or ReplicaDirectory()
    return FileCache(node_id, capacity_kb, d), d


class TestReplicaDirectory:
    def test_empty(self):
        d = ReplicaDirectory()
        assert d.holders(1) == frozenset()
        assert d.copies(1) == 0

    def test_add_remove(self):
        d = ReplicaDirectory()
        d.add(5, 0)
        d.add(5, 2)
        assert d.holders(5) == {0, 2}
        assert d.copies(5) == 2
        d.remove(5, 0)
        assert d.holders(5) == {2}
        d.remove(5, 2)
        assert d.copies(5) == 0

    def test_remove_missing_raises(self):
        d = ReplicaDirectory()
        with pytest.raises(KeyError):
            d.remove(1, 0)

    def test_cached_files(self):
        d = ReplicaDirectory()
        d.add(1, 0)
        d.add(2, 1)
        assert set(d.cached_files()) == {1, 2}


class TestFileCache:
    def test_insert_and_contains(self):
        c, d = make()
        c.insert(1, 30.0)
        assert 1 in c and len(c) == 1
        assert c.used_kb == 30.0
        assert d.holders(1) == {0}

    def test_capacity_positive(self):
        with pytest.raises(ValueError):
            FileCache(0, 0.0, ReplicaDirectory())

    @pytest.mark.parametrize("capacity_kb", [float("nan"), float("inf")])
    def test_capacity_finite(self, capacity_kb):
        with pytest.raises(ValueError, match="capacity must be positive"):
            FileCache(0, capacity_kb, ReplicaDirectory())

    def test_duplicate_insert_raises(self):
        c, _ = make()
        c.insert(1, 10.0)
        with pytest.raises(KeyError):
            c.insert(1, 10.0)

    def test_oversized_file_rejected(self):
        c, _ = make(capacity_kb=50.0)
        assert not c.fits(60.0)
        with pytest.raises(ValueError):
            c.insert(1, 60.0)

    def test_lru_eviction_order(self):
        c, _ = make(capacity_kb=100.0)
        c.insert(1, 40.0)
        c.insert(2, 40.0)
        evicted = c.insert(3, 40.0)  # needs 20 KB -> evict oldest (1)
        assert evicted == [1]
        assert 1 not in c and 2 in c and 3 in c

    def test_touch_protects_from_eviction(self):
        c, _ = make(capacity_kb=100.0)
        c.insert(1, 40.0)
        c.insert(2, 40.0)
        c.touch(1)
        evicted = c.insert(3, 40.0)
        assert evicted == [2]

    def test_multiple_evictions_for_big_insert(self):
        c, _ = make(capacity_kb=100.0)
        c.insert(1, 30.0)
        c.insert(2, 30.0)
        c.insert(3, 30.0)
        evicted = c.insert(4, 90.0)
        assert evicted == [1, 2, 3]
        assert c.used_kb == 90.0

    def test_dereplication_prefers_replicated_files(self):
        d = ReplicaDirectory()
        a, _ = make(capacity_kb=100.0, node_id=0, directory=d)
        b, _ = make(capacity_kb=100.0, node_id=1, directory=d)
        a.insert(1, 50.0)       # file 1 only at node 0 (last copy)
        a.insert(2, 50.0)       # file 2 at node 0...
        b.insert(2, 50.0)       # ...and node 1 (replicated)
        # Node 0 must evict: file 1 is older, but file 2 has another copy.
        evicted = a.insert(3, 50.0)
        assert evicted == [2]
        assert 1 in a  # last copy kept
        assert d.copies(2) == 1  # still alive at node 1

    def test_last_copy_evicted_when_no_alternative(self):
        c, d = make(capacity_kb=100.0)
        c.insert(1, 50.0)
        c.insert(2, 50.0)
        evicted = c.insert(3, 50.0)  # both are last copies -> plain LRU
        assert evicted == [1]
        assert d.copies(1) == 0

    def test_directory_synced_on_eviction(self):
        c, d = make(capacity_kb=50.0)
        c.insert(1, 50.0)
        assert d.holders(1) == {0}
        c.insert(2, 50.0)  # evicts file 1
        assert d.holders(1) == frozenset()
        assert d.holders(2) == {0}

    def test_drop_explicit(self):
        c, d = make()
        c.insert(1, 10.0)
        c.drop(1)
        assert 1 not in c and c.used_kb == 0.0
        assert d.copies(1) == 0
        with pytest.raises(KeyError):
            c.drop(1)

    def test_free_kb(self):
        c, _ = make(capacity_kb=100.0)
        c.insert(1, 30.0)
        assert c.free_kb == pytest.approx(70.0)

    def test_lru_order_introspection(self):
        c, _ = make(capacity_kb=100.0)
        c.insert(1, 10.0)
        c.insert(2, 10.0)
        c.touch(1)
        assert c.lru_order() == [2, 1]

    def test_eviction_from_empty_raises(self):
        c, _ = make(capacity_kb=10.0)
        with pytest.raises(KeyError):
            c._select_victim()
