"""Unit tests for replacement policies and middleware configuration."""

import pytest

from repro.cache import BlockCache, BlockId
from repro.cluster.disk import FIFO, SCAN
from repro.core import CoopCacheConfig, POLICIES, VARIANTS, select_victim, variant


def b(i):
    return BlockId(0, i)


class TestSelectVictim:
    def make_cache(self):
        c = BlockCache(0, 8)
        c.insert(b(1), master=True, age=1.0)   # oldest master
        c.insert(b(2), master=True, age=4.0)
        c.insert(b(3), master=False, age=2.0)  # oldest non-master
        c.insert(b(4), master=False, age=3.0)
        return c

    def test_basic_picks_global_oldest(self):
        c = self.make_cache()
        assert select_victim("basic", c) == (b(1), 1.0, True)

    def test_kmc_prefers_nonmaster_even_if_younger(self):
        c = self.make_cache()
        assert select_victim("kmc", c) == (b(3), 2.0, False)

    def test_kmc_falls_back_to_lru_when_only_masters(self):
        c = BlockCache(0, 4)
        c.insert(b(1), master=True, age=2.0)
        c.insert(b(2), master=True, age=1.0)
        assert select_victim("kmc", c) == (b(2), 1.0, True)

    def test_basic_picks_nonmaster_when_oldest(self):
        c = BlockCache(0, 4)
        c.insert(b(1), master=True, age=5.0)
        c.insert(b(2), master=False, age=1.0)
        assert select_victim("basic", c) == (b(2), 1.0, False)

    def test_empty_cache_returns_none(self):
        assert select_victim("basic", BlockCache(0, 4)) is None
        assert select_victim("kmc", BlockCache(0, 4)) is None

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError, match="unknown replacement policy"):
            select_victim("mru", BlockCache(0, 4))

    def test_registry_names(self):
        assert set(POLICIES) == {"basic", "kmc", "hybrid"}

    def test_hybrid_protects_masters_normally(self):
        c = self.make_cache()
        # Oldest master age 1.0, oldest replica age 2.0: gap 1.0 < bias.
        assert select_victim("hybrid", c) == (b(3), 2.0, False)

    def test_hybrid_releases_extremely_cold_master(self):
        from repro.cache import BlockCache

        c = BlockCache(0, 8)
        c.insert(b(1), master=True, age=1.0)       # ancient master
        c.insert(b(2), master=False, age=5000.0)   # recent replica
        assert select_victim("hybrid", c) == (b(1), 1.0, True)

    def test_hybrid_empty_and_masters_only(self):
        from repro.cache import BlockCache

        c = BlockCache(0, 4)
        assert select_victim("hybrid", c) is None
        c.insert(b(1), master=True, age=1.0)
        assert select_victim("hybrid", c) == (b(1), 1.0, True)


class TestCoopCacheConfig:
    def test_defaults_are_kmc_scan(self):
        cfg = CoopCacheConfig()
        assert cfg.policy == "kmc"
        assert cfg.disk_discipline == SCAN
        assert cfg.forward_on_evict is True
        assert cfg.directory == "perfect"

    def test_paper_variants(self):
        assert variant("cc-basic").policy == "basic"
        assert variant("cc-basic").disk_discipline == FIFO
        assert variant("cc-sched").policy == "basic"
        assert variant("cc-sched").disk_discipline == SCAN
        assert variant("cc-kmc").policy == "kmc"
        assert variant("cc-kmc").disk_discipline == SCAN

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant"):
            variant("cc-turbo")

    def test_variant_registry_complete(self):
        assert set(VARIANTS) == {"cc-basic", "cc-sched", "cc-kmc"}

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            CoopCacheConfig(policy="mru")

    def test_invalid_discipline_rejected(self):
        with pytest.raises(ValueError):
            CoopCacheConfig(disk_discipline="lifo")

    def test_invalid_directory_rejected(self):
        with pytest.raises(ValueError):
            CoopCacheConfig(directory="oracle")

    def test_invalid_hint_accuracy(self):
        with pytest.raises(ValueError):
            CoopCacheConfig(hint_accuracy=1.5)

    def test_with_overrides(self):
        cfg = CoopCacheConfig().with_overrides(forward_on_evict=False)
        assert cfg.forward_on_evict is False
        assert CoopCacheConfig().forward_on_evict is True
