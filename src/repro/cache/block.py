"""Block identity and file layout arithmetic.

The middleware caches fixed-size blocks (8 KB) of files laid out in 64 KB
extents.  A :class:`BlockId` names one block; :class:`FileLayout` answers
the geometry questions every component asks (how many blocks, which
extent a block lives in, how many KB a given block actually holds — the
last block of a file is usually partial).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import NamedTuple

from ..cluster.disk import DiskRequest
from ..params import SimParams

__all__ = ["BlockId", "FileLayout"]


class BlockId(NamedTuple):
    """One cache block: block ``index`` of file ``file_id`` (both 0-based)."""

    file_id: int
    index: int


class FileLayout:
    """Geometry of a file set under a given parameterization.

    Built once per simulation from the trace's per-file sizes (KB).  The
    constructor also builds the block table: each file's tuple of
    canonical :class:`BlockId` objects and the KB held by its last block,
    so every query is a lookup and no request rebuilds a block list.

    This is where trace numbers enter the model, so the sizes become
    Python floats here, once.  A trace keeps them as a numpy array, and
    every size-dependent service demand, and through ``now + delay`` the
    kernel clock, would otherwise run on ``numpy.float64`` scalars, whose
    arithmetic costs several times a float's for the same bits.
    """

    __slots__ = ("params", "_sizes_kb", "_blocks_per_extent", "_full_kb",
                 "_blocks", "_last_kb")

    def __init__(self, sizes_kb: Sequence[float], params: SimParams) -> None:
        sizes = [float(s) for s in sizes_kb]
        full = params.block_kb
        blocks: list[tuple[BlockId, ...]] = []
        last_kb: list[float] = []
        for f, s in enumerate(sizes):
            if not 0 < s < math.inf:
                raise ValueError(
                    f"file {f} has non-positive or non-finite size {s!r}")
            nblocks = params.blocks_of(s)
            blocks.append(tuple([BlockId(f, i) for i in range(nblocks)]))
            rem = s - (nblocks - 1) * full
            last_kb.append(float(rem if rem > 0 else full))
        self.params = params
        self._sizes_kb = sizes
        self._blocks_per_extent = params.extent_kb // full
        self._full_kb = float(full)
        self._blocks = blocks
        self._last_kb = last_kb

    # -- file-level queries ---------------------------------------------------
    @property
    def num_files(self) -> int:
        """Number of files in the set."""
        return len(self._sizes_kb)

    def size_kb(self, file_id: int) -> float:
        """Size of ``file_id`` in KB."""
        return self._sizes_kb[file_id]

    def num_blocks(self, file_id: int) -> int:
        """Blocks needed to cache ``file_id``."""
        return len(self._blocks[file_id])

    def num_extents(self, file_id: int) -> int:
        """Extents ``file_id`` spans on disk."""
        return self.params.extents_of(self._sizes_kb[file_id])

    def extent_runs(self, file_id: int) -> list[DiskRequest]:
        """One disk request per 64 KB extent of ``file_id``: a whole-file
        read, as PRESS and whole-file caching make it."""
        bpe = self._blocks_per_extent
        nblocks = len(self._blocks[file_id])
        extent_kb = float(self.params.extent_kb)
        runs = []
        remaining = self._sizes_kb[file_id]
        for ext in range(self.num_extents(file_id)):
            chunk = min(remaining, extent_kb)
            start = ext * bpe
            runs.append(DiskRequest(file_id, ext, start,
                                    min(bpe, nblocks - start), chunk))
            remaining -= chunk
        return runs

    # -- block-level queries ----------------------------------------------------
    def blocks(self, file_id: int) -> tuple[BlockId, ...]:
        """All blocks of ``file_id`` in order (the same tuple every call)."""
        return self._blocks[file_id]

    def block_size_kb(self, block: BlockId) -> float:
        """KB of data in ``block`` (the final block may be partial)."""
        file_id, index = block
        nblocks = len(self._blocks[file_id])
        if not 0 <= index < nblocks:
            raise IndexError(f"{block} out of range for file of {nblocks} blocks")
        if index < nblocks - 1:
            return self._full_kb
        return self._last_kb[file_id]

    def extent_of(self, block: BlockId) -> int:
        """Extent index containing ``block``."""
        return block.index // self._blocks_per_extent
