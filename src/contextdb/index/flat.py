"""Flat (exact brute-force) index: one dense matrix, full scan per query."""

from __future__ import annotations

from .base import VectorIndex


class FlatIndex(VectorIndex):
    """Exact k-NN over the slot table's rows: the base class's scan of every
    slot, filtered or not.

    Removal is swap-with-last compaction, so the matrix always holds exactly
    the live vectors and a scan touches nothing stale. It has no per-query
    knobs: a search given one raises TypeError.
    """

    kind = "flat"
