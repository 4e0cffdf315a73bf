"""Flat (exact brute-force) index: one dense matrix, full scan per query."""

from __future__ import annotations

import numpy as np

from ..filters import FilterExpr
from .base import VectorIndex, boundary_cut, rows_to_query_distances


class FlatIndex(VectorIndex):
    """Exact k-NN over the slot table's rows.

    Removal is swap-with-last compaction, so the matrix always holds exactly
    the live vectors and a scan touches nothing stale. It has no per-query
    knobs: a search given one raises TypeError.
    """

    kind = "flat"

    def _nearest(self, q: np.ndarray, n: int) -> list[tuple[float, str]]:
        dists = rows_to_query_distances(self._table.rows, q)
        ids = self._table.ids
        return [(float(dists[i]), ids[i]) for i in boundary_cut(dists, n)]

    def _filtered(self, q: np.ndarray, k: int,
                  filt: FilterExpr) -> list[tuple[float, str]]:
        """Exact: restrict the scan to matching rows, then take the k nearest."""
        t = self._table
        keep = [i for i, meta in enumerate(t.metas) if filt.matches(meta)]
        if not keep:
            return []
        dists = rows_to_query_distances(t.rows[keep], q)
        return [(float(dists[j]), t.ids[i]) for j, i in enumerate(keep)]
