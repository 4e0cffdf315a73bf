"""Flat (exact brute-force) index: one dense matrix, full scan per query."""

from __future__ import annotations

import numpy as np

from ..filters import FilterExpr, evaluate_filter
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
        ids = self._table.ids
        keep = [i for i, doc_id in enumerate(ids)
                if evaluate_filter(filt, self._docs[doc_id])]
        if not keep:
            return []
        dists = rows_to_query_distances(self._table.rows[keep], q)
        return [(float(dists[j]), ids[i]) for j, i in enumerate(keep)]
