"""Shared scaffolding for the vector indexes: the slot table that stores the
documents, dimension checks, deterministic hit assembly, the hybrid
filtered-search strategy, and the snapshot state of the slot-table kinds.

Ordering contract used everywhere: hits sorted by (distance, doc_id)
ascending, ranks consecutive from 1. Mutations and searches are serialized
by one reentrant lock per index, which satisfies the reader-writer contract
(a search sees the index entirely before or entirely after a mutation).
"""

from __future__ import annotations

import base64
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Any, ClassVar, Mapping, Sequence

import numpy as np

from ..core import Document, MetaValue, Vector
from ..errors import DimensionMismatchError, EmptyIndexError
from ..filters import FilterExpr


@dataclass(frozen=True)
class SearchHit:
    """One ranked result: document id, true Euclidean distance, 1-based rank."""

    doc_id: str
    distance: float
    rank: int


def rows_to_query_distances(matrix: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Exact Euclidean distance from each matrix row to q (float64)."""
    diff = matrix - q
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def boundary_cut(dists: np.ndarray, n: int) -> np.ndarray:
    """Positions of the n smallest distances, plus every tie with the nth:
    the (distance, doc_id) sort of the hits settles the boundary."""
    if n >= dists.shape[0]:
        return np.arange(dists.shape[0])
    kth = np.partition(dists, n - 1)[n - 1]
    return np.flatnonzero(dists <= kth)


_F8 = np.dtype("<f8")


def pack_array(arr: np.ndarray) -> dict:
    """Snapshot encoding of a float array: its shape, and its little-endian
    float64 bytes in base64, so a load restores the exact values."""
    a = np.ascontiguousarray(arr, dtype=_F8)
    return {"shape": list(a.shape),
            "data": base64.b64encode(a.tobytes()).decode("ascii")}


def unpack_array(obj: dict) -> np.ndarray:
    raw = base64.b64decode(obj["data"])
    return np.frombuffer(raw, dtype=_F8).reshape(obj["shape"]).astype(
        np.float64)


class SlotTable:
    """The stored documents: per slot a float64 row, id, text and metadata,
    with slot_of mapping each live id to its slot.

    Rows grow amortized (capacity doubles). swap_remove() moves the last slot
    into the freed one, so the slots are always exactly the live documents
    and a scan touches nothing stale. An index that tombstones instead (hnsw)
    only appends; a dead slot keeps its row and stale id, not its text and
    metadata (None)."""

    def __init__(self):
        self._data = np.zeros((0, 0))
        self.count = 0
        self.ids: list[str] = []
        self.texts: list[str | None] = []
        self.metas: list[Mapping[str, MetaValue] | None] = []
        self.slot_of: dict[str, int] = {}

    @property
    def rows(self) -> np.ndarray:
        return self._data[: self.count]

    def append(self, doc_id: str, values: np.ndarray, text: str | None = None,
               meta: Mapping[str, MetaValue] | None = None) -> int:
        slot = self.count
        if slot == self._data.shape[0]:
            grown = np.zeros((max(2 * slot, 64), values.shape[0]))
            if slot:
                grown[:slot] = self._data
            self._data = grown
        self._data[slot] = values
        self.count = slot + 1
        self.ids.append(doc_id)
        self.texts.append(text)
        self.metas.append(meta)
        self.slot_of[doc_id] = slot
        return slot

    def swap_remove(self, doc_id: str) -> tuple[int, int]:
        """Free doc_id's slot for the last one, returning (slot, last). The
        caller drops doc_id from slot_of or re-points it."""
        slot = self.slot_of[doc_id]
        last = self.count - 1
        if slot != last:
            self._data[slot] = self._data[last]
            for column in (self.ids, self.texts, self.metas):
                column[slot] = column[last]
            self.slot_of[self.ids[slot]] = slot
        for column in (self.ids, self.texts, self.metas):
            column.pop()
        self.count = last
        return slot, last


class VectorIndex(ABC):
    """Base class for the flat, HNSW, and IVF document indexes."""

    kind: ClassVar[str]

    def __init__(self):
        self._dim: int | None = None
        self._lock = threading.RLock()
        self._table = SlotTable()

    # -- introspection --------------------------------------------------

    @property
    def dim(self) -> int | None:
        return self._dim

    def __len__(self) -> int:
        return len(self._table.slot_of)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._table.slot_of

    def get(self, doc_id: str) -> Document | None:
        """A new Document equal to the stored one; its embedding is a copy
        of the row, which a swap-remove may overwrite in place."""
        with self._lock:
            t, slot = self._table, self._table.slot_of.get(doc_id)
            return None if slot is None else Document(
                id=doc_id, text=t.texts[slot], metadata=t.metas[slot],
                embedding=Vector(t.rows[slot]))

    # -- mutation ---------------------------------------------------------

    def insert(self, doc: Document) -> None:
        """Add or atomically replace the document with this id."""
        with self._lock:
            self._check_insert_dim(doc.embedding.dim)
            if doc.id in self._table.slot_of:
                self._remove_vector(doc.id)  # the insert re-points the id
            self._insert_vector(doc)

    def remove(self, doc_id: str) -> bool:
        """Remove the document; returns whether it was present."""
        with self._lock:
            if doc_id not in self._table.slot_of:
                return False
            self._remove_vector(doc_id)
            del self._table.slot_of[doc_id]
            return True

    # -- search ------------------------------------------------------------

    def search(self, query: Vector, k: int, **overrides) -> list[SearchHit]:
        """The k nearest documents by Euclidean distance (clamped to size).

        overrides are the kind's per-query knobs: ef_search widens an hnsw
        beam, nprobe sets how many ivf lists are scanned (an ivf search may
        return fewer than k when the probed lists run short)."""
        with self._lock:
            self._check_search_ready(query, k)
            pairs = self._nearest(query.values, min(k, len(self)), **overrides)
            return self._to_hits(pairs, k)

    def search_filtered(self, query: Vector, k: int, filt: FilterExpr,
                        **overrides) -> list[SearchHit]:
        """k nearest documents among those satisfying the filter."""
        with self._lock:
            self._check_search_ready(query, k)
            pairs = self._filtered(query.values, k, filt, **overrides)
            return self._to_hits(pairs, k)

    def _filtered(self, q: np.ndarray, k: int, filt: FilterExpr,
                  **overrides) -> list[tuple[float, str]]:
        """Approximate kinds oversample max(4k, k+32) candidates, post-filter,
        and retry with doubled oversampling up to 3 times before settling for
        a short list; the flat index overrides this with an exact scan."""
        total = len(self)
        metas, slot_of = self._table.metas, self._table.slot_of
        fetch = max(4 * k, k + 32)
        kept: list[tuple[float, str]] = []
        for _ in range(4):  # initial attempt + 3 doubled retries
            fetch = min(fetch, total)
            pairs = self._nearest(q, fetch, **overrides)
            kept = [p for p in pairs if filt.matches(metas[slot_of[p[1]]])]
            if len(kept) >= k or len(pairs) >= total:
                break
            fetch *= 2
        return kept

    # -- persistence --------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write a versioned snapshot; load_index() restores it verbatim."""
        from .snapshot import save_index

        with self._lock:
            save_index(self, path)

    def _state(self) -> dict[str, Any]:
        """The snapshot payload: here the documents in slot order and their
        rows; kinds with more state add to it or replace it."""
        t = self._table
        return {"docs": [{"id": i, "text": text, "meta": dict(meta)} for
                         i, text, meta in zip(t.ids, t.texts, t.metas)],
                "vectors": pack_array(t.rows)}

    @classmethod
    def _from_state(cls, state: dict[str, Any]) -> "VectorIndex":
        """The index a _state() payload describes. Raises LookupError,
        TypeError or ValueError when the payload is malformed."""
        index = cls()
        index._insert_docs(state)
        return index

    def _insert_docs(self, state: dict[str, Any]) -> None:
        # re-inserting in slot order rebuilds the same slots
        rows = unpack_array(state["vectors"])
        if len(state["docs"]) != rows.shape[0]:
            raise ValueError("documents and vectors differ in number")
        for entry, row in zip(state["docs"], rows):
            self.insert(Document(entry["id"], entry["text"], entry["meta"],
                                 Vector(row)))

    # -- hooks for subclasses -----------------------------------------------

    def _insert_vector(self, doc: Document) -> int:
        """Store doc in a new slot; returns the slot."""
        return self._table.append(doc.id, doc.embedding.values, doc.text,
                                  doc.metadata)

    def _remove_vector(self, doc_id: str) -> None:
        """Free doc_id's slot; the caller drops or re-points the id."""
        self._table.swap_remove(doc_id)

    @abstractmethod
    def _nearest(self, q: np.ndarray, n: int, **overrides) -> list[tuple[float, str]]:
        """Up to n (distance, doc_id) candidates for live documents."""

    def _check_insert_dim(self, got: int) -> None:
        if self._dim is None:
            self._dim = got
        elif got != self._dim:
            raise DimensionMismatchError(expected=self._dim, got=got)

    def _check_search_ready(self, query: Vector, k: int) -> None:
        if not self._table.slot_of:
            raise EmptyIndexError(f"cannot search an empty {self.kind} index")
        if self._dim is not None and query.dim != self._dim:
            raise DimensionMismatchError(expected=self._dim, got=query.dim, what="query")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def _to_hits(pairs: Sequence[tuple[float, str]], k: int) -> list[SearchHit]:
        ordered = sorted(pairs)[:k]
        return [SearchHit(doc_id=doc_id, distance=float(dist), rank=i + 1)
                for i, (dist, doc_id) in enumerate(ordered)]
