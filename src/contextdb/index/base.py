"""Shared scaffolding for the vector indexes: document table, the slot table
of rows, dimension checks, deterministic hit assembly, the hybrid
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
from typing import Any, ClassVar, Sequence

import numpy as np

from ..core import Document, Vector
from ..errors import DimensionMismatchError, EmptyIndexError
from ..filters import FilterExpr, evaluate_filter


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


def doc_entry(doc: Document) -> dict:
    """A document's snapshot entry, without its vector."""
    return {"id": doc.id, "text": doc.text, "meta": dict(doc.metadata)}


class SlotTable:
    """Dense float64 rows, one per slot, with slot -> id and id -> slot.

    Rows grow amortized (capacity doubles). swap_remove() moves the last row
    into the freed slot, so the rows are always exactly the live vectors and
    a scan touches nothing stale. An index that tombstones instead (hnsw)
    only appends; its dead slots keep their stale id in `ids`.
    """

    def __init__(self):
        self._data = np.zeros((0, 0))
        self.count = 0
        self.ids: list[str] = []
        self.slot_of: dict[str, int] = {}

    @property
    def rows(self) -> np.ndarray:
        return self._data[: self.count]

    def append(self, doc_id: str, values: np.ndarray) -> int:
        slot = self.count
        if slot == self._data.shape[0]:
            grown = np.zeros((max(2 * slot, 64), values.shape[0]))
            if slot:
                grown[:slot] = self._data
            self._data = grown
        self._data[slot] = values
        self.count = slot + 1
        self.ids.append(doc_id)
        self.slot_of[doc_id] = slot
        return slot

    def swap_remove(self, doc_id: str) -> tuple[int, int]:
        """Drop doc_id's row. Returns (slot, last): the row that sat in the
        last slot now sits in the freed one (slot == last: nothing moved)."""
        slot = self.slot_of.pop(doc_id)
        last = self.count - 1
        if slot != last:
            moved = self.ids[last]
            self._data[slot] = self._data[last]
            self.ids[slot] = moved
            self.slot_of[moved] = slot
        self.ids.pop()
        self.count = last
        return slot, last


class VectorIndex(ABC):
    """Base class for the flat, HNSW, and IVF document indexes."""

    kind: ClassVar[str]

    def __init__(self):
        self._docs: dict[str, Document] = {}
        self._dim: int | None = None
        self._lock = threading.RLock()
        self._table = SlotTable()

    # -- introspection --------------------------------------------------

    @property
    def dim(self) -> int | None:
        return self._dim

    def __len__(self) -> int:
        return len(self._docs)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._docs

    def get(self, doc_id: str) -> Document | None:
        return self._docs.get(doc_id)

    # -- mutation ---------------------------------------------------------

    def insert(self, doc: Document) -> None:
        """Add or atomically replace the document with this id."""
        with self._lock:
            self._check_insert_dim(doc.embedding.dim)
            if doc.id in self._docs:
                self._remove_vector(doc.id)
            self._insert_vector(doc.id, doc.embedding.values)
            self._docs[doc.id] = doc

    def remove(self, doc_id: str) -> bool:
        """Remove the document; returns whether it was present."""
        with self._lock:
            if doc_id not in self._docs:
                return False
            self._remove_vector(doc_id)
            del self._docs[doc_id]
            return True

    # -- search ------------------------------------------------------------

    def search(self, query: Vector, k: int, **overrides) -> list[SearchHit]:
        """The k nearest documents by Euclidean distance (clamped to size).

        overrides are the kind's per-query knobs: ef_search widens an hnsw
        beam, nprobe sets how many ivf lists are scanned (an ivf search may
        return fewer than k when the probed lists run short)."""
        with self._lock:
            self._check_search_ready(query, k)
            pairs = self._nearest(query.values, min(k, len(self._docs)), **overrides)
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
        total = len(self._docs)
        fetch = max(4 * k, k + 32)
        kept: list[tuple[float, str]] = []
        for _ in range(4):  # initial attempt + 3 doubled retries
            fetch = min(fetch, total)
            pairs = self._nearest(q, fetch, **overrides)
            kept = [p for p in pairs if evaluate_filter(filt, self._docs[p[1]])]
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
        return {"docs": [doc_entry(self._docs[i]) for i in self._table.ids],
                "vectors": pack_array(self._table.rows)}

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
        for i, entry in enumerate(state["docs"]):
            self.insert(Document(id=entry["id"], text=entry["text"],
                                 metadata=entry["meta"],
                                 embedding=Vector(rows[i])))

    # -- hooks for subclasses -----------------------------------------------

    def _insert_vector(self, doc_id: str, values: np.ndarray) -> None:
        self._table.append(doc_id, values)

    def _remove_vector(self, doc_id: str) -> None:
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
        if not self._docs:
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
