"""Shared scaffolding for the vector indexes: the slot table that stores the
documents, dimension checks, the exact scan and the filtered search every
kind shares, deterministic hit assembly, and the snapshot state of the
slot-table kinds.

Ordering contract used everywhere: hits sorted by (distance, doc_id)
ascending, ranks consecutive from 1. Mutations and searches are serialized
by one reentrant lock per index, which satisfies the reader-writer contract
(a search sees the index entirely before or entirely after a mutation).
"""

from __future__ import annotations

import base64
import threading
from abc import ABC
from dataclasses import dataclass
from pathlib import Path
from typing import Any, ClassVar, Mapping, Sequence

import numpy as np

from ..core import Document, MetaValue, Vector
from ..errors import DimensionMismatchError, EmptyIndexError
from ..filters import FilterExpr, MetaColumns


@dataclass(frozen=True)
class SearchHit:
    """One ranked result: document id, true Euclidean distance, 1-based rank."""

    doc_id: str
    distance: float
    rank: int


_F8 = np.dtype("<f8")
_EPS, _TINY = np.finfo(np.float64).eps, np.finfo(np.float64).tiny


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
    metadata (None), which set_doc() writes.

    The metadata is also kept as columns for filtered search. They are
    encoded lazily: columns() encodes the slots appended, moved into or
    rewritten since its last call, and only those (encodings counts every
    slot it has encoded). The squared norms are lazy too: set below _normed."""

    def __init__(self):
        self._data = np.zeros((0, 0))
        self._norms = np.zeros(0)
        self._normed = 0
        self.count = 0
        self.ids: list[str] = []
        self.texts: list[str | None] = []
        self.metas: list[Mapping[str, MetaValue] | None] = []
        self.slot_of: dict[str, int] = {}
        self._columns = MetaColumns()
        self._encoded = 0              # slots below it are encoded ...
        self._stale: set[int] = set()  # ... but for these
        self.encodings = 0

    @property
    def rows(self) -> np.ndarray:
        return self._data[: self.count]

    @property
    def norms(self) -> np.ndarray:
        """Each row's squared norm, bit for bit row @ row (a batched einsum
        is not), computed now for the slots appended since the last read."""
        new = self._data[self._normed:self.count]
        self._norms[self._normed:self.count] = np.matmul(
            new[:, None], new[:, :, None])[:, 0, 0]
        self._normed = self.count
        return self._norms[:self.count]

    def append(self, doc_id: str, values: np.ndarray, text: str | None = None,
               meta: Mapping[str, MetaValue] | None = None) -> int:
        slot = self.count
        if slot == self._data.shape[0]:
            grown = np.zeros((max(2 * slot, 64), values.shape[0]))
            if slot:
                grown[:slot] = self._data
            self._data = grown
            self._norms = np.resize(self._norms, grown.shape[0])
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
            if slot < self._normed:  # the moved row may have had none
                self._norms[slot] = self._data[slot] @ self._data[slot]
            for column in (self.ids, self.texts, self.metas):
                column[slot] = column[last]
            self.slot_of[self.ids[slot]] = slot
            if slot < self._encoded:
                self._stale.add(slot)
        for column in (self.ids, self.texts, self.metas):
            column.pop()
        self.count = last
        self._encoded = min(self._encoded, last)
        self._normed = min(self._normed, last)
        return slot, last

    def set_doc(self, slot: int, text: str | None,
                meta: Mapping[str, MetaValue] | None) -> None:
        """Rewrite a slot's text and metadata in place (None: dead)."""
        self.texts[slot] = text
        self.metas[slot] = meta
        if slot < self._encoded:
            self._stale.add(slot)

    def columns(self) -> MetaColumns:
        """The metadata columns of the slots, brought up to date. They are
        encoded afresh once most of their interned strings can only be those
        of documents since removed or rewritten, so churn does not grow
        them without bound."""
        cols = self._columns
        if len(cols.strings) > 2 * self.count * len(cols.fields) + 64:
            self._columns, self._encoded = MetaColumns(), 0
        todo = [s for s in self._stale if s < self._encoded]
        todo += range(self._encoded, self.count)
        self._columns.encode(todo, self.metas)
        self.encodings += len(todo)
        self._stale.clear()
        self._encoded = self._columns.count = self.count
        return self._columns


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
            return None if slot is None else Document._trusted(
                doc_id, t.texts[slot], t.metas[slot], t.rows[slot])

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
        """The k nearest documents among those satisfying the filter: the
        filter, compiled to one mask over the metadata columns, picks the
        live slots of the kind's pool, and an exact scan ranks them.
        overrides are those of search()."""
        with self._lock:
            self._check_search_ready(query, k)
            q, t = query.values, self._table
            pool = self._pool(q, **overrides)
            slots = np.arange(t.count)[pool]
            mask = filt.mask(t.columns(), pool)
            if mask is None:  # matches() raises on a pooled slot: let it
                keep = [s for s in slots.tolist() if (meta := t.metas[s])
                        is not None and filt.matches(meta)]
            else:
                keep = slots[mask]
            return self._to_hits(self._scan(q, k, keep), k)

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

    def _pool(self, q: np.ndarray) -> slice | np.ndarray:
        """The slots a search of q may return, as an index into the rows:
        here every slot, dead ones (metadata None) included. A kind with
        per-query knobs takes them here as keywords; any other keyword
        raises TypeError."""
        return slice(None)

    def _nearest(self, q: np.ndarray, n: int, **overrides) -> list[tuple[float, str]]:
        """Up to n (distance, doc_id) candidates for live documents."""
        return self._scan(q, n, self._pool(q, **overrides))

    def _scan(self, q: np.ndarray, n: int,
              slots: slice | np.ndarray | list[int]) -> list[tuple[float, str]]:
        """The exact (distance, doc_id) of the n given slots nearest to q,
        plus every tie with the nth: the (distance, doc_id) sort of the hits
        settles the boundary. slots is any numpy index into the rows. A pool
        of over n rows is screened first: one gemv gives d2 = |x|^2 - 2 x.q +
        |q|^2, and only rows within rounding of the nth are ranked exactly."""
        t = self._table
        picked = np.arange(t.count)[slots]
        if n < picked.shape[0]:
            with np.errstate(all="ignore"):  # overflow: rank the whole pool
                # past an eighth of the rows, one gemv over all beats a gather
                xq = (t.rows @ q)[slots] if 8 * picked.shape[0] > t.count \
                    else t.rows[slots] @ q
                norms, qq = t.norms[slots], q @ q
                d2 = norms - 2.0 * xq + qq
                kth = np.partition(d2, n - 1)[n - 1]
                # Screen and kernel each err <= (dim + 2) u S in d2 (u = eps
                # / 2, S = (max |x| + |q|)^2 >= d2), and a d2 4u S past the
                # nth's can tie its sqrt: a row the kernel ranks up to the nth
                # screens <= kth + (2 dim + 6) eps S to first order; 2 dim + 8
                # covers the higher orders, tiny the underflow.
                limit = kth + _TINY + (2 * q.shape[0] + 8) * _EPS * (
                    np.sqrt(norms.max()) + np.sqrt(qq)) ** 2
            if np.isfinite(limit) and np.isfinite(d2).all():
                slots = picked = picked[d2 <= limit]
        diff = t.rows[slots] - q
        dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        cut = slice(None) if n >= dists.shape[0] else \
            np.flatnonzero(dists <= np.partition(dists, n - 1)[n - 1])
        return list(zip(dists[cut].tolist(),
                        [t.ids[s] for s in picked[cut].tolist()]))

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
