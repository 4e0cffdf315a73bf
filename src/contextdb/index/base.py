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
import json
import threading
from abc import ABC
from dataclasses import dataclass
from pathlib import Path
from typing import Any, ClassVar, Mapping, Sequence

import numpy as np

from ..core import (Document, MetaValue, Vector, _validate_metadata_maps,
                    count, sq_distances)
from ..errors import DimensionMismatchError, EmptyIndexError
from ..filters import FilterExpr, MetaColumns


@dataclass(frozen=True)
class SearchHit:
    """One ranked result: document id, true Euclidean distance, 1-based rank."""

    doc_id: str
    distance: float
    rank: int


_F8 = np.dtype("<f8")
# A pool of at most this many rows skips _scan's screen: its fixed cost
# (the query's float32 copy, partition, bound) outweighs the kernel work it
# saves. 10k x 64 flat, k 10, timeit best of 5 x 300 over three runs,
# screened against kernel-only: a gathered pool of 50 rows 28-33 vs 17-25
# us, 150 rows 31-36 vs 27-31, 200 rows 32-58 vs 35-52, 250 rows 35-39 vs
# 41-51, 400 rows 38-68 vs 53-57, 600 rows 44-50 vs 76-82; a whole table
# of 20, 100 and 150 rows 24-27, 25-28 and 28 vs 12-13, 19-21 and 22-24
# us, of 200 rows 26-29 vs 25-32, of 250 rows 29-31 vs 32-33.
_SCREEN_ROWS = 200


def screen_bound(dim: int, rows_max2, qq, dtype):
    """How far past the nth smallest screen value any row that the
    difference kernel ranks up to the nth may screen, for a screen computed
    in dtype, rows of squared norms up to rows_max2 and a query of squared
    norm qq (an array of either gives an array of bounds). Not finite when
    S = (max |x| + |q|)^2 overflows.

    _scan screens t = |x|^2 - 2 x.q, which is d2 = |x - q|^2 less |q|^2,
    with one gemv of the float32 [x, |x|^2] against [-2q, 1]. With u =
    eps / 2 of dtype, to first order:
    - converting x, -2q and the float64 |x|^2 to float32 errs u per value:
      2u 2|x||q| in the products, u |x|^2 in the norm;
    - the gemv's dim + 1 terms err (dim + 1) u times the sum of their
      magnitudes, at most 2|x||q| + |x|^2;
    - |q|^2 is never added: it shifts every row alike.
    So a screen value errs E <= (dim + 3) u S. The n rows that screen up to
    the nth value s_n have kernel d2 <= s_n + |q|^2 + E + K, with K <=
    (dim + 2) u64 S the kernel's error, and so has the kernel's nth. A row
    the kernel ranks up to the nth is within 2K of it, or 4 u64 S more and
    ties its sqrt, so it screens <= s_n + 2E + 2K + 4 u64 S <= s_n +
    (dim + 4) eps S. Twice that covers the higher orders (the gemv's
    gamma_{dim+1} <= 2 (dim + 1) u while that is <= 1). A float64 screen
    (ivf's list choice) converts nothing: E <= (dim + 2) u S, and the same
    sum is (2 dim + 6) eps S. Underflow: a product or sum errs by at most
    tiny, flushed to zero or not, and the conversions' errors of at most
    tiny each, scaled by |2q| or |x|, sum to at most 2 sqrt(dim S) tiny <=
    u S + tiny; (4 dim + 16) tiny covers two screen values.

    The bound is two halves, one per screen value (the row's and the
    nth's), and each half covers its own E + K + 2 u64 S with the S of its
    own row. So a row whose screen value less the half at its own norm
    exceeds s_n plus the largest half among the rows screening up to s_n is
    never needed either; _scan tests that when one large norm has loosened
    the bound at max |x|."""
    f = np.finfo(dtype)
    return (2 * dim + 8) * (2 * f.tiny + f.eps * (np.sqrt(rows_max2)
                                                 + np.sqrt(qq)) ** 2)


# json.dumps(obj, separators=(",", ":")), without a new encoder per call
encode_json = json.JSONEncoder(separators=(",", ":")).encode


class RawJson(list):
    """A snapshot payload value that is already JSON: its bytes pieces, in
    order, which save_index writes as they are."""


def docs_json(frags: list[bytes]) -> RawJson:
    """The JSON array of the documents whose fragments (fragment()) these
    are."""
    return RawJson([b"[", b"},".join(frags), b"}]"] if frags else [b"[]"])


def pack_array(arr: np.ndarray) -> dict:
    """JSON encoding of a float array inside a snapshot (ivf's centroids,
    and format v1's rows): its shape, and its little-endian float64 bytes
    in base64, so a load restores the exact values."""
    a = np.ascontiguousarray(arr, dtype=_F8)
    return {"shape": list(a.shape),
            "data": base64.b64encode(a.tobytes()).decode("ascii")}


def unpack_array(obj: dict) -> np.ndarray:
    raw = base64.b64decode(obj["data"])
    return np.frombuffer(raw, dtype=_F8).reshape(obj["shape"]).astype(
        np.float64)


class SlotTable:
    """The stored documents: per slot a float64 row, id, text, metadata and
    an int64 tag that the index kind assigns (the ivf list, the hnsw level),
    with slot_of mapping each live id to its slot.

    Rows grow amortized (capacity doubles). swap_remove() moves the last slot,
    tag and all, into the freed one, so the slots are always exactly the live
    documents and a scan touches nothing stale. An index that tombstones
    instead (hnsw) only appends; a dead slot keeps its row, stale id and tag,
    not its text and metadata (None), which set_doc() writes.

    The metadata is also kept as columns for filtered search. They are
    encoded lazily: columns() encodes the slots appended, moved into or
    rewritten since its last call, and only those (encodings counts every
    slot it has encoded). So is each document's JSON fragment, which a
    snapshot writes and fragment() encodes (fragment_encodings counts them);
    a snapshot writes the rows raw, as they are. The squared norms are lazy
    too: set below _normed. So is the float32 screen matrix [x, |x|^2] that
    _scan's gemv reads, 4 (dim + 1) bytes per row of capacity: filled below
    _screened, with max_norm2 the largest squared norm among its rows. A
    removal of a row of that norm marks it stale, and the next read of the
    screen recomputes it."""

    def __init__(self):
        self._data = np.zeros((0, 0))
        self._norms = np.zeros(0)
        self._normed = 0
        self._screen = np.zeros((0, 0), dtype=np.float32)
        self._screened = 0
        self.max_norm2 = 0.0
        self._max_stale = False
        self._tags = np.zeros(0, dtype=np.int64)
        self.count = 0
        self.ids: list[str] = []
        self.texts: list[str | None] = []
        self.metas: list[Mapping[str, MetaValue] | None] = []
        self._fragments: list[bytes | None] = []  # None: not encoded yet
        self.slot_of: dict[str, int] = {}
        self._columns = MetaColumns()  # encoded below its count ...
        self._stale: set[int] = set()  # ... but for these
        self.encodings = 0
        self.fragment_encodings = 0

    @property
    def rows(self) -> np.ndarray:
        return self._data[: self.count]

    @property
    def tags(self) -> np.ndarray:
        return self._tags[: self.count]

    @property
    def norms(self) -> np.ndarray:
        """Each row's squared norm, bit for bit row @ row (a batched einsum
        is not), computed now for the slots appended since the last read."""
        new = self._data[self._normed:self.count]
        self._norms[self._normed:self.count] = np.matmul(
            new[:, None], new[:, :, None])[:, 0, 0]
        self._normed = self.count
        return self._norms[:self.count]

    @property
    def screen(self) -> np.ndarray:
        """Each row and its squared norm in float32, [x, |x|^2], filled now
        for the slots appended since the last read; the matrix grows to the
        rows' capacity. A value past float32's range is inf."""
        lo, hi = self._screened, self.count
        if self._screen.shape[0] < hi:
            grown = np.empty((self._data.shape[0], self._data.shape[1] + 1),
                             dtype=np.float32)
            if lo:
                grown[:lo] = self._screen[:lo]
            self._screen = grown
        if lo < hi:
            self.norms  # computes the new rows' norms
            self._fill_screen(lo, hi)
            self._screened = hi
        if self._max_stale:
            self.max_norm2 = float(self._norms[:hi].max(initial=0.0))
            self._max_stale = False
        return self._screen[:hi]

    def _fill_screen(self, lo: int, hi: int) -> None:
        """Screen rows lo to hi, from their rows and computed norms."""
        norms = self._norms[lo:hi]
        with np.errstate(over="ignore"):
            self._screen[lo:hi, :-1] = self._data[lo:hi]
            self._screen[lo:hi, -1] = norms
        self.max_norm2 = max(self.max_norm2, float(norms.max()))

    def extend(self, ids: list, rows: np.ndarray, texts: list, metas: list,
               tags: np.ndarray, live: list[int] | None = None) -> None:
        """Fill this empty table with n slots in one step, after checking
        them all, so a bad one raises ValueError or TypeError (or a
        metadata map AttributeError) before any lands. rows is a finite
        (n, dim) float64 array, which the table keeps without a copy; each
        id a nonempty str; tags n ints. live lists the slots that hold a
        document, in the order slot_of takes them (None: every slot, in
        order); their ids must differ, each text be a str, and their
        metadata maps pass _validate_metadata_maps, which makes them
        read-only without a copy. The other slots are dead (hnsw's
        tombstones): text and metadata None, and no slot_of entry. The
        norms, metadata columns and fragments are left to fill lazily, as
        for an append."""
        assert not self.count, "extend fills an empty table"
        n = len(ids)
        if rows.ndim != 2 or rows.shape[0] != n or (n and not rows.shape[1]):
            raise ValueError("documents and vectors differ in number")
        if not np.isfinite(rows).all():
            raise ValueError("vector coordinates must be finite")
        if not all(isinstance(doc_id, str) and doc_id for doc_id in ids):
            raise ValueError("document ids must be nonempty strings")
        live = range(n) if live is None else live
        slot_of = dict(zip([ids[s] for s in live], live))
        if len(slot_of) != len(live):
            raise ValueError("duplicate document id")
        if not all(isinstance(texts[s], str) for s in live):
            raise TypeError("document text must be a string")
        frozen: list[Mapping[str, MetaValue] | None] = [None] * n
        for s, meta in zip(live, _validate_metadata_maps(
                [metas[s] for s in live])):
            frozen[s] = meta
        self._data = np.require(rows, np.float64, "CWO")
        self._norms = np.zeros(n)
        self._tags = np.array(tags, dtype=np.int64)
        self.count = n
        self.ids, self.texts, self.metas = list(ids), list(texts), frozen
        self._fragments = [None] * n
        self.slot_of = slot_of

    def append(self, doc_id: str, values: np.ndarray, text: str | None = None,
               meta: Mapping[str, MetaValue] | None = None,
               tag: int = 0) -> int:
        slot = self.count
        if slot == self._data.shape[0]:
            grown = np.zeros((max(2 * slot, 64), values.shape[0]))
            if slot:
                grown[:slot] = self._data
            self._data = grown
            self._norms = np.resize(self._norms, grown.shape[0])
            self._tags = np.resize(self._tags, grown.shape[0])
        self._data[slot] = values
        self._tags[slot] = tag
        self.count = slot + 1
        self.ids.append(doc_id)
        self.texts.append(text)
        self.metas.append(meta)
        self._fragments.append(None)
        self.slot_of[doc_id] = slot
        return slot

    def swap_remove(self, doc_id: str) -> None:
        """Free doc_id's slot for the last one. The caller drops doc_id from
        slot_of or re-points it."""
        slot = self.slot_of[doc_id]
        last = self.count - 1
        if slot < self._screened and self._norms[slot] >= self.max_norm2:
            self._max_stale = True
        if slot != last:
            self._data[slot] = self._data[last]
            self._tags[slot] = self._tags[last]
            if slot < self._normed:  # the moved row may have had none
                self._norms[slot] = self._data[slot] @ self._data[slot]
            if last < self._screened:
                self._screen[slot] = self._screen[last]
            elif slot < self._screened:
                self._fill_screen(slot, slot + 1)
            for column in (self.ids, self.texts, self.metas, self._fragments):
                column[slot] = column[last]
            self.slot_of[self.ids[slot]] = slot
            if slot < self._columns.count:
                self._stale.add(slot)
        for column in (self.ids, self.texts, self.metas, self._fragments):
            column.pop()
        self.count = last
        self._columns.count = min(self._columns.count, last)
        self._normed = min(self._normed, last)
        self._screened = min(self._screened, last)

    def set_doc(self, slot: int, text: str | None,
                meta: Mapping[str, MetaValue] | None) -> None:
        """Rewrite a slot's text and metadata in place (None: dead)."""
        self.texts[slot] = text
        self.metas[slot] = meta
        self._fragments[slot] = None
        if slot < self._columns.count:
            self._stale.add(slot)

    def fragment(self, slot: int) -> bytes:
        """A live slot's document as JSON without its closing brace,
        {"id":...,"text":...,"meta":{...}, so a kind can add fields; encoded
        now if it was appended, moved into or rewritten since."""
        frag = self._fragments[slot]
        if frag is None:
            frag = self._fragments[slot] = ('{"id":%s,"text":%s,"meta":%s' % (
                encode_json(self.ids[slot]), encode_json(self.texts[slot]),
                encode_json(dict(self.metas[slot])))).encode()
            self.fragment_encodings += 1
        return frag

    def fragments(self) -> list[bytes | None]:
        """Each slot's fragment(), None for a dead slot."""
        frags, metas = self._fragments, self.metas
        for s in [s for s, frag in enumerate(frags)
                  if frag is None and metas[s] is not None]:
            self.fragment(s)
        return frags

    def columns(self) -> MetaColumns:
        """The metadata columns of the slots, brought up to date. They are
        encoded afresh once most of their interned strings can only be those
        of documents since removed or rewritten, so churn does not grow
        them without bound."""
        cols = self._columns
        if len(cols.strings) > 2 * self.count * len(cols.fields) + 64:
            cols = self._columns = MetaColumns()
        todo = [s for s in self._stale if s < cols.count]
        todo += range(cols.count, self.count)
        cols.encode(todo, self.metas)
        self.encodings += len(todo)
        self._stale.clear()
        cols.count = self.count
        return cols


class VectorIndex(ABC):
    """Base class for the flat, HNSW, and IVF document indexes. version
    counts the mutations: an insert, and a remove that removes something.
    The exact scan counts its work: rows_screened, rows_reranked by the
    difference kernel, and screen_fallbacks, screens that were not finite
    and so ranked their whole pool.

    A framed kind's snapshot can grow by change frames (snapshot.py): _base
    is the file this index last saved or loaded (None: none, or its last
    frame failed), and _changed the ids inserted, replaced or removed
    since, in first-change order (None: not tracked, so the next save is
    full)."""

    kind: ClassVar[str]
    framed: ClassVar[bool] = True

    def __init__(self):
        self._dim: int | None = None
        self._lock = threading.RLock()
        self._table = SlotTable()
        self.version = 0
        self.rows_screened = self.rows_reranked = self.screen_fallbacks = 0
        self._base = None
        self._changed: dict[str, None] | None = None

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
            self.version += 1
            if self._changed is not None:
                self._changed[doc.id] = None
            if doc.id in self._table.slot_of:
                self._remove_vector(doc.id)  # the insert re-points the id
            self._insert_vector(doc)

    def remove(self, doc_id: str) -> bool:
        """Remove the document; returns whether it was present."""
        with self._lock:
            if doc_id not in self._table.slot_of:
                return False
            self.version += 1
            if self._changed is not None:
                self._changed[doc_id] = None
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
            mask = filt.mask(t.columns(), pool)
            keep = np.flatnonzero(mask) if isinstance(pool, slice) \
                else pool[mask]
            return self._to_hits(self._scan(q, k, keep), k)

    # -- persistence --------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write a versioned snapshot, or append the changes since the last
        save to it; load_index() restores it verbatim."""
        from .snapshot import save_index

        save_index(self, path)

    def _state(self) -> dict[str, Any]:
        """The snapshot payload, a JSON object whose RawJson values are
        already encoded and whose array value, the rows, is written raw:
        here the documents in slot order and their rows; kinds with more
        state add to it or replace it."""
        t = self._table
        return {"docs": docs_json(t.fragments()), "vectors": t.rows}

    @classmethod
    def _from_state(cls, state: dict[str, Any]) -> "VectorIndex":
        """The index a _state() payload describes. Raises LookupError,
        TypeError or ValueError when the payload is malformed."""
        index = cls()
        index._insert_docs(state)
        return index

    def _insert_docs(self, state: dict[str, Any]) -> None:
        """Fill the empty slot table with the payload's documents and rows,
        in slot order, in one step (SlotTable.extend). The rows' width sets
        the dimension even when there are no rows, as in the saved index.
        load_index has decoded the rows to an array."""
        docs, rows = state["docs"], state["vectors"]
        ids = [doc["id"] for doc in docs]
        if rows.shape[-1]:
            self._check_insert_dim(rows.shape[-1])
        self._table.extend(ids, rows, [doc["text"] for doc in docs],
                           [doc["meta"] for doc in docs],
                           np.zeros(len(ids), dtype=np.int64))

    # -- hooks for subclasses -----------------------------------------------

    def _insert_vector(self, doc: Document) -> None:
        """Store doc in a new slot."""
        self._table.append(doc.id, doc.embedding.values, doc.text,
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
        settles the boundary. slots is slice(None), every slot, or the
        slots as ints. A pool of over n rows is screened first: one float32
        gemv of the slot table's screen gives |x|^2 - 2 x.q, and only rows
        within screen_bound of the nth are ranked exactly. A pool of at most
        _SCREEN_ROWS rows is not screened."""
        t = self._table
        picked = None if isinstance(slots, slice) else np.asarray(
            slots, dtype=np.intp)  # None: every slot
        size = t.count if picked is None else picked.shape[0]
        if n < size and size > _SCREEN_ROWS:
            self.rows_screened += size
            with np.errstate(all="ignore"):  # overflow: rank the whole pool
                v = np.append(-2.0 * q, 1.0).astype(np.float32)
                # past an eighth of the rows, one gemv over all beats a gather
                if picked is None or 8 * size > t.count:
                    screened = t.screen @ v
                    if picked is not None:
                        screened = screened[picked]
                else:
                    screened = t.screen[picked] @ v
                dim, qq = q.shape[0], q @ q
                nth = np.float64(np.partition(screened, n - 1)[n - 1])
                limit = nth + screen_bound(dim, t.max_norm2, qq, np.float32)
            if np.isfinite(limit) and np.isfinite(screened).all():
                # compared in float64, so the limit is not rounded down
                near = np.flatnonzero(screened <= limit)
                if near.shape[0] > 2 * n:
                    # a large norm loosened the bound: each row has its own
                    # half of it, and the nth's the largest half up to it
                    at = screened[near]
                    norms = t.norms[near if picked is None else picked[near]]
                    half = screen_bound(dim, norms, qq, np.float32) / 2
                    near = near[at - half <= nth + half[at <= nth].max()]
                picked = near if picked is None else picked[near]
            else:
                self.screen_fallbacks += 1
        dists = np.sqrt(sq_distances(t.rows if picked is None
                                     else t.rows[picked], q))
        self.rows_reranked += dists.shape[0]
        if n < dists.shape[0]:
            cut = np.flatnonzero(dists <= np.partition(dists, n - 1)[n - 1])
            dists = dists[cut]
            picked = cut if picked is None else picked[cut]
        ids = t.ids if picked is None else [t.ids[s] for s in picked.tolist()]
        return list(zip(dists.tolist(), ids))

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
        count("k", k)

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def _to_hits(pairs: Sequence[tuple[float, str]], k: int) -> list[SearchHit]:
        ordered = sorted(pairs)[:k]
        return [SearchHit(doc_id=doc_id, distance=float(dist), rank=i + 1)
                for i, (dist, doc_id) in enumerate(ordered)]
