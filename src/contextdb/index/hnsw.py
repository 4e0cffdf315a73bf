"""HNSW approximate index: a layered proximity graph.

Inserts assign each node a geometric level (multiplier 1/ln(m)). They do not
walk the graph: on each layer up to that level, the candidates are the exact
ef_construction nearest members of the layer, read off the distance vector
below and ordered by (distance, slot). Tombstoned nodes stay candidates, so
new nodes still link to them. From those candidates the node keeps m diverse
neighbors (the RNG rule: drop a candidate that sits closer to an already-kept
neighbor than to the node), and a neighbor list that overflows is cut back by
the same rule. Removal tombstones the node: its links keep routing traffic,
but it can never appear in results. Construction is deterministic for a
fixed seed and insertion order.

Queries descend greedily through the upper layers, then run a layer-0 beam
that keeps expanding while a candidate sits within a small factor of the
current kth distance. High-dim unit vectors put most points on a near-tie
plateau; the exact bound stalls there long before the beam has seen the true
neighbors, while a 5% slack restores recall at small ef for a modest extra
walk.

Distances to the query or the new node are computed for every stored row up
front with one BLAS matvec (d^2 = |x|^2 - 2 x.q + |q|^2, |x|^2 read from the
slot table); a query's graph walk then costs O(1) per edge. That trades the
usual sublinear scan for far lower constant factors, which is the right
trade in pure Python at the scales served here.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import asdict, dataclass
from itertools import chain

import numpy as np

from ..core import Document, count, sq_distances
from .base import RawJson, VectorIndex


@dataclass(frozen=True)
class HnswParams:
    """Construction/search knobs. ef_search is the default beam width and can
    be widened per query."""

    m: int = 16
    ef_construction: int = 200
    ef_search: int = 64
    seed: int = 0

    def __post_init__(self):
        for name, least in (("m", 2), ("ef_construction", 1),
                            ("ef_search", 1), ("seed", 0)):
            object.__setattr__(self, name,
                               count(name, getattr(self, name), least))


def _diversity_scan(cols: bytes, at: int, width: int, n: int,
                    m: int) -> list[int]:
    """One row of the diversity scan: the first candidates, in order, that
    no earlier kept one blocks, until m are kept. Candidate k's column of
    the block test sits at cols[at + k * width:], packed little-endian (bit
    i set when a kept k blocks i), so each step is a few int operations per
    kept candidate rather than per candidate."""
    sel: list[int] = []
    blocked = 0
    i = 0                       # next candidate to scan
    while len(sel) < m:
        free = ~blocked >> i    # unblocked from i on, ones past n
        k = i + (free & -free).bit_length() - 1
        if k >= n:
            break
        sel.append(k)
        start = at + k * width
        blocked |= int.from_bytes(cols[start:start + width], "little")
        i = k + 1
    return sel


def _all_of(cls: type, values) -> bool:
    """Whether each value is exactly a cls, not a subclass (bool of int)."""
    return set(map(type, values)) <= {cls}


class HnswIndex(VectorIndex):
    kind = "hnsw"
    framed = False  # its graph is not per-document state: saves are full

    _BEAM_SLACK = 1.05  # query beams expand until outside this radius factor

    def __init__(self, params: HnswParams | None = None):
        super().__init__()
        self.params = params or HnswParams()
        self._mult = 1.0 / math.log(self.params.m)
        self._rng = np.random.default_rng(self.params.seed)
        # The one slot-indexed state outside the slot table, which holds
        # each slot's level as its tag. Both only grow: a tombstoned slot
        # keeps its row, id, level and links.
        self._graph: list[list[list[int]]] = []   # slot -> layer -> neighbors
        self._entry: int | None = None
        self._max_level = -1

    @property
    def _slot_of(self) -> dict[str, int]:
        """Live doc id -> slot (benchmark/tests/test_smoke.py reads it)."""
        return self._table.slot_of

    def _distances_to(self, q: np.ndarray) -> np.ndarray:
        """Euclidean distance from q to every slot, dead ones included, by
        the expansion: it can differ from sq_distances' in the last bits."""
        d2 = self._table.norms - 2.0 * (self._table.rows @ q) + float(q @ q)
        np.maximum(d2, 0.0, out=d2)
        return np.sqrt(d2, out=d2)

    # -- graph walks ---------------------------------------------------------

    def _greedy(self, dist: np.ndarray, start: int, layer: int) -> int:
        cur, dcur = start, dist[start]
        while True:
            best, bestd = cur, dcur
            for nb in self._graph[cur][layer]:
                if dist[nb] < bestd:
                    best, bestd = nb, dist[nb]
            if best == cur:
                return cur
            cur, dcur = best, bestd

    def _search_layer(self, dist: np.ndarray, entry: int,
                      ef: int) -> list[tuple[float, int]]:
        """Beam search layer 0 for a query. Tombstones are expanded (they
        route) but never enter the result heap. The frontier stays open while
        candidates sit within _BEAM_SLACK of the kth best distance so far."""
        slack = self._BEAM_SLACK
        graph, metas = self._graph, self._table.metas  # None: a tombstone
        visited = {entry}
        cand: list[tuple[float, int]] = [(dist[entry], entry)]  # min-heap
        res: list[tuple[float, int]] = []       # max-heap via negation
        if metas[entry] is not None:
            res.append((-dist[entry], entry))
        while cand:
            d, c = heapq.heappop(cand)
            if len(res) >= ef and d > slack * -res[0][0]:
                break
            for nb in graph[c][0]:
                if nb in visited:
                    continue
                visited.add(nb)
                dn = dist[nb]
                if len(res) < ef or dn < slack * -res[0][0]:
                    heapq.heappush(cand, (dn, nb))
                    if metas[nb] is not None and \
                            (len(res) < ef or dn < -res[0][0]):
                        heapq.heappush(res, (-dn, nb))
                        if len(res) > ef:
                            heapq.heappop(res)
        return sorted((-nd, s) for nd, s in res)

    def _candidates(self, dist: np.ndarray,
                    layer: int) -> tuple[np.ndarray, np.ndarray]:
        """The ef_construction nearest slots of a layer, tombstones included,
        as (distances, slots) ordered by (distance, slot). dist covers every
        slot but the one being inserted."""
        if layer == 0:
            d, slots = dist, np.arange(dist.shape[0])
        else:
            slots = np.flatnonzero(self._table.tags[:len(dist)] >= layer)
            d = dist[slots]
        ef = self.params.ef_construction
        if d.shape[0] > ef:
            cut = d[np.argpartition(d, ef - 1)[ef - 1]]
            pick = np.flatnonzero(d <= cut)   # ascending, so slot order
        else:
            pick = np.arange(d.shape[0])
        pick = pick[np.argsort(d[pick], kind="stable")[:ef]]
        return d[pick], slots[pick]

    def _select_neighbors(self, d: np.ndarray, slots: np.ndarray,
                          m: int) -> list[list[int]]:
        """Diversity-aware pick, for b independent candidate lists at once.
        d and slots are (b, n); each row is sorted by (distance to its own
        target, slot). Scanning a row in that order, keep a candidate only
        if no already-kept one sits closer to it than the target does (kept
        iff p2 >= d^2 against every kept one, so a tie is kept), until m are
        kept, then backfill from the rejects, in scan order.

        The p2 < d^2 test is first built for the leading 4m candidates only:
        an insert's scan of ef_construction candidates mostly has m kept
        well inside them. If a row runs out of them, the test is built again
        over all n. The Gram matrix is always that of the whole list, so
        each p2 has the same bits either way."""
        n = d.shape[1]
        if n <= m:
            return slots.tolist()
        x = self._table.rows[slots]                      # (b, n, dim)
        g = x @ x.transpose(0, 2, 1)
        norms = self._table.norms[slots]
        dq2 = d * d
        for end in (min(n, 4 * m), n):
            head = norms[:, :end]
            p2 = head[:, :, None] + head[:, None, :]
            p2 -= 2.0 * g[:, :end, :end]
            np.maximum(p2, 0.0, out=p2)
            # [r, k, i]: not p2[r, i, k] >= dq2[r, i], so a kept k blocks i
            blocks = np.greater_equal(p2.transpose(0, 2, 1),
                                      dq2[:, None, :end], order="C")
            np.logical_not(blocks, out=blocks)
            width = (end + 7) // 8
            cols = np.packbits(blocks, axis=2, bitorder="little").tobytes()
            sels = [_diversity_scan(cols, r * end * width, width, end, m)
                    for r in range(d.shape[0])]
            if end == n or all(len(sel) == m for sel in sels):
                break
        picks = []
        for row, sel in zip(slots.tolist(), sels):
            if len(sel) < m:   # every candidate was scanned
                kept = set(sel)
                sel += [j for j in range(n) if j not in kept][:m - len(sel)]
            picks.append([row[j] for j in sel])
        return picks

    def _prune(self, nodes: list[int], layer: int, m_max: int) -> None:
        """Cut each node's link list, one over m_max long, back to m_max."""
        rows = self._table.rows
        links = np.array([self._graph[s][layer] for s in nodes],
                         dtype=np.int64)
        d = np.sqrt(sq_distances(rows[links], rows[nodes][:, None, :]))
        order = np.lexsort((links, d))
        kept = self._select_neighbors(np.take_along_axis(d, order, 1),
                                      np.take_along_axis(links, order, 1),
                                      m_max)
        for s, chosen in zip(nodes, kept):
            self._graph[s][layer] = chosen

    # -- VectorIndex hooks ----------------------------------------------------

    def _insert_vector(self, doc: Document) -> None:
        values = doc.embedding.values
        u = self._rng.random()
        while u == 0.0:  # log(0) guard; practically unreachable
            u = self._rng.random()
        level = int(-math.log(u) * self._mult)
        # distances to every slot but the one added below
        dist = None if self._entry is None else self._distances_to(values)
        slot = self._table.append(doc.id, values, doc.text, doc.metadata,
                                  level)
        self._graph.append([[] for _ in range(level + 1)])
        if dist is None:
            self._entry, self._max_level = slot, level
            return
        m = self.params.m
        for layer in range(min(level, self._max_level), -1, -1):
            m_max = 2 * m if layer == 0 else m
            d, slots = self._candidates(dist, layer)
            chosen = self._select_neighbors(d[None], slots[None], m)[0]
            self._graph[slot][layer] = chosen
            full = []
            for nb in chosen:
                links = self._graph[nb][layer]
                links.append(slot)
                if len(links) > m_max:
                    full.append(nb)
            if full:
                self._prune(full, layer, m_max)
        if level > self._max_level:
            self._entry = slot
            self._max_level = level

    def _remove_vector(self, doc_id: str) -> None:
        slot = self._table.slot_of[doc_id]  # row and links stay: they route
        self._table.set_doc(slot, None, None)

    def _ef(self, ef_search: int | None) -> int:
        return self.params.ef_search if ef_search is None \
            else count("ef_search", ef_search)

    def _pool(self, q: np.ndarray, *, ef_search: int | None = None) -> slice:
        """Every slot: a filtered search ranks all matches exactly, so
        ef_search is checked but does not change its result."""
        self._ef(ef_search)
        return super()._pool(q)

    def _nearest(self, q: np.ndarray, n: int, *,
                 ef_search: int | None = None) -> list[tuple[float, str]]:
        ef = max(self._ef(ef_search), n)
        dist = self._distances_to(q)
        cur = self._entry
        assert cur is not None
        for layer in range(self._max_level, 0, -1):
            cur = self._greedy(dist, cur, layer)
        pairs = self._search_layer(dist, cur, ef)
        ids = self._table.ids
        return [(d, ids[s]) for d, s in pairs[:n]]

    # -- snapshot state -------------------------------------------------------

    def _state(self) -> dict:
        """The graph verbatim, tombstoned slots included (they still route),
        with the RNG state, so a reloaded index builds on exactly as the
        original would. Live ids keep their first-insert order."""
        table = self._table
        frags = table.fragments()
        return {"params": asdict(self.params),
                "entry": self._entry,
                "max_level": self._max_level,
                "levels": table.tags.tolist(),
                "alive": [meta is not None for meta in table.metas],
                "ids": table.ids,
                "graph": self._graph,
                "rng_state": self._rng.bit_generator.state,
                "vectors": table.rows,
                "docs": RawJson([b"[", b",".join(
                    [frags[slot] + b',"slot":%d}' % slot
                     for slot in table.slot_of.values()]), b"]"])}

    @classmethod
    def _from_state(cls, state: dict) -> "HnswIndex":
        p = state["params"]
        index = cls(HnswParams(m=p["m"], ef_construction=p["ef_construction"],
                               ef_search=p["ef_search"], seed=p["seed"]))
        rows = state["vectors"]
        ids, alive, levels = state["ids"], state["alive"], state["levels"]
        index._graph = graph = state["graph"]
        index._entry = entry = state["entry"]
        index._max_level = max_level = state["max_level"]
        index._rng.bit_generator.state = state["rng_state"]
        # the graph is the payload's own lists; a link, level or entry
        # point is a JSON integer, never a bool, float or string made one
        layers_of = list(chain.from_iterable(graph))  # every node's layers
        if not (_all_of(list, graph) and _all_of(list, layers_of)):
            raise ValueError("graph must hold lists of layers of links")
        links = list(chain.from_iterable(layers_of))
        scalars = [max_level] if entry is None else [max_level, entry]
        if not _all_of(int, chain(links, levels, scalars)):
            raise ValueError("links, levels, entry and max_level must be "
                             "integers")
        links = np.array(links, dtype=np.int64)
        n = len(ids)
        if {len(rows), len(alive), len(levels), len(graph)} != {n}:
            raise ValueError("graph and slot table differ in size")
        # a slot's level is its top layer, which layers bound: it fits the tag
        tops = [len(node) - 1 for node in graph]
        if levels != tops or (n and (min(tops) < 0 or max(tops) > max_level)):
            slot = next(s for s, (level, top) in enumerate(zip(levels, tops))
                        if level != top or not 0 <= top <= max_level)
            raise ValueError(f"level {levels[slot]} of slot {slot} does not "
                             "match the graph")
        tags = np.array(tops, dtype=np.int64)
        # a link in layer L must reach a slot whose level is L or more
        layers = np.repeat([lv for node in graph for lv in range(len(node))],
                           [len(nbs) for nbs in layers_of])
        if links.size and (links.min() < 0 or links.max() >= n or
                           (tags[links] < layers).any()):
            raise ValueError("a link does not match the graph")
        if (entry is None) != (n == 0) or \
                (n and not (0 <= entry < n and tags[entry] == max_level)):
            raise ValueError("entry point does not match the graph")
        texts, metas, live = [None] * n, [None] * n, []
        for doc in state["docs"]:
            slot = doc["slot"]
            if type(slot) is not int or not (0 <= slot < n and alive[slot]) \
                    or ids[slot] != doc["id"]:
                raise ValueError(f"{doc['id']!r} is not live in slot {slot}")
            texts[slot], metas[slot] = doc["text"], doc["meta"]
            live.append(slot)
        if not _all_of(bool, alive) or \
                sorted(live) != [s for s in range(n) if alive[s]]:
            raise ValueError("alive does not match the documents' slots")
        index._table.extend(ids, rows, texts, metas, tags, live)
        if n:
            index._dim = rows.shape[1]
        return index
