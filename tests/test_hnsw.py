import numpy as np
import pytest

from contextdb import (Document, EmptyIndexError, FlatIndex, HnswIndex,
                       HnswParams, Vector, load_index, parse_filter)
from helpers import brute_force_knn, make_docs, unit_rows


def build(data: np.ndarray, seed: int = 0, **kw) -> HnswIndex:
    index = HnswIndex(HnswParams(seed=seed, **kw))
    for d in make_docs(data):
        index.insert(d)
    return index


class TestParams:
    def test_defaults(self):
        p = HnswParams()
        assert (p.m, p.ef_construction, p.ef_search) == (16, 200, 64)

    @pytest.mark.parametrize("kw", [{"m": 1}, {"ef_construction": 0},
                                    {"ef_search": 0}])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            HnswParams(**kw)


class TestBasics:
    def test_single_and_tiny(self):
        index = HnswIndex()
        index.insert(Document(id="only", text="", metadata={},
                              embedding=Vector([1.0, 1.0])))
        assert [h.doc_id for h in index.search(Vector([0.0, 0.0]), 3)] == ["only"]
        index.insert(Document(id="two", text="", metadata={},
                              embedding=Vector([5.0, 5.0])))
        assert [h.doc_id for h in index.search(Vector([4.0, 4.0]), 2)] == ["two", "only"]

    def test_empty_search(self):
        with pytest.raises(EmptyIndexError):
            HnswIndex().search(Vector([1.0]), 1)

    def test_replace_same_id(self, rng):
        data = unit_rows(rng, 50, 8)
        index = build(data)
        index.insert(Document(id="d00000", text="moved", metadata={},
                              embedding=Vector(data[1] * 0.999)))
        hits = index.search(Vector(data[1]), 2)
        assert {h.doc_id for h in hits} == {"d00000", "d00001"}
        assert index.get("d00000").text == "moved"
        assert len(index) == 50

    def test_exhaustive_k_returns_everything_alive(self, rng):
        data = unit_rows(rng, 120, 8)
        index = build(data)
        index.remove("d00003")
        hits = index.search(Vector(data[0]), 500)
        assert len(hits) == 119
        assert "d00003" not in {h.doc_id for h in hits}


class TestRecall:
    def test_matches_oracle_on_easy_workload(self, rng):
        # dim 8 is easy for a proximity graph: expect near-perfect agreement
        data = unit_rows(rng, 1200, 8)
        index = build(data)
        ids = [f"d{i:05d}" for i in range(len(data))]
        agree = 0
        for _ in range(40):
            q = unit_rows(rng, 1, 8)[0]
            want = {w for w, _ in brute_force_knn(data, ids, q, 10)}
            got = {h.doc_id for h in index.search(Vector(q), 10)}
            agree += len(want & got)
        assert agree / (40 * 10) >= 0.99

    def test_recall_does_not_degrade_with_wider_beam(self, rng):
        data = unit_rows(rng, 1500, 32)
        index = build(data)
        ids = [f"d{i:05d}" for i in range(len(data))]
        queries = unit_rows(rng, 30, 32)
        truths = [{w for w, _ in brute_force_knn(data, ids, q, 10)}
                  for q in queries]

        def recall(ef):
            hits = [index.search(Vector(q), 10, ef_search=ef) for q in queries]
            return sum(len({h.doc_id for h in hs} & t)
                       for hs, t in zip(hits, truths)) / 300

        narrow, wide = recall(16), recall(128)
        assert wide >= narrow
        assert wide >= 0.99

    def test_deterministic_for_fixed_seed(self, rng):
        data = unit_rows(rng, 400, 16)
        queries = unit_rows(rng, 10, 16)
        a, b = build(data, seed=3), build(data, seed=3)
        for q in queries:
            ha = [(h.doc_id, h.distance) for h in a.search(Vector(q), 5)]
            hb = [(h.doc_id, h.distance) for h in b.search(Vector(q), 5)]
            assert ha == hb

    def test_scaling_the_data_scales_only_the_distances(self, rng):
        # _BEAM_SLACK is a ratio, so no walk depends on the data's scale;
        # a power-of-two scale is exact, so the distances match bit for bit
        data = unit_rows(rng, 1500, 16)
        base, scaled = build(data), build(8.0 * data)
        for q in unit_rows(rng, 100, 16):
            want = [(h.doc_id, 8.0 * h.distance)
                    for h in base.search(Vector(q), 10)]
            got = [(h.doc_id, h.distance)
                   for h in scaled.search(Vector(8.0 * q), 10)]
            assert got == want


class TestTombstones:
    def test_removed_never_returned_but_still_routes(self, rng):
        data = unit_rows(rng, 600, 16)
        index = build(data)
        ids = [f"d{i:05d}" for i in range(len(data))]
        removed = set(ids[::5])
        for doc_id in removed:
            assert index.remove(doc_id)
        assert len(index) == 480
        live_ids = [i for i in ids if i not in removed]
        live_rows = np.stack([data[int(i[1:])] for i in live_ids])
        agree = total = 0
        for q in unit_rows(rng, 25, 16):
            got = [h.doc_id for h in index.search(Vector(q), 8)]
            assert not (set(got) & removed)
            want = [w for w, _ in brute_force_knn(live_rows, live_ids, q, 8)]
            agree += len(set(got) & set(want))
            total += 8
        assert agree / total >= 0.95

    def test_remove_everything_then_search(self):
        index = HnswIndex()
        for i in range(5):
            index.insert(Document(id=f"x{i}", text="", metadata={},
                                  embedding=Vector([float(i), 0.0])))
        for i in range(5):
            index.remove(f"x{i}")
        with pytest.raises(EmptyIndexError):
            index.search(Vector([0.0, 0.0]), 1)

    def test_tombstone_keeps_no_text_or_metadata(self, tmp_path, rng):
        data = unit_rows(rng, 40, 8)
        index = build(data)
        index.insert(Document(id="d00003", text="moved", metadata={"x": 1},
                              embedding=Vector(data[0])))
        index.remove("d00007")
        index.save(tmp_path / "h.snap")
        for idx in (index, load_index(tmp_path / "h.snap")):
            table = idx._table
            dead = sorted(set(range(table.count)) - set(table.slot_of.values()))
            assert dead == [3, 7]
            assert [table.texts[s] for s in dead] == [None, None]
            assert [table.metas[s] for s in dead] == [None, None]
            # live ids stay in first-insert order: a replace keeps its place
            assert list(table.slot_of) == [f"d{i:05d}" for i in range(40)
                                           if i != 7]
            assert table.slot_of["d00003"] == 40
            assert idx.get("d00003").text == "moved"

    def test_reinsert_after_remove(self):
        index = HnswIndex()
        for i in range(20):
            index.insert(Document(id=f"x{i}", text="", metadata={},
                                  embedding=Vector([float(i), 0.0])))
        index.remove("x7")
        index.insert(Document(id="x7", text="back", metadata={},
                              embedding=Vector([7.0, 0.0])))
        hits = index.search(Vector([7.0, 0.0]), 1)
        assert hits[0].doc_id == "x7" and hits[0].distance == 0.0


class TestFiltered:
    def test_filtered_subset_and_order(self, rng):
        data = unit_rows(rng, 500, 16)
        index = HnswIndex()
        for i, row in enumerate(data):
            index.insert(Document(id=f"d{i:05d}", text="",
                                  metadata={"bucket": i % 4},
                                  embedding=Vector(row)))
        expr = parse_filter("bucket=2")
        for q in unit_rows(rng, 15, 16):
            hits = index.search_filtered(Vector(q), 6, expr)
            assert 0 < len(hits) <= 6
            assert all(index.get(h.doc_id).metadata["bucket"] == 2 for h in hits)
            assert [h.distance for h in hits] == sorted(h.distance for h in hits)
            assert [h.rank for h in hits] == list(range(1, len(hits) + 1))

    def test_filtered_agrees_with_flat_on_selective_filter(self, rng):
        data = unit_rows(rng, 400, 8)
        hnsw, flat = HnswIndex(), FlatIndex()
        for i, row in enumerate(data):
            doc = Document(id=f"d{i:05d}", text="", metadata={"odd": bool(i % 2)},
                           embedding=Vector(row))
            hnsw.insert(doc)
            flat.insert(doc)
        expr = parse_filter("odd=true")
        agree = total = 0
        for q in unit_rows(rng, 20, 8):
            want = [h.doc_id for h in flat.search_filtered(Vector(q), 5, expr)]
            got = [h.doc_id for h in hnsw.search_filtered(Vector(q), 5, expr)]
            agree += len(set(want) & set(got))
            total += len(want)
        assert agree / total >= 0.97

    def test_low_selectivity_is_exact_after_removes_and_replace(self, rng):
        # 10 of 2000 documents match (0.5 %): far fewer than k sit among the
        # few hundred nearest, so only a scan of every match fills the list
        data = unit_rows(rng, 2000, 8)
        hnsw = HnswIndex(HnswParams(m=8, ef_construction=40))
        flat = FlatIndex()
        for doc in make_docs(data, metadata_fn=lambda i: {"rare": i % 200 == 0}):
            hnsw.insert(doc)
            flat.insert(doc)
        removed = ["d00000", "d00007", "d01400"]
        for doc_id in removed:
            assert hnsw.remove(doc_id) and flat.remove(doc_id)
        for doc in (Document(id="d00200", text="", metadata={"rare": True},
                             embedding=Vector(-data[200])),
                    Document(id="d00001", text="", metadata={"rare": True},
                             embedding=Vector(data[1]))):
            hnsw.insert(doc)
            flat.insert(doc)
        matches = 9  # 10 - d00000 - d01400 + d00001
        expr = parse_filter("rare=true")
        for q in unit_rows(rng, 10, 8):
            for k in (5, 12):
                want = [(h.doc_id, h.distance)
                        for h in flat.search_filtered(Vector(q), k, expr)]
                got = [(h.doc_id, h.distance)
                       for h in hnsw.search_filtered(Vector(q), k, expr)]
                assert len(got) == min(k, matches)
                assert got == want
                assert not {doc_id for doc_id, _ in got} & set(removed)
                # the beam width of an unfiltered search plays no part
                assert hnsw.search_filtered(Vector(q), k, expr,
                                            ef_search=1) == \
                    hnsw.search_filtered(Vector(q), k, expr)

    def test_bad_ef_search_raises_on_both_paths(self, rng):
        index = build(unit_rows(rng, 20, 4))
        q = Vector(unit_rows(rng, 1, 4)[0])
        with pytest.raises(ValueError):
            index.search(q, 3, ef_search=0)
        with pytest.raises(ValueError):
            index.search_filtered(q, 3, parse_filter("x=1"), ef_search=0)


def reference_select(index: HnswIndex, pairs: list[tuple[float, int]],
                     m: int) -> tuple[list[int], int, int]:
    """The diversity scan as a plain loop, one candidate and one kept
    neighbor at a time, then the backfill from the rejects. Returns the
    picked slots, how many candidates the scan looked at before it
    stopped, and how many picks the backfill added."""
    if len(pairs) <= m:
        return [s for _, s in pairs], len(pairs), 0
    slots = np.array([s for _, s in pairs], dtype=np.int64)
    dq2 = np.array([d * d for d, _ in pairs])
    x = index._table.rows[slots]
    p2 = index._table.norms[slots][:, None] + index._table.norms[slots][None, :] \
        - 2.0 * (x @ x.T)
    np.maximum(p2, 0.0, out=p2)
    sel: list[int] = []
    rejected: list[int] = []
    scanned = 0
    for i in range(len(pairs)):
        if len(sel) == m:
            break
        scanned += 1
        if all(p2[i][j] >= dq2[i] for j in sel):
            sel.append(i)
        else:
            rejected.append(i)
    backfill = rejected[:m - len(sel)]
    return [int(slots[i]) for i in sel + backfill], scanned, len(backfill)


class TestConstruction:
    def test_select_neighbors_matches_reference_scan(self, rng):
        data = unit_rows(rng, 300, 8)
        index = build(data)
        rows = index._table.rows
        cut_short = backfilled = 0
        for _ in range(60):
            n = int(rng.integers(2, 120))
            m = int(rng.integers(1, 40))
            batch = []                      # rows of one batched call
            for _ in range(3):
                target = unit_rows(rng, 1, 8)[0]
                slots = rng.choice(len(data), size=n, replace=False)
                d = np.sqrt(((rows[slots] - target) ** 2).sum(axis=1))
                batch.append(sorted(zip(d.tolist(), slots.tolist())))
            d = np.array([[dist for dist, _ in pairs] for pairs in batch])
            slots = np.array([[s for _, s in pairs] for pairs in batch])
            got = index._select_neighbors(d, slots, m)
            for pairs, picked in zip(batch, got):
                want, scanned, added = reference_select(index, pairs, m)
                assert picked == want
                cut_short += scanned < n
                backfilled += added > 0
        # the random lists hit both the m cutoff and the backfill
        assert cut_short > 0 and backfilled > 0

    def test_select_neighbors_keeps_an_exact_tie(self):
        # The target sits at the origin. b is exactly as far from a
        # (|b - a|^2 = 25 + 144) as from the target (|b|^2 = 169), so a does
        # not block b: the rule keeps a candidate while p2 >= d^2.
        index = HnswIndex(HnswParams(m=2))
        for name, xy in (("a", [10.0, 0.0]), ("b", [5.0, 12.0]),
                         ("c", [-20.0, 0.0])):
            index.insert(Document(id=name, text="", metadata={},
                                  embedding=Vector(xy)))
        a, b, c = (index._table.slot_of[name] for name in "abc")
        pairs = [(10.0, a), (13.0, b), (20.0, c)]
        got = index._select_neighbors(np.array([[10.0, 13.0, 20.0]]),
                                      np.array([[a, b, c]]), 2)
        assert got == [[a, b]]
        assert reference_select(index, pairs, 2)[0] == [a, b]

    def test_candidates_are_nearest_members_by_distance_then_slot(self, rng):
        data = unit_rows(rng, 200, 8)
        index = build(data, m=3, ef_construction=25)
        for i in range(0, 200, 4):            # tombstones stay candidates
            index.remove(f"d{i:05d}")
        assert index._max_level >= 2
        # integer distances: many exact ties, broken by slot
        dist = rng.integers(0, 6, size=len(data)).astype(np.float64)
        for layer in range(index._max_level + 1):
            members = [s for s, lv in enumerate(index._table.tags.tolist())
                       if lv >= layer]
            want = sorted((float(dist[s]), s) for s in members)[:25]
            d, slots = index._candidates(dist, layer)
            assert list(zip(d.tolist(), slots.tolist())) == want

    def test_reloaded_index_keeps_building_the_same_graph(self, tmp_path,
                                                          rng):
        data = unit_rows(rng, 600, 8)
        docs = make_docs(data)
        index = HnswIndex(HnswParams(m=4, ef_construction=30, seed=5))
        for doc in docs[:300]:
            index.insert(doc)
        index.save(tmp_path / "h.snap")
        restored = load_index(tmp_path / "h.snap")
        for doc in docs[300:]:
            index.insert(doc)
            restored.insert(doc)
        for doc in docs[::7]:
            index.remove(doc.id)
            restored.remove(doc.id)
        assert index._max_level >= 2
        assert restored._graph == index._graph
        assert restored._entry == index._entry
        for q in unit_rows(rng, 20, 8):
            want = [(h.doc_id, h.distance) for h in index.search(Vector(q), 8)]
            got = [(h.doc_id, h.distance) for h in restored.search(Vector(q), 8)]
            assert got == want
