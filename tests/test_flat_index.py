import gc
import weakref

import numpy as np
import pytest

from contextdb import (DimensionMismatchError, Document, EmptyIndexError,
                       FlatIndex, HnswIndex, IvfIndex, IvfParams, Vector,
                       parse_filter)
from conftest import brute_force_knn, make_docs, unit_rows


def small_index():
    index = FlatIndex()
    for i, coords in enumerate([(0.0, 0.0), (1.0, 0.0), (0.0, 2.0), (3.0, 3.0)]):
        index.insert(Document(id=f"p{i}", text="", metadata={"i": i},
                              embedding=Vector(coords)))
    return index


class TestMutation:
    def test_insert_get_len_contains(self):
        index = small_index()
        assert len(index) == 4
        assert "p0" in index and "nope" not in index
        assert index.get("p2").metadata["i"] == 2
        assert index.get("nope") is None

    def test_insert_replaces_same_id(self):
        index = small_index()
        index.insert(Document(id="p0", text="new", metadata={},
                              embedding=Vector([9.0, 9.0])))
        assert len(index) == 4
        assert index.get("p0").text == "new"
        hits = index.search(Vector([9.0, 9.0]), 1)
        assert hits[0].doc_id == "p0"

    def test_remove(self):
        index = small_index()
        assert index.remove("p1") is True
        assert index.remove("p1") is False
        assert len(index) == 3
        assert all(h.doc_id != "p1" for h in index.search(Vector([1.0, 0.0]), 3))

    def test_dim_mismatch_on_insert(self):
        index = small_index()
        with pytest.raises(DimensionMismatchError):
            index.insert(Document(id="bad", text="", metadata={},
                                  embedding=Vector([1.0, 2.0, 3.0])))

    @pytest.mark.parametrize("kind", ["flat", "hnsw", "ivf"])
    def test_keeps_no_reference_to_an_inserted_vector(self, kind):
        # the slot table's row is the only copy of a stored vector
        if kind == "ivf":
            index = IvfIndex(IvfParams(nlist=1))
            index.train(np.zeros((1, 2)))
        else:
            index = FlatIndex() if kind == "flat" else HnswIndex()
        doc = Document(id="a", text="t", metadata={"n": 1},
                       embedding=Vector([1.0, 2.0]))
        values = weakref.ref(doc.embedding.values)
        index.insert(doc)
        del doc
        gc.collect()
        assert values() is None
        assert index.get("a") == Document(id="a", text="t", metadata={"n": 1},
                                          embedding=Vector([1.0, 2.0]))

    def test_get_returns_a_copy_that_outlives_its_slot(self):
        index = small_index()
        p1 = index.get("p1")
        assert p1 == index.get("p1") and p1 is not index.get("p1")
        index.remove("p1")  # p3, the last slot, is moved into p1's
        assert p1.embedding == Vector([1.0, 0.0])
        assert index.get("p3").embedding == Vector([3.0, 3.0])

    def test_remove_then_reinsert_after_swap_compaction(self):
        # removal swaps the last row into the hole; make sure mappings survive
        index = small_index()
        index.remove("p0")
        index.insert(Document(id="p9", text="", metadata={},
                              embedding=Vector([0.1, 0.1])))
        got = {h.doc_id for h in index.search(Vector([0.0, 0.0]), 4)}
        assert got == {"p1", "p2", "p3", "p9"}


class TestSearch:
    def test_orders_by_distance(self):
        index = small_index()
        hits = index.search(Vector([0.0, 0.0]), 4)
        assert [h.doc_id for h in hits] == ["p0", "p1", "p2", "p3"]
        assert [h.rank for h in hits] == [1, 2, 3, 4]
        assert hits[0].distance == 0.0
        assert hits[1].distance == 1.0

    def test_k_clamps_to_size(self):
        hits = small_index().search(Vector([0.0, 0.0]), 100)
        assert len(hits) == 4

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            small_index().search(Vector([0.0, 0.0]), 0)

    def test_empty_index(self):
        with pytest.raises(EmptyIndexError):
            FlatIndex().search(Vector([1.0]), 1)

    def test_query_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            small_index().search(Vector([1.0, 2.0, 3.0]), 1)

    def test_exact_ties_break_by_doc_id(self):
        index = FlatIndex()
        for doc_id in ("zed", "alpha", "mid"):
            index.insert(Document(id=doc_id, text="", metadata={},
                                  embedding=Vector([1.0, 0.0])))
        index.insert(Document(id="far", text="", metadata={},
                              embedding=Vector([5.0, 0.0])))
        hits = index.search(Vector([0.0, 0.0]), 2)
        assert [h.doc_id for h in hits] == ["alpha", "mid"]

    def test_duplicate_vectors_straddling_the_cut(self, rng):
        # five identical rows, k=2: the kept pair must be the smallest ids
        index = FlatIndex()
        for doc_id in ("e", "c", "a", "d", "b"):
            index.insert(Document(id=doc_id, text="", metadata={},
                                  embedding=Vector([2.0, 2.0])))
        hits = index.search(Vector([0.0, 0.0]), 2)
        assert [h.doc_id for h in hits] == ["a", "b"]

    def test_matches_brute_force_oracle(self, rng):
        data = unit_rows(rng, 400, 12)
        docs = make_docs(data)
        index = FlatIndex()
        for d in docs:
            index.insert(d)
        ids = [d.id for d in docs]
        for _ in range(40):
            q = unit_rows(rng, 1, 12)[0]
            want = brute_force_knn(data, ids, q, 7)
            got = [(h.doc_id, h.distance) for h in index.search(Vector(q), 7)]
            assert [g[0] for g in got] == [w[0] for w in want]
            np.testing.assert_allclose([g[1] for g in got],
                                       [w[1] for w in want], atol=1e-9)


class TestSearchFiltered:
    def test_exact_filter_then_knn(self, rng):
        data = unit_rows(rng, 200, 8)
        docs = make_docs(data, metadata_fn=lambda i: {"price": i % 50,
                                                      "tag": f"t{i % 3}"})
        index = FlatIndex()
        for d in docs:
            index.insert(d)
        expr = parse_filter('price<10 && tag="t1"')
        for _ in range(25):
            q = unit_rows(rng, 1, 8)[0]
            keep = [d for d in docs
                    if d.metadata["price"] < 10 and d.metadata["tag"] == "t1"]
            kid = [d.id for d in keep]
            kdata = np.stack([d.embedding.values for d in keep])
            want = brute_force_knn(kdata, kid, q, 5)
            got = [(h.doc_id, h.distance)
                   for h in index.search_filtered(Vector(q), 5, expr)]
            assert [g[0] for g in got] == [w[0] for w in want]

    def test_no_matches_is_empty(self):
        index = small_index()
        assert index.search_filtered(Vector([0.0, 0.0]), 3,
                                     parse_filter("i>99")) == []

    def test_match_all_filter_equals_plain_search(self):
        index = small_index()
        q = Vector([0.5, 0.5])
        plain = index.search(q, 4)
        filtered = index.search_filtered(q, 4, parse_filter("i>=0"))
        assert plain == filtered

    def test_fewer_matches_than_k(self):
        index = small_index()
        hits = index.search_filtered(Vector([0.0, 0.0]), 4, parse_filter("i=2"))
        assert [h.doc_id for h in hits] == ["p2"]
        assert hits[0].rank == 1

    def test_rejects_unknown_override(self):
        index = small_index()
        with pytest.raises(TypeError):
            index.search(Vector([0.0, 0.0]), 1, ef_search=10)
