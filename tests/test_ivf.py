import numpy as np
import pytest

from contextdb import (Document, FlatIndex, IvfIndex, IvfParams,
                       NotTrainedError, TrainingDataError, Vector,
                       parse_filter)
from helpers import brute_force_knn, make_docs, unit_rows


def trained_pair(rng, n=500, dim=12, **params):
    """An IVF index and a flat twin over the same documents."""
    data = unit_rows(rng, n, dim)
    docs = make_docs(data)
    ivf = IvfIndex(IvfParams(**params))
    ivf.train(data)
    flat = FlatIndex()
    for d in docs:
        ivf.insert(d)
        flat.insert(d)
    return ivf, flat, data


class TestParams:
    @pytest.mark.parametrize("kw", [{"nlist": 0}, {"nprobe": 0},
                                    {"kmeans_iters": 0}])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            IvfParams(**kw)


class TestTraining:
    def test_untrained_rejects_use(self):
        ivf = IvfIndex()
        doc = Document(id="a", text="", metadata={}, embedding=Vector([1.0]))
        with pytest.raises(NotTrainedError):
            ivf.insert(doc)
        with pytest.raises(NotTrainedError):
            ivf.search(Vector([1.0]), 1)
        assert not ivf.trained
        assert ivf.dim is None  # the refused insert fixed no dimension

    def test_train_once_only(self, rng):
        data = unit_rows(rng, 100, 4)
        ivf = IvfIndex()
        ivf.train(data)
        with pytest.raises(ValueError):
            ivf.train(data)

    def test_default_nlist_is_sqrt_n(self, rng):
        ivf = IvfIndex()
        ivf.train(unit_rows(rng, 500, 4))
        assert ivf.nlist == 23  # ceil(sqrt(500))

    def test_train_accepts_vectors_or_array(self, rng):
        data = unit_rows(rng, 64, 4)
        a, b = IvfIndex(IvfParams(nlist=8)), IvfIndex(IvfParams(nlist=8))
        a.train(data)
        b.train([Vector(row) for row in data])
        np.testing.assert_array_equal(a.centroids, b.centroids)

    def test_too_little_data(self, rng):
        ivf = IvfIndex(IvfParams(nlist=32))
        with pytest.raises(TrainingDataError):
            ivf.train(unit_rows(rng, 10, 4))
        with pytest.raises(TrainingDataError):
            IvfIndex().train(np.zeros((0, 4)))

    def test_training_is_deterministic(self, rng):
        data = unit_rows(rng, 300, 8)
        a, b = IvfIndex(IvfParams(nlist=16, seed=5)), IvfIndex(IvfParams(nlist=16, seed=5))
        a.train(data)
        b.train(data)
        np.testing.assert_array_equal(a.centroids, b.centroids)

    def test_duplicate_heavy_data_still_trains(self):
        # k-means must survive emptied clusters when points coincide
        rows = np.array([[0.0, 0.0]] * 40 + [[1.0, 1.0]] * 40 + [[5.0, 5.0]] * 20)
        ivf = IvfIndex(IvfParams(nlist=10))
        ivf.train(rows)
        assert ivf.centroids.shape == (10, 2)
        for i, row in enumerate(rows):
            ivf.insert(Document(id=f"r{i:03d}", text="", metadata={},
                                embedding=Vector(row)))
        hits = ivf.search(Vector([5.0, 5.0]), 3, nprobe=10)
        assert all(h.distance == 0.0 for h in hits)


class TestExactnessBound:
    def test_nprobe_nlist_identical_to_flat(self, rng):
        ivf, flat, data = trained_pair(rng, n=500, dim=12, nlist=20)
        for q in unit_rows(rng, 50, 12):
            want = [(h.doc_id, h.distance) for h in flat.search(Vector(q), 10)]
            got = [(h.doc_id, h.distance)
                   for h in ivf.search(Vector(q), 10, nprobe=20)]
            assert got == want  # bit-identical, same kernel

    def test_monotone_recall_in_nprobe(self, rng):
        ivf, flat, data = trained_pair(rng, n=600, dim=16, nlist=24)
        queries = unit_rows(rng, 40, 16)
        truths = [{h.doc_id for h in flat.search(Vector(q), 10)}
                  for q in queries]
        prev = -1.0
        for nprobe in range(1, 25):
            hit = sum(len({h.doc_id for h in ivf.search(Vector(q), 10,
                                                        nprobe=nprobe)} & t)
                      for q, t in zip(queries, truths))
            recall = hit / 400
            assert recall >= prev
            prev = recall
        assert prev == 1.0  # the final step probed every list


class TestMutation:
    def test_remove_and_reinsert(self, rng):
        ivf, flat, data = trained_pair(rng, n=200, dim=8, nlist=10)
        assert ivf.remove("d00005")
        assert not ivf.remove("d00005")
        flat.remove("d00005")
        assert len(ivf) == 199
        for q in unit_rows(rng, 10, 8):
            got = [h.doc_id for h in ivf.search(Vector(q), 5, nprobe=10)]
            want = [h.doc_id for h in flat.search(Vector(q), 5)]
            assert got == want

    def test_replace_moves_vector_between_lists(self, rng):
        ivf, flat, data = trained_pair(rng, n=200, dim=8, nlist=10)
        moved = Vector(-data[7])
        ivf.insert(Document(id="d00007", text="", metadata={}, embedding=moved))
        flat.insert(Document(id="d00007", text="", metadata={}, embedding=moved))
        got = [h.doc_id for h in ivf.search(moved, 3, nprobe=10)]
        want = [h.doc_id for h in flat.search(moved, 3)]
        assert got == want and got[0] == "d00007"


class TestSearch:
    def test_default_nprobe_recall_reasonable(self, rng):
        ivf, flat, data = trained_pair(rng, n=800, dim=16)  # default nprobe=min(8,nlist)
        queries = unit_rows(rng, 30, 16)
        hit = sum(len({h.doc_id for h in ivf.search(Vector(q), 10)}
                      & {h.doc_id for h in flat.search(Vector(q), 10)})
                  for q in queries)
        assert hit / 300 >= 0.6  # coarse probe; exactness comes from nprobe=nlist

    def test_may_return_fewer_than_k_on_narrow_probe(self, rng):
        ivf, _, data = trained_pair(rng, n=120, dim=8, nlist=12)
        sizes = [len(ivf.search(Vector(q), 60, nprobe=1))
                 for q in unit_rows(rng, 20, 8)]
        assert min(sizes) < 60  # a single list cannot hold everything
        assert all(s >= 1 for s in sizes)

    def test_filtered_consistent_with_flat_under_full_probe(self, rng):
        data = unit_rows(rng, 300, 8)
        ivf, flat = IvfIndex(IvfParams(nlist=12)), FlatIndex()
        ivf.train(data)
        for i, row in enumerate(data):
            doc = Document(id=f"d{i:05d}", text="", metadata={"g": i % 3},
                           embedding=Vector(row))
            ivf.insert(doc)
            flat.insert(doc)
        expr = parse_filter("g=1")
        for q in unit_rows(rng, 15, 8):
            got = [h.doc_id for h in ivf.search_filtered(Vector(q), 5, expr,
                                                         nprobe=12)]
            want = [h.doc_id for h in flat.search_filtered(Vector(q), 5, expr)]
            assert got == want

    def test_full_probe_low_selectivity_equals_flat(self, rng):
        # 10 of 2000 documents match (0.5 %): every probed match is scanned
        data = unit_rows(rng, 2000, 8)
        ivf, flat = IvfIndex(IvfParams(nlist=20)), FlatIndex()
        ivf.train(data)
        for doc in make_docs(data, metadata_fn=lambda i: {"rare": i % 200 == 0}):
            ivf.insert(doc)
            flat.insert(doc)
        expr = parse_filter("rare=true")
        for q in unit_rows(rng, 10, 8):
            for k in (5, 12):
                want = [(h.doc_id, h.distance)
                        for h in flat.search_filtered(Vector(q), k, expr)]
                got = [(h.doc_id, h.distance)
                       for h in ivf.search_filtered(Vector(q), k, expr,
                                                    nprobe=20)]
                assert len(got) == min(k, 10)
                assert got == want

    def test_bad_nprobe_raises_on_both_paths(self, rng):
        ivf, _, _ = trained_pair(rng, n=50, dim=4, nlist=5)
        q = Vector(unit_rows(rng, 1, 4)[0])
        with pytest.raises(ValueError):
            ivf.search(q, 3, nprobe=0)
        with pytest.raises(ValueError):
            ivf.search_filtered(q, 3, parse_filter("x=1"), nprobe=0)

    def test_oracle_agreement_full_probe(self, rng):
        ivf, _, data = trained_pair(rng, n=350, dim=10, nlist=15)
        ids = [f"d{i:05d}" for i in range(len(data))]
        for q in unit_rows(rng, 25, 10):
            want = [w for w, _ in brute_force_knn(data, ids, q, 6)]
            got = [h.doc_id for h in ivf.search(Vector(q), 6, nprobe=15)]
            assert got == want
