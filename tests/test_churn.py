"""Churn on the two indexes whose slot table compacts by swap-remove.

Random inserts, replacements and removes run against the brute-force
oracle, with the slot table's and the ivf lists' invariants checked as they
go, and then through a save/load round trip. ivf probes every list
(nprobe == nlist), so it must agree with the oracle exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from contextdb import (Document, FlatIndex, IvfIndex, IvfParams, Vector,
                       load_index)
from conftest import brute_force_knn, unit_rows

DIM = 6


def check_slots(index, live: dict[str, np.ndarray]) -> None:
    table = index._table
    assert len(index) == table.count == len(live)
    assert sorted(table.slot_of) == sorted(live)
    for doc_id, slot in table.slot_of.items():
        assert table.ids[slot] == doc_id
        assert np.array_equal(table.rows[slot], live[doc_id])
    if index.kind == "ivf":
        members = sorted(s for lst in index._lists for s in lst)
        assert members == list(range(table.count))
        assert len(index._list_of) == table.count
        d2 = ((table.rows[:, None, :] - index._centroids[None]) ** 2).sum(-1)
        for c, lst in enumerate(index._lists):
            for slot in lst:
                assert index._list_of[slot] == c
                assert int(d2[slot].argmin()) == c


def check_oracle(index, live: dict[str, np.ndarray], queries) -> None:
    ids = sorted(live)
    data = np.stack([live[i] for i in ids])
    for q in queries:
        want = brute_force_knn(data, ids, q, 5)
        got = [(h.doc_id, h.distance) for h in index.search(Vector(q), 5)]
        assert [g[0] for g in got] == [w[0] for w in want]
        np.testing.assert_allclose([g[1] for g in got],
                                   [w[1] for w in want], atol=1e-9)


@pytest.mark.parametrize("kind", ["flat", "ivf"])
def test_churn_matches_oracle_and_round_trips(tmp_path, rng, kind):
    if kind == "flat":
        index = FlatIndex()
    else:
        index = IvfIndex(IvfParams(nlist=6, nprobe=6, seed=4))
        index.train(unit_rows(rng, 120, DIM))
    queries = unit_rows(rng, 8, DIM)
    live: dict[str, np.ndarray] = {}
    removed_last = removed_across_lists = replaced = 0
    for step in range(700):
        op = rng.random()
        if live and op < 0.4:
            doc_id = sorted(live)[rng.integers(len(live))]
            slot = index._table.slot_of[doc_id]
            last = index._table.count - 1
            if slot == last:
                removed_last += 1
            elif kind == "ivf" and \
                    index._list_of[slot] != index._list_of[last]:
                removed_across_lists += 1
            assert index.remove(doc_id)
            del live[doc_id]
        else:
            if live and op < 0.55:
                doc_id = sorted(live)[rng.integers(len(live))]
                replaced += 1
            else:
                doc_id = f"c{step:04d}"
            live[doc_id] = unit_rows(rng, 1, DIM)[0]
            index.insert(Document(id=doc_id, text=doc_id, metadata={},
                                  embedding=Vector(live[doc_id])))
        check_slots(index, live)
        if step % 50 == 49 and live:
            check_oracle(index, live, queries)
    assert removed_last and replaced
    assert kind == "flat" or removed_across_lists

    path = tmp_path / f"{kind}.snap"
    index.save(path)
    restored = load_index(path)
    check_slots(restored, live)
    check_oracle(restored, live, queries)
    for q in queries:
        assert restored.search(Vector(q), 7) == index.search(Vector(q), 7)
