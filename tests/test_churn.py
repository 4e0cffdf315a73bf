"""Churn on the two indexes whose slot table compacts by swap-remove.

Random inserts, replacements and removes run against the brute-force
oracle, searched with and without a filter, with the slot table's and the
ivf lists' invariants checked as they go, and then through a save/load
round trip. The filtered check runs after every remove and replace, since
each one moves a slot's metadata in the columns that filters read. ivf
probes every list (nprobe == nlist), so it must agree with the oracle
exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from contextdb import (Document, FlatIndex, IvfIndex, IvfParams, Vector,
                       load_index, parse_filter)
from conftest import brute_force_knn, unit_rows

DIM = 6


def check_slots(index, live: dict[str, np.ndarray],
                attrs: dict[str, tuple[str, dict]]) -> None:
    table = index._table
    assert len(index) == table.count == len(live)
    assert sorted(table.slot_of) == sorted(live)
    for doc_id, slot in table.slot_of.items():
        assert table.ids[slot] == doc_id
        assert np.array_equal(table.rows[slot], live[doc_id])
        assert (table.texts[slot], dict(table.metas[slot])) == attrs[doc_id]
    if index.kind == "ivf":
        members = sorted(s for lst in index._lists for s in lst)
        assert members == list(range(table.count))
        assert len(index._list_of) == table.count
        d2 = ((table.rows[:, None, :] - index._centroids[None]) ** 2).sum(-1)
        for c, lst in enumerate(index._lists):
            for slot in lst:
                assert index._list_of[slot] == c
                assert int(d2[slot].argmin()) == c


def check_oracle(index, live: dict[str, np.ndarray],
                 attrs: dict[str, tuple[str, dict]], queries) -> None:
    """Every query unfiltered, and the first one under a filter that keeps
    about half of the live documents and under one on two fields, against
    filter-then-brute-force."""
    steps = sorted(attrs[i][1]["step"] for i in live)
    cut = steps[len(steps) // 2]
    searches = [(q, sorted(live), index.search(Vector(q), 5))
                for q in queries]
    for text, holds in ((f"step<{cut}", lambda m: m["step"] < cut),
                        (f"odd=true && step>={cut}",
                         lambda m: m["odd"] and m["step"] >= cut)):
        kept = sorted(i for i in live if holds(attrs[i][1]))
        searches.append((queries[0], kept, index.search_filtered(
            Vector(queries[0]), 5, parse_filter(text))))
    for q, ids, hits in searches:
        want = brute_force_knn(np.stack([live[i] for i in ids]), ids, q, 5) \
            if ids else []
        got = [(h.doc_id, h.distance) for h in hits]
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
    attrs: dict[str, tuple[str, dict]] = {}  # id -> (text, metadata)
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
            del live[doc_id], attrs[doc_id]
            swapped = True
        else:
            swapped = live and op < 0.55   # a replace
            if swapped:
                doc_id = sorted(live)[rng.integers(len(live))]
                replaced += 1
            else:
                doc_id = f"c{step:04d}"
            live[doc_id] = unit_rows(rng, 1, DIM)[0]
            attrs[doc_id] = (f"{doc_id} at {step}",
                             {"step": step, "odd": step % 2 == 1})
            index.insert(Document(id=doc_id, text=attrs[doc_id][0],
                                  metadata=attrs[doc_id][1],
                                  embedding=Vector(live[doc_id])))
        check_slots(index, live, attrs)
        if step % 50 == 49 and live:
            check_oracle(index, live, attrs, queries)
        elif swapped and live:
            check_oracle(index, live, attrs, queries[:1])
    assert removed_last and replaced
    assert kind == "flat" or removed_across_lists

    path = tmp_path / f"{kind}.snap"
    index.save(path)
    restored = load_index(path)
    check_slots(restored, live, attrs)
    check_oracle(restored, live, attrs, queries)
    for q in queries:
        assert restored.search(Vector(q), 7) == index.search(Vector(q), 7)
