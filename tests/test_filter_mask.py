"""Filtered search through the metadata columns against FilterExpr.matches.

search_filtered compiles the filter to one mask over the slot table's
metadata columns. The reference here is the loop it replaced: matches() on
every live slot of the kind's pool, in pool order, then the exact scan.
Both must return the same ids, or raise the same exception type with the
same message, on random heterogeneous metadata. The columns are encoded
lazily, and a mutation must re-encode only the slots it touched.
"""

from __future__ import annotations

import numpy as np
import pytest

from contextdb import (Clause, Document, FilterExpr, FilterTypeMismatchError,
                       FlatIndex, HnswIndex, HnswParams, IvfIndex, IvfParams,
                       Op, Vector, load_index, parse_filter)

DIM = 4
BIG = 2 ** 53
HUGE = 10 ** 400   # an int float() cannot hold
NAN = float("nan")

# values a document's field may hold, by the field's usual kind
NUMBERS = [0, 1, 2, 1.0, 2.5, -3, BIG, BIG + 1, float(BIG), NAN, 1e300]
STRINGS = ["a", "b", "1", "true", ""]
BOOLS = [True, False]
HOME = {"n": NUMBERS, "s": STRINGS, "b": BOOLS, "x": NUMBERS + STRINGS + BOOLS}
LITERALS = NUMBERS + STRINGS + BOOLS + [HUGE, 7, 1e301]


def outcome(search):
    """(ids in rank order, None) or (None, (exception type, message))."""
    try:
        return [h.doc_id for h in search()], None
    except FilterTypeMismatchError as exc:
        return None, (type(exc), str(exc))


def reference(index, q: np.ndarray, k: int, filt: FilterExpr):
    """The filter as one matches() per live pooled slot, in pool order."""
    t = index._table
    slots = np.arange(t.count)[index._pool(q)]
    keep = [s for s in slots.tolist()
            if (meta := t.metas[s]) is not None and filt.matches(meta)]
    return index._to_hits(index._scan(q, k, keep), k)


def check(index, q: np.ndarray, filt: FilterExpr):
    k = max(len(index), 1)
    got = outcome(lambda: index.search_filtered(Vector(q), k, filt))
    want = outcome(lambda: reference(index, q, k, filt))
    assert got == want, filt
    return got


def random_meta(rng, p_foreign: float, p_huge: float) -> dict:
    meta = {}
    for field, home in HOME.items():
        if rng.random() < 0.2:
            continue            # missing
        pool = HOME["x"] if rng.random() < p_foreign else home
        value = pool[int(rng.integers(len(pool)))]
        if field == "n" and rng.random() < p_huge:
            value = HUGE
        meta[field] = value
    return meta


def random_filter(rng) -> FilterExpr:
    clauses = []
    for _ in range(int(rng.integers(1, 4))):
        field = str(rng.choice(list(HOME) + ["absent"]))
        op = Op(str(rng.choice([op.value for op in Op])))
        if op is Op.IN:
            value = tuple(LITERALS[int(i)] for i in
                          rng.integers(len(LITERALS), size=rng.integers(1, 4)))
        elif op in (Op.EQ, Op.NE):
            value = LITERALS[int(rng.integers(len(LITERALS)))]
        else:
            numbers = NUMBERS + [HUGE, 1e301]
            value = numbers[int(rng.integers(len(numbers)))]
        clauses.append(Clause(field, op, value))
    return FilterExpr(tuple(clauses))


def build(kind: str, rng):
    if kind == "flat":
        return FlatIndex()
    if kind == "hnsw":
        return HnswIndex(HnswParams(m=4, ef_construction=16, seed=3))
    index = IvfIndex(IvfParams(nlist=8, nprobe=3, seed=2))
    index.train(rng.standard_normal((64, DIM)))
    return index


@pytest.mark.parametrize("kind", ["flat", "hnsw", "ivf"])
def test_mask_equals_reference_on_random_metadata(tmp_path, rng, kind):
    seen = {"hits": 0, "empty": 0, FilterTypeMismatchError: 0}
    for p_foreign, p_huge in ((0.0, 0.0), (0.02, 0.0), (0.0, 0.01),
                              (0.3, 0.05)):
        index = build(kind, rng)
        ids = []
        for step in range(240):
            roll = rng.random()
            if ids and roll < 0.25:     # remove: a swap-remove or tombstone
                index.remove(ids.pop(int(rng.integers(len(ids)))))
            else:                       # insert, or replace an id
                doc_id = ids[int(rng.integers(len(ids)))] \
                    if ids and roll < 0.4 else f"d{step}"
                if doc_id not in ids:
                    ids.append(doc_id)
                index.insert(Document(doc_id, f"t{step}",
                                      random_meta(rng, p_foreign, p_huge),
                                      Vector(rng.standard_normal(DIM))))
            if step % 6 == 5 and ids:
                got, err = check(index, rng.standard_normal(DIM),
                                 random_filter(rng))
                if err:
                    seen[err[0]] += 1
                else:
                    seen["hits" if got else "empty"] += 1
        q = rng.standard_normal(DIM)
        check(index, q, FilterExpr.match_all())
        path = tmp_path / f"{kind}.snap"
        index.save(path)
        restored = load_index(path)
        for _ in range(20):
            filt = random_filter(rng)
            q = rng.standard_normal(DIM)
            # ivf's pool order may differ after a reload, and with it the
            # first slot that raises, but not whether one does
            (got, err), (want, want_err) = (check(restored, q, filt),
                                            check(index, q, filt))
            assert got == want and (err is None) == (want_err is None)
    assert all(seen.values()), seen


# (stored values of field v, filter): each a case the mask must get right
EDGE_CASES = [
    ([1, "a", True], "missing=1"),                 # no slot has the field
    ([1, 2], "v=1 && missing=1"),
    ([True, 1], "v=true"),                         # a boolean is no number
    ([1, True], "v=1"),
    ([1, 1.0, 2], "v=1.0"),                        # equal int and float
    ([BIG, BIG + 1, BIG + 2], f"v={BIG + 1}"),     # beyond 2**53
    ([BIG + 1, 5], f"v>={BIG}"),
    ([1, HUGE], "v<2"),                            # stored too large
    ([HUGE], 'v="a"'),
    ([1, 2], f"v={HUGE}"),                         # literal too large
    ([HUGE], f"v={HUGE}"),
    ([HUGE, HUGE], f"v in ({HUGE}, 1)"),
    ([NAN, 1.0], "v=1"),                           # NaN equals nothing
    ([NAN, 1.0], "v!=1"),
    ([NAN, 1.0], "v<5"),
    ([1, 2, "a"], "v!=1"),
    ([1, 2], 'v in (1, "a")'),                     # stops at the hit on 1
    (["a", 1], 'v in (1, "a")'),
    ([1, "a"], 'v in ("a", true)'),
    ([False, True], "v in (true, false)"),
    ([1, 2, 3], ""),                               # the empty filter
]


@pytest.mark.parametrize("kind", ["flat", "hnsw", "ivf"])
@pytest.mark.parametrize("values,text", EDGE_CASES)
def test_edge_cases_equal_reference(rng, kind, values, text):
    index = build(kind, rng)
    if kind == "ivf":
        index = IvfIndex(IvfParams(nlist=1, nprobe=1))
        index.train(np.zeros((1, DIM)))
    for i, value in enumerate(values):
        index.insert(Document(f"d{i}", "", {"v": value, "i": i},
                              Vector(rng.standard_normal(DIM))))
    check(index, rng.standard_normal(DIM), parse_filter(text))


@pytest.mark.parametrize("kind,size,touched", [
    ("flat", 2000, 3), ("ivf", 2000, 3), ("hnsw", 300, 4)])
def test_mutations_re_encode_only_touched_slots(rng, kind, size, touched):
    """After a filtered search has encoded the index, an insert, a remove
    and a replace cost the next filtered search only the slots they touched:
    on flat and ivf the appended slot and the two slots that swap-removes
    refilled; on hnsw the two tombstones and the two appended slots."""
    index = build(kind, rng)
    if kind == "ivf":
        index = IvfIndex(IvfParams(nlist=16, nprobe=16, seed=1))
        index.train(rng.standard_normal((64, DIM)))
    for i in range(size):
        index.insert(Document(f"d{i}", "", {"n": i % 7},
                              Vector(rng.standard_normal(DIM))))
    filt = parse_filter("n<3")
    q = rng.standard_normal(DIM)
    check(index, q, filt)
    table = index._table
    assert table.encodings == size
    check(index, q, filt)
    assert table.encodings == size        # nothing changed, nothing encoded
    index.insert(Document("new", "", {"n": 1},
                          Vector(rng.standard_normal(DIM))))
    index.remove("d5")
    index.insert(Document("d9", "", {"n": 2},     # a replace
                          Vector(rng.standard_normal(DIM))))
    check(index, q, filt)
    assert table.encodings == size + touched


def test_string_churn_keeps_the_interned_strings_bounded(rng):
    """100 documents rewritten 3000 times, each time with a new string: the
    columns are encoded afresh rather than keep every string ever seen."""
    index = FlatIndex()
    for i in range(3000):
        index.insert(Document(f"d{i % 100}", "", {"sku": f"s{i}"},
                              Vector(rng.standard_normal(DIM))))
        if i % 10 == 9 and i > 50:
            got, _ = check(index, rng.standard_normal(DIM),
                           parse_filter(f'sku="s{i - 50}"'))
            assert got == [f"d{(i - 50) % 100}"]
    assert len(index._table.columns().strings) < 400


def edge_index(kind: str, rng, values: list):
    """A small index whose document d{i} holds values[i] in field v."""
    index = build(kind, rng)
    if kind == "ivf":
        index = IvfIndex(IvfParams(nlist=1, nprobe=1))
        index.train(np.zeros((1, DIM)))
    for i, value in enumerate(values):
        index.insert(Document(f"d{i}", "", {"v": value},
                              Vector(rng.standard_normal(DIM))))
    return index


@pytest.mark.parametrize("kind", ["flat", "hnsw", "ivf"])
@pytest.mark.parametrize("values,text", EDGE_CASES)
def test_the_search_path_never_calls_matches(monkeypatch, rng, kind, values,
                                             text):
    """The mask alone decides what a filtered search returns or raises."""
    index = edge_index(kind, rng, values)
    q, filt = rng.standard_normal(DIM), parse_filter(text)
    want = outcome(lambda: reference(index, q, len(index), filt))

    def refuse(self, metadata):
        raise AssertionError("search_filtered called FilterExpr.matches")

    monkeypatch.setattr(FilterExpr, "matches", refuse)
    assert outcome(lambda: index.search_filtered(
        Vector(q), len(index), filt)) == want


@pytest.mark.parametrize("kind", ["flat", "hnsw", "ivf"])
@pytest.mark.parametrize("text,want", [
    ("v<2", {"d0", "d2"}),                         # stored past the range
    (f"v={HUGE}", {"d1", "d4"}),                   # literal past the range
    (f"v>={10 ** 399}", {"d1", "d4"}),
    (f"v in ({-HUGE}, 1)", {"d0", "d2"}),
    (f"v!={HUGE}", {"d0", "d2", "d3"}),
    ("v<1e400", {"d0", "d2", "d3"}),
], ids=["lt", "eq", "ge", "in", "ne", "lt-float"])
def test_numbers_past_float64_compare_as_inf(rng, kind, text, want):
    index = edge_index(kind, rng, [1, HUGE, -HUGE, 1e300, float("inf")])
    got, err = check(index, rng.standard_normal(DIM), parse_filter(text))
    assert err is None and set(got) == want
