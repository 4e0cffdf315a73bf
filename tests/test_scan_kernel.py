"""The exact scan against the difference kernel it screens for.

VectorIndex._scan screens a pool with one gemv over the slot table's squared
norms, then ranks the rows within rounding of the nth by the difference
kernel. The reference here is that kernel alone over the whole pool, so
every hit list, distances and ties included, must come out identical, on
data built to defeat the screen: duplicated rows, exact ties, rows of norm
1e3 a hair apart, large offsets and rows whose norms overflow. The norms
themselves must equal row @ row bit for bit through inserts, removes,
replaces and a snapshot reload, and an insert must compute none of them.
Every distance a search reports must be euclidean_distance's, bit for bit.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from contextdb import (Document, FlatIndex, HnswIndex, HnswParams, IvfIndex,
                       IvfParams, Vector, euclidean_distance, load_index,
                       parse_filter)
from contextdb.core import sq_distances
from helpers import unit_rows

KS = (1, 4, 10, 50)


def reference_scan(index, q: np.ndarray, n: int,
                   slots) -> list[tuple[float, str]]:
    """The difference kernel over the whole pool, with the keep-every-tie
    cut: the scan as it was before the screen."""
    t = index._table
    diff = t.rows[slots] - q
    dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    if n < dists.shape[0]:
        cut = np.flatnonzero(dists <= np.partition(dists, n - 1)[n - 1])
    else:
        cut = np.arange(dists.shape[0])
    picked = np.arange(t.count)[slots][cut]
    return list(zip(dists[cut].tolist(), [t.ids[s] for s in picked.tolist()]))


def expected(index, q: np.ndarray, k: int, slots):
    return index._to_hits(reference_scan(index, q, k, slots), k)


def dataset(kind: str, rng: np.random.Generator, n: int):
    """(rows, the spread of a perturbed query) for one kind of data."""
    if kind == "unit":
        return unit_rows(rng, n, 16), 1e-2
    if kind == "duplicated":   # 100 rows stored again under other ids
        rows = unit_rows(rng, n - 100, 8)
        rows = np.vstack([rows, rows[rng.choice(n - 100, 100)]])
        return rows[rng.permutation(n)], 1e-2
    if kind == "near_tied_1e3":  # norm about 1e3, about 1e-9 apart
        base = 1e3 * unit_rows(rng, 1, 16)[0]
        return base + 1e-9 * rng.standard_normal((n, 16)), 1e-9
    if kind == "scale_1e6":
        return 1e6 * rng.standard_normal((n, 7)), 1e5
    if kind == "grid":         # exact ties everywhere
        return rng.integers(-2, 3, (n, 4)).astype(np.float64), 0.0
    if kind == "offset":       # 5.0 off the origin at 1e-6 spread
        return 5.0 + 1e-6 * rng.standard_normal((n, 8)), 1e-6
    if kind == "subnormal":    # squares below the normal range
        return 1e-158 * rng.standard_normal((n, 8)), 1e-159
    raise ValueError(kind)


KINDS = ("unit", "duplicated", "near_tied_1e3", "scale_1e6", "grid",
         "offset", "subnormal")


def queries(rng: np.random.Generator, rows: np.ndarray, spread: float):
    """Stored rows as they are, and perturbed by spread."""
    picks = rows[rng.choice(rows.shape[0], 10, replace=False)]
    noise = spread * rng.standard_normal(picks.shape)
    return list(picks[:5]) + list(picks[5:] + noise[5:])


def docs(rows: np.ndarray, meta=lambda i: {}):
    return [Document(f"d{i:04d}", f"t{i}", meta(i), Vector(row))
            for i, row in enumerate(rows)]


@pytest.mark.parametrize("kind", KINDS)
class TestSameHitsAsTheDifferenceKernel:
    def test_flat_whole_pool_slot_arrays_and_empty(self, rng, kind):
        rows, spread = dataset(kind, rng, 600)
        index = FlatIndex()
        for doc in docs(rows):
            index.insert(doc)
        pools = [slice(None), np.array([], dtype=np.int64),
                 np.flatnonzero(rng.random(600) < 0.3),   # one gemv, picked
                 np.flatnonzero(rng.random(600) < 0.05)]  # rows gathered
        for q in queries(rng, rows, spread):
            for k in KS:
                assert index.search(Vector(q), k) == \
                    expected(index, q, k, slice(None))
                for pool in pools:
                    assert index._to_hits(index._scan(q, k, pool), k) == \
                        expected(index, q, k, pool)

    def test_ivf_probed_lists(self, rng, kind):
        rows, spread = dataset(kind, rng, 600)
        index = IvfIndex(IvfParams(nlist=8, seed=1))
        index.train(rows)
        for doc in docs(rows):
            index.insert(doc)
        for q in queries(rng, rows, spread):
            for nprobe in (1, 3, 8):
                pool = index._pool(q, nprobe=nprobe)
                for k in KS:
                    assert index.search(Vector(q), k, nprobe=nprobe) == \
                        expected(index, q, min(k, len(index)), pool)

    def test_filtered_hnsw_with_tombstones(self, rng, kind):
        rows, spread = dataset(kind, rng, 300)
        index = HnswIndex(HnswParams(m=4, ef_construction=16))
        for doc in docs(rows, lambda i: {"g": i % 3}):
            index.insert(doc)
        for i in rng.choice(300, 30, replace=False):
            index.remove(f"d{i:04d}")
        t = index._table
        for expr, holds in (("g=0", lambda g: g == 0),
                            ("g!=1", lambda g: g != 1)):
            filt = parse_filter(expr)
            keep = [s for s in range(t.count)
                    if t.metas[s] is not None and holds(t.metas[s]["g"])]
            for q in queries(rng, rows, spread):
                for k in KS:
                    assert index.search_filtered(Vector(q), k, filt) == \
                        expected(index, q, k, np.array(keep))

    def test_every_reported_distance_is_euclidean_distance(self, rng, kind):
        rows, spread = dataset(kind, rng, 600)
        flat, ivf = FlatIndex(), IvfIndex(IvfParams(nlist=8, seed=1))
        hnsw = HnswIndex(HnswParams(m=4, ef_construction=16))
        ivf.train(rows)
        for doc in docs(rows, lambda i: {"g": i % 3}):
            for index in (flat, ivf, hnsw):
                index.insert(doc)
        filt = parse_filter("g!=1")
        for q in map(Vector, queries(rng, rows, spread)):
            for index, hits in ((flat, flat.search(q, 50)),
                                (ivf, ivf.search(q, 50, nprobe=1)),
                                (ivf, ivf.search(q, 50, nprobe=8)),
                                (hnsw, hnsw.search_filtered(q, 50, filt))):
                assert hits
                for hit in hits:
                    stored = index.get(hit.doc_id).embedding
                    assert hit.distance == euclidean_distance(stored, q)


def test_duplicates_straddling_the_kth_are_all_ranked(rng):
    rows = unit_rows(rng, 300, 8)
    q = rows[7] + 1e-3 * rng.standard_normal(8)
    index = FlatIndex()
    for doc in docs(rows):
        index.insert(doc)
    for k in KS:
        kth = index.search(Vector(q), k)[-1]
        twin = index.get(kth.doc_id).embedding
        for tag in ("a", "z"):   # ids on both sides of the kth's
            index.insert(Document(f"{tag}-{k}", "", {}, twin))
        hits = index.search(Vector(q), k + 2)
        assert hits == expected(index, q, k + 2, slice(None))
        assert {f"a-{k}", f"z-{k}", kth.doc_id} <= {h.doc_id for h in hits}


def test_the_true_neighbour_of_near_tied_large_rows_is_never_dropped(rng):
    """Rows of norm about 1e3 that differ by about 1e-9: the screen's
    rounding (about 1e-10 in d^2) dwarfs their d^2 gaps (about 1e-18)."""
    base = 1e3 * unit_rows(rng, 1, 64)[0]
    rows = base + 1e-9 * rng.standard_normal((2000, 64))
    index = FlatIndex()
    for doc in docs(rows):
        index.insert(doc)
    for _ in range(20):
        q = base + 1e-9 * rng.standard_normal(64)
        diff = rows - q
        truth = int(np.argmin(np.einsum("ij,ij->i", diff, diff)))
        hits = index.search(Vector(q), 1)
        assert hits[0].doc_id == f"d{truth:04d}"
        assert index.search(Vector(q), 10) == \
            expected(index, q, 10, slice(None))


def test_overflowing_norms_fall_back_to_the_exact_kernel(rng):
    """Finite rows near 1e160 overflow |x|^2: the screen is all NaN and
    would drop rows, so the whole pool is ranked exactly, silently."""
    u = unit_rows(rng, 1, 16)[0]
    steps = rng.permutation(200).astype(np.float64)
    rows = 1e160 * u + 1e150 * steps[:, None] * unit_rows(rng, 200, 16)
    q = 1e160 * u
    flat, hnsw = FlatIndex(), HnswIndex(HnswParams(m=4, ef_construction=16))
    for doc in docs(rows, lambda i: {"g": i % 2}):
        flat.insert(doc)
    with warnings.catch_warnings():  # the graph's build overflows too
        warnings.simplefilter("ignore", RuntimeWarning)
        for doc in docs(rows, lambda i: {"g": i % 2}):
            hnsw.insert(doc)
    pool = np.flatnonzero(rng.random(200) < 0.5)
    even = np.arange(0, 200, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for k in KS:
            hits = flat.search(Vector(q), k)
            assert hits == expected(flat, q, k, slice(None))
            assert hits[0].doc_id == f"d{int(np.argmin(steps)):04d}"
            assert flat._to_hits(flat._scan(q, k, pool), k) == \
                expected(flat, q, k, pool)
            assert hnsw.search_filtered(Vector(q), k, parse_filter("g=0")) \
                == expected(hnsw, q, k, even)


# -- the slot table's squared norms ------------------------------------------

def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def assert_norms_exact(index) -> None:
    """Below the watermark before any read, then every slot after one."""
    t = index._table
    want = np.array([row @ row for row in t.rows], dtype=np.float64)
    lag = t._normed
    assert np.array_equal(bits(t._norms[:lag]), bits(want[:lag]))
    assert np.array_equal(bits(t.norms), bits(want))


def make_index(kind: str, rng: np.random.Generator, dim: int):
    if kind == "flat":
        return FlatIndex()
    if kind == "hnsw":
        return HnswIndex(HnswParams(m=4, ef_construction=16))
    index = IvfIndex(IvfParams(nlist=8))
    index.train(unit_rows(rng, 64, dim))
    return index


@pytest.mark.parametrize("kind", ["flat", "ivf", "hnsw"])
def test_norms_equal_row_dot_row_through_churn_and_reload(tmp_path, rng,
                                                          kind):
    dim = 7
    index = make_index(kind, rng, dim)
    live: list[str] = []
    for step in range(2000):
        op = rng.random()
        if op < 0.45 or len(live) < 5:
            doc_id = f"n{step}"
            live.append(doc_id)
        elif op < 0.75:
            doc_id = live.pop(int(rng.integers(len(live))))
            assert index.remove(doc_id)
            doc_id = None
        else:   # a replace
            doc_id = live[int(rng.integers(len(live)))]
        if doc_id is not None:
            row = rng.standard_normal(dim) * 10.0 ** rng.integers(-3, 4)
            index.insert(Document(doc_id, "", {}, Vector(row)))
        if rng.random() < 0.1:   # the watermark lags between checks
            assert_norms_exact(index)
    assert_norms_exact(index)
    index.save(tmp_path / "index.snap")
    loaded = load_index(tmp_path / "index.snap")
    assert_norms_exact(loaded)
    assert np.array_equal(bits(loaded._table.norms), bits(index._table.norms))


@pytest.mark.parametrize("kind", ["flat", "ivf"])
def test_a_remove_fills_a_normed_slot_with_a_fresh_row(rng, kind):
    """The row moved into a freed slot below the watermark has no norm yet:
    the remove computes it there, and the watermark stays put."""
    index = make_index(kind, rng, 5)
    rows = unit_rows(rng, 4, 5)
    for doc in docs(rows[:3]):
        index.insert(doc)
    index._table.norms                     # norms read: watermark 3
    index.insert(docs(rows)[3])            # slot 3, no norm yet
    assert index._table._normed == 3
    index.remove("d0000")                  # slot 3's row moves to slot 0
    assert index._table._normed == 3
    assert index._table.ids[:3] == ["d0003", "d0001", "d0002"]
    assert_norms_exact(index)


def test_flat_insert_computes_no_norm(rng):
    index = FlatIndex()
    for doc in docs(unit_rows(rng, 10_000, 8)):
        index.insert(doc)
    assert index._table._normed == 0
    index.search(Vector(unit_rows(rng, 1, 8)[0]), 5)
    assert index._table._normed == 10_000


# -- the float32 screen on data built to defeat it ---------------------------
#
# The screen is one float32 gemv of [x, |x|^2] against [-2q, 1]. These rows
# and queries sit where float32 loses what float64 keeps: rows it rounds to
# one value, values past its range, squared norms past its range, values
# below its normal range, and a query far larger than every row. Every
# search must still equal a brute-force difference kernel over the pool.

HOSTILE_ROWS = 360  # a filtered third out still leaves a screened pool


def hostile(case: str, rng: np.random.Generator):
    """(rows, queries, whether float32 overflows) for one hostile case."""
    dim = 8
    if case == "equal_in_float32":
        # float64 rows a hair off one float32 row: every screen value is
        # the same, and 40 patterns over 360 rows make exact float64 ties
        base = unit_rows(rng, 1, dim)[0].astype(np.float32).astype(np.float64)
        steps = rng.integers(-5, 6, (40, dim)) * 1e-9
        rows = base * (1.0 + steps[rng.integers(40, size=HOSTILE_ROWS)])
        assert (rows.astype(np.float32) == base.astype(np.float32)).all()
        queries = [rows[3], base, base * (1.0 + 3e-9)]
        return rows, queries, False
    if case == "past_float32_max":
        # 3.0e38 to 3.8e38: finite in float64, inf in float32 past 3.4e38
        rows = 3.4e38 * (1.0 + 0.12 * rng.uniform(-1, 1, (HOSTILE_ROWS, dim)))
        assert (rows > np.finfo(np.float32).max).any()
        return rows, [rows[5], 3.3e38 * np.ones(dim)], True
    if case == "norm_past_float32_max":
        # each value fits float32; |x|^2 of about 1e40 does not
        rows = 1e20 * unit_rows(rng, HOSTILE_ROWS, dim) \
            * (1.0 + 0.01 * rng.random((HOSTILE_ROWS, 1)))
        return rows, [rows[5], 1.001e20 * unit_rows(rng, 1, dim)[0]], True
    if case in ("subnormal_1e-40", "subnormal_1e-44"):
        scale = float(case.split("_")[1])
        rows = scale * rng.standard_normal((HOSTILE_ROWS, dim))
        q = scale * rng.standard_normal(dim)
        return rows, [rows[5], q, rows[7] + 0.1 * q], False
    if case == "huge_query":
        rows = unit_rows(rng, HOSTILE_ROWS, dim)
        queries = [1e20 * unit_rows(rng, 1, dim)[0], 1e20 * rows[5]]
        return rows, queries, False
    raise ValueError(case)


HOSTILE = ("equal_in_float32", "past_float32_max", "norm_past_float32_max",
           "subnormal_1e-40", "subnormal_1e-44", "huge_query")


def brute_force(rows: np.ndarray, ids: list[str], q: np.ndarray,
                k: int) -> list[tuple[str, float]]:
    """The k nearest (doc_id, distance) by the difference kernel over every
    row, ties broken by doc id."""
    dists = np.sqrt(sq_distances(rows, q))
    return [(doc_id, d) for d, doc_id in sorted(zip(dists.tolist(), ids))[:k]]


def counted_search(index, search, pool: int, k: int):
    """Run search() and check the re-rank count it adds: at least the k it
    must rank, at most the pool. Returns its hits as (doc_id, distance)."""
    before = (index.rows_reranked, index.rows_screened)
    hits = search()
    reranked = index.rows_reranked - before[0]
    assert min(k, pool) <= reranked <= pool
    assert index.rows_screened - before[1] in (0, pool)
    return [(h.doc_id, h.distance) for h in hits]


@pytest.mark.parametrize("case", HOSTILE)
def test_the_float32_screen_keeps_the_kernels_hits(rng, case):
    rows, queries, overflows = hostile(case, rng)
    ids = [f"d{i:04d}" for i in range(len(rows))]
    flat, ivf = FlatIndex(), IvfIndex(IvfParams(nlist=4, seed=1))
    hnsw = HnswIndex(HnswParams(m=4, ef_construction=16))
    with warnings.catch_warnings():  # ivf's and the graph's float64 math
        warnings.simplefilter("ignore", RuntimeWarning)
        ivf.train(rows)
        for doc in docs(rows, lambda i: {"g": i % 3}):
            for index in (flat, ivf, hnsw):
                index.insert(doc)
    kept = [i for i in range(len(rows)) if i % 3 != 1]
    filt = parse_filter("g!=1")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for q in queries:
            for k in KS:
                want = brute_force(rows, ids, q, k)
                assert counted_search(flat, lambda: flat.search(
                    Vector(q), k), len(rows), k) == want
                assert counted_search(ivf, lambda: ivf.search(
                    Vector(q), k, nprobe=4), len(rows), k) == want
                assert counted_search(hnsw, lambda: hnsw.search_filtered(
                    Vector(q), k, filt), len(kept), k) == brute_force(
                        rows[kept], [ids[i] for i in kept], q, k)
    for index in (flat, ivf, hnsw):
        assert index.rows_screened > 0
        assert (index.screen_fallbacks > 0) == overflows


def test_the_screen_reranks_at_most_2k_rows_of_10k(rng):
    """On 10k unit rows of dim 64 the screen passes about k rows to the
    kernel: a bound gone loose would pass more and still be exact."""
    index = FlatIndex()
    for doc in docs(unit_rows(rng, 10_000, 64)):
        index.insert(doc)
    for q in unit_rows(rng, 100, 64):
        index.search(Vector(q), 10)
    assert index.rows_screened == 100 * 10_000
    assert index.rows_reranked <= 100 * 2 * 10
    assert index.screen_fallbacks == 0


@pytest.mark.parametrize("norm", [30.0, 1e3, 1e6])
def test_one_row_of_large_norm_keeps_the_rerank_small(rng, norm):
    """One row far longer than the rest loosens the bound at max |x| until
    it passes every row: bounding each row by its own norm still passes
    about k. Once the row is removed, max_norm2 is the rest's again."""
    rows = unit_rows(rng, 2000, 16)
    big = norm * unit_rows(rng, 1, 16)[0]
    index = FlatIndex()
    for doc in docs(rows):
        index.insert(doc)
    index.insert(Document("big", "", {}, Vector(big)))
    ids = [f"d{i:04d}" for i in range(2000)]
    for pool_rows, pool_ids in ((np.vstack([rows, big]), ids + ["big"]),
                                (rows, ids)):
        index.rows_reranked = 0
        for q in unit_rows(rng, 20, 16):
            assert counted_search(index, lambda: index.search(Vector(q), 10),
                                  len(pool_ids), 10) == \
                brute_force(pool_rows, pool_ids, q, 10)
        assert index.rows_reranked <= 20 * 2 * 10
        assert index._table.max_norm2 == max(row @ row for row in pool_rows)
        index.remove("big")


def test_removing_the_one_long_row_ends_the_per_row_pass(rng, monkeypatch):
    """One row of norm 1e3 among 10k unit rows of dim 64 loosens the bound
    at max |x| until every search bounds each row by its own norm. Once
    that row is removed, max_norm2 shrinks back to the unit rows' and the
    screen alone passes about k rows again."""
    from contextdb.index import base

    per_row = []

    def counting_bound(dim, rows_max2, qq, dtype):
        per_row.append(np.ndim(rows_max2) > 0)
        return screen_bound(dim, rows_max2, qq, dtype)

    screen_bound = base.screen_bound
    monkeypatch.setattr(base, "screen_bound", counting_bound)
    rows = unit_rows(rng, 10_000, 64)
    index = FlatIndex()
    for doc in docs(rows):
        index.insert(doc)
    index.insert(Document("long", "", {}, Vector(1e3 * rows[0])))
    queries = unit_rows(rng, 100, 64)
    for q in queries[:10]:
        index.search(Vector(q), 10)
    assert sum(per_row) == 10
    index.remove("long")
    per_row.clear()
    index.rows_reranked = 0
    for q in queries:
        index.search(Vector(q), 10)
    assert index._table.max_norm2 == max(row @ row for row in rows)
    assert sum(per_row) == 0
    assert index.rows_reranked <= 100 * 2 * 10


# -- the screen matrix in step with the rows ---------------------------------

def assert_screen_exact(index) -> None:
    """Each screened slot holds float32 [row, row @ row], and max_norm2 is
    at least every live row's squared norm."""
    t = index._table
    lag = t._screened
    want = np.hstack([t.rows, np.array([[row @ row] for row in t.rows])])
    with np.errstate(over="ignore"):
        want = want.astype(np.float32)
    assert np.array_equal(t._screen[:lag], want[:lag])
    assert np.array_equal(t.screen, want)
    assert t.max_norm2 >= max(row @ row for row in t.rows)


def assert_search_exact(index, rng, dim: int) -> None:
    t = index._table
    live = sorted(t.slot_of, key=t.slot_of.get)
    rows = np.array([t.rows[t.slot_of[doc_id]] for doc_id in live])
    for q in list(rows[rng.choice(len(rows), 2)]) + list(
            unit_rows(rng, 2, dim)):
        for k in (1, 10):
            hits = index.search(Vector(q), k)
            assert [(h.doc_id, h.distance) for h in hits] == \
                brute_force(rows, live, q, k)
    assert_screen_exact(index)


@pytest.mark.parametrize("kind", ["flat", "ivf"])
def test_the_screen_follows_removes_replaces_growth_and_reload(tmp_path, rng,
                                                               kind):
    dim = 6
    index = make_index(kind, rng, dim)
    rows = unit_rows(rng, 1000, dim)
    for doc in docs(rows[:300]):
        index.insert(doc)
    t = index._table
    assert_search_exact(index, rng, dim)          # screened: 300 slots
    assert t._screened == 300
    for doc in docs(rows[:320])[300:]:            # slots 300-319 unscreened
        index.insert(doc)
    index.remove(t.ids[10])                       # a middle slot, moved into
    assert t._screened == 300                     # from past the prefix
    index.remove(t.ids[t.count - 1])              # the last slot
    index.remove(t.ids[305])                      # a slot past the prefix
    assert_search_exact(index, rng, dim)
    index.remove(t.ids[t.count - 1])              # the last, screened slot
    index.remove(t.ids[40])                       # a middle, from a screened
    assert_search_exact(index, rng, dim)
    replaced = t.ids[7]                           # a replace: remove+insert
    index.insert(Document(replaced, "", {}, Vector(3.0 * rows[999])))
    assert t.slot_of[replaced] == t.count - 1
    assert_search_exact(index, rng, dim)
    capacity = t._screen.shape[0]
    for doc in docs(rows)[320:320 + capacity]:   # past the capacity
        index.insert(doc)
    assert_search_exact(index, rng, dim)
    assert t._screen.shape[0] > capacity
    assert t.max_norm2 >= 9.0 * (rows[999] @ rows[999]) * (1 - 1e-12)
    index.save(tmp_path / "index.snap")
    loaded = load_index(tmp_path / "index.snap")
    assert loaded._table._screened == 0           # left to fill lazily
    assert_search_exact(loaded, rng, dim)
    for doc_id in loaded._table.ids[::3]:
        loaded.remove(doc_id)
    for doc in docs(rows[:50]):
        loaded.insert(Document("r" + doc.id, "", {}, doc.embedding))
    assert_search_exact(loaded, rng, dim)
