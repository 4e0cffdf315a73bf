"""ann_hnsw: approximate search on an HNSW graph, with writes.

Unit op: one search, k = 10 (a filtered one first parses its filter text).
One upsert runs before every tenth search; it counts toward the timed
phase (ops_per_s) but not toward unit-op latency. The query stream is cut
into one slice per set-up round; the round's graph is saved before its
slice and reloaded (restart_s) at pauses spread over the slice. Closed
loop, one client thread.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass

import numpy as np

from contextdb import HnswIndex, HnswParams, Vector, parse_filter

from harness import (SNAPSHOT, RunContext, Timed, clock, disk_metrics,
                     durations, fresh_dir, json_bytes, median_of,
                     spread_points, timed_reopen, timing, traced_metrics)
from inputs import (CLASSES, DIM, DocTable, draw_filter, filter_text,
                    hit_problems, random_metadata, recall, unit_vectors)

SPEC = {
    "name": "ann_hnsw",
    "unit_op": "one HnswIndex search, k=10, m=16, ef_construction=200, "
               "ef_search=64, over 3k documents",
    "why": "Graph build and walk (ROADMAP item 2) and the post-filter gap "
           "of approximate search (item 3) are done here and in no other "
           "workload. 70 % of queries are unfiltered, which keeps p50_ms "
           "off the filter path; one upsert per 10 queries makes a design "
           "that defers linking pay inside the timed stream.",
    "load": "closed loop, 1 client thread, 1 process",
    "data": "3k docs, i.i.d. Gaussian unit vectors, dim 64; queries 70 % "
            "unfiltered, 5 % at 50 %, 5 % at 5 % and 20 % at 0.5 % "
            "selectivity, in a fixed pattern",
    "moves": {
        "index.hnsw": ["insert_per_s", "setup_s", "p50_ms",
                       "filtered_p50_ms", "recall"],
        "filters": ["filtered_p50_ms", "p99_ms"],
        "core": ["insert_per_s", "setup_s"],
        "index.snapshot": ["restart_s", "disk_bytes_per_user_byte "
                           "(post-run save only)"],
    },
    "no_change_expected": ["pipeline", "cache", "conversation", "profiles",
                           "index.flat", "index.ivf",
                           "filters on p50_ms"],
    "probe_figures": "single exploratory runs, not of this benchmark, "
                     "on a 2-vCPU machine: "
                     "3k inserts 10.4 s; at 3k docs a 0.5 %-selective "
                     "filter returned a short list on 40 of 40 queries, "
                     "recall@10 0.125",
}


# The mix is fixed, not drawn: 6 of every 20 queries carry a filter, one
# s50, one s5 and four s05. filtered_p50_ms is a median over these three
# populations; with four s05 in six it falls inside the s05 one, which takes
# the same number of oversampling rounds every time, instead of on the edge
# between s5 queries that need three rounds and those that need four.
FILTERED_AT = {1: "s50", 4: "s5", 7: "s05", 11: "s05", 14: "s05",
               17: "s05"}


K = 10
M = 16
EF_CONSTRUCTION = 200
EF_SEARCH = 64
UPSERT_EVERY = 10


@dataclass
class Config:
    """The sizes and rates the smoke tests shrink."""

    docs: int = 3_000
    queries_per_second: float = 200.0
    setups: int = 3             # graph builds per run, one per query slice
    reopens: int = 24           # timed load_index calls per run


def generate(cfg: Config, seed: int, n_queries: int) -> dict:
    rng = np.random.default_rng(seed)
    vectors = unit_vectors(rng, cfg.docs)
    price, cat, stock = random_metadata(rng, cfg.docs)
    queries = unit_vectors(rng, n_queries)
    kinds = []
    for i in range(n_queries):
        cls = FILTERED_AT.get(i % 20)
        kinds.append((cls, draw_filter(rng, cls) if cls else None))
    n_up = n_queries // UPSERT_EVERY + 1
    up_price, up_cat, up_stock = random_metadata(rng, n_up)
    upserts = list(zip(rng.integers(0, cfg.docs, n_up).tolist(),
                       unit_vectors(rng, n_up), up_price, up_cat, up_stock))
    return {"vectors": vectors, "price": price, "cat": cat, "stock": stock,
            "texts": [f"doc {i} of set {seed}" for i in range(cfg.docs)],
            "queries": queries, "kinds": kinds, "upserts": upserts}


# A graph build is timed in slices of this many inserts (the last slice
# also holds the first search). insert_per_s adds up, slice by slice, the
# median over the run's builds, so that a slow spell of a shared machine in
# one build's slice does not set it.
INSERT_SLICE = 100


def setup(cfg: Config, table: DocTable, tr):
    """Build the graph. Returns (seconds, slice seconds, index); the insert
    clock runs until the index has answered its first search."""
    t0 = clock()
    docs = []
    for r in range(len(table.ids)):
        with tr.span("core.document"):
            docs.append(table.document(r))
    index = HnswIndex(HnswParams(m=M, ef_construction=EF_CONSTRUCTION,
                                 ef_search=EF_SEARCH))
    marks = [clock()]
    for i, doc in enumerate(docs, 1):
        with tr.span("index.hnsw.insert"):
            index.insert(doc)
        if i % INSERT_SLICE == 0 and i < len(docs):
            marks.append(clock())
    with tr.span("index.hnsw.search"):
        index.search(docs[0].embedding, K)
    marks.append(clock())
    return clock() - t0, np.diff(marks), index


def insert_rate(n_docs: int, slices: list) -> float:
    """Documents per second of a build whose every slice took the median
    of its time over the given builds."""
    return n_docs / float(np.median(np.stack(slices), axis=0).sum())


def run(ctx: RunContext, cfg: Config | None = None) -> dict:
    cfg = cfg or Config()
    n_queries = max(1, round(ctx.seconds * cfg.queries_per_second))
    data = generate(cfg, ctx.seed, n_queries)
    table = DocTable([f"d{i:05d}" for i in range(cfg.docs)], data["vectors"],
                     data["price"], data["cat"], data["stock"], data["texts"])

    base = table.snapshot()
    root = fresh_dir(ctx.workdir / "data")
    timed = Timed(ctx)
    checks = ctx.checks
    filtered_lat = []
    recalls = {c: [] for c in (None,) + CLASSES}
    short = {c: 0 for c in CLASSES}
    count = {c: 0 for c in CLASSES}
    pass_rates = {c: [] for c in CLASSES}
    op_class: dict = {}
    setup_s, insert_slices, restart_times = [], [], []

    def sample_reopen():
        """One timed reload of the saved graph, outside any unit op."""
        tr = timed.real_tracer
        saved, tr.op = tr.op, None
        secs, (_, _, reloaded) = timed_reopen(root, tr)
        restart_times.append(secs)
        if len(reloaded) != cfg.docs:
            checks.problem("reloaded index has the wrong size")
        reloaded = None
        gc.collect()  # the next unit op inherits no collection debt
        tr.op = saved

    # One round per set-up: build the graph, save it, then run the next
    # slice of the query stream on it with timed reloads spread between
    # the queries. Spreading the timed queries and reloads over the whole
    # run keeps one slow spell of a shared machine from setting a run's
    # figures. Each round starts again from the initial documents. Past the
    # deadline no further round or reload starts.
    rounds = cfg.setups
    for rnd in range(rounds):
        if rnd and timed.out_of_time():
            break
        index = None  # let the previous graph go first
        table.restore(base)
        gc.collect()
        secs, slices, index = setup(cfg, table, ctx.tracer)
        setup_s.append(secs)
        insert_slices.append(slices)
        with ctx.tracer.span("index.snapshot.save"):
            index.save(root / SNAPSHOT)
        lo, hi = rnd * n_queries // rounds, (rnd + 1) * n_queries // rounds
        reopen_at = {lo + i for i in spread_points(
            hi - lo, max(1, cfg.reopens // rounds))}
        gc.collect()
        for op in range(lo, hi):
            if timed.out_of_time():
                break
            if op in reopen_at:
                sample_reopen()
            tr = timed.tracer_for(op)
            if op % UPSERT_EVERY == UPSERT_EVERY - 1:
                r, vec, price, cat, stock = data["upserts"][op // UPSERT_EVERY]
                table.set_row(r, vec, price, cat, stock)
                doc = table.document(r)
                t0 = clock()
                with tr.span("op.upsert"):
                    with tr.span("index.hnsw.upsert"):
                        index.insert(doc)
                timed.record_extra(clock() - t0)
            cls, spec = data["kinds"][op]
            qv = data["queries"][op]
            query = Vector(qv)
            ftext = filter_text(spec) if spec else None
            hits = err = None
            t0 = clock()
            with tr.span("op.ann_hnsw"):
                try:
                    if ftext:
                        with tr.span("filters.parse"):
                            filt = parse_filter(ftext)
                        with tr.span("index.hnsw.search_filtered"):
                            hits = index.search_filtered(query, K, filt)
                    else:
                        with tr.span("index.hnsw.search"):
                            hits = index.search(query, K)
                except Exception as exc:  # counted as a failed op below
                    err = exc
            elapsed = clock() - t0
            timed.record(op, elapsed, str(cls))
            op_class[op] = cls
            if spec is not None:
                filtered_lat.append(elapsed)
            if err is not None:
                checks.fail(f"op {op}: {type(err).__name__}: {err}")
                continue
            mask = table.mask(spec)
            problems = hit_problems(hits, K, table, qv, mask)
            if problems:
                checks.fail(f"op {op}: " + "; ".join(problems))
            truth = table.topk(qv, K, mask)
            recalls[cls].append(recall([h.doc_id for h in hits], truth))
            if cls is not None:
                count[cls] += 1
                pass_rates[cls].append(float(mask.mean()))
                if len(hits) < len(truth):
                    short[cls] += 1
        timed.done()
    if not restart_times:  # a run cut by the deadline still times one
        sample_reopen()
    with ctx.tracer.span("index.snapshot.save"):
        index.save(root / SNAPSHOT)  # the final graph, for the disk metrics
    checks.skipped(n_queries - len(timed.latency))
    attempted = n_queries
    docs_bytes = sum(len(t.encode("utf-8")) + json_bytes(table.metadata(r))
                     + 8 * DIM for r, t in enumerate(table.texts))
    disk = disk_metrics(root, None, None, docs_bytes, cfg.docs)

    every = [x for c in recalls for x in recalls[c]]
    out = {"setup_s": median_of(setup_s),
           "insert_per_s": insert_rate(cfg.docs, insert_slices),
           "recall": float(np.mean(every)) if every else 0.0,
           "restart_s": median_of(restart_times),
           "index.hnsw.recall": float(np.mean(recalls[None]))
           if recalls[None] else 0.0}
    out.update(timed.end_to_end(filtered_lat))
    out.update(disk)
    for c in CLASSES:
        if recalls[c]:
            out[f"index.hnsw.filtered_recall.{c}"] = float(np.mean(recalls[c]))
            out[f"filters.pass_rate.{c}"] = float(np.mean(pass_rates[c]))
        if c != "s50" and count[c]:
            out[f"index.hnsw.short_lists.{c}"] = short[c] / count[c]
    if ctx.trace:
        out.update(traced_metrics(ctx.tracer.spans, timed))
        for c in CLASSES:
            ops = {o for o, k in op_class.items() if k == c}
            out.update(timing(f"index.hnsw.filtered_ms.{c}", durations(
                ctx.tracer.spans, "index.hnsw.search_filtered", ops), 1e3))
    record = {"queries": len(timed.latency), "stream_queries": n_queries,
              "upserts": len(timed.latency) // UPSERT_EVERY,
              "filtered_queries": dict(count),
              "short_lists": dict(short),
              "sizes": {"docs": cfg.docs, "k": K, "m": M,
                        "ef_construction": EF_CONSTRUCTION,
                        "ef_search": EF_SEARCH},
              "setup_runs": len(setup_s), "restart_runs": len(restart_times)}
    return {"metrics": out, "attempted": attempted, "record": record}
