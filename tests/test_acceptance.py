"""Acceptance suite: nine timed end-to-end criteria.

Each criterion runs inside a timing guard with an explicit runtime budget and
registers its verdict in helpers.ACCEPTANCE_RESULTS; a terminal-summary hook
prints one PASS/FAIL line per criterion after the run, so the verdicts stay
visible even with output capture on. Oracles are independent throughout:
brute-force scans, hand predicates, and the helpers cache simulator.
"""

from __future__ import annotations

import contextlib
import os
import re
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from helpers import (ACCEPTANCE_RESULTS, SimCache, brute_force_knn,
                      make_docs, unit_rows)
from contextdb import (ConversationStore, FixtureEmbedder, FlatIndex,
                       HnswIndex, HnswParams, IvfIndex, IvfParams, Pipeline,
                       ProfileStore, ResponseCache, StageError, Vector,
                       load_index, parse_filter)
from contextdb.cli import demo_index
from contextdb.pipeline import LlmClient


@contextlib.contextmanager
def criterion(num: int, desc: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, (
            f"criterion {num} took {elapsed:.2f}s, budget {budget_s:.0f}s")
    except BaseException:
        ACCEPTANCE_RESULTS[num] = (False, desc)
        raise
    ACCEPTANCE_RESULTS[num] = (
        True, f"{desc} [{elapsed:.2f}s < {budget_s:.0f}s]")


DEMO_QUESTION = "I need comfortable running shoes under $100"


def test_criterion_1_worked_shoe_example(tmp_path):
    with criterion(1, "demo-shoes reproduces the worked example "
                      "(distances, ranking, filtered pick)", 1.0):
        env = dict(os.environ, CONTEXTDB_HOME=str(tmp_path))
        proc = subprocess.run(
            [sys.executable, "-m", "contextdb", "demo-shoes"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        out = proc.stdout

        printed = dict(re.findall(r"^distance (\S+) (\d+\.\d+)$", out, re.M))
        expected = {"nike-zoomx": 1.97, "adidas-ultraboost": 1.12,
                    "reebok-floatride": 0.22, "asics-gel-kayano": 0.58}
        assert printed.keys() == expected.keys()
        for doc_id, want in expected.items():
            assert abs(float(printed[doc_id]) - want) <= 0.005, doc_id

        assert ("ranking: reebok-floatride, asics-gel-kayano, "
                "adidas-ultraboost, nike-zoomx") in out

        match = re.search(
            r"^top_filtered: (\S+) price=(\d+) distance=(\d+\.\d+)$", out, re.M)
        assert match is not None
        assert match.group(1) == "reebok-floatride"
        assert int(match.group(2)) == 90
        assert abs(float(match.group(3)) - 0.22) <= 0.005

        assert "DEMO_OK" in out


def test_criterion_2_flat_matches_brute_force():
    with criterion(2, "flat search equals an independent brute-force scan "
                      "(1000 docs, dim 16, 100 queries)", 10.0):
        rng = np.random.default_rng(42)
        data = rng.standard_normal((1000, 16))
        docs = make_docs(data)
        ids = [d.id for d in docs]
        index = FlatIndex()
        for doc in docs:
            index.insert(doc)
        for q in rng.standard_normal((100, 16)):
            got = index.search(Vector(q), 10)
            want = brute_force_knn(data, ids, q, 10)
            assert [h.doc_id for h in got] == [w[0] for w in want]
            for hit, (_, dist) in zip(got, want):
                assert abs(hit.distance - dist) <= 1e-6


def test_criterion_3_hnsw_recall_and_determinism():
    with criterion(3, "hnsw recall@10 >= 0.95 on 10k unit vectors (dim 64, "
                      "m=16, efc=200, efs=64), deterministic rebuild", 60.0):
        rng = np.random.default_rng(3)
        data = unit_rows(rng, 10_000, 64)
        queries = unit_rows(rng, 100, 64)
        docs = make_docs(data)
        ids = [d.id for d in docs]
        truth = [set(doc_id for doc_id, _ in brute_force_knn(data, ids, q, 10))
                 for q in queries]

        def build():
            index = HnswIndex(HnswParams(m=16, ef_construction=200,
                                         ef_search=64, seed=7))
            for doc in docs:
                index.insert(doc)
            return [index.search(Vector(q), 10) for q in queries]

        first = build()
        recalls = [len(truth[i] & {h.doc_id for h in hits}) / 10
                   for i, hits in enumerate(first)]
        recall = float(np.mean(recalls))
        assert recall >= 0.95, f"recall@10 = {recall:.4f}"

        second = build()
        for a, b in zip(first, second):
            assert [(h.doc_id, h.distance) for h in a] == \
                   [(h.doc_id, h.distance) for h in b]


def test_criterion_4_ivf_exactness_and_monotonicity():
    with criterion(4, "ivf full-probe identical to flat; recall monotone "
                      "non-decreasing in nprobe", 30.0):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((1000, 16))
        docs = make_docs(data)
        flat = FlatIndex()
        ivf = IvfIndex(IvfParams(nlist=32, nprobe=32, kmeans_iters=20, seed=5))
        ivf.train(data)
        for doc in docs:
            flat.insert(doc)
            ivf.insert(doc)
        queries = [Vector(q) for q in rng.standard_normal((100, 16))]

        truth = []
        for q in queries:
            want = flat.search(q, 10)
            got = ivf.search(q, 10)
            assert [(h.rank, h.doc_id, h.distance) for h in got] == \
                   [(h.rank, h.doc_id, h.distance) for h in want]
            truth.append({h.doc_id for h in want})

        recalls = []
        for nprobe in range(1, 33):
            hits = [ivf.search(q, 10, nprobe=nprobe) for q in queries]
            recalls.append(float(np.mean(
                [len(truth[i] & {h.doc_id for h in hs}) / 10
                 for i, hs in enumerate(hits)])))
        assert all(b >= a for a, b in zip(recalls, recalls[1:])), recalls
        assert recalls[-1] == 1.0


def test_criterion_5_filtered_search_vs_oracle():
    with criterion(5, "search_filtered equals the filter-then-exact-knn "
                      "oracle over 200 randomized trials", 10.0):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((500, 8))
        brands = ("alpha", "beta", "gamma", "delta")
        prices = rng.integers(10, 200, size=500)
        ratings = np.round(rng.uniform(0.0, 5.0, size=500), 1)
        brand_ix = rng.integers(0, 4, size=500)
        docs = make_docs(data, metadata_fn=lambda i: {
            "brand": brands[brand_ix[i]],
            "price": int(prices[i]),
            "rating": float(ratings[i]),
        })
        ids = [d.id for d in docs]
        metas = [d.metadata for d in docs]
        index = FlatIndex()
        for doc in docs:
            index.insert(doc)

        num_ops = {"<": lambda v, lit: v < lit,
                   "<=": lambda v, lit: v <= lit,
                   ">": lambda v, lit: v > lit,
                   ">=": lambda v, lit: v >= lit,
                   "=": lambda v, lit: v == lit,
                   "!=": lambda v, lit: v != lit}

        def numeric_clause(field, lo, hi, as_int):
            op = str(rng.choice(list(num_ops) + ["in"]))
            def draw():
                raw = rng.uniform(lo, hi)
                return int(raw) if as_int else round(float(raw), 1)
            if op == "in":
                lits = [draw() for _ in range(3)]
                text = f"{field} in ({', '.join(str(x) for x in lits)})"
                return text, lambda m: field in m and m[field] in lits
            lit = draw()
            return f"{field}{op}{lit}", \
                lambda m: field in m and num_ops[op](m[field], lit)

        def string_clause():
            pool = brands + ("zeta",)   # zeta matches nothing
            op = str(rng.choice(["=", "!=", "in"]))
            if op == "in":
                lits = [str(x) for x in rng.choice(pool, size=2)]
                quoted = ", ".join(f'"{x}"' for x in lits)
                return f"brand in ({quoted})", \
                    lambda m: "brand" in m and m["brand"] in lits
            lit = str(rng.choice(pool))
            if op == "=":
                return f'brand="{lit}"', \
                    lambda m: "brand" in m and m["brand"] == lit
            return f'brand!="{lit}"', \
                lambda m: "brand" in m and m["brand"] != lit

        def random_clause():
            pick = rng.integers(0, 3)
            if pick == 0:
                return numeric_clause("price", 10, 200, as_int=True)
            if pick == 1:
                return numeric_clause("rating", 0.0, 5.0, as_int=False)
            return string_clause()

        for _ in range(200):
            clauses = [random_clause()
                       for _ in range(int(rng.integers(1, 3)))]
            text = " && ".join(c[0] for c in clauses)
            filt = parse_filter(text)
            k = int(rng.integers(1, 21))
            q = rng.standard_normal(8)

            keep = [i for i in range(500)
                    if all(pred(metas[i]) for _, pred in clauses)]
            want = brute_force_knn(data[keep], [ids[i] for i in keep], q, k) \
                if keep else []
            got = index.search_filtered(Vector(q), k, filt)
            assert [h.doc_id for h in got] == [w[0] for w in want], text
            for hit, (_, dist) in zip(got, want):
                assert abs(hit.distance - dist) <= 1e-6


def test_criterion_6_conversation_durability(tmp_path):
    with criterion(6, "10 writer threads x 100 appends; reopened log has "
                      "contiguous seqs 0..99 per session, contents intact",
                   10.0):
        path = tmp_path / "conversations.jsonl"
        with ConversationStore(path) as store:
            def writer(t: int):
                for i in range(100):
                    store.append_message(f"s{t}", "user",
                                         f"session {t} message {i}",
                                         {"writer": t})
            threads = [threading.Thread(target=writer, args=(t,))
                       for t in range(10)]
            for th in threads:
                th.start()
            for th in threads:
                th.join()

        with ConversationStore(path) as reopened:
            for t in range(10):
                history = reopened.get_history(f"s{t}", 100)
                assert [m.seq for m in history] == list(range(100))
                assert [m.text for m in history] == \
                       [f"session {t} message {i}" for i in range(100)]
                assert all(m.role == "user" and m.metadata["writer"] == t
                           for m in history)


def test_criterion_7_cache_vs_reference_simulator():
    with criterion(7, "cache matches the reference simulator on a 10k-op "
                      "trace; no expired entry served; capacity bound held",
                   5.0):
        capacity = 32
        cache = ResponseCache(capacity=capacity, default_ttl_ms=200)
        sim = SimCache(capacity)
        rng = np.random.default_rng(7)
        keys = [f"key-{i}" for i in range(40)]
        now = 0
        for _ in range(10_000):
            now += int(rng.integers(0, 50))
            key = keys[int(rng.integers(0, len(keys)))]
            if rng.random() < 0.4:
                ttl = int(rng.integers(1, 300))
                value = f"v{now}"
                cache.put(key, value, now=now, ttl_ms=ttl)
                sim.put(key, value, now=now, ttl=ttl)
            else:
                got = cache.get(key, now=now)
                want = sim.get(key, now=now)
                assert got == want, (key, now)
                if got is not None:
                    # the simulator's own books prove nothing expired slipped
                    _, inserted, ttl = sim.entries[key]
                    assert now < inserted + ttl
            assert len(cache) == len(sim.entries) <= capacity


class RecordingLlm(LlmClient):
    def __init__(self):
        self.prompts = []
        self.fail = False

    def complete(self, prompt):
        if self.fail:
            raise RuntimeError("forced llm failure")
        self.prompts.append(prompt)
        ids = [doc_id for doc_id, _ in prompt.sources.retrieved]
        return f"answer: {', '.join(ids) if ids else 'none'}"


def test_criterion_8_pipeline_end_to_end(tmp_path):
    with criterion(8, "pipeline prompt carries history/situation/retrieved "
                      "blocks; repeat is cached; llm failure persists nothing",
                   5.0):
        conversations = ConversationStore(tmp_path / "conversations.jsonl")
        profiles = ProfileStore(tmp_path / "profiles.jsonl")
        profiles.put_profile("u1", {"activity": "running", "budget": 100})
        llm = RecordingLlm()
        pipe = Pipeline(index=demo_index(), conversations=conversations,
                        profiles=profiles, embedder=FixtureEmbedder(),
                        llm=llm, cache=ResponseCache())

        pipe.handle_query("s1", "u1", "Reebok Floatride", k=2)
        resp = pipe.handle_query("s1", "u1", DEMO_QUESTION, k=4)
        assert not resp.cached
        rendered = llm.prompts[-1].rendered
        assert "user: Reebok Floatride" in rendered        # history block
        assert "activity=running" in rendered              # situational field
        assert "budget=100" in rendered
        assert "reebok-floatride (distance=0.22): Reebok Floatride" in rendered

        again = pipe.handle_query("s1", "u1", DEMO_QUESTION, k=4)
        assert again.cached and again.text == resp.text

        before = conversations.count("s1")
        llm.fail = True
        with pytest.raises(StageError) as excinfo:
            pipe.handle_query("s1", "u1", "ASICS Gel-Kayano", k=2)
        assert excinfo.value.stage == "llm"
        assert conversations.count("s1") == before

        conversations.close()
        profiles.close()


def test_criterion_9_snapshot_round_trip(tmp_path):
    with criterion(9, "snapshot save/load preserves search results "
                      "hit-for-hit for flat, hnsw, and ivf", 10.0):
        rng = np.random.default_rng(9)
        data = rng.standard_normal((300, 12))
        docs = make_docs(data, metadata_fn=lambda i: {"i": i,
                                                      "tag": f"t{i % 5}"})
        queries = [Vector(q) for q in rng.standard_normal((50, 12))]

        flat = FlatIndex()
        hnsw = HnswIndex(HnswParams(m=8, ef_construction=100, ef_search=50,
                                    seed=2))
        ivf = IvfIndex(IvfParams(nlist=12, nprobe=12, seed=2))
        ivf.train(data)
        for doc in docs:
            flat.insert(doc)
            hnsw.insert(doc)
            ivf.insert(doc)
        for index in (flat, hnsw, ivf):
            for i in range(0, 300, 23):      # exercise removals/tombstones
                index.remove(docs[i].id)

        for name, index in (("flat", flat), ("hnsw", hnsw), ("ivf", ivf)):
            path = tmp_path / f"{name}.snap"
            index.save(path)
            loaded = load_index(path)
            for q in queries:
                before = [(h.doc_id, h.distance) for h in index.search(q, 10)]
                after = [(h.doc_id, h.distance) for h in loaded.search(q, 10)]
                assert before == after, name
