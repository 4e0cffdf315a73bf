import threading

import pytest

from contextdb import ResponseCache, canonical_question, make_cache_key
from helpers import SimCache


class TestBasics:
    def test_get_before_put_is_miss(self):
        assert ResponseCache().get("k", now=0) is None

    def test_put_get_roundtrip(self):
        cache = ResponseCache()
        cache.put("k", "v", now=1000, ttl_ms=1000)
        assert cache.get("k", now=1500) == "v"

    def test_ttl_boundaries(self):
        cache = ResponseCache()
        cache.put("k", "v", now=1000, ttl_ms=1000)
        assert cache.get("k", now=1999) == "v"   # strictly inside
        assert cache.get("k", now=2000) is None  # now == inserted+ttl expires
        cache.put("k2", "v", now=1000, ttl_ms=1000)
        assert cache.get("k2", now=2001) is None

    def test_overwrite_resets_value_and_ttl(self):
        cache = ResponseCache()
        cache.put("k", "old", now=0, ttl_ms=100)
        cache.put("k", "new", now=90, ttl_ms=100)
        assert cache.get("k", now=150) == "new"
        assert len(cache) == 1

    def test_default_ttl_applies(self):
        cache = ResponseCache(default_ttl_ms=50)
        cache.put("k", "v", now=0)
        assert cache.get("k", now=49) == "v"
        assert cache.get("k", now=50) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            ResponseCache(capacity=0)
        with pytest.raises(ValueError):
            ResponseCache(default_ttl_ms=0)
        with pytest.raises(ValueError):
            ResponseCache().put("k", "v", now=0, ttl_ms=0)

    def test_hit_miss_counters(self):
        cache = ResponseCache()
        cache.get("k", now=0)
        cache.put("k", "v", now=0, ttl_ms=10)
        cache.get("k", now=1)
        assert (cache.hits, cache.misses) == (1, 1)


class TestEviction:
    def test_lru_trace_capacity_two(self):
        # put a, put b, get a, put c -> b is the LRU victim
        cache = ResponseCache(capacity=2)
        cache.put("a", "1", now=0)
        cache.put("b", "2", now=1)
        assert cache.get("a", now=2) == "1"
        cache.put("c", "3", now=3)
        assert cache.get("b", now=4) is None
        assert cache.get("a", now=4) == "1"
        assert cache.get("c", now=4) == "3"

    def test_expired_evicted_before_live_lru(self):
        cache = ResponseCache(capacity=2)
        cache.put("old-but-touched", "1", now=0, ttl_ms=5)   # expires at 5
        cache.put("fresh", "2", now=1, ttl_ms=10_000)
        # make the expiring entry the most recently used
        assert cache.get("old-but-touched", now=2) == "1"
        cache.put("c", "3", now=100)  # old-but-touched expired; evict it, not fresh
        assert cache.get("fresh", now=101) == "2"
        assert cache.get("old-but-touched", now=101) is None

    def test_capacity_bound_after_every_put(self):
        cache = ResponseCache(capacity=3)
        for i in range(20):
            cache.put(f"k{i}", "v", now=i)
            assert len(cache) <= 3

    def test_get_drops_expired_entry(self):
        cache = ResponseCache(capacity=4)
        cache.put("k", "v", now=0, ttl_ms=1)
        assert cache.get("k", now=10) is None
        assert len(cache) == 0

    def test_purge_expired(self):
        cache = ResponseCache()
        cache.put("a", "1", now=0, ttl_ms=5)
        cache.put("b", "2", now=0, ttl_ms=500)
        assert cache.purge_expired(now=100) == 1
        assert len(cache) == 1

    def test_clear(self):
        cache = ResponseCache()
        cache.put("a", "1", now=0)
        cache.clear()
        assert len(cache) == 0


class TestAgainstSimulator:
    def test_randomized_trace_matches_reference(self, rng):
        """2,000 mixed operations over a small key space must agree decision
        for decision with the simulator; the bigger acceptance run repeats
        this at 10,000 operations."""
        capacity = 8
        cache = ResponseCache(capacity=capacity)
        sim = SimCache(capacity)
        now = 0
        keys = [f"k{i}" for i in range(24)]
        for step in range(2000):
            now += int(rng.integers(0, 40))
            key = keys[int(rng.integers(0, len(keys)))]
            if rng.random() < 0.45:
                value = f"v{step}"
                ttl = int(rng.integers(1, 300))
                cache.put(key, value, now=now, ttl_ms=ttl)
                sim.put(key, value, now=now, ttl=ttl)
            else:
                got = cache.get(key, now=now)
                want = sim.get(key, now=now)
                assert got == want, f"step {step}: {got!r} != {want!r}"
            assert len(cache) <= capacity
            assert len(cache) == len(sim.entries)


class TestKeying:
    def test_canonicalization(self):
        assert canonical_question("  What IS   this? ") == "what is this?"
        assert canonical_question("a\tb\nc") == "a b c"

    def test_keys_collapse_formatting_but_not_users(self):
        a = make_cache_key("u1", "Best shoes under $100")
        b = make_cache_key("u1", "  best   SHOES under $100 ")
        c = make_cache_key("u2", "Best shoes under $100")
        d = make_cache_key("u1", "Best shoes under $200")
        assert a == b
        assert len({a, c, d}) == 3


class TestThreadSafety:
    def test_concurrent_put_get_stays_bounded(self):
        cache = ResponseCache(capacity=16)
        errors = []

        def worker(t: int):
            try:
                for i in range(500):
                    cache.put(f"k{t}-{i % 20}", "v", now=i)
                    cache.get(f"k{(t + 1) % 4}-{i % 20}", now=i)
                    if len(cache) > 16:
                        errors.append(len(cache))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(cache) <= 16
