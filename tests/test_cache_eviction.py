"""ResponseCache eviction against a full LRU scan.

The cache skips the scan for an expired entry while the clock is below the
earliest expiry it could hold. This checks every eviction of a randomized
trace against the scan's choice: the least-recently-used expired entry, or
else the least-recently-used entry.
"""

from __future__ import annotations

from contextdb import ResponseCache


def scan_victim(cache: ResponseCache, now: int) -> tuple[str, bool]:
    """The key the scan evicts, and whether it is an expired one."""
    entries = list(cache._entries.items())  # LRU order
    expired = [k for k, e in entries if e.expired(now)]
    return (expired[0], True) if expired else (entries[0][0], False)


def test_evictions_match_the_scan_with_mixed_ttls(rng):
    capacity = 16
    cache = ResponseCache(capacity=capacity)
    keys = [f"k{i}" for i in range(64)]
    now = 0
    evicted = {True: 0, False: 0}   # by whether the victim had expired
    for step in range(20_000):
        now += int(rng.integers(0, 6))
        key = keys[int(rng.integers(0, len(keys)))]
        roll = rng.random()
        if roll < 0.6:
            # short and long TTLs side by side; an overwrite may shorten one
            ttl = int(rng.choice([1, 20, 200, 5_000]) * rng.integers(1, 4))
            evicts = key not in cache._entries and len(cache) == capacity
            want, was_expired = scan_victim(cache, now) if evicts \
                else (None, False)
            before = set(cache._entries)
            cache.put(key, f"v{step}", now=now, ttl_ms=ttl)
            gone = before - set(cache._entries)
            assert gone == ({want} if evicts else set()), f"step {step}"
            if evicts:
                evicted[was_expired] += 1
        elif roll < 0.95:
            cache.get(key, now=now)
        elif roll < 0.99:
            cache.purge_expired(now)
        else:
            cache.clear()
        assert len(cache) <= capacity
    assert evicted[True] > 100 and evicted[False] > 100
