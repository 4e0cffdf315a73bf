"""Response cache: bounded LRU with per-entry TTL and an injected clock.

Every operation takes `now` (milliseconds) explicitly -- the cache never
reads wall-clock time itself, so TTL behavior is exactly reproducible in
tests. A key is served only while now < expires_at (now + ttl at its
put). When a put needs room, one entry is evicted: the least-recently-used
expired entry if any exists, otherwise the least-recently-used entry outright.

Keys are per-user fingerprints of the canonicalized question
(trimmed, lowercased, whitespace-collapsed) so personalized answers never
leak across users, and of the parsed filter when the turn has one, so an
answer is never served for a filter it was not retrieved under. The
pipeline pairs that fingerprint with the versions of the context the
answer was built from, the index's mutation count and the profile's
updated_at, so a changed context is a plain miss and the old entry ages
out by LRU or TTL. Any hashable value is a key.
"""

from __future__ import annotations

import hashlib
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable

from .core import count
from .filters import FilterExpr

DEFAULT_CAPACITY = 1024
DEFAULT_TTL_MS = 5 * 60 * 1000


def canonical_question(text: str) -> str:
    return " ".join(text.lower().split())


def make_cache_key(user_id: str, question: str,
                   filt: FilterExpr | None = None) -> str:
    raw = f"{user_id}\x1f{canonical_question(question)}"
    if filt:  # its parsed clauses: the spacing of the filter text is moot
        raw += f"\x1f{filt!r}"
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()


@dataclass
class CacheEntry:
    value: str
    expires_at: int

    def expired(self, now: int) -> bool:
        return now >= self.expires_at


class ResponseCache:
    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 default_ttl_ms: int = DEFAULT_TTL_MS):
        self.capacity = count("capacity", capacity)
        self.default_ttl_ms = count("default_ttl_ms", default_ttl_ms)
        self._entries: OrderedDict[Hashable, CacheEntry] = OrderedDict()
        # no entry expires before this, so an eviction at an earlier now
        # need not look for an expired one
        self._expiry_floor = math.inf
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Hashable, now: int) -> str | None:
        """Value if present and unexpired (refreshing recency), else None.
        An expired entry found here is dropped on the spot."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            if entry.expired(now):
                del self._entries[key]
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry.value

    def put(self, key: Hashable, value: str, now: int,
            ttl_ms: int | None = None) -> None:
        """Insert or overwrite; overwriting resets TTL and recency."""
        ttl = self.default_ttl_ms if ttl_ms is None else count("ttl_ms", ttl_ms)
        with self._lock:
            if key not in self._entries and len(self._entries) >= self.capacity:
                self._evict_one(now)
            # an existing key keeps its slot, then moves to the MRU end
            self._entries[key] = CacheEntry(value, now + ttl)
            self._entries.move_to_end(key)
            self._expiry_floor = min(self._expiry_floor, now + ttl)

    def _evict_one(self, now: int) -> None:
        if now >= self._expiry_floor:
            for key, entry in self._entries.items():  # LRU order
                if entry.expired(now):
                    del self._entries[key]
                    return
            # nothing expired: tighten the floor to the exact earliest expiry
            self._expiry_floor = min(e.expires_at
                                     for e in self._entries.values())
        self._entries.popitem(last=False)

    def purge_expired(self, now: int) -> int:
        """Drop every expired entry; returns how many went."""
        with self._lock:
            stale = [k for k, e in self._entries.items() if e.expired(now)]
            for key in stale:
                del self._entries[key]
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._expiry_floor = math.inf
