"""Shared fixtures and independent oracles used across the suite.

The oracles here deliberately avoid the library's own search/storage code:
brute-force scans, shadow lists, and a hand-rolled cache simulator, so index
and store behavior is checked against something that cannot share its bugs.
"""

from __future__ import annotations

import errno
import json
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from contextdb import Document, Vector

# Filled in by tests/test_acceptance.py; printed after the run so the
# per-criterion verdicts are visible even with output capture on.
ACCEPTANCE_RESULTS: dict[int, tuple[bool, str]] = {}


def pytest_collection_modifyitems(config, items):
    """A test here that leaks an open file fails. Only here: the benchmark's
    store_churn drops its stores unclosed on purpose, to stand in for a
    crash."""
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings(
                "error::ResourceWarning"))
            item.add_marker(pytest.mark.filterwarnings(
                "error::pytest.PytestUnraisableExceptionWarning"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(ACCEPTANCE_RESULTS):
        ok, desc = ACCEPTANCE_RESULTS[num]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num} {verdict}: {desc}")


def brute_force_knn(data: np.ndarray, ids: list[str], q: np.ndarray,
                    k: int) -> list[tuple[str, float]]:
    """Independent exact k-NN: full scan, sorted by (distance, id)."""
    dists = np.sqrt(((data - q) ** 2).sum(axis=1))
    order = sorted(zip(dists.tolist(), ids))
    return [(doc_id, d) for d, doc_id in order[:k]]


def make_docs(data: np.ndarray, prefix: str = "d",
              metadata_fn=None) -> list[Document]:
    docs = []
    for i, row in enumerate(data):
        meta = metadata_fn(i) if metadata_fn else {}
        docs.append(Document(id=f"{prefix}{i:05d}", text=f"text {i}",
                             metadata=meta, embedding=Vector(row)))
    return docs


# index snapshot header: magic, version, dim, kind, count, payload length
HEADER = struct.Struct("<8sIIBQQ")


def rewrite_payload(path: Path, edit) -> None:
    """Apply edit to a snapshot's decoded payload and re-frame it with a
    valid CRC, so only the payload's shape is wrong."""
    blob = path.read_bytes()
    fields = list(HEADER.unpack_from(blob))
    payload = json.loads(blob[HEADER.size:-4])
    edit(payload)
    body = json.dumps(payload).encode("utf-8")
    fields[-1] = len(body)
    blob = HEADER.pack(*fields) + body
    path.write_bytes(blob + struct.pack("<I", zlib.crc32(blob)))


class FailingFile:
    """Stands in for the open file of a store's log (store._log._fh) and
    fails once, as a full disk would. With fail_on="write", the first write
    whose bytes contain marker gets half of them out and then raises; with
    fail_on="flush", the first flush after such a write raises."""

    def __init__(self, inner, marker: bytes, fail_on: str = "write"):
        self.inner = inner
        self.marker = marker
        self.fail_on = fail_on
        self.armed = False  # a marked write went through; flush fails
        self.failed = False

    def write(self, data):
        data = bytes(data)
        if not self.failed and self.marker in data:
            if self.fail_on == "write":
                self.failed = True
                self.inner.write(data[:len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")
            self.armed = True
        return self.inner.write(data)

    def flush(self):
        if self.armed:
            self.armed, self.failed = False, True
            raise OSError(errno.ENOSPC, "No space left on device")
        self.inner.flush()

    def __getattr__(self, name):
        return getattr(self.inner, name)


def unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    rows = rng.standard_normal((n, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return rows


class SimCache:
    """Reference cache simulator: plain dict plus an explicit recency list.

    Deliberately structured nothing like the real cache so shared bugs are
    unlikely: recency is a list we re-sort nowhere — least recent is simply
    the front; eviction scans it for an expired victim before falling back
    to the head.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.entries: dict[str, tuple[str, int, int]] = {}  # value, inserted, ttl
        self.recency: list[str] = []  # least recently used first

    def _touch(self, key: str) -> None:
        self.recency.remove(key)
        self.recency.append(key)

    def get(self, key: str, now: int):
        if key not in self.entries:
            return None
        value, inserted, ttl = self.entries[key]
        if now >= inserted + ttl:
            del self.entries[key]
            self.recency.remove(key)
            return None
        self._touch(key)
        return value

    def put(self, key: str, value: str, now: int, ttl: int) -> None:
        if key in self.entries:
            self.entries[key] = (value, now, ttl)
            self._touch(key)
            return
        if len(self.entries) >= self.capacity:
            victim = None
            for cand in self.recency:
                _, inserted, ttl0 = self.entries[cand]
                if now >= inserted + ttl0:
                    victim = cand
                    break
            if victim is None:
                victim = self.recency[0]
            del self.entries[victim]
            self.recency.remove(victim)
        self.entries[key] = (value, now, ttl)
        self.recency.append(key)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
