"""Helpers and independent oracles that test modules import.

The oracles here deliberately avoid the library's own search/storage code:
brute-force scans, shadow lists, and a hand-rolled cache simulator, so index
and store behavior is checked against something that cannot share its bugs.
"""

from __future__ import annotations

import base64
import errno
import json
import math
import struct
import zlib
from pathlib import Path

import numpy as np

from contextdb import Document, Vector

# Filled in by tests/test_acceptance.py; printed after the run so the
# per-criterion verdicts are visible even with output capture on.
ACCEPTANCE_RESULTS: dict[int, tuple[bool, str]] = {}


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


def log_records(path: Path) -> list[dict]:
    """Every record of a JSONL log, in order, read without the library: a
    line is one record object or an array of the records of one append."""
    records = []
    for line in path.read_text("utf-8").splitlines():
        obj = json.loads(line)
        records += obj if isinstance(obj, list) else [obj]
    return records


# index snapshot header: magic, version, dim, kind, count, payload length
HEADER = struct.Struct("<8sIIBQQ")
# change frame header: payload length, live documents after the frame
FRAME = struct.Struct("<QQ")
# a format v2 payload starts with its JSON's length; the raw rows follow it
JSON_LEN = struct.Struct("<Q")


def base_size(blob: bytes) -> int:
    """The bytes of a snapshot's base: header, payload and CRC."""
    return HEADER.size + HEADER.unpack_from(blob)[-1] + 4


def split_payload(payload: bytes, version: int) -> tuple[bytes, bytes]:
    """A base's or change frame's payload as (JSON, raw rows), read without
    the library. In format v2 the JSON's "vectors" must be {"shape": [n,
    dim]} alone, and the raw section exactly those n * dim float64 values;
    format v1 has no raw section."""
    if version == 1:
        return payload, b""
    assert version == 2
    end = JSON_LEN.size + JSON_LEN.unpack_from(payload)[0]
    text, raw = payload[JSON_LEN.size:end], payload[end:]
    vectors = json.loads(text)["vectors"]
    assert list(vectors) == ["shape"]
    assert len(raw) == 8 * math.prod(vectors["shape"])
    return text, raw


def snapshot_base(blob: bytes) -> tuple[bytes, bytes]:
    """(JSON, raw rows) of a snapshot's base, whose CRC must be good."""
    stop = base_size(blob) - 4
    assert struct.unpack_from("<I", blob, stop)[0] == zlib.crc32(blob[:stop])
    return split_payload(blob[HEADER.size:stop], HEADER.unpack_from(blob)[1])


def snapshot_frames(blob: bytes) -> list[tuple[int, bytes]]:
    """(live count, JSON) of each change frame after a snapshot's base,
    read without the library; each must be whole, with a good CRC, and
    laid out as its base's format says."""
    frames, at = [], base_size(blob)
    version = HEADER.unpack_from(blob)[1]
    while at < len(blob):
        length, live = FRAME.unpack_from(blob, at)
        stop = at + FRAME.size + length
        assert struct.unpack_from("<I", blob, stop)[0] == \
            zlib.crc32(blob[at:stop])
        text, _ = split_payload(blob[at + FRAME.size:stop], version)
        frames.append((live, text))
        at = stop + 4
    assert at == len(blob)
    return frames


def pack_array(arr: np.ndarray) -> dict:
    """A float array as format v1 writes it inside the JSON: its shape, and
    its little-endian float64 bytes in base64."""
    a = np.ascontiguousarray(arr, dtype="<f8")
    return {"shape": list(a.shape),
            "data": base64.b64encode(a.tobytes()).decode("ascii")}


def rewrite_payload(path: Path, edit) -> None:
    """Apply edit to the decoded payload of a format v2 snapshot's base and
    re-frame it, frames dropped, with a valid CRC, so only the payload's
    shape is wrong. edit sees "vectors" with the raw rows put inside it as
    base64, as pack_array writes them; what it leaves there in that form
    goes back to the raw section, and any other "vectors" is written as it
    is, with no raw section."""
    blob = path.read_bytes()
    fields = list(HEADER.unpack_from(blob))
    assert fields[1] == 2
    text, raw = snapshot_base(blob)
    payload = json.loads(text)
    payload["vectors"] = pack_array(np.frombuffer(raw, dtype="<f8").reshape(
        payload["vectors"]["shape"]))
    edit(payload)
    vectors, raw = payload.get("vectors"), b""
    if isinstance(vectors, dict) and "data" in vectors:
        raw = base64.b64decode(vectors.pop("data"))
    body = json.dumps(payload).encode("utf-8")
    body = JSON_LEN.pack(len(body)) + body + raw
    fields[-1] = len(body)
    blob = HEADER.pack(*fields) + body
    path.write_bytes(blob + struct.pack("<I", zlib.crc32(blob)))


class FailingFile:
    """Stands in for the open file of a store's log (store._fh) and
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
