"""Single-file index snapshots.

Layout: an 8-byte magic ``CTXIDX1\\0``, a little-endian fixed header
(version u32, dim u32, kind u8, count u64, payload length u64), a UTF-8 JSON
payload, and a CRC32 (u32) of everything before it. Vector data rides inside
the JSON as base64-encoded little-endian float64, so a snapshot restores the
exact float values that were saved.

This module holds only that framing, the kind <-> class table, and the
`contextdb.snapshot` DEBUG log of each save and load. The payload is each
kind's own: its `_state()` method writes it and its `_from_state()`
classmethod rebuilds the index from it. Its large parts come already
encoded (RawJson) from the slot table's caches, its per-document JSON
fragments and the base64 of its rows, so a save encodes only what changed
since the last one, and it is written as pieces. A load checks the whole
payload first and then fills the slot table in one step
(SlotTable.extend). Flat uses the default in base.py, the documents in slot
order plus their rows. IVF (ivf.py) adds its params and fitted centroids;
a load assigns each row to the list a single insert gives it. HNSW
(hnsw.py) keeps its graph verbatim -- including tombstoned slots, which
still route -- with the full slot table, adjacency lists, and RNG state.
A payload that passes the checksum but does not have the shape its kind
expects, or does not agree with the header's count and dimension, raises
SnapshotCorruptError.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import struct
import time
import zlib
from pathlib import Path

from ..errors import (ContextDbError, SnapshotCorruptError,
                      SnapshotVersionError, StorageError)
from .base import RawJson, VectorIndex, encode_json
from .flat import FlatIndex
from .hnsw import HnswIndex
from .ivf import IvfIndex

MAGIC = b"CTXIDX1\0"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<8sIIBQQ")
_CRC = struct.Struct("<I")
# kind code in the header -> index class; a class's position is its code
_KINDS: tuple[type[VectorIndex], ...] = (FlatIndex, HnswIndex, IvfIndex)
_CODE_OF = {cls.kind: code for code, cls in enumerate(_KINDS)}

logger = logging.getLogger("contextdb.snapshot")


def _payload(state: dict) -> list[bytes]:
    """json.dumps(state, separators=(",", ":")) as bytes pieces, with each
    RawJson value's pieces as they are."""
    pieces = []
    for key, value in state.items():
        pieces.append(b"%s%s:" % (b"," if pieces else b"{",
                                  encode_json(key).encode()))
        if isinstance(value, RawJson):
            pieces += value
        else:
            pieces.append(encode_json(value).encode())
    pieces.append(b"}" if pieces else b"{}")
    return pieces


def save_index(index: VectorIndex, path: str | Path) -> None:
    """Serialize to path atomically: write a temp file, fsync it, then
    rename it over path, so a crash leaves the old file or the new one
    whole. A failed save removes the temp file and leaves path as it was.
    Holds the index's lock throughout: _state() fills the slot table's
    caches."""
    path = Path(path)
    debug = logger.isEnabledFor(logging.DEBUG)
    with index._lock:
        if debug:
            start = time.perf_counter()
            encoded = index._table.fragment_encodings
        pieces = _payload(index._state())
        size = sum(map(len, pieces))
        pieces.insert(0, _HEADER.pack(MAGIC, FORMAT_VERSION, index.dim or 0,
                                      _CODE_OF[index.kind], len(index), size))
        crc = 0
        for piece in pieces:
            crc = zlib.crc32(piece, crc)
        pieces.append(_CRC.pack(crc))
        tmp = path.with_name(path.name + ".tmp")
        try:
            with open(tmp, "wb") as fh:
                fh.writelines(pieces)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except OSError as exc:
            with contextlib.suppress(OSError):
                tmp.unlink()
            raise StorageError(
                f"cannot write snapshot {path}: {exc}") from exc
    if debug:
        logger.debug(
            "saved %(path)s: %(kind)s, %(documents)d documents, %(bytes)d "
            "bytes, %(fragments)d fragments encoded, %(ms).1f ms",
            {"path": str(path), "kind": index.kind, "documents": len(index),
             "bytes": _HEADER.size + size + _CRC.size,
             "fragments": index._table.fragment_encodings - encoded,
             "ms": (time.perf_counter() - start) * 1e3})


def _parse_header(path: str | Path, raw: bytes) -> tuple:
    """(kind class, dim, count, payload length) of a validated header."""
    if len(raw) < _HEADER.size:
        raise SnapshotCorruptError(f"{path}: truncated header")
    magic, version, dim, kind_code, count, plen = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise SnapshotCorruptError(f"{path}: not an index snapshot")
    if version != FORMAT_VERSION:
        raise SnapshotVersionError(found=version, supported=FORMAT_VERSION)
    if kind_code >= len(_KINDS):
        raise SnapshotCorruptError(f"{path}: unknown index kind {kind_code}")
    return _KINDS[kind_code], dim, count, plen


def read_header(path: str | Path) -> dict:
    """Validated header fields: version, dim, kind, count."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read(_HEADER.size)
    except OSError as exc:
        raise StorageError(f"cannot read snapshot {path}: {exc}") from exc
    kind, dim, count, _ = _parse_header(path, raw)
    return {"version": FORMAT_VERSION, "dim": dim, "kind": kind.kind,
            "count": count}


def load_index(path: str | Path) -> VectorIndex:
    """Restore an index snapshot; dispatches on the kind recorded inside."""
    start = time.perf_counter()
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise StorageError(f"cannot read snapshot {path}: {exc}") from exc
    if len(blob) < _HEADER.size + _CRC.size:
        raise SnapshotCorruptError(f"{path}: file too short")
    kind, dim, count, plen = _parse_header(path, blob)
    if len(blob) != _HEADER.size + plen + _CRC.size:
        raise SnapshotCorruptError(f"{path}: length mismatch")
    body, crc_raw = blob[:-_CRC.size], blob[-_CRC.size:]
    if zlib.crc32(body) != _CRC.unpack(crc_raw)[0]:
        raise SnapshotCorruptError(f"{path}: checksum mismatch")
    try:
        payload = json.loads(body[_HEADER.size:].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotCorruptError(f"{path}: bad payload: {exc}") from exc
    # every kind's "docs" lists its live documents, one each
    docs = payload.get("docs") if isinstance(payload, dict) else None
    if isinstance(docs, list) and len(docs) != count:
        raise SnapshotCorruptError(
            f"{path}: header says {count} documents, payload has {len(docs)}")
    try:
        index = kind._from_state(payload)
    except (LookupError, TypeError, ValueError, AttributeError,
            OverflowError, ContextDbError) as exc:
        raise SnapshotCorruptError(f"{path}: malformed {kind.kind} payload: "
                                   f"{type(exc).__name__}: {exc}") from exc
    if len(index) != count:
        raise SnapshotCorruptError(
            f"{path}: header says {count} documents, payload has {len(index)}")
    if (index.dim or 0) != dim:
        raise SnapshotCorruptError(
            f"{path}: header says dim {dim}, payload has {index.dim}")
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "loaded %(path)s: %(kind)s, %(documents)d documents, %(bytes)d "
            "bytes, %(ms).1f ms",
            {"path": str(path), "kind": kind.kind, "documents": count,
             "bytes": len(blob), "ms": (time.perf_counter() - start) * 1e3})
    return index
