"""Single-file index snapshots: a base, then change frames.

The base (format v1): an 8-byte magic ``CTXIDX1\\0``, a little-endian
fixed header (version u32, dim u32, kind u8, count u64, payload length u64),
a UTF-8 JSON payload, and a CRC32 (u32) of everything before it. Vector
data rides inside the JSON as base64-encoded little-endian float64, so a
snapshot restores the exact float values that were saved.

Change frames follow the base's CRC. Each is a fixed header (payload
length u64, the live document count after the frame u64), a JSON payload
{"removed":[ids],"docs":[documents],"vectors":rows}, and a CRC32 of the
header and payload. A save of a flat or ivf index to the file it last
saved or loaded -- the same resolved path, and a file whose (st_ino,
st_size, st_mtime_ns) are as that save or load left them -- appends one
frame: the ids removed since, and the documents inserted or replaced since
with their rows. A save with no changes writes nothing. Any other save is
full: the first, one to another path or over a file changed since, one
after ivf's train, every save of hnsw (its graph is not per-document
state), and one whose frame would take the frames past 1/64 of the base's
bytes (a compaction). A full save writes a base alone, in format v1's exact
bytes, to a temp file that it fsyncs and renames over the path. A load
folds the frames into the base's payload before the kind rebuilds the
index from it, so the slot table still fills in one step.

Crashes: the rename leaves the old file or the new one whole. An append is
fsynced before save returns, and one that fails, short or at its fsync,
cuts the file back to where its frames ended. One cut short by a crash is
a torn final frame, which a load ignores with a WARNING naming its bytes,
as the JSONL logs ignore a torn last line; the next append starts where
the whole frames end. So the file holds the old snapshot or the new one:
the base plus every whole frame. A bad frame with bytes after it, frames
past 1/64 of the base, or any bytes after an hnsw base raise
SnapshotCorruptError.

This module holds only that framing, the kind <-> class table, and the
`contextdb.snapshot` DEBUG log of each save and load. The payload is each
kind's own: its `_state()` method writes it and its `_from_state()`
classmethod rebuilds the index from it. Its large parts come already
encoded (RawJson) from the slot table's caches, its per-document JSON
fragments and the base64 of its rows, so a full save encodes only what
changed since the last one, and it is written as pieces; a frame encodes
only its own documents. A load checks the whole payload first and then
fills the slot table in one step (SlotTable.extend). Flat uses the default
in base.py, the documents in slot order plus their rows. IVF (ivf.py) adds
its params and fitted centroids; a load assigns each row to the list a
single insert gives it. HNSW (hnsw.py) keeps its graph verbatim --
including tombstoned slots, which still route -- with the full slot table,
adjacency lists, and RNG state. A payload that passes the checksum but
does not have the shape its kind expects, or does not agree with the
header's count and dimension, raises SnapshotCorruptError.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import struct
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import (ContextDbError, SnapshotCorruptError,
                      SnapshotVersionError, StorageError)
from .base import (RawJson, VectorIndex, docs_json, encode_json, pack_array,
                   unpack_array)
from .flat import FlatIndex
from .hnsw import HnswIndex
from .ivf import IvfIndex

MAGIC = b"CTXIDX1\0"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<8sIIBQQ")
_CRC = struct.Struct("<I")
# a change frame's header: payload length, live documents after the frame
_FRAME = struct.Struct("<QQ")
# a file's frames stay within 1/_FRAME_SHARE of its base's bytes
_FRAME_SHARE = 64
# kind code in the header -> index class; a class's position is its code
_KINDS: tuple[type[VectorIndex], ...] = (FlatIndex, HnswIndex, IvfIndex)
_CODE_OF = {cls.kind: code for code, cls in enumerate(_KINDS)}

logger = logging.getLogger("contextdb.snapshot")


@dataclass
class _Base:
    """The snapshot file an index last saved or loaded: its resolved path,
    its (st_ino, st_size, st_mtime_ns) as that left it, its header's dim,
    the bytes of its base, and the end of its last whole frame."""

    path: str
    stat: tuple[int, int, int]
    dim: int
    size: int
    end: int


def _stat(st: os.stat_result) -> tuple[int, int, int]:
    return st.st_ino, st.st_size, st.st_mtime_ns


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


def _framed(header: bytes, pieces: list[bytes]) -> list[bytes]:
    """header, the pieces, and the CRC32 of them all."""
    pieces.insert(0, header)
    crc = 0
    for piece in pieces:
        crc = zlib.crc32(piece, crc)
    pieces.append(_CRC.pack(crc))
    return pieces


def _full_save_reason(index: VectorIndex, path: Path) -> str | None:
    """Why a save of index to path must be full; None: a frame will do."""
    base = index._base
    if not index.framed:
        return index.kind
    if base is None:
        return "first save"
    if base.path != os.path.realpath(path):
        return "other path"
    try:
        if _stat(os.stat(path)) != base.stat:
            return "file changed"
    except OSError:
        return "file changed"
    if index._changed is None:
        return "trained"
    if (index.dim or 0) != base.dim:
        return "dimension set"  # the base was empty and dimensionless
    return None


def _frame(index: VectorIndex) -> tuple[list[bytes], int, int]:
    """The change frame of index's changes since its base, as bytes
    pieces, with the number of ids it removes and of documents it holds.
    It encodes only the changed slots' fragments and rows."""
    t = index._table
    slots = [t.slot_of.get(doc_id) for doc_id in index._changed]
    removed = [doc_id for doc_id, slot in zip(index._changed, slots)
               if slot is None]
    slots = [slot for slot in slots if slot is not None]
    pieces = _payload({"removed": removed,
                       "docs": docs_json([t.fragment(s) for s in slots]),
                       "vectors": pack_array(t.rows[slots])})
    header = _FRAME.pack(sum(map(len, pieces)), len(index))
    return _framed(header, pieces), len(removed), len(slots)


def _append(index: VectorIndex, path: Path, pieces: list[bytes]) -> None:
    """Write a frame after index's base's last whole one, over a torn frame
    if a crash left one, and fsync it. On failure the file is cut back,
    and the next save is full."""
    base = index._base
    try:
        with open(path, "r+b") as fh:
            if base.stat[1] != base.end:
                fh.truncate(base.end)
            fh.seek(base.end)
            fh.writelines(pieces)
            fh.flush()
            os.fsync(fh.fileno())
            stat = _stat(os.fstat(fh.fileno()))
    except OSError as exc:
        index._base = index._changed = None
        with contextlib.suppress(OSError):
            os.truncate(path, base.end)
        raise StorageError(f"cannot write snapshot {path}: {exc}") from exc
    base.stat, base.end = stat, stat[1]
    index._changed = {}


def _write_full(index: VectorIndex, path: Path) -> int:
    """Write a base alone atomically: a temp file, fsynced, then renamed
    over path, so a crash leaves the old file or the new one whole. A
    failure removes the temp file and leaves path as it was. Returns the
    bytes written."""
    pieces = _payload(index._state())
    pieces = _framed(_HEADER.pack(MAGIC, FORMAT_VERSION, index.dim or 0,
                                  _CODE_OF[index.kind], len(index),
                                  sum(map(len, pieces))), pieces)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(pieces)
            fh.flush()
            os.fsync(fh.fileno())
            stat = _stat(os.fstat(fh.fileno()))  # a rename keeps these
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise StorageError(f"cannot write snapshot {path}: {exc}") from exc
    if index.framed:
        index._base = _Base(os.path.realpath(path), stat, index.dim or 0,
                            stat[1], stat[1])
        index._changed = {}
    return stat[1]


def save_index(index: VectorIndex, path: str | Path) -> None:
    """Append the changes since the file's base was saved or loaded as one
    change frame, or write a full snapshot (see the module docstring);
    write nothing if nothing changed. Holds the index's lock throughout:
    _state() fills the slot table's caches."""
    path = Path(path)
    debug = logger.isEnabledFor(logging.DEBUG)
    with index._lock:
        if debug:
            start = time.perf_counter()
            encoded = index._table.fragment_encodings
        reason = _full_save_reason(index, path)
        if reason is None and not index._changed:
            if debug:
                logger.debug("unchanged %(path)s: %(kind)s, %(documents)d "
                             "documents, nothing written",
                             {"path": str(path), "kind": index.kind,
                              "documents": len(index)})
            return
        if reason is None:
            pieces, removed, documents = _frame(index)
            size, base = sum(map(len, pieces)), index._base
            if base.end - base.size + size <= base.size // _FRAME_SHARE:
                _append(index, path, pieces)
                if debug:
                    logger.debug(
                        "appended %(path)s: %(kind)s, %(removed)d removed, "
                        "%(documents)d documents, %(bytes)d frame bytes, "
                        "%(fragments)d fragments encoded, %(ms).1f ms",
                        {"path": str(path), "kind": index.kind,
                         "removed": removed, "documents": documents,
                         "bytes": size,
                         "fragments": index._table.fragment_encodings
                         - encoded,
                         "ms": (time.perf_counter() - start) * 1e3})
                return
            reason = "compaction"
        size = _write_full(index, path)
    if debug:
        logger.debug(
            "saved %(path)s: %(kind)s, %(documents)d documents, %(bytes)d "
            "bytes, %(fragments)d fragments encoded, %(ms).1f ms, full: "
            "%(reason)s",
            {"path": str(path), "kind": index.kind, "documents": len(index),
             "bytes": size,
             "fragments": index._table.fragment_encodings - encoded,
             "ms": (time.perf_counter() - start) * 1e3, "reason": reason})


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


def _frames(path: str | Path, kind: type[VectorIndex], tail: bytes,
            at: int) -> tuple[list[tuple[int, bytes]], int]:
    """The whole change frames in tail, the bytes of path from the end of
    its base, at, on: (live count after it, JSON payload) each, and the
    offset past the last of them. A frame cut short, or failing its CRC,
    at the end of the file is torn: a WARNING names its bytes and it is
    left out. A bad frame with bytes after it, frames past 1/_FRAME_SHARE
    of the base, and any bytes after the base of a kind that is not framed
    raise SnapshotCorruptError."""
    if tail and not kind.framed:
        raise SnapshotCorruptError(
            f"{path}: {len(tail)} bytes after a {kind.kind} snapshot")
    frames, pos = [], 0
    while pos < len(tail):
        if len(tail) - pos >= _FRAME.size:
            plen, count = _FRAME.unpack_from(tail, pos)
            stop = pos + _FRAME.size + plen + _CRC.size
            if stop > at // _FRAME_SHARE:
                raise SnapshotCorruptError(
                    f"{path}: change frames past 1/{_FRAME_SHARE} of the "
                    f"base at byte {at + pos}")
            body = tail[pos:stop - _CRC.size]
            if stop <= len(tail) and zlib.crc32(body) == \
                    _CRC.unpack_from(tail, stop - _CRC.size)[0]:
                frames.append((count, body[_FRAME.size:]))
                pos = stop
                continue
            if stop < len(tail):
                raise SnapshotCorruptError(
                    f"{path}: bad change frame at byte {at + pos}")
        logger.warning("%s: ignored a torn change frame, bytes %d to %d",
                       path, at + pos, at + len(tail))
        break
    return frames, at + pos


def _fold(payload: dict, frames: list[tuple[int, bytes]]) -> None:
    """Apply the frames to a base's payload: its docs and vectors become
    the documents and rows they leave, the vectors decoded. The base's
    documents keep their order, with those new since after them. Raises
    LookupError, TypeError or ValueError on a malformed frame or one whose
    count is not the documents it leaves."""
    docs = payload["docs"]
    parts = [unpack_array(payload["vectors"])]
    row_of = list(range(len(docs)))   # each entry's row, parts stacked
    at = {doc["id"]: i for i, doc in enumerate(docs)}
    stacked = len(docs)
    for count, raw in frames:
        frame = json.loads(raw)
        for doc_id in frame["removed"]:
            if (i := at.pop(doc_id, None)) is not None:
                docs[i] = None
        rows = unpack_array(frame["vectors"])
        if rows.shape[0] != len(frame["docs"]):
            raise ValueError("a frame's documents and rows differ in number")
        for j, doc in enumerate(frame["docs"]):
            i = at.setdefault(doc["id"], len(docs))
            if i == len(docs):
                docs.append(doc)
                row_of.append(stacked + j)
            else:
                docs[i], row_of[i] = doc, stacked + j
        parts.append(rows)
        stacked += rows.shape[0]
        if len(at) != count:
            raise ValueError(f"a frame says {count} documents, and leaves "
                             f"{len(at)}")
    keep = [i for i, doc in enumerate(docs) if doc is not None]
    payload["docs"] = [docs[i] for i in keep]
    payload["vectors"] = np.concatenate(parts)[[row_of[i] for i in keep]]


def read_header(path: str | Path) -> dict:
    """Validated header fields: version, dim, kind, and count, the live
    documents after the last whole change frame."""
    try:
        with open(path, "rb") as fh:
            kind, dim, count, plen = _parse_header(path, fh.read(_HEADER.size))
            size = _HEADER.size + plen + _CRC.size
            fh.seek(size)
            tail = fh.read()
    except OSError as exc:
        raise StorageError(f"cannot read snapshot {path}: {exc}") from exc
    frames, _ = _frames(path, kind, tail, size)
    return {"version": FORMAT_VERSION, "dim": dim, "kind": kind.kind,
            "count": frames[-1][0] if frames else count}


def load_index(path: str | Path) -> VectorIndex:
    """Restore an index snapshot, its change frames folded in; dispatches
    on the kind recorded inside. Writes nothing, a torn frame included."""
    start = time.perf_counter()
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
            stat = _stat(os.fstat(fh.fileno()))
    except OSError as exc:
        raise StorageError(f"cannot read snapshot {path}: {exc}") from exc
    if len(blob) < _HEADER.size + _CRC.size:
        raise SnapshotCorruptError(f"{path}: file too short")
    kind, dim, count, plen = _parse_header(path, blob)
    size = _HEADER.size + plen + _CRC.size
    if len(blob) < size:
        raise SnapshotCorruptError(f"{path}: length mismatch")
    view = memoryview(blob)
    if zlib.crc32(view[:size - _CRC.size]) != _CRC.unpack_from(
            blob, size - _CRC.size)[0]:
        raise SnapshotCorruptError(f"{path}: checksum mismatch")
    frames, end = _frames(path, kind, blob[size:], size)
    try:
        payload = json.loads(str(view[_HEADER.size:size - _CRC.size],
                                 "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotCorruptError(f"{path}: bad payload: {exc}") from exc
    # every kind's "docs" lists its live documents, one each
    docs = payload.get("docs") if isinstance(payload, dict) else None
    if isinstance(docs, list) and len(docs) != count:
        raise SnapshotCorruptError(
            f"{path}: header says {count} documents, payload has {len(docs)}")
    try:
        if frames:
            _fold(payload, frames)
            count = frames[-1][0]
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
    if kind.framed:
        index._base = _Base(os.path.realpath(path), stat, dim, size, end)
        index._changed = {}
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "loaded %(path)s: %(kind)s, %(documents)d documents, %(bytes)d "
            "bytes, %(frames)d frames, %(ms).1f ms",
            {"path": str(path), "kind": kind.kind, "documents": count,
             "bytes": len(blob), "frames": len(frames),
             "ms": (time.perf_counter() - start) * 1e3})
    return index
