"""The append-only JSONL file under both durable stores.

Each line is one append. A record of a store is a dataclass, written as a
JSON object of its fields; a line holds the one record of its append, or a
JSON array of them when the append has several. An append writes its line
with one unbuffered write(); if that fails, the file is cut back to its size
before the append, so it holds an append entirely or not at all, and no
refused bytes wait in a buffer to go out with a later one. Reopening builds
every record of a line, then replays them through the store's apply step. A
final line that fails to decode, with or without its newline, is the usual
crash artifact of an interrupted append: it is dropped, records and all, the
file is cut back to the last good line, and a WARNING names the bytes lost.
So a crash costs at most the append being written. A bad line anywhere
earlier refuses the whole log with StorageError. The cut happens only after
every record has been applied, so a log the store refuses is left exactly as
it was found.
"""

from __future__ import annotations

import fcntl
import json
import logging
import os
import threading
from dataclasses import fields
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Any, Callable

from .errors import StorageError

logger = logging.getLogger(__name__)


class JsonlStore:
    """Base of both durable stores, each kept in one log that it replays on
    open; close(), or leaving a `with` block, fsyncs and closes it."""

    def __init__(self, path: str | Path, record: type,
                 apply: Callable[[Any], None]):
        """Open the file at path for appending, creating it if missing, and
        lock it, then replay it. A log another writer holds, in this process
        or another, raises StorageError.

        record is a dataclass: each line is one instance, as an object with
        its fields in order. apply installs a replayed record and raises
        ValueError to refuse it (for example, a sequence gap)."""
        self._lock = threading.RLock()
        self.path = Path(path)
        self._names = [f.name for f in fields(record)]
        self._fields_of = attrgetter(*self._names)
        try:
            self._fh = open(self.path, "ab", buffering=0)
        except OSError as exc:
            raise StorageError(f"cannot open {self.path}: {exc}") from exc
        try:   # one writer per log: no second opener replays or heals it
            fcntl.flock(self._fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            self._recover(record, apply)
            self._size = os.fstat(self._fh.fileno()).st_size
        except BlockingIOError as exc:
            self._fh.close()
            raise StorageError(
                f"{self.path} is open in another writer") from exc
        except BaseException:
            self._fh.close()
            raise

    def _recover(self, record: type, apply: Callable[[Any], None]) -> None:
        values_of = itemgetter(*self._names)
        try:
            raw = self.path.read_bytes()
        except OSError as exc:
            raise StorageError(f"cannot read {self.path}: {exc}") from exc
        lines = raw.split(b"\n")
        tail = lines.pop()  # bytes after the final newline ("" when clean)
        good = len(raw) - len(tail)
        for lineno, line in enumerate(lines, start=1):
            try:
                obj = json.loads(line)
                if not isinstance(obj, list):
                    recs = (record(*values_of(obj)),)
                elif obj:
                    recs = [record(*values_of(o)) for o in obj]
                else:
                    raise ValueError("an append of no records")
            except Exception as exc:
                if lineno == len(lines) and not tail:
                    # torn final line that did get its newline out
                    good -= len(line) + 1
                    break
                raise StorageError(
                    f"{self.path}:{lineno}: corrupt record: {exc}") from exc
            try:
                for rec in recs:
                    apply(rec)
            except ValueError as exc:
                raise StorageError(f"{self.path}:{lineno}: {exc}") from exc
        if good != len(raw):
            os.truncate(self.path, good)
            logger.warning("%s: dropped a torn final line (%d bytes)",
                           self.path, len(raw) - good)

    def _append(self, *records: Any) -> None:
        """Write the records to the OS as one line in one write: all of
        them, or on failure none. One record is an object, several an
        array."""
        objs = [dict(zip(self._names, self._fields_of(record)))
                for record in records]
        # default=dict writes the read-only mapping fields as objects
        data = (json.dumps(objs[0] if len(objs) == 1 else objs,
                           ensure_ascii=False, separators=(",", ":"),
                           default=dict) + "\n").encode("utf-8")
        try:
            written = self._fh.write(data)
            if written != len(data):
                raise OSError(f"wrote {written} of {len(data)} bytes")
        except OSError as exc:
            problem = f"append to {self.path} failed: {exc}"
            try:
                os.ftruncate(self._fh.fileno(), self._size)
            except OSError as cut:
                problem += f"; cutting it back failed too: {cut}"
            raise StorageError(problem) from exc
        self._size += len(data)

    def close(self) -> None:
        """fsync and close the log, which releases its lock."""
        with self._lock:
            if not self._fh.closed:
                os.fsync(self._fh.fileno())
                self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()
