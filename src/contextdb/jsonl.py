"""The append-only JSONL file under both durable stores.

Each line is one record of a store -- a dataclass, as a JSON object of its
fields. An append writes its lines with one unbuffered write(); if that
fails, the file is cut back to its size before the append, so it holds an
append entirely or not at all, and no refused bytes wait in a buffer to go
out with a later one. Reopening replays every line through the store's apply
step. A final line that fails to decode, with or without its newline, is the
usual crash artifact of an interrupted append: it is dropped, the file is
cut back to the last good line, and a WARNING names the bytes lost. A bad
line anywhere earlier refuses the whole log with StorageError. The cut
happens only after every record has been applied, so a log the store
refuses is left exactly as it was found.
"""

from __future__ import annotations

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


class JsonlLog:
    def __init__(self, path: str | Path, record: type,
                 apply: Callable[[Any], None]):
        """Replay the file at path, if any, then open it for appending.

        record is a dataclass: each line is one instance, as an object with
        its fields in order. apply installs a replayed record and raises
        ValueError to refuse it (for example, a sequence gap)."""
        self.path = Path(path)
        self._names = [f.name for f in fields(record)]
        self._fields_of = attrgetter(*self._names)
        self._recover(record, apply)
        try:
            self._fh = open(self.path, "ab", buffering=0)
            self._size = os.fstat(self._fh.fileno()).st_size
        except OSError as exc:
            raise StorageError(f"cannot open {self.path}: {exc}") from exc

    def _recover(self, record: type, apply: Callable[[Any], None]) -> None:
        values_of = itemgetter(*self._names)
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return
        except OSError as exc:
            raise StorageError(f"cannot read {self.path}: {exc}") from exc
        lines = raw.split(b"\n")
        tail = lines.pop()  # bytes after the final newline ("" when clean)
        good = len(raw) - len(tail)
        for lineno, line in enumerate(lines, start=1):
            try:
                rec = record(*values_of(json.loads(line)))
            except Exception as exc:
                if lineno == len(lines) and not tail:
                    # torn final line that did get its newline out
                    good -= len(line) + 1
                    break
                raise StorageError(
                    f"{self.path}:{lineno}: corrupt record: {exc}") from exc
            try:
                apply(rec)
            except ValueError as exc:
                raise StorageError(f"{self.path}:{lineno}: {exc}") from exc
        if good != len(raw):
            os.truncate(self.path, good)
            logger.warning("%s: dropped a torn final line (%d bytes)",
                           self.path, len(raw) - good)

    def append(self, *records: Any) -> None:
        """Write the records, one line each, to the OS in one write: all of
        them, or on failure none."""
        # default=dict writes the read-only mapping fields as objects
        data = "".join(
            json.dumps(dict(zip(self._names, self._fields_of(record))),
                       ensure_ascii=False, separators=(",", ":"),
                       default=dict) + "\n"
            for record in records).encode("utf-8")
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
        if not self._fh.closed:
            os.fsync(self._fh.fileno())
            self._fh.close()


class JsonlStore:
    """Base of the stores kept in one JsonlLog: it replays the log on open,
    and close(), or leaving a `with` block, fsyncs and closes it."""

    def __init__(self, path: str | Path, record: type,
                 apply: Callable[[Any], None]):
        self._lock = threading.RLock()
        self._log = JsonlLog(path, record, apply)

    def close(self) -> None:
        with self._lock:
            self._log.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()
