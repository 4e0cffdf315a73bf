"""Conversational tier: a durable append-only chat log.

One JSONL file holds every session; each line is exactly
{session_id, seq, role, text, timestamp, metadata}. The store assigns seq
(contiguous from 0 per session) and timestamp (non-decreasing per session),
so callers can never race a sequence number. Recovery (see jsonl.JsonlLog)
heals a torn final line and refuses corruption anywhere earlier, as well as
a gap in any session's seq.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterator, Mapping

from .core import MetaValue, _validate_metadata, count
from .jsonl import JsonlStore

ROLES = ("user", "assistant", "system")


@dataclass(frozen=True)
class Message:
    session_id: str
    seq: int
    role: str
    text: str
    timestamp: int  # milliseconds since the Unix epoch
    metadata: Mapping[str, MetaValue] = field(default_factory=dict)

    def __post_init__(self):
        if not self.session_id:
            raise ValueError("session_id must be nonempty")
        if self.role not in ROLES:
            raise ValueError(f"role must be one of {ROLES}, got {self.role!r}")
        count("seq", self.seq, least=0)
        object.__setattr__(self, "metadata",
                           MappingProxyType(_validate_metadata(self.metadata)))


class ConversationStore(JsonlStore):
    """Append-only message log, reopenable from its file at any time."""

    def __init__(self, path: str | Path, clock: Callable[[], float] = time.time):
        self._clock = clock
        self._sessions: dict[str, list[Message]] = {}
        self._staged: list[Message] | None = None  # set inside batch()
        super().__init__(path, Message, self._replay)

    def _replay(self, msg: Message) -> None:
        history = self._sessions.setdefault(msg.session_id, [])
        if msg.seq != len(history):
            raise ValueError(f"session {msg.session_id!r} expected seq "
                             f"{len(history)}, found {msg.seq}")
        history.append(msg)

    # -- writes ---------------------------------------------------------

    def append_message(self, session_id: str, role: str, text: str,
                       metadata: Mapping[str, MetaValue] | None = None) -> Message:
        """Durably append one message; the store assigns seq and timestamp."""
        with self._lock:
            history = self._sessions.get(session_id, [])
            now = int(self._clock() * 1000)
            if history:
                now = max(now, history[-1].timestamp)
            msg = Message(session_id=session_id, seq=len(history), role=role,
                          text=text, timestamp=now, metadata=metadata or {})
            if self._staged is None:
                self._log.append(msg)
            else:
                self._staged.append(msg)
            # memory is updated only after the bytes are down (in a batch,
            # undone if they never go down)
            self._sessions.setdefault(session_id, history).append(msg)
            return msg

    @contextmanager
    def batch(self) -> Iterator[None]:
        """The messages appended inside the block reach the log in one
        append when it ends: all of them, or on any failure none, and then
        the store is as it was before the block. Other threads wait; a
        batch inside a batch is part of the outer one."""
        with self._lock:
            if self._staged is not None:
                yield
                return
            self._staged = staged = []
            try:
                yield
                if staged:
                    self._log.append(*staged)
            except BaseException:
                for msg in reversed(staged):
                    self._sessions[msg.session_id].pop()
                raise
            finally:
                self._staged = None

    # -- reads ------------------------------------------------------------

    def get_history(self, session_id: str, last_n: int) -> list[Message]:
        """Last min(last_n, length) messages, ascending seq; [] when unknown."""
        last_n = count("last_n", last_n)
        with self._lock:
            return list(self._sessions.get(session_id, [])[-last_n:])

    def count(self, session_id: str) -> int:
        with self._lock:
            return len(self._sessions.get(session_id, []))

    def list_sessions(self) -> list[tuple[str, int]]:
        """(session_id, message count) for every nonempty session, sorted."""
        with self._lock:
            return sorted((sid, len(msgs))
                          for sid, msgs in self._sessions.items() if msgs)
