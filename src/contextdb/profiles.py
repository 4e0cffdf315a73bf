"""Situational tier: user-profile records, read-heavy and occasionally updated.

Persistence is snapshot-on-write JSONL (see jsonl.JsonlStore) -- every write
appends the full profile as one line, and recovery keeps the last line per
user_id. The store maintains an equality index per field so query_by_field
is a lookup rather than a scan. Equality respects MetaValue kinds: the
number 100 never matches the string "100", and changing a field's kind
succeeds but logs a warning (per-field type stability is advisory, not
enforced).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

from .core import MetaValue, _validate_metadata, count, meta_kind, meta_number
from .errors import ProfileNotFoundError
from .jsonl import JsonlStore

logger = logging.getLogger(__name__)

_FieldKey = tuple[str, tuple[str, MetaValue]]


@dataclass(frozen=True)
class Profile:
    user_id: str
    fields: Mapping[str, MetaValue] = field(default_factory=dict)
    updated_at: int = 0  # milliseconds since the Unix epoch

    def __post_init__(self):
        if not isinstance(self.user_id, str) or not self.user_id:
            raise ValueError("user_id must be a nonempty string")
        count("updated_at", self.updated_at, least=0)
        object.__setattr__(self, "fields", _validate_metadata(self.fields))


def _eq_key(value: MetaValue) -> tuple[str, MetaValue]:
    """Kind-tagged key so 100, 100.0 coincide but True and "100" do not."""
    kind = meta_kind(value)
    return (kind, meta_number(value) if kind == "number" else value)


class ProfileStore(JsonlStore):
    def __init__(self, path: str | Path, clock: Callable[[], float] = time.time):
        self._clock = clock
        self._profiles: dict[str, Profile] = {}
        self._by_field: dict[_FieldKey, set[str]] = {}
        # replay installs every line in order, so the last per user wins
        super().__init__(path, Profile, self._install)

    def _install(self, prof: Profile) -> None:
        old = self._profiles.get(prof.user_id)
        if old is not None:
            for name, value in old.fields.items():
                self._by_field[(name, _eq_key(value))].discard(prof.user_id)
        self._profiles[prof.user_id] = prof
        for name, value in prof.fields.items():
            self._by_field.setdefault((name, _eq_key(value)),
                                      set()).add(prof.user_id)

    def _persist(self, user_id: str,
                 fields: Mapping[str, MetaValue]) -> Profile:
        now = int(self._clock() * 1000)
        old = self._profiles.get(user_id)
        if old is not None:
            self._warn_kind_changes(old, fields)
            now = max(now, old.updated_at + 1)  # must strictly increase
        prof = Profile(user_id=user_id, fields=fields, updated_at=now)
        self._append(prof)
        self._install(prof)
        return prof

    def _warn_kind_changes(self, old: Profile,
                           fields: Mapping[str, MetaValue]) -> None:
        for name, value in fields.items():
            if name in old.fields and \
                    meta_kind(old.fields[name]) != meta_kind(value):
                logger.warning(
                    "profile %s field %s changed kind %s -> %s",
                    old.user_id, name, meta_kind(old.fields[name]),
                    meta_kind(value))

    # -- operations ------------------------------------------------------

    def put_profile(self, user_id: str,
                    fields: Mapping[str, MetaValue]) -> Profile:
        """Full replace of the user's fields (creates the profile if new)."""
        with self._lock:
            return self._persist(user_id, fields)

    def get_profile(self, user_id: str) -> Profile | None:
        with self._lock:
            return self._profiles.get(user_id)

    def update_field(self, user_id: str, name: str,
                     value: MetaValue) -> Profile:
        """Change one field of an existing profile; unknown user is an error
        (a targeted update to a missing profile is a caller bug)."""
        with self._lock:
            old = self._profiles.get(user_id)
            if old is None:
                raise ProfileNotFoundError(user_id)
            fields = dict(old.fields)
            fields[name] = value
            return self._persist(user_id, fields)

    def query_by_field(self, name: str, value: MetaValue) -> list[Profile]:
        """All profiles whose field equals value (same kind), by user_id."""
        with self._lock:
            ids = self._by_field.get((name, _eq_key(value)), set())
            return [self._profiles[uid] for uid in sorted(ids)]

    def list_users(self) -> list[str]:
        with self._lock:
            return sorted(self._profiles)
