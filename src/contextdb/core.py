"""Core domain types: vectors, documents, metadata values, and text embedders.

Everything in this module is an immutable value after construction and every
function is pure, so concurrent use needs no external locking.
"""

from __future__ import annotations

import hashlib
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .errors import DimensionMismatchError, InvalidVectorError, UnknownFixtureKeyError

MetaValue = bool | int | float | str


# The kind of each exact metadata type. bool is its own kind though it
# subclasses int: a boolean never compares equal to a number.
_META_KINDS = {bool: "boolean", int: "number", float: "number", str: "string"}


def count(name: str, value: object, least: int = 1) -> int:
    """value as a plain int, for a knob or size that must be an integer of
    at least least: an int or a numpy integer, never a bool, float or
    string. Raises TypeError for the wrong type, ValueError below least."""
    if type(value) is int and value >= least:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


def meta_kind(value: object) -> str:
    """Classify a metadata value as ``boolean``, ``number``, or ``string``.
    A subclass of int, float or str (np.float64, say) is of its base's
    kind; bool has no subclasses."""
    kind = _META_KINDS.get(type(value))
    if kind is not None:
        return kind
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    raise TypeError(f"unsupported metadata value type: {type(value).__name__}")


def meta_number(value: int | float) -> float:
    """The float64 a metadata number compares as: float(value), or ±inf for
    an int past float64's range, as float("1e400") already reads. So
    2**53 + 1 equals 2**53, and 10**400 equals 1e400."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def fmt_meta(value: MetaValue) -> str:
    """Display form of a metadata value: booleans as true/false."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


class Vector:
    """Fixed-dimension embedding with finite float64 coordinates.

    The backing array is copied on construction and marked read-only, so a
    Vector can be shared freely across threads and stores.
    """

    __slots__ = ("_values",)

    def __init__(self, values: Iterable[float]):
        arr = np.array(list(values) if not isinstance(values, np.ndarray) else values,
                       dtype=np.float64, copy=True)
        if arr.ndim != 1:
            raise InvalidVectorError(f"vector must be one-dimensional, got shape {arr.shape}")
        if arr.size == 0:
            raise InvalidVectorError("vector must have at least one coordinate")
        if not np.all(np.isfinite(arr)):
            raise InvalidVectorError("vector coordinates must be finite (no NaN or inf)")
        arr.flags.writeable = False
        self._values = arr

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def dim(self) -> int:
        return int(self._values.shape[0])

    def tolist(self) -> list[float]:
        return self._values.tolist()

    def __len__(self) -> int:
        return self.dim

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vector):
            return NotImplemented
        return bool(np.array_equal(self._values, other._values))

    def __hash__(self) -> int:
        return hash(self._values.tobytes())

    def __repr__(self) -> str:
        coords = self._values.tolist() if self.dim <= 8 else f"dim={self.dim}"
        return f"Vector({coords})"


def euclidean_distance(a: Vector, b: Vector) -> float:
    """Straight-line distance between two same-dimension vectors.

    Exactly symmetric: (a_i - b_i)**2 and (b_i - a_i)**2 are the same float,
    so the summed result is bit-identical in either argument order.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError(expected=a.dim, got=b.dim)
    diff = a.values - b.values
    return float(np.sqrt(np.dot(diff, diff)))


def _validate_metadata(metadata: Mapping[str, MetaValue]) -> dict[str, MetaValue]:
    out: dict[str, MetaValue] = {}
    for key, value in metadata.items():
        if not isinstance(key, str) or not key:
            raise ValueError(f"metadata keys must be nonempty strings, got {key!r}")
        # split() cuts at exactly the characters isspace() accepts
        if key.split() != [key]:
            raise ValueError(f"metadata key {key!r} contains whitespace")
        if type(value) not in _META_KINDS:
            meta_kind(value)  # a subclass passes; others raise TypeError
        out[key] = value
    return out


@dataclass(frozen=True)
class Document:
    """An inventory/knowledge item: id, text, metadata map, and embedding."""

    id: str
    text: str
    metadata: Mapping[str, MetaValue] = field(default_factory=dict)
    embedding: Vector = None  # type: ignore[assignment]

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise ValueError("document id must be a nonempty string")
        if not isinstance(self.text, str):
            raise TypeError("document text must be a string")
        if not isinstance(self.embedding, Vector):
            raise TypeError("document embedding must be a Vector")
        object.__setattr__(self, "metadata", MappingProxyType(_validate_metadata(self.metadata)))

    @classmethod
    def _trusted(cls, doc_id: str, text: str,
                 metadata: Mapping[str, MetaValue],
                 row: np.ndarray) -> "Document":
        """A Document of parts that were validated when they were stored:
        metadata is already read-only, and the row is copied and made
        read-only. Nothing is checked again."""
        values = row.copy()
        values.flags.writeable = False
        embedding = Vector.__new__(Vector)
        embedding._values = values
        doc = cls.__new__(cls)
        for name, value in (("id", doc_id), ("text", text),
                            ("metadata", metadata), ("embedding", embedding)):
            object.__setattr__(doc, name, value)
        return doc


class EmbeddingProvider(ABC):
    """Deterministic text -> Vector mapping with a fixed output dimension.

    Implementations must return bit-identical vectors for identical input
    text, across calls and across process restarts.
    """

    @property
    @abstractmethod
    def dim(self) -> int: ...

    @abstractmethod
    def embed(self, text: str) -> Vector: ...


def hash_embed(text: str, dim: int, seed: int = 0) -> Vector:
    """Deterministic pseudo-random unit-norm embedding of ``text``.

    Construction is frozen (do not change without bumping stored index
    snapshots): sha256 over (seed, text) seeds a PCG64 generator, dim values
    are drawn from the standard normal, and the result is L2-normalized.
    """
    dim = count("embedding dim", dim)
    digest = hashlib.sha256(f"{seed}\x1f{text}".encode("utf-8")).digest()
    rng = np.random.Generator(np.random.PCG64(int.from_bytes(digest[:16], "little")))
    raw = rng.standard_normal(dim)
    norm = float(np.linalg.norm(raw))
    if norm == 0.0:  # astronomically unlikely; keep the unit-norm contract anyway
        raw[0] = 1.0
        norm = 1.0
    return Vector(raw / norm)


class HashEmbedder(EmbeddingProvider):
    """Stand-in for a learned text encoder: hashed, seeded, unit-norm vectors."""

    def __init__(self, dim: int = 64, seed: int = 0):
        self._dim = count("embedding dim", dim)
        self.seed = seed

    @property
    def dim(self) -> int:
        return self._dim

    def embed(self, text: str) -> Vector:
        return hash_embed(text, self._dim, self.seed)


# 2D embeddings for the bundled running-shoe demo: four product names plus
# the canonical demo question.
FIXTURE_EMBEDDINGS: Mapping[str, tuple[float, float]] = MappingProxyType({
    "Nike ZoomX Infinity Run": (1.2, 3.5),
    "Adidas UltraBoost": (2.0, 3.2),
    "Reebok Floatride": (3.1, 2.9),
    "ASICS Gel-Kayano": (2.5, 3.0),
    "I need comfortable running shoes under $100": (3.0, 2.7),
})


def fixture_embed(text: str) -> Vector:
    """Look up the fixed 2D demo embedding for one of the known fixture keys."""
    try:
        coords = FIXTURE_EMBEDDINGS[text]
    except KeyError:
        raise UnknownFixtureKeyError(text, tuple(sorted(FIXTURE_EMBEDDINGS))) from None
    return Vector(coords)


class FixtureEmbedder(EmbeddingProvider):
    """EmbeddingProvider over the fixed 2D demo table; unknown text errors."""

    @property
    def dim(self) -> int:
        return 2

    def embed(self, text: str) -> Vector:
        return fixture_embed(text)
