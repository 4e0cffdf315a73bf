"""Conjunctive metadata filters: expression model, evaluation (per document,
or as one mask over an index's metadata columns), and the string grammar
used by the CLI and config files.

Grammar: clauses joined by ``&&``; each clause is ``field OP literal`` with
OP one of ``= != < <= > >= in``. Strings are double-quoted, booleans are
``true``/``false``, and ``in`` takes a parenthesized comma-separated list:

    price<100 && brand="Reebok" && size in (9, 10, 10.5)
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import Document, MetaValue, meta_kind
from .errors import FilterParseError, FilterTypeMismatchError


class Op(enum.Enum):
    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    IN = "in"


_ORDERING_OPS = frozenset({Op.LT, Op.LE, Op.GT, Op.GE})


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class Clause:
    """One predicate: ``field op value`` (value is a tuple for IN)."""

    field: str
    op: Op
    value: MetaValue | tuple[MetaValue, ...]

    def __post_init__(self):
        if not self.field or any(ch.isspace() for ch in self.field):
            raise ValueError(f"clause field must be nonempty without whitespace: {self.field!r}")
        if self.op is Op.IN:
            if not isinstance(self.value, tuple) or not self.value:
                raise ValueError("IN clause requires a nonempty tuple of literals")
            for item in self.value:
                meta_kind(item)
        else:
            if isinstance(self.value, tuple):
                raise ValueError(f"operator {self.op.value} takes a single literal")
            meta_kind(self.value)
            if self.op in _ORDERING_OPS and not _is_number(self.value):
                raise ValueError(
                    f"ordering operator {self.op.value} applies only to numbers, "
                    f"got {meta_kind(self.value)}"
                )


@dataclass(frozen=True)
class FilterExpr:
    """Conjunction of clauses; the empty conjunction matches every document."""

    clauses: tuple[Clause, ...] = ()

    @staticmethod
    def match_all() -> "FilterExpr":
        return FilterExpr(())

    def __bool__(self) -> bool:
        return bool(self.clauses)

    def matches(self, metadata: Mapping[str, MetaValue]) -> bool:
        """True iff every clause holds. A clause on an absent field is false,
        not an error, so heterogeneous catalogs stay queryable."""
        for clause in self.clauses:
            if not _clause_holds(clause, metadata):
                return False
        return True

    def mask(self, columns: "MetaColumns",
             pool: slice | np.ndarray) -> np.ndarray | None:
        """matches() of every slot that pool (an index into the slots)
        picks, as one boolean array in pool order; a dead slot is false.
        None when matches() would raise on one of them, on a kind mismatch
        or a number float() cannot hold: the caller then runs matches()
        to raise that very error."""
        n = columns.count
        out = columns.live[:n][pool].copy()  # held by every clause so far
        for clause in self.clauses:
            col = columns.fields.get(clause.field)
            if col is None:                     # no slot has the field
                return np.zeros_like(out)
            kind = col.kind[:n][pool]
            pending = out & (kind != _MISSING)  # not yet matched by an item
            held = np.zeros_like(out)
            items = clause.value if clause.op is Op.IN else (clause.value,)
            for item in items:                  # matches() stops at a hit
                code = _kind_code(item)
                if (pending & (kind != (-1 if code == _HUGE else code))).any():
                    return None
                if code == _NUMBER:
                    hit = _COMPARE[clause.op](col.num[:n][pool], float(item))
                else:
                    hit = col.code[:n][pool] == columns.code_of(item)
                hit &= pending
                held |= hit
                pending &= ~hit
            out &= pending if clause.op is Op.NE else held
        return out


def _typed_eq(field: str, stored: MetaValue, literal: MetaValue) -> bool:
    stored_kind = meta_kind(stored)
    literal_kind = meta_kind(literal)
    if stored_kind != literal_kind:
        raise FilterTypeMismatchError(field, stored_kind, literal_kind)
    if stored_kind == "number":
        return float(stored) == float(literal)
    return stored == literal


def _clause_holds(clause: Clause, metadata) -> bool:
    if clause.field not in metadata:
        return False
    stored = metadata[clause.field]
    if clause.op is Op.EQ:
        return _typed_eq(clause.field, stored, clause.value)
    if clause.op is Op.NE:
        return not _typed_eq(clause.field, stored, clause.value)
    if clause.op is Op.IN:
        return any(_typed_eq(clause.field, stored, item) for item in clause.value)
    # ordering operator: both sides must be numbers
    if not _is_number(stored):
        raise FilterTypeMismatchError(clause.field, meta_kind(stored), "number")
    left = float(stored)
    right = float(clause.value)  # type: ignore[arg-type]
    if clause.op is Op.LT:
        return left < right
    if clause.op is Op.LE:
        return left <= right
    if clause.op is Op.GT:
        return left > right
    return left >= right


def evaluate_filter(expr: FilterExpr, doc: Document) -> bool:
    """expr.matches(doc.metadata)."""
    return expr.matches(doc.metadata)


# --- metadata columns -------------------------------------------------------

# The kind code of a stored value. _HUGE is a number float() cannot hold; a
# literal float() cannot hold gets -1. Either code differs from every other,
# so a clause that reaches it reads as a mismatch and falls back to matches().
_MISSING, _BOOLEAN, _NUMBER, _STRING, _HUGE = range(5)

_COMPARE = {Op.EQ: np.equal, Op.NE: np.equal, Op.IN: np.equal,
            Op.LT: np.less, Op.LE: np.less_equal,
            Op.GT: np.greater, Op.GE: np.greater_equal}


def _kind_code(value: MetaValue) -> int:
    if isinstance(value, bool):
        return _BOOLEAN
    if isinstance(value, str):
        return _STRING
    try:
        float(value)
    except OverflowError:
        return _HUGE
    return _NUMBER


class _Column:
    """One metadata field over the slots: a kind code per slot, the float
    value of a number, and the interned code of a string or boolean."""

    __slots__ = ("kind", "num", "code")

    def __init__(self, size: int):
        self.kind = np.zeros(size, dtype=np.int8)
        self.num = np.zeros(size)
        self.code = np.zeros(size, dtype=np.int32)

    def grow(self, size: int) -> None:
        for name in self.__slots__:
            old = getattr(self, name)
            new = np.zeros(size, dtype=old.dtype)
            new[:old.shape[0]] = old
            setattr(self, name, new)


class MetaColumns:
    """The metadata of a slot table's first count slots as one _Column per
    field, for FilterExpr.mask. A boolean codes as 0 or 1 and a string as
    its index among the strings seen so far; the kind code keeps codes of
    different kinds apart."""

    def __init__(self):
        self.count = 0
        self.live = np.zeros(0, dtype=bool)
        self.fields: dict[str, _Column] = {}
        self.strings: dict[str, int] = {}   # string -> its code

    def code_of(self, literal: bool | str) -> int:
        """A literal's code; -1 for a string that no slot has held."""
        if isinstance(literal, bool):
            return int(literal)
        return self.strings.get(literal, -1)

    def encode(self, slots: list[int],
               metas: Sequence[Mapping[str, MetaValue] | None]) -> None:
        """(Re-)encode the given slots from their metadata, None for a dead
        slot. The columns grow to cover them."""
        if not slots:
            return
        size = self.live.shape[0]
        if max(slots) >= size:
            size = max(2 * size, max(slots) + 1, 64)
            live = np.zeros(size, dtype=bool)
            live[:self.live.shape[0]] = self.live
            self.live = live
            for col in self.fields.values():
                col.grow(size)
        idx = np.array(slots)
        for col in self.fields.values():
            col.kind[idx] = _MISSING
        strings = self.strings
        entries: dict[str, list[tuple[int, int, float, int]]] = {}
        live_slots = []
        for slot in slots:
            meta = metas[slot]
            if meta is None:
                continue
            live_slots.append(slot)
            for field, value in meta.items():
                kind, num, code = _kind_code(value), 0.0, 0
                if kind == _NUMBER:
                    num = float(value)
                elif kind == _STRING:
                    code = strings.setdefault(value, len(strings))
                elif kind == _BOOLEAN:
                    code = int(value)
                entries.setdefault(field, []).append((slot, kind, num, code))
        self.live[idx] = False
        self.live[live_slots] = True
        for field, rows in entries.items():
            col = self.fields.get(field)
            if col is None:
                col = self.fields[field] = _Column(size)
            at, kind, num, code = (list(c) for c in zip(*rows))
            col.kind[at], col.num[at], col.code[at] = kind, num, code


# --- string grammar ---------------------------------------------------------

# Token patterns, each matched at a position. \w is isalnum() or "_", and
# \d a decimal digit, the only kind int() and float() read; (?ai:) folds
# ASCII case only. A field must also start with isalpha() or "_". A string
# match without its closing quote stops at the end or at a bad escape.
_SPACE_RE = re.compile(r"\s*")
_FIELD_RE = re.compile(r"[\w.-]+")
_OP_RE = re.compile(r"!=|<=|>=|<|>|=|(?ai:in)(?!\w)")
_STRING_RE = re.compile(r'"((?:[^"\\]|\\["\\])*)("?)')
_NUMBER_RE = re.compile(r"([+-]?)(\d*)(\.\d*)?([eE][+-]?\d+)?")
_BOOLEAN_RE = re.compile(r"(?ai:true|false)(?!\w)")


def parse_filter(text: str) -> FilterExpr:
    """Parse the filter grammar into a FilterExpr.

    Raises FilterParseError with a 1-based column on any malformed input;
    blank input parses to the match-all expression.
    """
    pos = _SPACE_RE.match(text).end()
    if pos == len(text):
        return FilterExpr.match_all()
    clauses: list[Clause] = []
    while True:
        m = _FIELD_RE.match(text, pos)
        if m is None or not (m[0][0].isalpha() or m[0][0] == "_"):
            raise FilterParseError("expected a field name", pos + 1)
        field = m[0]
        pos = _SPACE_RE.match(text, m.end()).end()
        m = _OP_RE.match(text, pos)
        if m is None:
            raise FilterParseError(
                "expected an operator (=, !=, <, <=, >, >=, in)", pos + 1)
        op = Op(m[0].lower())
        pos = m.end()
        if op is Op.IN:
            pos = _SPACE_RE.match(text, pos).end()
            if not text.startswith("(", pos):
                raise FilterParseError("expected '(' after in", pos + 1)
            pos += 1
        items: list[MetaValue] = []
        while True:                     # one literal, or the items of a list
            pos = _SPACE_RE.match(text, pos).end()
            if text.startswith('"', pos):
                m = _STRING_RE.match(text, pos)
                if not m[2]:
                    raise FilterParseError(
                        "unterminated string literal" if m.end() == len(text)
                        else "invalid escape in string literal", m.end() + 1)
                items.append(re.sub(r"\\(.)", r"\1", m[1]))
            elif m := _BOOLEAN_RE.match(text, pos):
                items.append(m[0].lower() == "true")
            else:
                m = _NUMBER_RE.match(text, pos)
                sign, digits, point, exponent = m.groups()
                if point == ".":
                    raise FilterParseError(
                        "expected digits after decimal point", pos + 1)
                if not digits and not point:
                    raise FilterParseError("expected a literal" + (
                        "" if sign or pos == len(text) else
                        ' (number, "string", true, or false)'), pos + 1)
                try:
                    items.append(float(m[0]) if point or exponent
                                 else int(m[0]))
                except ValueError as exc:   # past int()'s digit limit
                    raise FilterParseError(str(exc), pos + 1) from None
            pos = m.end()
            if op is not Op.IN:
                break
            pos = _SPACE_RE.match(text, pos).end()
            if text.startswith(")", pos):
                pos += 1
                break
            if not text.startswith(",", pos):
                raise FilterParseError("expected ',' or ')' in list", pos + 1)
            pos += 1
        try:
            clauses.append(Clause(field, op, tuple(items) if op is Op.IN
                                  else items[0]))
        except ValueError as exc:
            raise FilterParseError(str(exc), pos + 1) from None
        pos = _SPACE_RE.match(text, pos).end()
        if pos == len(text):
            return FilterExpr(tuple(clauses))
        if not text.startswith("&&", pos):
            raise FilterParseError("expected '&&' between clauses", pos + 1)
        pos = _SPACE_RE.match(text, pos + 2).end()
