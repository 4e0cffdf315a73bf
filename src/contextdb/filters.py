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
import operator
import re
from collections import defaultdict
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import Document, MetaValue, meta_kind, meta_number
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
            kind = meta_kind(self.value)
            if self.op in _ORDERING_OPS and kind != "number":
                raise ValueError(
                    f"ordering operator {self.op.value} applies only to numbers, "
                    f"got {kind}"
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
             pool: slice | np.ndarray) -> np.ndarray:
        """matches() of every slot that pool (an index into the slots)
        picks, as one boolean array in pool order; a dead slot is false.
        Where matches() raises on pooled slots, this raises the error that
        matches() raises on the first of them in pool order."""
        n = columns.count
        out = columns.live[:n][pool].copy()  # held by every clause so far
        first = None                # (position, error) of the first raise
        for clause in self.clauses:
            col = columns.fields.get(clause.field)
            if col is None:                     # no slot has the field
                out[:] = False
                break
            kind, value = (a[:n][pool] for a in col)
            pending = out & (kind != 0)  # has the field, no item matched yet
            held = np.zeros_like(out)
            compare = _COMPARE[clause.op]
            items = clause.value if clause.op is Op.IN else (clause.value,)
            for item in items:                  # matches() stops at a hit
                item_kind = meta_kind(item)
                bad = pending & (kind != _CODE_OF[item_kind])
                if bad.any():
                    at = int(bad.argmax())
                    if first is None or at < first[0]:
                        first = (at, FilterTypeMismatchError(
                            clause.field, _KINDS[kind[at]], item_kind))
                    pending &= ~bad
                hit = compare(value, columns.value_of(item)) & pending
                held |= hit
                pending &= ~hit
            out &= pending if clause.op is Op.NE else held
        if first is not None:
            raise first[1]
        return out


# One comparison per operator, for a stored value and a literal of one kind
# (numbers as meta_number): on scalars in matches(), on columns in mask().
# NE and IN test equality; the clause then negates or ORs it.
_COMPARE = {Op.EQ: operator.eq, Op.NE: operator.eq, Op.IN: operator.eq,
            Op.LT: operator.lt, Op.LE: operator.le,
            Op.GT: operator.gt, Op.GE: operator.ge}


def _clause_holds(clause: Clause, metadata) -> bool:
    if clause.field not in metadata:
        return False
    stored = metadata[clause.field]
    kind = meta_kind(stored)
    compare = _COMPARE[clause.op]
    for item in clause.value if clause.op is Op.IN else (clause.value,):
        if meta_kind(item) != kind:
            raise FilterTypeMismatchError(clause.field, kind, meta_kind(item))
        if kind == "number":
            hit = compare(meta_number(stored), meta_number(item))
        else:
            hit = compare(stored, item)
        if hit:
            return clause.op is not Op.NE
    return clause.op is Op.NE


def evaluate_filter(expr: FilterExpr, doc: Document) -> bool:
    """expr.matches(doc.metadata)."""
    return expr.matches(doc.metadata)


# --- metadata columns -------------------------------------------------------

# The kind of a stored value, coded as its index; 0 is a slot without the
# field.
_KINDS = ("missing", "boolean", "number", "string")
_CODE_OF = {kind: code for code, kind in enumerate(_KINDS)}


def _padded(arr: np.ndarray, size: int) -> np.ndarray:
    """arr followed by zeros up to size."""
    out = np.zeros(size, dtype=arr.dtype)
    out[:arr.shape[0]] = arr
    return out


class MetaColumns:
    """The metadata of a slot table's first count slots, for FilterExpr.mask:
    per field a kind code per slot (int8) and the value (float64), a number
    as meta_number, a boolean as 0 or 1, and a string as its interned code,
    its index among the strings seen so far. The kind code keeps values of
    different kinds apart."""

    def __init__(self):
        self.count = 0                      # slots below it are encoded
        self.live = np.zeros(0, dtype=bool)
        self.fields: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.strings: dict[str, int] = {}   # string -> its code

    def value_of(self, literal: MetaValue) -> float:
        """A literal as the columns hold it; -1 for a string that no slot
        has held."""
        if isinstance(literal, str):
            return self.strings.get(literal, -1)
        return meta_number(literal)

    def encode(self, slots: list[int],
               metas: Sequence[Mapping[str, MetaValue] | None]) -> None:
        """(Re-)encode the given slots from their metadata, None for a dead
        slot, one field at a time. The columns grow to cover them."""
        if not slots:
            return
        size = self.live.shape[0]
        if max(slots) >= size:
            size = max(2 * size, max(slots) + 1, 64)
            self.live = _padded(self.live, size)
            self.fields = {field: (_padded(kind, size), _padded(value, size))
                           for field, (kind, value) in self.fields.items()}
        idx = np.array(slots)
        for kind, _ in self.fields.values():
            kind[idx] = 0
        live = [slot for slot in slots if metas[slot] is not None]
        self.live[idx] = False
        self.live[live] = True
        at: dict[str, list[int]] = defaultdict(list)
        values: dict[str, list[MetaValue]] = defaultdict(list)
        for slot in live:
            for field, value in metas[slot].items():
                at[field].append(slot)
                values[field].append(value)
        strings, string = self.strings, _CODE_OF["string"]
        for field, vals in values.items():
            kinds = [_CODE_OF[meta_kind(v)] for v in vals]
            codes = [strings.setdefault(v, len(strings)) if k == string
                     else meta_number(v) for k, v in zip(kinds, vals)]
            col = self.fields.get(field)
            if col is None:
                col = self.fields[field] = (np.zeros(size, dtype=np.int8),
                                            np.zeros(size))
            col[0][at[field]], col[1][at[field]] = kinds, codes


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
