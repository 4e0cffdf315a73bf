"""Conjunctive metadata filters: expression model, evaluation, and the
string grammar used by the CLI and config files.

Grammar: clauses joined by ``&&``; each clause is ``field OP literal`` with
OP one of ``= != < <= > >= in``. Strings are double-quoted, booleans are
``true``/``false``, and ``in`` takes a parenthesized comma-separated list:

    price<100 && brand="Reebok" && size in (9, 10, 10.5)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping

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
        return all(_clause_holds(clause, metadata) for clause in self.clauses)


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


# --- string grammar ---------------------------------------------------------

class _Cursor:
    """Scanner over the filter source with 1-based column reporting."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    @property
    def column(self) -> int:
        return self.pos + 1

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if not self.eof() else ""

    def skip_ws(self) -> None:
        while not self.eof() and self.text[self.pos].isspace():
            self.pos += 1

    def take(self, literal: str) -> bool:
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def error(self, message: str) -> FilterParseError:
        return FilterParseError(message, self.column)


def _parse_field(cur: _Cursor) -> str:
    start = cur.pos
    ch = cur.peek()
    if not (ch.isalpha() or ch == "_"):
        raise cur.error("expected a field name")
    while not cur.eof():
        ch = cur.peek()
        if ch.isalnum() or ch in "_.-":
            cur.pos += 1
        else:
            break
    return cur.text[start:cur.pos]


def _parse_op(cur: _Cursor) -> Op:
    for token, op in (("!=", Op.NE), ("<=", Op.LE), (">=", Op.GE),
                      ("<", Op.LT), (">", Op.GT), ("=", Op.EQ)):
        if cur.take(token):
            return op
    if cur.text[cur.pos:cur.pos + 2].lower() == "in":
        after = cur.text[cur.pos + 2:cur.pos + 3]
        if after == "" or not (after.isalnum() or after == "_"):
            cur.pos += 2
            return Op.IN
    raise cur.error("expected an operator (=, !=, <, <=, >, >=, in)")


def _parse_string(cur: _Cursor) -> str:
    # opening quote already checked by caller
    cur.pos += 1
    out: list[str] = []
    while True:
        if cur.eof():
            raise cur.error("unterminated string literal")
        ch = cur.text[cur.pos]
        if ch == "\\":
            if cur.pos + 1 >= len(cur.text) or cur.text[cur.pos + 1] not in '"\\':
                raise cur.error("invalid escape in string literal")
            out.append(cur.text[cur.pos + 1])
            cur.pos += 2
        elif ch == '"':
            cur.pos += 1
            return "".join(out)
        else:
            out.append(ch)
            cur.pos += 1


def _parse_number(cur: _Cursor) -> int | float:
    start = cur.pos
    if cur.peek() in "+-":
        cur.pos += 1
    digits_before = False
    while cur.peek().isdigit():
        cur.pos += 1
        digits_before = True
    is_float = False
    if cur.peek() == ".":
        cur.pos += 1
        is_float = True
        if not cur.peek().isdigit():
            cur.pos = start
            raise cur.error("expected digits after decimal point")
        while cur.peek().isdigit():
            cur.pos += 1
    if not digits_before and not is_float:
        cur.pos = start
        raise cur.error("expected a literal")
    if cur.peek() in "eE":
        mark = cur.pos
        cur.pos += 1
        if cur.peek() in "+-":
            cur.pos += 1
        if cur.peek().isdigit():
            is_float = True
            while cur.peek().isdigit():
                cur.pos += 1
        else:
            cur.pos = mark
    text = cur.text[start:cur.pos]
    return float(text) if is_float else int(text)


def _parse_literal(cur: _Cursor) -> MetaValue:
    cur.skip_ws()
    if cur.eof():
        raise cur.error("expected a literal")
    ch = cur.peek()
    if ch == '"':
        return _parse_string(cur)
    if ch.isdigit() or ch in "+-.":
        return _parse_number(cur)
    for word, value in (("true", True), ("false", False)):
        if cur.text[cur.pos:cur.pos + len(word)].lower() == word:
            after = cur.text[cur.pos + len(word):cur.pos + len(word) + 1]
            if after == "" or not (after.isalnum() or after == "_"):
                cur.pos += len(word)
                return value
    raise cur.error("expected a literal (number, \"string\", true, or false)")


def _parse_in_list(cur: _Cursor) -> tuple[MetaValue, ...]:
    cur.skip_ws()
    if not cur.take("("):
        raise cur.error("expected '(' after in")
    items: list[MetaValue] = [_parse_literal(cur)]
    while True:
        cur.skip_ws()
        if cur.take(")"):
            return tuple(items)
        if not cur.take(","):
            raise cur.error("expected ',' or ')' in list")
        items.append(_parse_literal(cur))


def parse_filter(text: str) -> FilterExpr:
    """Parse the filter grammar into a FilterExpr.

    Raises FilterParseError with a 1-based column on any malformed input;
    blank input parses to the match-all expression.
    """
    cur = _Cursor(text)
    cur.skip_ws()
    if cur.eof():
        return FilterExpr.match_all()
    clauses: list[Clause] = []
    while True:
        cur.skip_ws()
        field = _parse_field(cur)
        cur.skip_ws()
        op = _parse_op(cur)
        if op is Op.IN:
            value: MetaValue | tuple[MetaValue, ...] = _parse_in_list(cur)
        else:
            value = _parse_literal(cur)
        try:
            clauses.append(Clause(field, op, value))
        except ValueError as exc:
            raise cur.error(str(exc)) from None
        cur.skip_ws()
        if cur.eof():
            return FilterExpr(tuple(clauses))
        if not cur.take("&&"):
            raise cur.error("expected '&&' between clauses")
