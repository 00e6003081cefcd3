"""0/1 transition matrices over a finite symbol alphabet.

A d x d matrix of bits defines both a one-dimensional shift of finite
type (rows index the current symbol, columns the allowed followers) and
a tree shift in which entry (i, j) = 1 permits symbol j on every child
of a node labeled i.

Two text formats are accepted: comma-separated row strings of 0/1
characters ("110,101,001") and a JSON array of arrays of 0/1 integers.
The parsers only tokenize: the row-string parser refuses characters
other than 0 and 1, the JSON parser refuses bad JSON and anything but an
array of arrays, and keeps an integer of more than 20 characters as text
so that its refusal never converts it. TransitionMatrix is the one
validator of shape and entries, whether built from text or directly; it
names a bad entry by its type and repr length when the repr is long,
rather than echo it, and an int of more than 133 bits by its bit count,
without taking its repr, which may pass the interpreter's digit limit.
Row and column positions in error messages are 1-based. `json` is
imported by the JSON parser alone, so a row-string matrix never loads
it.
"""

from __future__ import annotations

from typing import NamedTuple


class ParseError(ValueError):
    """Input, text or rows, that does not describe a square 0/1 matrix."""

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        where = ""
        if row is not None:
            where = f" (row {row}" + (f", column {col}" if col is not None else "") + ")"
        super().__init__(message + where)


class NonSquare(ParseError):
    """Row lengths and row count disagree."""


class BadChar(ParseError):
    """An entry other than 0 or 1."""


class RowOrColumnZero(ValueError):
    """A symbol with no successors or no predecessors (dead symbol)."""


class TransitionMatrix(NamedTuple("_Rows", [("rows", tuple[tuple[int, ...], ...])])):
    """Immutable 0/1 adjacency data over the symbols 1 .. d.

    Every row and every column must contain a 1: a symbol with no
    successors admits no labelings below it, and one with no
    predecessors never occurs below the root, so either would make the
    block counts of the shift meaningless. Equal rows make equal
    matrices with equal hashes.
    """

    __slots__ = ()

    def __new__(cls, rows: tuple[tuple[int, ...], ...]):
        self = super().__new__(cls, rows)
        d = len(self.rows)
        if d < 1:
            raise ParseError("matrix needs at least one row")
        for i, row in enumerate(self.rows):
            if len(row) != d:
                raise NonSquare(f"{d} rows but {len(row)} entries", row=i + 1)
            for j, e in enumerate(row):
                if type(e) is not int or e not in (0, 1):
                    if type(e) is int and e.bit_length() > 133:
                        # over 40 digits: sized, since its repr may pass the digit limit
                        shown = f"<int of {e.bit_length()} bits>"
                    else:
                        shown = repr(e)
                    if len(shown) > 40:  # a long repr is named, not echoed
                        shown = f"<{type(e).__name__} whose repr has {len(shown)} characters>"
                    raise BadChar(f"entry {shown} is not 0 or 1", row=i + 1, col=j + 1)
        for i, row in enumerate(self.rows):
            if not any(row):
                raise RowOrColumnZero(f"symbol {i + 1} has no successors (row {i + 1} is zero)")
        for j in range(d):
            if not any(row[j] for row in self.rows):
                raise RowOrColumnZero(f"symbol {j + 1} has no predecessors (column {j + 1} is zero)")
        return self

    @property
    def d(self) -> int:
        return len(self.rows)

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(str(i + 1) for i in range(self.d))

    @classmethod
    def from_rows(cls, rows) -> "TransitionMatrix":
        """From any sequence of rows; entries are validated, never converted."""
        return cls(tuple(map(tuple, rows)))

    def successor_table(self) -> tuple[tuple[int, ...], ...]:
        """successor_table()[i] lists the j with entry (i, j) = 1, ascending."""
        return tuple(tuple(j for j, e in enumerate(row) if e) for row in self.rows)

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.rows)

    def to_row_string(self) -> str:
        return ",".join("".join(str(e) for e in row) for row in self.rows)


def parse_matrix(text: str) -> TransitionMatrix:
    """Parse either accepted text format into a TransitionMatrix."""
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty matrix text")
    if stripped.startswith("["):
        return _parse_json(stripped)
    return _parse_row_string(stripped)


def _parse_row_string(text: str) -> TransitionMatrix:
    rows = []
    for i, token in enumerate(t.strip() for t in text.split(",")):
        for j, ch in enumerate(token):
            if ch not in "01":
                raise BadChar(f"character {ch!r} is not 0 or 1", row=i + 1, col=j + 1)
        rows.append(tuple(map(int, token)))
    return TransitionMatrix.from_rows(rows)


class _LongInteger(str):
    """A JSON integer too long to echo, kept as text for TransitionMatrix to refuse."""

    def __repr__(self) -> str:
        return f"<integer of {len(self.lstrip('-'))} digits>"


def _json_int(token: str):
    # int() refuses more than 4,300 digits on some interpreters, with a
    # message about Python, and takes any length on others; no entry but
    # 0 or 1 is valid, so a long one is not converted at all
    return _LongInteger(token) if len(token) > 20 else int(token)


def _parse_json(text: str) -> TransitionMatrix:
    import json

    try:
        data = json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON matrix: {exc}") from exc
    except RecursionError:
        raise ParseError("invalid JSON matrix: nested too deeply") from None
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise ParseError("JSON matrix must be a non-empty array of arrays")
    # json's own depth limit differs between Python versions, so every
    # array below a row is refused the same way, however deep
    if any(isinstance(e, list) for r in data for e in r):
        raise ParseError("invalid JSON matrix: nested too deeply")
    return TransitionMatrix.from_rows(data)
