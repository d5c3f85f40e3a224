"""Dense matrices over GF(q): row reduction, standard form, the `.gfm` format.

Entries are stored as a tuple of row tuples of element codes, the form
every kernel reads; numpy only backs the read-only `GFMatrix.data` array,
built on demand.  One Gauss-Jordan elimination, `_gauss_jordan`, on lists
of rows and the field's operation tables, serves every reduction: the
caller names the columns, in order, and each pivots on the first row not
yet used that is nonzero there, so every reduced form is reproducible.
`standard_form` offers one basis's columns first; `_canonical_standard_form`
offers every column in order and takes its pivot columns as the basis.
Both read [I | A] off the eliminated rows with one reader.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .gf import FieldSpec, field_from_order


class NotABasisError(ValueError):
    """Raised when a claimed basis is dependent or not spanning."""


class GfmParseError(ValueError):
    """Malformed `.gfm` text; the message carries the line number."""


class GFMatrix:
    """Immutable dense matrix over a FieldSpec, stored as a tuple of row tuples.

    `data` is any 2-D sequence of element codes (lists, tuples, a numpy
    array).  `cols`, the width, is needed only when there are no rows
    (default 0); otherwise it must agree with the rows.
    """

    __slots__ = ("field", "_rows", "cols")

    def __init__(self, field: FieldSpec, data, cols: Optional[int] = None):
        try:
            rows = tuple(tuple(map(int, row)) for row in data)
        except TypeError:
            raise ValueError("matrix data must be 2-D") from None
        widths = {len(row) for row in rows}
        if cols is not None:
            widths.add(cols)
        if len(widths) > 1:
            raise ValueError(f"matrix data must be 2-D, got rows of {sorted(widths)} entries")
        if rows and rows[0]:
            lo, hi = min(map(min, rows)), max(map(max, rows))
            if lo < 0 or hi >= field.q:
                raise ValueError(f"entry {lo if lo < 0 else hi} out of range for GF({field.q})")
        self.field = field
        self._rows = rows
        self.cols = widths.pop() if widths else 0

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "GFMatrix":
        return cls(field, [(0,) * cols] * rows, cols)

    @classmethod
    def _of_rows(cls, field: FieldSpec, rows: tuple[tuple[int, ...], ...], cols: int) -> "GFMatrix":
        """A matrix on rows that are already valid: a tuple of `cols`-entry
        tuples of element codes of `field`.  Nothing is checked or copied."""
        m = object.__new__(cls)
        m.field, m._rows, m.cols = field, rows, cols
        return m

    @classmethod
    def from_cols(cls, field: FieldSpec, cols: Sequence[Sequence[int]], rows: int) -> "GFMatrix":
        return cls(field, cols, rows).transpose()

    @property
    def rows(self) -> int:
        return len(self._rows)

    @property
    def data(self):
        """The entries as a read-only numpy uint8 array, built on each read."""
        arr = np.array(self._rows, dtype=np.uint8).reshape(self.rows, self.cols)
        arr.flags.writeable = False
        return arr

    def col_tuples(self) -> list[tuple[int, ...]]:
        return list(zip(*self._rows)) if self._rows else [()] * self.cols

    def row_tuples(self) -> tuple[tuple[int, ...], ...]:
        return self._rows

    def transpose(self) -> "GFMatrix":
        return GFMatrix(self.field, self.col_tuples(), self.rows)

    def take_cols(self, idx: Iterable[int]) -> "GFMatrix":
        idx = list(idx)
        return GFMatrix(self.field, [[row[j] for j in idx] for row in self._rows], len(idx))

    def __eq__(self, other) -> bool:
        return (isinstance(other, GFMatrix)
                and (self.field, self.cols, self._rows) == (other.field, other.cols, other._rows))

    def __hash__(self) -> int:
        return hash((self.field, self.cols, self._rows))

    def __repr__(self) -> str:
        return f"GFMatrix({self.field!r}, {[list(row) for row in self._rows]})"


@dataclass(frozen=True)
class RrefResult:
    matrix: GFMatrix
    rank: int
    pivot_cols: tuple[int, ...]


def _gauss_jordan(field: FieldSpec, rows: list, cols: Iterable[int]) -> dict[int, int]:
    """Gauss-Jordan elimination on `rows`, pivoting on `cols` in the given order.

    Each column takes as pivot the first row not yet used that is nonzero
    there; that row is scaled so the pivot is 1 and the column is cleared
    in every other row.  Changed rows are replaced by new lists and rows
    keep their places.  Returns {column: pivot row} in pivot order; a
    column without a pivot is spanned by the pivot columns before it.
    """
    add_t, mul_t, neg_t, inv_t = field._add, field._mul, field._neg, field._inv
    free = list(range(len(rows)))  # rows without a pivot, in order
    piv: dict[int, int] = {}
    for c in cols:
        if not free:
            break
        for k, r in enumerate(free):
            if rows[r][c]:
                break
        else:
            continue
        del free[k]
        prow = rows[r]
        if prow[c] != 1:
            mrow = mul_t[inv_t[prow[c]]]
            prow = rows[r] = [mrow[y] for y in prow]
        for i, row in enumerate(rows):
            e = row[c]
            if e and i != r:
                mrow = mul_t[neg_t[e]]  # subtract e·prow by adding (-e)·prow
                rows[i] = [add_t[x][mrow[y]] if y else x for x, y in zip(row, prow)]
        piv[c] = r
    return piv


def rref(m: GFMatrix) -> RrefResult:
    """Reduced row echelon form.  Zero rows are retained in the output."""
    rows = list(m.row_tuples())
    piv = _gauss_jordan(m.field, rows, range(m.cols))
    # every column was offered a pivot, so the rows without one are zero
    out = [rows[r] for r in piv.values()] + [(0,) * m.cols] * (m.rows - len(piv))
    return RrefResult(GFMatrix(m.field, out, m.cols), len(piv), tuple(piv))


@dataclass(frozen=True)
class StandardForm:
    """Basis-indexed representation [I | A].

    Row i of `a` corresponds to basis_order[i]; column j to nonbasis_order[j].
    """

    field: FieldSpec
    basis_order: tuple[str, ...]
    nonbasis_order: tuple[str, ...]
    a: GFMatrix


def _read_standard_form(field: FieldSpec, labels: Sequence[str], rows: list,
                        piv: dict[int, int]) -> StandardForm:
    """The [I | A] of rows eliminated by `_gauss_jordan` with pivots `piv`:
    the pivot columns, in pivot order, are the basis, and A is the pivot
    rows at the other columns, in column order.  The elimination keeps
    every entry a code of the field, so A is not checked again."""
    rest = [j for j in range(len(labels)) if j not in piv]
    a = tuple(tuple(map(rows[r].__getitem__, rest)) for r in piv.values())
    return StandardForm(field, tuple(labels[j] for j in piv),
                        tuple(labels[j] for j in rest), GFMatrix._of_rows(field, a, len(rest)))


def standard_form(m: GFMatrix, labels: Sequence[str], basis: Iterable[str]) -> StandardForm:
    """Row-reduce so the basis columns become an identity, dropping zero rows.

    The elimination pivots on the basis columns first, then on the rest,
    all in input label order, so basis and non-basis columns both keep
    that order.  The set is a basis exactly when its columns, in order,
    are the pivot columns; otherwise NotABasisError is raised.
    """
    labels = tuple(labels)
    if len(labels) != m.cols:
        raise ValueError(f"{len(labels)} labels for {m.cols} columns")
    basis = set(basis)
    unknown = basis - set(labels)
    if unknown:
        raise ValueError(f"unknown labels in basis: {sorted(unknown)}")
    order = [j for j, l in enumerate(labels) if l in basis]
    rows = list(m.row_tuples())
    piv = _gauss_jordan(m.field, rows, order + [j for j, l in enumerate(labels) if l not in basis])
    if list(piv) != order:
        raise NotABasisError(f"columns {sorted(basis)} do not form a basis")
    return _read_standard_form(m.field, labels, rows, piv)


def _canonical_standard_form(m: GFMatrix, labels: Sequence[str]) -> StandardForm:
    """`standard_form` over the lexicographically first basis, the pivot
    columns of an elimination in column order, read off that elimination."""
    rows = list(m.row_tuples())
    return _read_standard_form(m.field, labels, rows, _gauss_jordan(m.field, rows, range(m.cols)))


# -- `.gfm` text format -------------------------------------------------------
#
# line 1: gfm q=<q> rows=<r> cols=<c> [modulus=<int>]
# line 2: optional `labels <l1> <l2> ...`
# then r lines of c integers in [0, q)


def _header_fields(tokens: list[str], line: int, error: type[ValueError]) -> dict[str, str]:
    """The `key=value` tokens of a header line; a token without `=` or a
    repeated key raises `error` naming the line."""
    fields: dict[str, str] = {}
    for tok in tokens:
        key, eq, val = tok.partition("=")
        if not eq:
            raise error(f"line {line}: malformed header token {tok!r}")
        if key in fields:
            raise error(f"line {line}: repeated header key {key!r}")
        fields[key] = val
    return fields


def parse_gfm(text: str) -> tuple[FieldSpec, GFMatrix, Optional[tuple[str, ...]]]:
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise GfmParseError("line 1: empty input, expected `gfm` header")
    head = lines[0].split()
    if head[0] != "gfm":
        raise GfmParseError(f"line 1: expected `gfm` header, got {head[0]!r}")
    fields = _header_fields(head[1:], 1, GfmParseError)
    try:
        q = int(fields["q"])
        nrows = int(fields["rows"])
        ncols = int(fields["cols"])
    except (KeyError, ValueError) as exc:
        raise GfmParseError(f"line 1: header needs integer q=, rows=, cols= ({exc})") from None
    if nrows < 0 or ncols < 0:
        raise GfmParseError(f"line 1: rows= and cols= must be >= 0, got {nrows} and {ncols}")
    modulus_code = None
    if "modulus" in fields:
        try:
            modulus_code = int(fields["modulus"])
        except ValueError:
            raise GfmParseError("line 1: modulus= must be an integer") from None
    try:
        field = field_from_order(q, modulus_code)
    except ValueError as exc:
        raise GfmParseError(f"line 1: {exc}") from None

    at = 1
    labels: Optional[tuple[str, ...]] = None
    if at < len(lines) and lines[at].split()[:1] == ["labels"]:
        labels = tuple(lines[at].split()[1:])
        if len(labels) != ncols:
            raise GfmParseError(
                f"line {at + 1}: {len(labels)} labels for {ncols} columns"
            )
        if len(set(labels)) != ncols:
            raise GfmParseError(f"line {at + 1}: labels must be distinct")
        at += 1
    elif not nrows and ncols:
        # no row or label backs the width, so it is not trusted
        raise GfmParseError(f"line 1: rows=0 and cols={ncols} need a labels line")

    rows = []  # grows as rows are read: the header's sizes are not trusted
    for i in range(nrows):
        lineno = at + i + 1
        if at + i >= len(lines):
            raise GfmParseError(f"line {lineno}: expected {nrows} matrix rows, got {i}")
        toks = lines[at + i].split()
        if len(toks) != ncols:
            raise GfmParseError(
                f"line {lineno}: expected {ncols} entries, got {len(toks)}"
            )
        row = []
        for j, tok in enumerate(toks):
            try:
                val = int(tok)
            except ValueError:
                raise GfmParseError(
                    f"line {lineno}, column {j + 1}: {tok!r} is not an integer"
                ) from None
            if not 0 <= val < q:
                raise GfmParseError(
                    f"line {lineno}, column {j + 1}: entry {val} out of range for GF({q})"
                )
            row.append(val)
        rows.append(row)
    for lineno, line in enumerate(lines[at + nrows:], start=at + nrows + 1):
        if line.strip():
            raise GfmParseError(f"line {lineno}: text after the {nrows} matrix rows")
    return field, GFMatrix(field, rows, ncols), labels


def format_gfm(field: FieldSpec, m: GFMatrix, labels: Optional[Sequence[str]] = None) -> str:
    head = f"gfm q={field.q} rows={m.rows} cols={m.cols}"
    if field.k > 1:
        head += f" modulus={field.modulus_code()}"
    out = [head]
    if labels is not None:
        out.append("labels " + " ".join(labels))
    out += [" ".join(map(str, row)) for row in m.row_tuples()]
    return "\n".join(out) + "\n"
