"""Dense matrices over GF(q): row reduction, span tests, standard form.

Entries are stored row-major in a read-only numpy uint8 array of element
codes; numpy is only the storage.  One Gauss-Jordan step, `_pivot`, on
lists of rows and the field's operation tables, serves every reduction: the
caller names the columns, in order, and each pivots on the first row not
yet used that is nonzero there, so every reduced form is reproducible.
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
    """Immutable dense matrix over a FieldSpec."""

    __slots__ = ("field", "data")

    def __init__(self, field: FieldSpec, data):
        raw = np.array(data, dtype=np.int64)
        if raw.ndim != 2:
            raise ValueError(f"matrix data must be 2-D, got shape {raw.shape}")
        if raw.size and (int(raw.min()) < 0 or int(raw.max()) >= field.q):
            bad = int(raw.min()) if int(raw.min()) < 0 else int(raw.max())
            raise ValueError(f"entry {bad} out of range for GF({field.q})")
        arr = raw.astype(np.uint8)
        arr.flags.writeable = False
        self.field = field
        self.data = arr

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "GFMatrix":
        return cls(field, np.zeros((rows, cols), dtype=np.uint8))

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "GFMatrix":
        return cls(field, np.eye(n, dtype=np.uint8))

    @classmethod
    def from_cols(cls, field: FieldSpec, cols: Sequence[Sequence[int]], rows: int) -> "GFMatrix":
        arr = np.zeros((rows, len(cols)), dtype=np.int64)
        for j, col in enumerate(cols):
            for i, v in enumerate(col):
                arr[i, j] = v
        return cls(field, arr)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def col_tuples(self) -> list[tuple[int, ...]]:
        if not self.rows:
            return [()] * self.cols
        return list(zip(*self.data.tolist()))

    def row_tuples(self) -> list[tuple[int, ...]]:
        return [tuple(row) for row in self.data.tolist()]

    def transpose(self) -> "GFMatrix":
        return GFMatrix(self.field, self.data.T.copy())

    def take_cols(self, idx: Iterable[int]) -> "GFMatrix":
        return GFMatrix(self.field, self.data[:, list(idx)].copy())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GFMatrix)
            and self.field == other.field
            and self.data.shape == other.data.shape
            and bool(np.array_equal(self.data, other.data))
        )

    def __hash__(self) -> int:
        return hash((self.field, self.data.shape, self.data.tobytes()))

    def __repr__(self) -> str:
        return f"GFMatrix({self.field!r}, {self.data.tolist()})"


@dataclass(frozen=True)
class RrefResult:
    matrix: GFMatrix
    rank: int
    pivot_cols: tuple[int, ...]


def _rows_matrix(field: FieldSpec, rows: list, ncols: int) -> GFMatrix:
    """GFMatrix of a list of rows; no rows still gives `ncols` columns."""
    return GFMatrix(field, rows) if rows else GFMatrix.zeros(field, 0, ncols)


def _pivot(field: FieldSpec, rows: list, free: list[int], c: int) -> Optional[int]:
    """One Gauss-Jordan step: pivot column `c` on the first row of `free`
    (the rows without a pivot, in order) that is nonzero there.

    That row leaves `free` and is scaled so the pivot is 1, and the column
    is cleared in every other row.  Changed rows are replaced by new lists
    and rows keep their places.  Returns the pivot row, or None (changing
    nothing) when `c` is zero on every free row.
    """
    for k, r in enumerate(free):
        if rows[r][c]:
            break
    else:
        return None
    del free[k]
    sub_t, mul_t = field._sub, field._mul
    prow = rows[r]
    if prow[c] != 1:
        mrow = mul_t[field._inv[prow[c]]]
        prow = rows[r] = [mrow[y] for y in prow]
    for i, row in enumerate(rows):
        e = row[c]
        if e and i != r:
            mrow = mul_t[e]
            rows[i] = [sub_t[x][mrow[y]] if y else x for x, y in zip(row, prow)]
    return r


def _gauss_jordan(field: FieldSpec, rows: list, cols: Iterable[int]) -> dict[int, int]:
    """Gauss-Jordan elimination on `rows`, pivoting on `cols` in the given order.

    Each column is one `_pivot` step.  Returns {column: pivot row} in pivot
    order; a column without a pivot is spanned by the pivot columns before it.
    """
    free = list(range(len(rows)))
    piv: dict[int, int] = {}
    for c in cols:
        if not free:
            break
        r = _pivot(field, rows, free, c)
        if r is not None:
            piv[c] = r
    return piv


def rref(m: GFMatrix) -> RrefResult:
    """Reduced row echelon form.  Zero rows are retained in the output."""
    rows = m.data.tolist()
    piv = _gauss_jordan(m.field, rows, range(m.cols))
    # every column was offered a pivot, so the rows without one are zero
    out = [rows[r] for r in piv.values()] + [[0] * m.cols] * (m.rows - len(piv))
    return RrefResult(_rows_matrix(m.field, out, m.cols), len(piv), tuple(piv))


@dataclass(frozen=True)
class StandardForm:
    """Basis-indexed representation [I | A].

    Row i of `a` corresponds to basis_order[i]; column j to nonbasis_order[j].
    """

    field: FieldSpec
    basis_order: tuple[str, ...]
    nonbasis_order: tuple[str, ...]
    a: GFMatrix

    def assemble(self) -> tuple[GFMatrix, tuple[str, ...]]:
        """Rebuild the full [I | A] matrix with its column labels."""
        r = len(self.basis_order)
        eye = np.eye(r, dtype=np.uint8)
        full = np.hstack([eye, self.a.data]) if self.a.cols else eye
        return GFMatrix(self.field, full), self.basis_order + self.nonbasis_order


def _standard_form_rows(
    field: FieldSpec, rows: Sequence[Sequence[int]], ncols: int,
    labels: Sequence[str], basis: Iterable[str],
) -> tuple[tuple[str, ...], tuple[str, ...], list[list[int]]]:
    """`standard_form` on a list of rows, without building a GFMatrix.

    Returns (basis_order, nonbasis_order, rows of A); `rows` is not changed.
    """
    labels = tuple(labels)
    if len(labels) != ncols:
        raise ValueError(f"{len(labels)} labels for {ncols} columns")
    basis = set(basis)
    unknown = basis - set(labels)
    if unknown:
        raise ValueError(f"unknown labels in basis: {sorted(unknown)}")
    basis_order = tuple(l for l in labels if l in basis)
    nonbasis_order = tuple(l for l in labels if l not in basis)
    index = {l: j for j, l in enumerate(labels)}
    perm = [index[l] for l in basis_order] + [index[l] for l in nonbasis_order]
    work = [[row[j] for j in perm] for row in rows]
    piv = _gauss_jordan(field, work, range(ncols))
    # pivots span all columns, so len(piv) is the full matrix rank; a
    # basis must claim exactly those pivots within its own column block
    nb = len(basis_order)
    if len(piv) != nb or any(p >= nb for p in piv):
        raise NotABasisError(f"columns {sorted(basis)} do not form a basis")
    return basis_order, nonbasis_order, [work[r][nb:] for r in piv.values()]


def standard_form(m: GFMatrix, labels: Sequence[str], basis: Iterable[str]) -> StandardForm:
    """Row-reduce so the basis columns become an identity, dropping zero rows.

    Basis and non-basis columns both keep the input label order.  Raises
    NotABasisError when the claimed basis is dependent or not spanning.
    """
    basis_order, nonbasis_order, a = _standard_form_rows(
        m.field, m.data.tolist(), m.cols, labels, basis)
    return StandardForm(m.field, basis_order, nonbasis_order,
                        _rows_matrix(m.field, a, len(nonbasis_order)))


def in_span(m: GFMatrix, cols: Sequence[int], v: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Coefficients expressing v over the selected columns, or None.

    The returned tuple is indexed like `cols`; free coefficients are 0.
    """
    if len(v) != m.rows:
        raise ValueError(f"vector length {len(v)} != {m.rows} rows")
    cols = list(cols)
    aug = [[row[c] for c in cols] + [m.field.check(int(x))]
           for row, x in zip(m.data.tolist(), v)]
    piv = _gauss_jordan(m.field, aug, range(len(cols) + 1))
    if len(cols) in piv:
        return None
    coeffs = [0] * len(cols)
    for c, r in piv.items():
        coeffs[c] = aug[r][-1]
    return tuple(coeffs)


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
        at += 1

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
    return field, _rows_matrix(field, rows, ncols), labels


def format_gfm(field: FieldSpec, m: GFMatrix, labels: Optional[Sequence[str]] = None) -> str:
    head = f"gfm q={field.q} rows={m.rows} cols={m.cols}"
    if field.k > 1:
        head += f" modulus={field.modulus_code()}"
    out = [head]
    if labels is not None:
        out.append("labels " + " ".join(labels))
    for i in range(m.rows):
        out.append(" ".join(str(int(x)) for x in m.data[i]))
    return "\n".join(out) + "\n"
