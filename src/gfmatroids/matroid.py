"""Represented-matroid core: rank oracle, circuits, girth, duality, minors.

A RepMatroid is the column matroid of a GFMatrix with distinct string
labels, one per column.  Rank, bases, girth and isomorphism profiles all
ask one question: is this column in the span of the columns chosen so
far?  One span kernel answers it with one operation, `reduce`: a search
that chooses a column reduces every later column by it, and passes the
reduced list down, so a column is in the span of the chosen ones exactly
when it has reduced to 0.  The field is picked once, when the kernel is
built: GF(2) columns are int bitmasks reduced word-parallel, other fields
use tuples of element codes scaled so that the first nonzero entry is 1.
Each matroid caches its columns in the kernel's form.

One walk lists the independent sets of a matroid as bitmasks; isomorphism
profiles, rank tables and the minor search all read from it, and `bases`
walks the same way over labels.  Like girth's search, each walk stops
reducing one level above its leaves: a set of r - 2 chosen columns closes
with one pair test, since two later columns extend it to an independent
r-set exactly when their reduced forms are nonzero and differ.  So a walk
needs the rank r, and its caller hands it over: the matroid's cached
rank, or the target's for a contraction m/C of the minor search.  A
deletion's independent sets are its parent's that miss the deleted
elements, so the minor search walks a contraction m/C at most once,
builds per-element masks over its independent sets with the walk, and
reads the count and profile of every candidate (m/C)\\D from those masks.
The target is walked once too: its profile's independent sets give the
rank table behind its codeword weight counts, whose least weight is its
girth g.  The girth bounds the search: D must meet every circuit of m/C
with fewer than g elements.  So the walk over contract sets drops a
prefix, with every set that extends it, once the prefix's short circuits
need more deletions than D has, and D is drawn among their hitting sets.
A target is a minor of m exactly when its dual is a minor of m*, with
delete and contract swapped, and the two searches prune differently.
When the search on m deletes at least one element and the dual side
walks fewer contract sets, `has_minor` searches (m*, target*) first:
an absent answer there is final, and a found one hands over to the
search on m, whose first witness is returned.  Each matroid computes its
dual once and keeps it.

Tie-breaking is lexicographic by label throughout, and search results are
deterministic: the first witness in canonical enumeration order wins.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .gf import FieldSpec
from .gfmatrix import (
    GFMatrix, _canonical_standard_form, _gauss_jordan, format_gfm, parse_gfm,
)


class UnknownLabelError(ValueError):
    """A label not present in the matroid's ground set."""


class TooLargeError(ValueError):
    """Instance exceeds the exact-search guard for this operation."""


# Exact-search size limits, in elements: each guard raises TooLargeError above its limit.
GIRTH_LIMIT = 24  # girth without a cutoff
# rank_table, bases and the ground set of has_minor; past GIRTH_LIMIT, girth
# without a cutoff lists at most 2^ENUMERATION_LIMIT codewords
ENUMERATION_LIMIT = 16
ISOMORPHISM_LIMIT = 12
MINOR_TARGET_LIMIT = 10


class NoCircuitError(ValueError):
    """Requested a circuit where none exists."""


class RepMatroid:
    """A matroid given by the columns of a matrix over GF(q)."""

    def __init__(self, field: FieldSpec, matrix: GFMatrix, labels: Sequence[str]):
        if matrix.field != field:
            raise ValueError("matrix field differs from matroid field")
        labels = tuple(str(l) for l in labels)
        if len(labels) != matrix.cols:
            raise ValueError(f"{len(labels)} labels for {matrix.cols} columns")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct")
        self.field = field
        self.matrix = matrix
        self.labels = labels
        self._index = {l: j for j, l in enumerate(labels)}
        self._kernel = _kernel(field)
        self._packed_cache: Optional[list] = None
        self._rank_cache: Optional[int] = None
        self._dual_cache: Optional[RepMatroid] = None

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def rank(self) -> int:
        if self._rank_cache is None:
            self._rank_cache = _rank(self._kernel, self._packed())
        return self._rank_cache

    def _packed(self) -> list:
        # columns in the span kernel's form
        if self._packed_cache is None:
            self._packed_cache = [self._kernel.pack(c) for c in self.matrix.col_tuples()]
        return self._packed_cache

    def indices_of(self, s: Iterable[str]) -> list[int]:
        out = []
        for l in s:
            j = self._index.get(l)
            if j is None:
                raise UnknownLabelError(f"unknown element {l!r}")
            out.append(j)
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RepMatroid)
            and self.field == other.field
            and self.labels == other.labels
            and self.matrix == other.matrix
        )

    def __hash__(self) -> int:
        return hash((self.field, self.labels, self.matrix))

    def __repr__(self) -> str:
        return f"RepMatroid({self.field!r}, {self.matrix.rows}x{self.matrix.cols}, n={self.size})"


# -- the span kernel ------------------------------------------------------------


class _Kernel(NamedTuple):
    """Span tests over one field, on columns in the kernel's packed form.

    `reduce(p, cols)` takes a nonzero column p and returns cols with p's
    multiple subtracted from each, so that each has a zero entry at p's
    lead.  A search that chooses columns keeps the later ones reduced by
    every column it has chosen: a column is in the span of the chosen ones
    exactly when it has reduced to 0, and two reduced columns are equal
    exactly when they are parallel modulo that span.  A zero column packs
    to 0, so a loop is falsy on both kernels.
    """

    pack: Callable[[tuple[int, ...]], object]
    reduce: Callable[[object, list], list]


def _pack2(col: Sequence[int]) -> int:
    return sum(1 << i for i, x in enumerate(col) if x)


def _reduce2(p: int, cols: list[int]) -> list[int]:
    b = p & -p
    return [c ^ p if c & b else c for c in cols]


def _kernel(field: FieldSpec) -> _Kernel:
    """GF(2) columns pack into int bitmasks, and p's lead is its lowest set
    bit; other fields keep tuples of codes scaled so that the first nonzero
    entry, the lead, is 1, and a reduced column is scaled again."""
    if field.q == 2:
        return _Kernel(_pack2, _reduce2)
    add_t, mul_t, neg_t, normalize = field._add, field._mul, field._neg, field.normalize

    def pack(col: tuple[int, ...]):
        return normalize(col) or 0

    def reduce(p: tuple[int, ...], cols: list) -> list:
        i = p.index(1)  # p's entries before its lead are 0
        tail = p[i:]
        out = []
        for c in cols:
            if c and c[i]:
                mrow = mul_t[neg_t[c[i]]]
                v = [add_t[x][mrow[y]] if y else x for x, y in zip(c[i:], tail)]
                c = normalize(c[:i] + tuple(v)) or 0
            out.append(c)
        return out

    return _Kernel(pack, reduce)


def _rank(kern: _Kernel, cols: Iterable) -> int:
    cols = [c for c in cols if c]
    r = 0
    while cols:
        r += 1
        cols = [c for c in kern.reduce(cols[0], cols[1:]) if c]
    return r


def subset_rank(m: RepMatroid, s: Iterable[str]) -> int:
    """Rank of the column submatrix selected by labels."""
    cols = m._packed()
    return _rank(m._kernel, [cols[j] for j in m.indices_of(s)])


# -- girth ---------------------------------------------------------------------


def _min_dependent_size(kern: _Kernel, cols: Sequence, limit: int) -> Optional[int]:
    """Smallest s <= limit with a dependent s-subset, scanning sizes upward.

    A size-s search chooses s - 2 columns in index order and then needs
    one test: the chosen set, independent as every smaller set is, starts
    a dependent s-set exactly when the later columns, reduced by it, hold
    a 0 or two equal entries.  Size 1 is the test `0 in cols`.
    """
    reduce = kern.reduce

    def rec(red: list, need: int) -> bool:
        # True when `need` more columns of red complete a dependent set
        if need <= 2:
            return 0 in red or need == 2 and len(set(red)) < len(red)
        for j in range(len(red) - need + 1):
            if rec(reduce(red[j], red[j + 1:]), need - 1):
                return True
        return False

    for s in range(1, limit + 1):
        if rec(cols, s):
            return s
    return None


def girth(m: RepMatroid, cutoff: Optional[int] = None):
    """Exact minimum circuit size.

    Sizes are tried upward.  Size s chooses s - 2 columns in index order
    and ends with a pair test: the later columns, reduced by the chosen
    ones, hold two equal entries exactly when they complete a circuit of
    s elements.  Returns math.inf for a free matroid.  With a cutoff,
    returns None when every circuit is larger than the cutoff instead of
    exhausting.  Without one, a ground set above GIRTH_LIMIT elements is
    answered by the least weight of a codeword, the support of a smallest
    circuit, when the cycle space has at most 2^ENUMERATION_LIMIT
    1-dimensional subspaces, and rejected otherwise.  A cutoff below 1 is
    an error: no circuit is that small.
    """
    if cutoff is not None and cutoff < 1:
        raise ValueError(f"girth cutoff must be >= 1, got {cutoff}")
    n, r, q = m.size, m.rank, m.field.q
    if r == n:
        return math.inf
    if cutoff is None and n > GIRTH_LIMIT:
        if (q ** (n - r) - 1) // (q - 1) > 1 << ENUMERATION_LIMIT:
            raise TooLargeError(
                f"exact girth limited to {GIRTH_LIMIT} elements (|E| = {n}); pass a cutoff"
            )
        return min(map(int.bit_count, _codeword_supports(m)))
    hi = r + 1 if cutoff is None else min(cutoff, r + 1)
    return _min_dependent_size(m._kernel, m._packed(), hi)


# -- exhaustive rank tables and bases --------------------------------------------


def _independent_masks(kern: _Kernel, cols: Sequence, r: int) -> list[int]:
    """Every independent set of the columns as a bitmask, bit j for column
    j, in preorder: a set comes before its extensions, and sets are ordered
    as their index tuples.  The caller supplies r, the columns' rank.

    A set of r - 2 chosen columns closes its subtree with one pair test:
    its (r - 1)-sets add a later column that has not reduced to 0, and its
    r-sets add two such columns whose reduced forms differ, as two reduced
    columns are equal exactly when they are parallel modulo the span.
    """
    reduce = kern.reduce
    out = [0]

    def rec(red: list, start: int, depth: int, mask: int) -> None:
        # red: the columns from `start` on, reduced by the `depth` chosen ones in mask
        for j, p in enumerate(red, start):
            if p:
                child = mask | 1 << j
                out.append(child)
                if depth + 2 < r:
                    rec(reduce(p, red[j + 1 - start:]), j + 1, depth + 1, child)
                elif depth + 2 == r:  # the pair close
                    out.extend(child | 1 << k
                               for k, c in enumerate(red[j + 1 - start:], j + 1) if c and c != p)

    rec(cols, 0, 0, 0)
    return out


def rank_table(m: RepMatroid) -> list[int]:
    """Rank of every subset, indexed by bitmask over label positions."""
    n = m.size
    if n > ENUMERATION_LIMIT:
        raise TooLargeError(f"rank_table limited to {ENUMERATION_LIMIT} elements (|E| = {n})")
    return _rank_table(_independent_masks(m._kernel, m._packed(), m.rank), n)


def _rank_table(indep: Iterable[int], n: int) -> list[int]:
    """Rank of every subset of n elements, from the independent sets as
    bitmasks, in any order."""
    table = [0] * (1 << n)
    for s in indep:
        table[s] = s.bit_count()
    # subset-max sweep, one element at a time: the rank of a set is the size
    # of the largest independent set inside it
    for j in range(n):
        bit = 1 << j
        for s in range(1 << n):
            if s & bit and table[s ^ bit] > table[s]:
                table[s] = table[s ^ bit]
    return table


def _independent_subsets(m: RepMatroid, size: int) -> list[tuple[str, ...]]:
    """All independent `size`-subsets, in lexicographic column-index order.

    As in `_independent_masks`, a set of size - 2 chosen columns closes
    with a pair test: it extends by two later columns whose reduced forms
    are nonzero and differ.
    """
    labels, reduce = m.labels, m._kernel.reduce
    out: list[tuple[str, ...]] = []

    def rec(red: list, start: int, chosen: tuple[str, ...]) -> None:
        # red: the columns from `start` on, reduced by the chosen ones
        need = size - len(chosen)
        for j in range(len(red) - need + 1):  # leave `need - 1` columns after j
            p = red[j]
            if p:
                picked = chosen + (labels[start + j],)
                if need == 1:
                    out.append(picked)
                elif need == 2:  # the pair close
                    out.extend(picked + (labels[start + k],)
                               for k in range(j + 1, len(red)) if red[k] and red[k] != p)
                else:
                    rec(reduce(p, red[j + 1:]), start + j + 1, picked)

    if size == 0:
        return [()]
    rec(m._packed(), 0, ())
    return out


def bases(m: RepMatroid) -> list[tuple[str, ...]]:
    """All bases, in lexicographic column-index order."""
    if m.size > ENUMERATION_LIMIT:
        raise TooLargeError(
            f"basis enumeration limited to {ENUMERATION_LIMIT} elements (|E| = {m.size})"
        )
    return _independent_subsets(m, m.rank)


# `sample_bases` stops after this many draws in a row that find no new basis,
# so a matroid with fewer bases than asked for is not drawn from 50 times per
# basis asked for.
SAMPLE_STALL_LIMIT = 1000


def sample_bases(m: RepMatroid, count: int, seed: int) -> list[tuple[str, ...]]:
    """Seeded sample of distinct bases via greedy extension of shuffled orders."""
    rng = random.Random(seed)
    n = m.size
    r = m.rank
    cols, reduce = m._packed(), m._kernel.reduce
    seen: set[tuple[str, ...]] = set()
    out: list[tuple[str, ...]] = []
    attempts = stalled = 0
    while len(out) < count and attempts < 50 * max(count, 1) and stalled < SAMPLE_STALL_LIMIT:
        attempts += 1
        stalled += 1
        order = list(range(n))
        rng.shuffle(order)
        red = [cols[j] for j in order]
        chosen = []
        for k, j in enumerate(order):
            if red[k]:
                chosen.append(j)
                if len(chosen) == r:
                    break
                red[k + 1:] = reduce(red[k], red[k + 1:])
        basis = tuple(sorted(m.labels[j] for j in chosen))
        if basis not in seen:
            seen.add(basis)
            out.append(basis)
            stalled = 0
    return out


# -- duality, minors, simplification ---------------------------------------------


def dual(m: RepMatroid) -> RepMatroid:
    """The dual matroid, via [-A^T | I] over the lexicographically first basis.

    Computed once per matroid and cached on it.  The cache points forward
    only: the dual's own dual is computed afresh, as its matrix differs
    from m's."""
    if m._dual_cache is not None:
        return m._dual_cache
    sf = _canonical_standard_form(m.matrix, m.labels)
    nb = len(sf.nonbasis_order)
    neg = m.field.neg
    col_map: dict[str, tuple[int, ...]] = {}
    for b, row in zip(sf.basis_order, sf.a.row_tuples()):
        col_map[b] = tuple(neg(x) for x in row)
    for j, e in enumerate(sf.nonbasis_order):
        col_map[e] = tuple(1 if i == j else 0 for i in range(nb))
    cols = [col_map[l] for l in m.labels]
    m._dual_cache = RepMatroid(m.field, GFMatrix.from_cols(m.field, cols, nb), m.labels)
    return m._dual_cache


def minor(m: RepMatroid, delete: Iterable[str] = (), contract: Iterable[str] = ()) -> RepMatroid:
    """Delete and contract; a dependent contract set is split, its maximal
    lexicographic independent part contracted and the rest deleted."""
    delete = set(delete)
    contract = set(contract)
    m.indices_of(delete)
    m.indices_of(contract)
    overlap = delete & contract
    if overlap:
        raise ValueError(f"delete and contract overlap: {sorted(overlap)}")
    rows = list(m.matrix.row_tuples())
    piv = _gauss_jordan(m.field, rows, [m._index[l] for l in sorted(contract)])
    # pivot rows leave with their contracted columns; a contract column
    # without a pivot depends on earlier ones and is deleted
    used = set(piv.values())
    keep_cols = [j for j, l in enumerate(m.labels) if l not in delete and l not in contract]
    new = [[row[j] for j in keep_cols] for i, row in enumerate(rows) if i not in used]
    matrix = GFMatrix(m.field, new, len(keep_cols))
    return RepMatroid(m.field, matrix, tuple(m.labels[j] for j in keep_cols))


def _class_ids(cols: Sequence) -> list[int]:
    """Per packed column: 0 for a loop, else an id shared exactly by its parallel class."""
    ids: dict = {0: 0}
    return [ids.setdefault(c, len(ids)) for c in cols]


def simplify(m: RepMatroid) -> RepMatroid:
    """Drop loops; keep the lexicographically least label of each parallel class."""
    best: dict[int, int] = {}
    for j, cid in enumerate(_class_ids(m._packed())):
        if cid and (cid not in best or m.labels[j] < m.labels[best[cid]]):
            best[cid] = j
    idx = sorted(best.values())
    return RepMatroid(
        m.field,
        m.matrix.take_cols(idx),
        tuple(m.labels[j] for j in idx),
    )


def cosimple_certificate(m: RepMatroid) -> Optional[tuple[str, tuple[str, ...]]]:
    """None when cosimple; else ("coloop", (e,)) or ("series_pair", (e, e')).

    Convention: any coloop or series pair disqualifies, so nonempty free
    matroids are never cosimple (every element is a coloop).
    """
    d = dual(m)
    ids = _class_ids(d._packed())  # loops of the dual are coloops, its parallel classes series classes
    if 0 in ids:
        return ("coloop", (d.labels[ids.index(0)],))
    first: dict[int, str] = {}
    for lab, cid in zip(d.labels, ids):
        if cid in first:
            return ("series_pair", (first[cid], lab))
        first[cid] = lab
    return None


def is_cosimple(m: RepMatroid) -> bool:
    return cosimple_certificate(m) is None


# -- circuits --------------------------------------------------------------------


def circuit_of_dependent(m: RepMatroid, s: Iterable[str]) -> frozenset[str]:
    """Shrink a dependent set to a circuit, removing labels in sorted order."""
    current = set(s)
    m.indices_of(current)
    if subset_rank(m, current) == len(current):
        raise NoCircuitError(f"set {sorted(current)} is independent")
    for e in sorted(current):
        trial = current - {e}
        if subset_rank(m, trial) < len(trial):
            current = trial
    return frozenset(current)


def is_circuit(m: RepMatroid, s: Iterable[str]) -> bool:
    s = set(s)
    if not s or subset_rank(m, s) == len(s):
        return False
    return all(
        subset_rank(m, s - {e}) == len(s) - 1
        for e in s
    )


# -- isomorphism -----------------------------------------------------------------


def _element_masks(sets: Sequence[int], bits: Sequence[int]) -> list[int]:
    """Per bit b of `bits`, a mask over positions in `sets`: bit i is set
    when sets[i] holds b.  The sets are written out as one binary string,
    and each bit's column of it is read back as one int."""
    if not bits:
        return []
    if not sets:
        return [0] * len(bits)
    width = max(bits).bit_length()
    step = width + 3  # each set as bin(top | s): "0b1", then its bits, highest first
    text = "".join(map(bin, map((1 << width).__or__, reversed(sets))))
    return [int(text[step - b.bit_length()::step], 2) for b in bits]


def _size_mask(sets: Sequence[int], size: int) -> int:
    """A mask over positions in `sets`: bit i is set when sets[i] has `size`
    elements.  The set sizes are written out as bytes, and translated to
    binary digits."""
    digits = b"0" * size + b"1" + b"0" * (255 - size)  # byte k to b"1" exactly for k = size
    return int(bytes(map(int.bit_count, reversed(sets))).translate(digits), 2)


class _Profile:
    """Label-free fingerprint of a matroid, read from its independent sets
    given as bitmasks, and the bit of each of its elements: the rank, the
    basis count, per pair of elements the number of independent sets
    holding both, and per element the number of independent sets and of
    bases holding it and the sorted counts of its pairs; the pair counts
    prune the bijection search.

    The bits need not be 1, 2, 4, ...: the independent sets of a deletion
    are those of the whole matroid that miss the deleted elements, so a
    deletion's profile comes from its parent's sets by one mask test each.
    """

    def __init__(self, indep: Sequence[int], bits: Sequence[int], elem: list[int], bases: int):
        # elem (per bit) and bases are masks over one numbering of the sets
        r = max(map(int.bit_count, indep))
        self.n, self.rank, self.n_bases, self.bits = len(bits), r, bases.bit_count(), bits
        self.indep = set(indep)
        self.pair = [[(a & b).bit_count() for b in elem] for a in elem]
        self.inv = [
            (e.bit_count(), (e & bases).bit_count(), tuple(sorted(row)))
            for e, row in zip(elem, self.pair)
        ]

    @classmethod
    def of(cls, m: RepMatroid) -> _Profile:
        # the masks number the sets by their position in the walk
        indep = _independent_masks(m._kernel, m._packed(), m.rank)
        bits = [1 << j for j in range(m.size)]
        return cls(indep, bits, _element_masks(indep, bits), _size_mask(indep, m.rank))


def _match_profiles(pa: _Profile, pb: _Profile) -> bool:
    """Whether some bijection maps a's independent sets onto b's.

    Elements of a are placed one at a time, always the one with the fewest
    images left.  An image must share the element's invariants, and its
    pair count with each placed image must equal the element's with that
    image's preimage; placing an element prunes every other's images by
    that test.  The order thus follows the structure, not the column
    order.  Each placement then checks the independent sets it extends:
    only those of the placed elements that are independent on both sides,
    as a dependent set stays dependent.
    """
    if (pa.n, pa.rank, pa.n_bases, len(pa.indep)) != (pb.n, pb.rank, pb.n_bases, len(pb.indep)):
        return False
    if sorted(pa.inv) != sorted(pb.inv):
        return False
    a_ind, b_ind = pa.indep, pb.indep
    a_bits, b_bits = pa.bits, pb.bits
    a_pair, b_pair = pa.pair, pb.pair

    def rec(images: dict[int, list[int]], pairs: list[tuple[int, int]]) -> bool:
        # images: each unplaced element of a with its possible images in b;
        # pairs: each independent set of placed elements with its image
        if not images:
            return True
        i = min(images, key=lambda u: len(images[u]))
        abit, arow = a_bits[i], a_pair[i]
        for j in images[i]:
            bbit, brow = b_bits[j], b_pair[j]
            rest = {}
            for u, imgs in images.items():
                if u != i:
                    rest[u] = [v for v in imgs if v != j and brow[v] == arow[u]]
                    if not rest[u]:
                        break
            else:
                new = []
                for ma, mb in pairs:
                    na, nb = ma | abit, mb | bbit
                    ia = na in a_ind
                    if ia != (nb in b_ind):
                        break
                    if ia:
                        new.append((na, nb))
                else:
                    if rec(rest, pairs + new):
                        return True
        return False

    return rec({i: [j for j in range(pb.n) if pb.inv[j] == inv] for i, inv in enumerate(pa.inv)},
               [(0, 0)])


def is_isomorphic(a: RepMatroid, b: RepMatroid) -> bool:
    """Rank-function-preserving label bijection, by pruned backtracking."""
    if a.size != b.size or a.rank != b.rank:
        return False
    if a.size > ISOMORPHISM_LIMIT:
        raise TooLargeError(f"isomorphism limited to {ISOMORPHISM_LIMIT} elements (|E| = {a.size})")
    return _match_profiles(_Profile.of(a), _Profile.of(b))


# -- minor containment -------------------------------------------------------------


def _codeword_supports(m: RepMatroid) -> list[int]:
    """Support bitmask (bit j for column j) of one codeword per 1-dimensional
    subspace of m's cycle space, the null space of its matrix.

    The rows of dual(m)'s matrix span that space.  Over GF(2) every nonzero
    combination is listed in Gray-code order, one XOR per step; over other
    fields, one vector per projective point, with leading coefficient 1.
    """
    rows = dual(m).matrix.row_tuples()
    if m.field.q == 2:
        packed = [_pack2(r) for r in rows]
        out, s = [], 0
        for i in range(1, 1 << len(packed)):
            s ^= packed[(i & -i).bit_length() - 1]
            out.append(s)
        return out
    add, mul = m.field._add, m.field._mul
    out = []
    for i, lead in enumerate(rows):
        vecs = [lead]
        for row in rows[i + 1:]:
            vecs = [
                [add[x][mul[c][y]] for x, y in zip(v, row)] for v in vecs for c in range(m.field.q)
            ]
        out += [_pack2(v) for v in vecs]
    return out


def _weight_counts(ranks: Sequence[int], q: int) -> dict[int, int]:
    """{weight: count} of the 1-dimensional subspaces of the cycle space of
    any GF(q) representation of a matroid, from its rank table alone.

    The cycle-space vectors with support inside T number q^(|T| - r(T));
    inclusion-exclusion over the subsets of each support leaves those of
    exact weight w (Greene's theorem).  The counts depend on q, not on the
    matroid's own field, and the least weight is its girth: a set smaller than every
    circuit counts 0, and a circuit counts q - 1.
    """
    n = len(ranks).bit_length() - 1
    by_size = [0] * (n + 1)  # sum of q^(|T| - r(T)) over the T of each size
    for t, r in enumerate(ranks):
        k = t.bit_count()
        by_size[k] += q ** (k - r)
    counts = {}
    for w in range(1, n + 1):
        vectors = sum((-1) ** (w - k) * math.comb(n - k, w - k) * by_size[k] for k in range(w + 1))
        if vectors:
            counts[w] = vectors // (q - 1)
    return counts


@functools.lru_cache(maxsize=16)
def _target_screens(target: RepMatroid, q: int) -> tuple[_Profile, dict[int, int], float]:
    """The target's side of every minor screen over GF(q), from one walk of
    its independent sets: its isomorphism profile, the codeword weight
    counts of the rank table those sets give, and its girth, the least
    weight (math.inf when free).  Cached, as the same targets recur."""
    profile = _Profile.of(target)
    counts = _weight_counts(_rank_table(profile.indep, target.size), q)
    return profile, counts, min(counts, default=math.inf)


def _forced_deletions(red: list, depth: int, g: float, words: list[int]) -> int:
    """A lower bound on the deletions that the circuits of m/P with fewer
    than g elements force, P of `depth` elements.  From m's columns
    reduced by P: its loops, and its parallel classes less one element
    each.  When m's codewords are listed, raised to a packing of the parts
    outside P of the short ones: each disjoint from the others, taken
    greedily, smallest first."""
    if g <= 1:
        return 0
    if g == 2:
        need = red.count(0) - depth  # the loops: P's own columns reduce to 0 too
    else:
        distinct = set(red)
        need = len(red) - depth - len(distinct) + (0 in distinct)
    packed = covered = 0
    for w in sorted(words, key=int.bit_count):
        if w.bit_count() >= g:
            break
        if not w & covered:
            covered |= w
            packed += 1
    return max(need, packed)


def _contract_sets(m: RepMatroid, size: int, g: float, d_count: int, supports: Optional[list[int]]):
    """Yield (C, columns, words): each independent `size`-subset C of m's
    columns whose short circuits need at most d_count deletions, in
    lexicographic column-index order, as a bitmask, with m's columns
    reduced by C and, when m's codeword supports are given, their parts
    outside C of fewer than g elements.

    A depth-first walk chooses C's columns in index order, and reduces all
    of m's columns by each chosen column, as `_independent_subsets` does.
    It carries the codewords' parts outside the prefix P, keeping those
    that can still come within g elements of C.  A dependent set X of m/P
    leaves X - C dependent in m/C, and its circuits there must meet the
    deletion set when smaller than g; so once the short circuits of m/P
    force more than d_count deletions, the walk skips P and every
    extension of it.
    """
    n, reduce = m.size, m._kernel.reduce

    def rec(red: list, start: int, depth: int, pmask: int, words: list[int]):
        if _forced_deletions(red, depth, g, words) > d_count:
            return
        if depth == size:
            yield pmask, red, words
            return
        slack = size - depth - 1  # columns still to choose after the next
        for j in range(start, n - slack):
            if red[j]:
                keep = ~(1 << j)
                kept = [o for o in (w & keep for w in words) if o.bit_count() - slack < g]
                yield from rec(reduce(red[j], red), j + 1, depth + 1, pmask | 1 << j, kept)

    return rec(list(m._packed()), 0, 0, 0, [w for w in supports or () if w.bit_count() - size < g])


def _short_dependent_sets(kern: _Kernel, cols: Sequence, limit: float) -> list[int]:
    """Dependent sets of at most `limit` columns, as bitmasks, that hold
    every circuit that small.  For each independent I of at most limit - 2
    columns, chosen in index order: I plus a later column that reduces to
    0 by I, and I plus two later columns that reduce to the same column,
    parallel modulo I's span (a circuit is its first columns plus two)."""
    out: list[int] = []

    def rec(red: list, start: int, mask: int, room: float) -> None:
        # red: the columns from `start` on, reduced by the ones in mask
        seen: dict = {}
        for j, c in enumerate(red, start):
            if not c:
                out.append(mask | 1 << j)
            elif room >= 2:
                out.extend(mask | 1 << i | 1 << j for i in seen.get(c, ()))
                seen.setdefault(c, []).append(j)
        if room > 2:  # a further column leaves room for a pair
            for k, c in enumerate(red):
                if c:
                    rec(kern.reduce(c, red[k + 1:]), start + k + 1, mask | 1 << start + k, room - 1)

    if limit >= 1:
        rec(list(cols), 0, 0, limit)
    return out


def _hitting_sets(n: int, k: int, sets: Iterable[int]):
    """Yield (indices, mask) for the k-subsets of range(n) that meet every
    mask in `sets`, in itertools.combinations order: with no mask to meet,
    every k-subset, the empty one for k = 0.  A subset's elements are
    chosen in increasing order: an element past the last bit of a set not
    yet met would leave it unmet, and the last element must lie in every
    set not yet met."""
    sets = list(sets)

    def rec(start: int, need: int, chosen: tuple[int, ...], mask: int, unmet: list[int]):
        if need == 1:
            last = functools.reduce(operator.and_, unmet, (1 << n) - 1) >> start << start
            while last:
                bit = last & -last
                last ^= bit
                yield chosen + (bit.bit_length() - 1,), mask | bit
            return
        stop = min(s.bit_length() for s in unmet) if unmet else n
        for j in range(start, min(stop, n - need + 1)):
            bit = 1 << j
            yield from rec(j + 1, need - 1, chosen + (j,), mask | bit,
                           [s for s in unmet if not s & bit])

    if k:
        yield from rec(0, k, (), 0, sets)
    elif not sets:
        yield (), 0


def has_minor(m: RepMatroid, target: RepMatroid) -> Optional[tuple[frozenset[str], frozenset[str]]]:
    """Exhaustive minor search; returns (delete, contract) labels or None.

    The witness is the first in the canonical order of `_minor_search` on
    m itself, which makes r_diff = r(m) - r(target) contractions and
    d = n - r_diff - |target| deletions, n = |E(m)|.  The target is a
    minor of m exactly when its dual is a minor of m*, with delete and
    contract swapped: (m/C)\\D is isomorphic to the target if and only if
    (m*\\C)/D is isomorphic to its dual.  So the search on (m*, target*),
    which contracts d elements, decides the same question; it runs first
    exactly when 0 < d and C(n, d) < C(n, r_diff), as it then walks fewer
    contract sets.  If it finds no witness, the answer is None; if it
    finds one, the search on m runs for the canonical witness, so no
    answer depends on the side that decided.  At d = 0 the direct side is
    already at its strongest bound: any short circuit of m/P leaves no
    deletion to meet it, so the walk drops the prefix P.
    """
    if m.size > ENUMERATION_LIMIT:
        raise TooLargeError(f"minor search limited to {ENUMERATION_LIMIT} elements (|E| = {m.size})")
    if target.size > MINOR_TARGET_LIMIT:
        raise TooLargeError(
            f"minor search limited to {MINOR_TARGET_LIMIT}-element targets (|E| = {target.size})"
        )
    n = m.size
    r_diff = m.rank - target.rank
    d_count = n - r_diff - target.size
    if r_diff < 0 or d_count < 0:
        return None
    if 0 < d_count and math.comb(n, d_count) < math.comb(n, r_diff):
        if _minor_search(dual(m), dual(target)) is None:
            return None
    return _minor_search(m, target)


def _minor_search(m: RepMatroid, target: RepMatroid) -> Optional[tuple[frozenset[str], frozenset[str]]]:
    """The first (delete, contract) witness of the target in m in canonical
    order, or None; has_minor's guards hold.

    Only independent contract sets C of size rank(m) - rank(target) are
    enumerated (every minor admits such a presentation), with deletion
    sets D of the size left over.  Both are bounded by the target's girth
    g: a candidate (m/C)\\D isomorphic to the target has no circuit of
    fewer than g elements, so D meets every such circuit of m/C.

    - Contract sets come from one depth-first walk in lexicographic order
      that reduces m's columns by each chosen column, so it yields m/C's
      columns with C, and drops a prefix P and its whole subtree once
      m/P's disjoint short circuits need more than |D| deletions: a
      dependent set of m/P stays dependent in m/C less the rest of C.
      Those circuits are m/P's loops and repeated reduced columns and,
      when m's codewords are listed, its short codewords, which the walk
      carries outside P; the larger of the two counts bounds P.
    - Deletion sets are enumerated in itertools.combinations order among
      the hitting sets of the short circuits of m/C: its short codewords
      when listed, and otherwise the short dependent sets that a search
      of m/C's columns up to size g - 1 lists, loops and parallel pairs
      first.

    A candidate is a deletion of m/C, so its independent sets are those of
    m/C that miss D, read by one mask test each.  It must pass cheap
    screens before the full isomorphism test:

    - Codeword weights, when m's cycle space has at most as many
      1-dimensional subspaces as the target has independent sets (then
      scanning them costs no more than the profile they can save).  They
      are listed once.  As C is independent, the cycle space of (m/C)\\D is
      one to one with m's codewords that vanish on D, restricted to
      E - C - D, so bitmask tests give the candidate's weight counts before
      m/C is walked.  They must equal the target's over m's field, which
      the target's rank function gives, whatever its own field.
    - The number of independent sets, from per-element masks over the sets
      of a walk of m/C, which also give the candidate's isomorphism
      profile.  The first candidate of C to get here walks m/C, once, and
      builds the masks with the walk.

    Loops and parallel classes need no screen of their own: when g >= 2
    the hitting sets delete every loop of m/C, and the profile match
    decides the rest exactly, as a loop lies in no independent set.
    The target's side of each screen, its girth included, comes from one
    walk of the target, once per target and field, and is cached.
    Screens and bounds only reject, so the witness is the first in
    canonical order.
    """
    n, q = m.size, m.field.q
    r_diff = m.rank - target.rank
    d_count = n - r_diff - target.size
    t_profile, t_counts, g = _target_screens(target, q)
    t_count = len(t_profile.indep)
    supports = None
    if (q ** (n - m.rank) - 1) // (q - 1) <= t_count:
        supports = _codeword_supports(m)
        # per element, a mask over codeword indices: the codewords whose support holds it
        hits = _element_masks(supports, [1 << e for e in range(n)])
    nb = n - r_diff  # size of each contraction m/C
    for cmask, red, words in _contract_sets(m, r_diff, g, d_count, supports):
        rest = [j for j in range(n) if not cmask >> j & 1]  # m/C's elements, in m's indices
        cols = [red[j] for j in rest]  # m/C's columns
        checks = family = None
        # the short circuits of m/C, as masks over its elements
        if supports is None:
            short = _short_dependent_sets(m._kernel, cols, g - 1)
        else:
            short = [sum(1 << k for k, j in enumerate(rest) if w >> j & 1) for w in words]
        for didx, dmask in _hitting_sets(nb, d_count, short):
            if supports is not None:
                if checks is None:
                    # group the codewords by their weight outside C; a candidate keeps
                    # those of each group that miss D, and must keep the target's count
                    by_weight: dict[int, int] = {}
                    for i, s in enumerate(supports):
                        w = (s & ~cmask).bit_count()
                        by_weight[w] = by_weight.get(w, 0) | 1 << i
                    checks = [
                        (by_weight.get(w, 0), t_counts.get(w, 0))
                        for w in sorted(by_weight.keys() | t_counts.keys())
                    ]
                    rest_hits = [hits[j] for j in rest]
                gone = 0
                for j in didx:
                    gone |= rest_hits[j]
                if any((group & ~gone).bit_count() != c for group, c in checks):
                    continue
            if family is None:
                # the first candidate of C to get here walks m/C, once, and
                # builds per-element masks over the walk's sets
                family = _independent_masks(m._kernel, cols, target.rank)  # m/C has the target's rank
                elem = _element_masks(family, [1 << j for j in range(nb)])
                bases = _size_mask(family, target.rank)
            gone = 0
            for j in didx:
                gone |= elem[j]
            keep = ~gone & (1 << len(family)) - 1
            if keep.bit_count() != t_count:
                continue
            kept = [j for j in range(nb) if not dmask >> j & 1]
            profile = _Profile([s for s in family if not s & dmask], [1 << j for j in kept],
                               [elem[j] & keep for j in kept], bases & keep)
            if _match_profiles(profile, t_profile):
                return (frozenset(m.labels[rest[j]] for j in didx),
                        frozenset(m.labels[j] for j in range(n) if cmask >> j & 1))
    return None


# -- .gfm load/save ----------------------------------------------------------------


def matroid_from_gfm(text: str) -> RepMatroid:
    field, mat, labels = parse_gfm(text)
    if labels is None:
        labels = tuple(f"c{j}" for j in range(mat.cols))
    return RepMatroid(field, mat, labels)


def matroid_to_gfm(m: RepMatroid) -> str:
    return format_gfm(m.field, m.matrix, m.labels)
