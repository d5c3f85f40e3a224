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

One walk lists the independent sets of a matroid as bitmasks, and on
request its small dependent sets; isomorphism profiles, rank tables and
the minor search all read from it.  A deletion's independent sets are
its parent's that miss the deleted elements, so the minor search walks
each contraction m/C once and reads the profile and short circuits of
every candidate (m/C)\\D from it by one mask test per set.

Tie-breaking is lexicographic by label throughout, and search results are
deterministic: the first witness in canonical enumeration order wins.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter
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
ENUMERATION_LIMIT = 16  # rank_table, bases, and the ground set of has_minor
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
    sub_t, mul_t, normalize = field._sub, field._mul, field.normalize

    def pack(col: tuple[int, ...]):
        return normalize(col) or 0

    def reduce(p: tuple[int, ...], cols: list) -> list:
        i = p.index(1)  # p's entries before its lead are 0
        tail = p[i:]
        out = []
        for c in cols:
            if c and c[i]:
                mrow = mul_t[c[i]]
                v = [sub_t[x][mrow[y]] if y else x for x, y in zip(c[i:], tail)]
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
    exhausting; without one, ground sets above GIRTH_LIMIT elements are
    rejected.  A cutoff below 1 is an error: no circuit is that small.
    """
    if cutoff is not None and cutoff < 1:
        raise ValueError(f"girth cutoff must be >= 1, got {cutoff}")
    n = m.size
    if cutoff is None and n > GIRTH_LIMIT:
        raise TooLargeError(
            f"exact girth limited to {GIRTH_LIMIT} elements (|E| = {n}); pass a cutoff"
        )
    if m.rank == n:
        return math.inf
    hi = m.rank + 1 if cutoff is None else min(cutoff, m.rank + 1)
    return _min_dependent_size(m._kernel, m._packed(), hi)


# -- exhaustive rank tables and bases --------------------------------------------


def _independent_masks(kern: _Kernel, cols: Sequence, dependent: Optional[list[int]] = None) -> list[int]:
    """Every independent set of the columns as a bitmask, bit j for column j.

    Given a list, also appends to it each spanned extension I + j of an
    independent I with fewer than rank(cols) columns by a later column j.
    These are dependent, and every circuit of at most rank(cols) columns
    is among them: take I to be the circuit less its last column.
    """
    r, reduce = _rank(kern, cols), kern.reduce
    out = [0]

    def rec(red: list, start: int, depth: int, mask: int) -> None:
        # red: the columns from `start` on, reduced by the `depth` chosen ones in mask
        for j, p in enumerate(red, start):
            child = mask | 1 << j
            if p:
                out.append(child)
                if depth + 1 < r:  # a basis spans every further column
                    rec(reduce(p, red[j + 1 - start:]), j + 1, depth + 1, child)
            elif dependent is not None:
                dependent.append(child)

    if r:
        rec(cols, 0, 0, 0)
    return out


def rank_table(m: RepMatroid) -> list[int]:
    """Rank of every subset, indexed by bitmask over label positions."""
    n = m.size
    if n > ENUMERATION_LIMIT:
        raise TooLargeError(f"rank_table limited to {ENUMERATION_LIMIT} elements (|E| = {n})")
    table = [0] * (1 << n)
    for s in _independent_masks(m._kernel, m._packed()):
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
    """All independent `size`-subsets, in lexicographic column-index order."""
    labels, reduce = m.labels, m._kernel.reduce
    out: list[tuple[str, ...]] = []

    def rec(red: list, start: int, chosen: tuple[str, ...]) -> None:
        # red: the columns from `start` on, reduced by the chosen ones
        need = size - len(chosen)
        for j in range(len(red) - need + 1):  # leave `need - 1` columns after j
            if red[j]:
                picked = chosen + (labels[start + j],)
                if need == 1:
                    out.append(picked)
                else:
                    rec(reduce(red[j], red[j + 1:]), start + j + 1, picked)

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
    """The dual matroid, via [-A^T | I] over the lexicographically first basis."""
    sf = _canonical_standard_form(m.matrix, m.labels)
    nb = len(sf.nonbasis_order)
    neg = m.field.neg
    col_map: dict[str, tuple[int, ...]] = {}
    for b, row in zip(sf.basis_order, sf.a.row_tuples()):
        col_map[b] = tuple(neg(x) for x in row)
    for j, e in enumerate(sf.nonbasis_order):
        col_map[e] = tuple(1 if i == j else 0 for i in range(nb))
    cols = [col_map[l] for l in m.labels]
    return RepMatroid(m.field, GFMatrix.from_cols(m.field, cols, nb), m.labels)


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


def _class_ids(m: RepMatroid) -> list[int]:
    """Per column: 0 for a loop, else an id shared exactly by its parallel class."""
    ids: dict = {0: 0}
    return [ids.setdefault(c, len(ids)) for c in m._packed()]


def simplify(m: RepMatroid) -> RepMatroid:
    """Drop loops; keep the lexicographically least label of each parallel class."""
    best: dict[int, int] = {}
    for j, cid in enumerate(_class_ids(m)):
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
    ids = _class_ids(d)  # loops of the dual are coloops, its parallel classes series classes
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


class _Profile:
    """Label-free fingerprint of a matroid, read from its independent sets
    given as bitmasks, and the bit of each of its elements: the rank, the
    basis count, and per element the number of independent sets and of
    bases holding it; those per-element pairs prune the bijection search.

    The bits need not be 1, 2, 4, ...: the independent sets of a deletion
    are those of the whole matroid that miss the deleted elements, so a
    deletion's profile comes from its parent's sets by one mask test each.
    """

    def __init__(self, indep: Sequence[int], bits: Sequence[int]):
        r = max(map(int.bit_count, indep))
        maximal = [s for s in indep if s.bit_count() == r]
        self.n, self.rank, self.n_bases, self.bits = len(bits), r, len(maximal), bits
        self.indep = set(indep)
        self.inv = [
            (sum(1 for s in indep if s & b), sum(1 for s in maximal if s & b)) for b in bits
        ]

    @classmethod
    def of(cls, kern: _Kernel, cols: Sequence) -> _Profile:
        return cls(_independent_masks(kern, cols), [1 << j for j in range(len(cols))])


def _match_profiles(pa: _Profile, pb: _Profile) -> bool:
    if (pa.n, pa.rank, pa.n_bases, len(pa.indep)) != (pb.n, pb.rank, pb.n_bases, len(pb.indep)):
        return False
    if sorted(pa.inv) != sorted(pb.inv):
        return False
    n = pa.n
    freq = Counter(pa.inv)
    order = sorted(range(n), key=lambda i: (freq[pa.inv[i]], pa.inv[i], i))
    cand = {i: [j for j in range(n) if pb.inv[j] == pa.inv[i]] for i in range(n)}
    used = [False] * n
    a_ind, b_ind = pa.indep, pb.indep
    a_bits, b_bits = pa.bits, pb.bits

    def rec(k: int, pairs: list[tuple[int, int]]) -> bool:
        if k == n:
            return True
        ai = order[k]
        abit = a_bits[ai]
        for bj in cand[ai]:
            if used[bj]:
                continue
            bbit = b_bits[bj]
            new = []
            ok = True
            for ma, mb in pairs:
                na, nb2 = ma | abit, mb | bbit
                if (na in a_ind) != (nb2 in b_ind):
                    ok = False
                    break
                new.append((na, nb2))
            if ok:
                used[bj] = True
                if rec(k + 1, pairs + new):
                    return True
                used[bj] = False
        return False

    return rec(0, [(0, 0)])


def is_isomorphic(a: RepMatroid, b: RepMatroid) -> bool:
    """Rank-function-preserving label bijection, by pruned backtracking."""
    if a.size != b.size or a.rank != b.rank:
        return False
    if a.size > ISOMORPHISM_LIMIT:
        raise TooLargeError(f"isomorphism limited to {ISOMORPHISM_LIMIT} elements (|E| = {a.size})")
    return _match_profiles(
        _Profile.of(a._kernel, a._packed()), _Profile.of(b._kernel, b._packed())
    )


# -- minor containment -------------------------------------------------------------


def _class_masks(m: RepMatroid) -> tuple[int, list[int]]:
    """The mask of m's loops and of each parallel class of two or more
    elements, bit j for column j."""
    masks: dict[int, int] = {}
    for j, cid in enumerate(_class_ids(m)):
        masks[cid] = masks.get(cid, 0) | 1 << j
    loops = masks.pop(0, 0)
    return loops, [c for c in masks.values() if c & (c - 1)]


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


@functools.lru_cache(maxsize=16)
def _weight_counts(m: RepMatroid, q: int) -> dict[int, int]:
    """{weight: count} of the 1-dimensional subspaces of the cycle space of
    any GF(q) representation of m, from its rank function alone.

    The cycle-space vectors with support inside T number q^(|T| - r(T));
    inclusion-exclusion over the subsets of each support leaves those of
    exact weight w (Greene's theorem).  Cached, as minor targets recur:
    the counts depend on q, not on m's own field.
    """
    n = m.size
    by_size = [0] * (n + 1)  # sum of q^(|T| - r(T)) over the T of each size
    for t, r in enumerate(rank_table(m)):
        k = t.bit_count()
        by_size[k] += q ** (k - r)
    counts = {}
    for w in range(1, n + 1):
        vectors = sum((-1) ** (w - k) * math.comb(n - k, w - k) * by_size[k] for k in range(w + 1))
        if vectors:
            counts[w] = vectors // (q - 1)
    return counts


@functools.lru_cache(maxsize=16)
def _target_screens(target: RepMatroid) -> tuple[_Profile, int, list[int], Optional[int]]:
    """The target's side of every minor screen: its isomorphism profile,
    loop count, sorted sizes of its parallel classes of two or more, and
    girth.  Cached, as the same targets recur across calls."""
    t_cols = target._packed()
    loops, classes = _class_masks(target)
    return (_Profile.of(target._kernel, t_cols), loops.bit_count(),
            sorted(c.bit_count() for c in classes),
            _min_dependent_size(target._kernel, t_cols, target.size))


def has_minor(m: RepMatroid, target: RepMatroid) -> Optional[tuple[frozenset[str], frozenset[str]]]:
    """Exhaustive minor search; returns (delete, contract) labels or None.

    Only independent contract sets C of size rank(m) - rank(target) are
    enumerated (every minor admits such a presentation).  A candidate
    (m/C)\\D is a deletion of the contraction m/C, so its loops, parallel
    classes, short circuits and independent sets are those of m/C that
    miss D.  Each is listed once per C as bitmasks over m/C's elements,
    and a candidate reads its own by one mask test each.  It must pass
    cheap screens before the full isomorphism test:

    - Codeword weights, when m's cycle space has at most as many
      1-dimensional subspaces as the target has independent sets (then
      scanning them costs no more than the profile they can save).  They
      are listed once.  As C is independent, the cycle space of (m/C)\\D is
      one to one with m's codewords that vanish on D, restricted to
      E - C - D, so bitmask tests give the candidate's weight counts before
      m/C is built.  They must equal the target's over m's field, which
      the target's rank function gives, whatever its own field.
    - Loop count and parallel-class sizes, from m/C's loop and class masks.
      The first candidate of C to pass them walks m/C, once, for the
      screens below.
    - Without the weight screen, no circuit shorter than the target's
      girth, from the dependent sets that small that the walk lists; the
      weights already fix the girth.
    - The number of independent sets, from those of the walk that miss
      D; the candidate's isomorphism profile is read from them.

    The target's side of each screen is built once per target and cached.
    Screens only reject, so the witness is the first in canonical order.
    """
    if m.size > ENUMERATION_LIMIT:
        raise TooLargeError(f"minor search limited to {ENUMERATION_LIMIT} elements (|E| = {m.size})")
    if target.size > MINOR_TARGET_LIMIT:
        raise TooLargeError(
            f"minor search limited to {MINOR_TARGET_LIMIT}-element targets (|E| = {target.size})"
        )
    n, q = m.size, m.field.q
    r_diff = m.rank - target.rank
    d_count = n - r_diff - target.size
    if r_diff < 0 or d_count < 0:
        return None
    t_profile, t_loops, t_classes, t_girth = _target_screens(target)
    t_count = len(t_profile.indep)
    supports = None
    if (q ** (n - m.rank) - 1) // (q - 1) <= t_count:
        supports = _codeword_supports(m)
        t_counts = _weight_counts(target, q)
        # per element, a mask over codeword indices: the codewords whose support holds it
        hits = [sum(1 << i for i, s in enumerate(supports) if s >> e & 1) for e in range(n)]
        t_girth = None
    nb = n - r_diff  # size of each contraction m/C
    dmasks = [sum(1 << j for j in didx) for didx in itertools.combinations(range(nb), d_count)]
    for cset in _independent_subsets(m, r_diff):
        if supports is not None:
            # group the codewords by their weight outside C; a candidate keeps
            # those of each group that miss D, and must keep the target's count
            cidx = m.indices_of(cset)
            cmask = sum(1 << j for j in cidx)
            by_weight: dict[int, int] = {}
            for i, s in enumerate(supports):
                w = (s & ~cmask).bit_count()
                by_weight[w] = by_weight.get(w, 0) | 1 << i
            checks = [
                (by_weight.get(w, 0), t_counts.get(w, 0))
                for w in sorted(by_weight.keys() | t_counts.keys())
            ]
            rest_hits = [hits[j] for j in range(n) if j not in cidx]
        base = family = None
        for didx, dmask in zip(itertools.combinations(range(nb), d_count), dmasks):
            if supports is not None:
                gone = 0
                for j in didx:
                    gone |= rest_hits[j]
                if any((group & ~gone).bit_count() != c for group, c in checks):
                    continue
            if base is None:
                base = minor(m, delete=(), contract=cset)
                loops, classes = _class_masks(base)
            if (loops & ~dmask).bit_count() != t_loops:
                continue
            # both sides have target.size elements and as many loops, so the
            # classes of two or more fix the count of single ones
            sizes = [c for c in [(p & ~dmask).bit_count() for p in classes] if c > 1]
            if sorted(sizes) != t_classes:
                continue
            if family is None:
                # a loop or parallel pair is already screened above, so the
                # circuits worth listing exist only for a target girth above 3
                dependent = [] if t_girth is not None and t_girth > 3 else None
                family = _independent_masks(base._kernel, base._packed(), dependent)
                short = [s for s in dependent or () if s.bit_count() < t_girth]
            if any(not s & dmask for s in short):
                continue
            indep = [s for s in family if not s & dmask]
            if len(indep) != t_count:
                continue
            bits = [1 << j for j in range(nb) if not dmask >> j & 1]
            if _match_profiles(_Profile(indep, bits), t_profile):
                dels = frozenset(base.labels[j] for j in didx)
                return (dels, frozenset(cset))
    return None


# -- .gfm load/save ----------------------------------------------------------------


def matroid_from_gfm(text: str) -> RepMatroid:
    field, mat, labels = parse_gfm(text)
    if labels is None:
        labels = tuple(f"c{j}" for j in range(mat.cols))
    return RepMatroid(field, mat, labels)


def matroid_to_gfm(m: RepMatroid) -> str:
    return format_gfm(m.field, m.matrix, m.labels)
