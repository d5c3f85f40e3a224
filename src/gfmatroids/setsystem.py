"""The set system attached to a standard form [I | A].

The ground set V is (basis element b, nonzero value alpha), ordered basis
first, value codes 1..q-1 second, so bitsets are comparable across runs.
Each non-basis element e contributes the set F_e of pairs (b, A[b,e]) with
a nonzero entry.  Two elements get the same set exactly when their columns
are equal.

One closest-pair scan, `_closest_pairs`, serves `separation`, which the
`separation` command runs on the canonical basis, and the short-circuit
harness in `pipeline`, on the column masks of each basis it scans.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Optional

from .gf import FieldSpec
from .gfmatrix import StandardForm, _canonical_standard_form


class InsufficientFamilyError(ValueError):
    """Pairwise analyses need at least two member sets."""


SHATTER_LIMIT = 10**7  # most ground subsets an exact `shatter` enumerates


GroundPair = tuple[str, int]


class SetSystem:
    """Bitset-backed family {F_e} on V = basis x nonzero field values.

    Row i of the basis owns the q-1 bits from i*(q-1) up, one per nonzero
    value.  Beside each member's mask M_e the system keeps its row support
    N_e: bit i*(q-1) set exactly when row i of the column is nonzero.
    `build_set_system` sets both from the columns of A.
    """

    def __init__(self, field: FieldSpec, basis_order: tuple[str, ...],
                 members: list[tuple[str, int]], support: dict[str, int]):
        self.field = field
        self.basis_order = basis_order
        self.members = tuple(members)  # (nonbasis label, bitset) in column order
        self._by_label = dict(members)
        self._support = support  # nonbasis label -> N_e

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.members)

    @cached_property
    def ground(self) -> tuple[GroundPair, ...]:
        return tuple((b, a) for b in self.basis_order for a in range(1, self.field.q))

    @cached_property
    def _ground_pos(self) -> dict[GroundPair, int]:
        return {pair: i for i, pair in enumerate(self.ground)}

    def mask_of(self, label: str) -> int:
        return self._by_label[label]

    def ground_mask(self, pairs: Iterable[GroundPair]) -> int:
        mask = 0
        for p in pairs:
            pos = self._ground_pos.get(tuple(p))
            if pos is None:
                raise ValueError(f"{p!r} is not a ground element")
            mask |= 1 << pos
        return mask


def build_set_system(sf: StandardForm) -> SetSystem:
    per = sf.field.q - 1
    members, support = [], {}
    for label, col in zip(sf.nonbasis_order, sf.a.col_tuples()):
        mask = nz = 0
        for i, v in enumerate(col):
            if v:
                row = 1 << i * per
                nz |= row
                mask |= row << v - 1
        members.append((label, mask))
        support[label] = nz
    return SetSystem(sf.field, sf.basis_order, members, support)


def canonical_system(m) -> tuple[StandardForm, SetSystem]:
    """Standard form of a matroid over its lexicographically first basis
    (the pivot columns of its rref), and the set system of that form."""
    sf = _canonical_standard_form(m.matrix, m.labels)
    return sf, build_set_system(sf)


def sym_diff_size(s: SetSystem, e: str, f: str) -> int:
    return (s.mask_of(e) ^ s.mask_of(f)).bit_count()


def hamming_distance(s: SetSystem, e: str, f: str) -> int:
    """Number of basis rows where the two underlying columns differ.

    Those are the rows where either column is nonzero, less the rows where
    both hold the same nonzero value, which are the bits of M_e & M_f.
    """
    return ((s._support[e] | s._support[f]).bit_count()
            - (s.mask_of(e) & s.mask_of(f)).bit_count())


def trace_count(s: SetSystem, w: Iterable[GroundPair]) -> int:
    """Number of distinct traces F_e intersected with w."""
    wmask = s.ground_mask(w)
    return len({mask & wmask for _, mask in s.members})


@dataclass(frozen=True)
class ShatterResult:
    value: int
    exact: bool
    m: int
    subsets_checked: int


def shatter(s: SetSystem, m: int, trials: Optional[int] = None, seed: int = 0) -> ShatterResult:
    """Maximum trace count over m-element ground subsets.

    Without `trials`, all C(|V|, m) subsets are enumerated and the value is
    exact; more than `SHATTER_LIMIT` of them is a ValueError, unless the
    family is empty and every trace count 0.  Exact mode stops at the first
    subset that reaches the family's distinct members, or 2^m.  With
    `trials`, that many seeded random subsets give a lower bound.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if trials is not None and trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    g = len(s.ground)
    m = min(m, g)
    masks = [mask for _, mask in s.members]
    distinct_total = len(set(masks))
    ceiling = min(2**m if m < 60 else distinct_total, distinct_total)
    exact = trials is None
    if exact:
        n_subsets = math.comb(g, m)
        if n_subsets > SHATTER_LIMIT and ceiling:
            raise ValueError(
                f"exact shatter needs {n_subsets} subsets, over the limit {SHATTER_LIMIT}"
            )
        subsets = combinations(range(g), m)
    else:
        rng = random.Random(seed)
        subsets = (rng.sample(range(g), m) for _ in range(trials))
    best = 0
    checked = 0
    for combo in subsets:
        wmask = sum(1 << i for i in combo)
        checked += 1
        best = max(best, len({mk & wmask for mk in masks}))
        if exact and best >= ceiling:
            break
    return ShatterResult(best, exact, m, checked)


@dataclass(frozen=True)
class SeparationReport:
    min_pair: tuple[str, str]
    sym_diff: int
    hamming: int  # Hamming distance of min_pair
    hamming_pair: tuple[str, str]  # closest pair by Hamming distance
    min_hamming: int


def separation(s: SetSystem) -> SeparationReport:
    """Closest pairs by symmetric difference and by Hamming distance, each
    with the lexicographically first pair among ties, from one scan."""
    return _closest_pairs([(l, s._by_label[l], s._support[l]) for l in sorted(s.labels)])


def _closest_pairs(members: list[tuple[str, int, int]]) -> SeparationReport:
    """`separation` on members (label, M_e, N_e) in sorted label order, in
    any layout with one bit of M_e per (row, nonzero value) and one of N_e
    per row: the set system's, or the harness's column masks."""
    if len(members) < 2:
        raise InsufficientFamilyError(
            f"separation needs >= 2 member sets, got {len(members)}"
        )
    sym = ham = None
    # pairs come in lexicographic order, so a strict < keeps the first of ties
    for (e, me, ne), (f, mf, nf) in combinations(members, 2):
        d = (me ^ mf).bit_count()
        h = (ne | nf).bit_count() - (me & mf).bit_count()  # as in hamming_distance
        if sym is None or d < sym[0]:
            sym = (d, h, (e, f))
        if ham is None or h < ham[0]:
            ham = (h, (e, f))
    (d, h, pair), (min_h, ham_pair) = sym, ham
    return SeparationReport(pair, d, h, ham_pair, min_h)


def greedy_delta_packing(s: SetSystem, delta: int) -> list[str]:
    """Greedy maximal delta-separated subfamily, scanning labels in sorted order."""
    if delta < 1:
        raise ValueError(f"delta must be >= 1, got {delta}")
    survivors: list[str] = []
    masks: list[int] = []
    for label in sorted(s.labels):
        mk = s.mask_of(label)
        if all((mk ^ other).bit_count() >= delta for other in masks):
            survivors.append(label)
            masks.append(mk)
    return survivors


@dataclass(frozen=True)
class ChainCheck:
    traces: int
    distinct_restricted_cols: int
    parallel_classes: int
    ok: bool
    basis_projection: tuple[str, ...]


def claim_chain_check(s: SetSystem, sf: StandardForm, w: Iterable[GroundPair]) -> ChainCheck:
    """Trace-count chain: traces <= distinct restricted columns <= (q-1)*classes + 1.

    The restriction keeps only the rows in the projection of w onto the basis;
    parallel classes count nonzero restricted columns up to scalar.
    """
    w = list(w)
    s.ground_mask(w)  # validates
    b_w = tuple(b for b in sf.basis_order if any(p[0] == b for p in w))
    rows = [i for i, b in enumerate(sf.basis_order) if b in set(b_w)]
    restricted = {tuple(col[i] for i in rows) for col in sf.a.col_tuples()}
    field = sf.field
    classes = {field.normalize(col) for col in restricted} - {None}
    traces = trace_count(s, w)
    distinct = len(restricted)
    ok = traces <= distinct <= (field.q - 1) * len(classes) + 1
    return ChainCheck(traces, distinct, len(classes), ok, b_w)
