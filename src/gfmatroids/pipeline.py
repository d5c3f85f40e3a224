"""Short-circuit extraction, the girth dichotomy harness, and density checks.

For a basis B the short circuit is the smallest among every fundamental
circuit and one circuit for each of the closest non-basis column pairs of
the standard form [I | A] (closest by symmetric difference and by Hamming
distance, both found by one scan, `setsystem._closest_pairs`).  For a pair
e, f let D be {e, f} plus the basis rows where a_e and a_f differ.  When
a_e and a_f share a nonzero entry, D has nullity 1 and is itself the
circuit, so no rank test runs; otherwise `circuit_of_dependent` shrinks D.
A duplicate-column parallel pair gives D = {e, f}.  The result always
satisfies |C \\ B| <= 2 and |C| <= hamming(closest pair) + 2.

`_read_basis` reads a basis B as data, in one layout for every field:
each column a_e of A as one mask, bit (v - 1)|E| + j set when a_e holds
the value v at B's column j.  Its support, the OR of its q - 1 groups of
|E| bits, is C(e, B) - e; a_e & a_f is nonzero exactly when e and f share
an entry, and the rows where they differ are their supports' OR less the
support of a_e & a_f.  The pair scan reads the masks and supports as they
are.  Over GF(2) the mask is C(e, B) - e, and `_gf2_basis` reads it from
m's packed bitmasks: it tags each basis column with a bit above the row
bits and reduces every column by the basis columns with `_reduce2`.
Larger fields read `standard_form`.

The harness needs only the worst basis: the first in list order whose
short circuit is largest.  `_worst_of` walks a list of bases, as
bitmasks, once with two upper bounds, as a short circuit is at most any
fundamental circuit.  A known fundamental circuit C of an earlier basis
that has one element outside a basis is one of that basis's own, so the
basis may be passed over before it is read: the bases that hold C - e
for some e in C are pruned all at once, by bitsets over list positions.
The smallest fundamental circuit may spare a read basis its pair scan.
`verify_dichotomy` feeds it all bases as bitmasks, from a walk of the
bases alone (`matroid._basis_masks`).  `_worst_basis` takes bases as
labels, sampled ones among them, and `find_short_circuit` is its
one-basis case.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from itertools import combinations
from operator import and_
from typing import Callable, Iterable, Optional, Sequence

from .gf import FieldSpec
from .gfmatrix import NotABasisError, standard_form
from .matroid import (
    MINOR_TARGET_LIMIT,
    NoCircuitError,
    RepMatroid,
    TooLargeError,
    _basis_masks,
    _class_ids,
    _element_masks,
    _labels_of,
    _reduce2,
    circuit_of_dependent,
    cosimple_certificate,
    girth,
    has_minor,
    sample_bases,
)
from .setsystem import _closest_pairs, greedy_delta_packing, sym_diff_size
from . import generators


class NotCosimpleError(ValueError):
    """Input rejected by the dichotomy harness; carries the offending
    coloop or series pair."""

    def __init__(self, certificate: tuple[str, tuple[str, ...]]):
        kind, elements = certificate
        super().__init__(f"not cosimple: {kind} {sorted(elements)}")
        self.certificate = certificate


@dataclass(frozen=True)
class ShortCircuitStats:
    nonbasis_count: int
    min_sym_diff: Optional[int]
    min_sym_pair: Optional[tuple[str, str]]
    pair_hamming: Optional[int]
    min_hamming: Optional[int]
    best_fundamental: int
    source: str  # "fundamental" | "pair"


def find_short_circuit(m: RepMatroid, basis: Iterable[str]) -> tuple[frozenset[str], ShortCircuitStats]:
    """Short circuit w.r.t. `basis`: the smallest of the fundamental circuits
    and the circuits of the closest non-basis column pairs.

    It has at most two non-basis elements.  Over GF(2) it is the smallest
    such circuit; over larger fields a pair closest in neither measure, or
    a combination other than a_e - a_f, can give a smaller one.  Ties go to
    the smaller circuit by sorted labels, then to a fundamental circuit over
    a pair circuit.
    """
    return _worst_basis(m, [basis])[1:]


def _worst_basis(m: RepMatroid, basis_list: Sequence[Iterable[str]]
                 ) -> tuple[int, frozenset[str], ShortCircuitStats]:
    """(position, short circuit, stats) of the first basis in `basis_list`
    whose short circuit is largest, sizing as few bases as it can.

    A pruned entry is never checked to be a basis, so callers pass lists
    from `bases` or `sample_bases`; an entry that is sized is checked as
    it is read, and a dependent, non-spanning or unknown set raises what
    `standard_form` raises.  `_worst_of` has the method.
    """
    basis_list = [tuple(b) for b in basis_list]
    # an unknown label gets no bit here; reading the basis rejects it
    bit = defaultdict(int, {l: 1 << j for j, l in enumerate(m.labels)})
    masks = [sum(map(bit.__getitem__, set(b))) for b in basis_list]
    return _worst_of(m, masks, basis_list.__getitem__)


def _gf2_basis(m: RepMatroid, basis: Iterable[str]) -> dict[str, int]:
    """{e: C(e, B) - e} for each non-basis e of a basis B of a binary
    matroid, in column order, as masks over m's columns, read from m's
    packed columns without a standard form.

    Column j of B is tagged with the bit rows + j, and every column is
    reduced by B's columns in index order with the span kernel's
    `_reduce2`.  B is independent, so every lead is a row bit, and the tag
    bits of a column record which of B's columns it has taken: a
    non-basis column ends with no row bit left and its representation in
    B in its tag bits.  A set with an unknown label, or one that is not a
    basis, raises what `standard_form` raises.
    """
    basis = set(basis)
    unknown = basis.difference(m._index)
    if unknown:
        raise ValueError(f"unknown labels in basis: {sorted(unknown)}")
    rows = m.matrix.rows
    low = (1 << rows) - 1  # the row bits
    order = sorted(map(m._index.__getitem__, basis))
    cols = list(m._packed())
    for j in order:
        cols[j] |= 1 << rows + j
    for j in order:
        if not cols[j] & low:  # column j is in the span of B's columns before it
            break
        cols = _reduce2(cols[j], cols)  # which clears column j: B's columns end at 0
    else:
        if not any(c & low for c in cols):  # a row bit left: B does not span
            return {l: c >> rows for l, c in zip(m.labels, cols) if l not in basis}
    raise NotABasisError(f"columns {sorted(basis)} do not form a basis")


def _read_basis(m: RepMatroid, basis: Iterable[str]) -> dict[str, int]:
    """The column a_e of B's standard form [I | A] for each non-basis e of a
    basis B, in column order, as one mask of |E|(q - 1) bits: bit
    (v - 1)|E| + j is set when a_e holds the value v at B's column j, j an
    index into m's columns.

    Over GF(2) the mask is C(e, B) - e, read by `_gf2_basis` from the span
    kernel's bitmasks.  Other fields read `standard_form`.
    """
    if m.field.q == 2:
        return _gf2_basis(m, basis)
    sf = standard_form(m.matrix, m.labels, basis)
    n, rows = m.size, m.indices_of(sf.basis_order)
    return {e: sum(1 << (v - 1) * n + j for j, v in zip(rows, col) if v)
            for e, col in zip(sf.nonbasis_order, sf.a.col_tuples())}


def _support(x: int, n: int) -> int:
    """The columns where a mask of `_read_basis` is nonzero, over m's n
    columns: the OR of its groups of n bits."""
    out, low = 0, (1 << n) - 1
    while x:
        out |= x & low
        x >>= n
    return out


def _worst_of(m: RepMatroid, masks: Sequence[int], labels_at: Callable[[int], Iterable[str]]
              ) -> tuple[int, frozenset[str], ShortCircuitStats]:
    """`_worst_basis` on bases given as bitmasks over m's columns; the
    labels of the basis at a position, `labels_at(pos)`, go to
    `_read_basis`, whose column masks give the fundamental circuits, the
    closest-pair scan and the pair sets.

    A short circuit is at most the smallest fundamental circuit, so a basis
    whose bound is below the best size so far, or equal to it with the basis
    later in the list, cannot be the answer.  The bound is read before the
    pair scan.  Before a basis B is read, a known fundamental circuit C of
    an earlier basis with C \\ B = {e} lies in B + e, so it is C(e, B) and
    bounds B.  Such bases are pruned by position, all at once: a mask over
    positions per element gives the bases that hold it, and the bases that
    hold C - e for some e in C are an OR of ANDs of those masks.  A known
    circuit's cover is built once the best size reaches its size, and the
    next basis to read is the first later one outside every cover.  The
    circuit and its stats are built only for a basis that becomes the worst
    so far.
    """
    n = m.size
    elem = _element_masks(masks, [1 << j for j in range(n)])
    known: set[int] = set()  # fundamental circuits found so far, as masks
    pending: list[list[int]] = [[] for _ in range(m.rank + 2)]  # those without a cover, by size
    covered = 0  # positions the covers prune
    todo = (1 << len(masks)) - 1  # positions not yet reached
    best = (0, 0)  # (size, -position) of the answer so far
    worst = None

    while True:
        for size in range(1, best[0] + 1):
            for c in pending[size]:
                # the bases holding c but at most one of its elements: an OR,
                # over e in c, of the AND of the other elements' masks
                parts = [elem[j] for j in range(c.bit_length()) if c >> j & 1]
                for i in range(len(parts)):
                    covered |= reduce(and_, parts[:i] + parts[i + 1:], -1)
            pending[size].clear()
        todo &= ~covered
        if not todo:
            return worst
        low = todo & -todo
        todo ^= low
        pos = low.bit_length() - 1
        basis = labels_at(pos)
        a = _read_basis(m, basis)
        if not a:
            raise NoCircuitError("free matroid has no circuits")
        supp = {e: _support(x, n) for e, x in a.items()}
        fund = [s | 1 << m._index[e] for e, s in supp.items()]
        for c in fund:
            if c not in known:
                known.add(c)
                pending[c.bit_count()].append(c)
        bound = min(map(int.bit_count, fund))
        if (bound, -pos) < best:
            continue
        sep, pairs = None, []
        if len(a) >= 2:
            sep = _closest_pairs([(e, a[e], supp[e]) for e in sorted(a)])
            for e, f in dict.fromkeys([sep.min_pair, sep.hamming_pair]):
                # e, f and the rows where a_e and a_f differ
                same = a[e] & a[f]
                circ = frozenset(_labels_of(m, (supp[e] | supp[f]) & ~_support(same, n))) | {e, f}
                # when a_e and a_f share a nonzero entry, e is outside the span
                # of the differing rows: the pair set has nullity 1, and its one
                # dependency e - f - sum (a_e - a_f)_b b has full support
                if not same:
                    circ = circuit_of_dependent(m, circ)
                pairs.append(circ)
        size = min([bound] + [len(c) for c in pairs])
        if (size, -pos) < best:
            continue
        # the smallest circuit by sorted labels, a fundamental one before a pair's
        candidates = [(sorted(_labels_of(m, c)), "fundamental") for c in fund
                      if c.bit_count() == size]
        candidates += [(sorted(c), "pair") for c in pairs if len(c) == size]
        labels, source = min(candidates)
        circ = frozenset(labels)
        best = (size, -pos)
        worst = pos, circ, ShortCircuitStats(
            nonbasis_count=len(circ.difference(basis)),
            min_sym_diff=sep and sep.sym_diff,
            min_sym_pair=sep and sep.min_pair,
            pair_hamming=sep and sep.hamming,
            min_hamming=sep and sep.min_hamming,
            best_fundamental=bound,
            source=source,
        )


@dataclass(frozen=True)
class DensityRatio:
    elements: int
    rank: int
    ratio: float


def density_ratio(m: RepMatroid) -> DensityRatio:
    """|E(simplify(m))| / rank(m); the growth-rate measurement."""
    r = m.rank
    if r == 0:
        raise ValueError("density ratio undefined at rank 0")
    n = len(set(_class_ids(m._packed())) - {0})  # m's non-loop parallel classes
    return DensityRatio(n, r, n / r)


@dataclass(frozen=True)
class MinorFinding:
    target: str
    status: str  # "found" | "absent" | "skipped"
    delete: Optional[tuple[str, ...]] = None
    contract: Optional[tuple[str, ...]] = None

    def to_json_dict(self) -> dict:
        out: dict = {"target": self.target, "status": self.status}
        if self.status == "found":
            out["delete"] = list(self.delete)
            out["contract"] = list(self.contract)
        return out


@dataclass(frozen=True)
class DichotomyReport:
    instance: str
    cosimple: bool
    girth: object  # int or math.inf
    circuit: tuple[str, ...]
    circuit_size: int
    nonbasis_count: int
    min_sym_diff: Optional[int]
    minors: tuple[MinorFinding, ...]
    density: Optional[DensityRatio]
    basis: tuple[str, ...] = ()
    basis_mode: str = "all"
    bases_checked: int = 0

    def to_json_dict(self) -> dict:
        g = "infinity" if self.girth == math.inf else self.girth
        density = (
            None
            if self.density is None
            else {
                "elements": self.density.elements,
                "rank": self.density.rank,
                "ratio": self.density.ratio,
            }
        )
        return {
            "instance": self.instance,
            "cosimple": self.cosimple,
            "girth": g,
            "circuit": list(self.circuit),
            "circuit_size": self.circuit_size,
            "nonbasis_count": self.nonbasis_count,
            "min_sym_diff": self.min_sym_diff,
            "minors": [f.to_json_dict() for f in self.minors],
            "density": density,
            "bases": {"mode": self.basis_mode, "checked": self.bases_checked},
        }


@lru_cache(maxsize=16)
def _clique(t: int, field: FieldSpec, dualize: bool) -> RepMatroid:
    # the harness's minor targets, built once per field and t
    return generators.clique(t, field, dualize=dualize)


# `all` basis enumeration is only attempted up to this many elements; larger
# instances fall back to seeded sampling, and the report says which ran.
ALL_BASES_LIMIT = 14


def verify_dichotomy(m: RepMatroid, t: int, basis_mode: str = "all", samples: int = 20,
                     seed: int = 0, instance_id: str = "instance") -> DichotomyReport:
    """Per-basis short circuits plus minor findings for M(K_t) and its dual.

    One minor search runs per isomorphism class of target.  At t = 4,
    M(K4)* is isomorphic to M(K4) (K4 is a self-dual plane graph), so the
    `mk4` finding, witness included, is copied to `mk4_dual`: every screen
    of `has_minor` and its final profile match are isomorphism invariants
    of the target, and its (C, D) order depends only on the target's rank
    and size, so a second search would repeat the first exactly.

    Rejects non-cosimple input with a certificate.  The recorded circuit is
    the worst case over the bases in scope: the largest of the per-basis
    minimum short circuits.
    """
    if t < 2:
        raise ValueError(f"clique needs t >= 2, got {t}")
    if basis_mode not in ("all", "sample"):
        raise ValueError(f"basis_mode must be 'all' or 'sample', got {basis_mode!r}")
    cert = cosimple_certificate(m)
    if cert is not None:
        raise NotCosimpleError(cert)

    if basis_mode == "all" and m.size <= ALL_BASES_LIMIT:
        masks = _basis_masks(m)
        pos, circ, stats = _worst_of(m, masks, lambda pos: _labels_of(m, masks[pos]))
        basis, checked = _labels_of(m, masks[pos]), len(masks)
        mode_used = "all"
    else:
        if samples < 1:
            raise ValueError(f"basis sampling needs samples >= 1, got {samples}")
        sampled = sample_bases(m, samples, seed)
        pos, circ, stats = _worst_basis(m, sampled)
        basis, checked = tuple(sampled[pos]), len(sampled)
        mode_used = f"sample:{samples}" if basis_mode != "all" else f"sample:{samples} (auto)"

    # the girth is at most every short circuit, so this cutoff never binds:
    # the search stops at the girth, and no size guard applies
    g = girth(m, cutoff=len(circ))

    findings = []
    for tid, dualize in ((f"mk{t}", False), (f"mk{t}_dual", True)):
        # M(K_t) and its dual have C(t, 2) elements: skip a target has_minor
        # would refuse before building it
        if math.comb(t, 2) > MINOR_TARGET_LIMIT:
            findings.append(MinorFinding(tid, "skipped"))
            continue
        # the ranks t - 1 and C(t - 1, 2) of M(K_t) and its dual differ unless t = 4
        if dualize and t == 4:
            findings.append(replace(findings[0], target=tid))
            continue
        try:
            witness = has_minor(m, _clique(t, m.field, dualize))
        except TooLargeError:
            findings.append(MinorFinding(tid, "skipped"))
            continue
        if witness is None:
            findings.append(MinorFinding(tid, "absent"))
        else:
            dels, cons = witness
            findings.append(MinorFinding(tid, "found", tuple(sorted(dels)), tuple(sorted(cons))))

    density = density_ratio(m) if m.rank else None
    return DichotomyReport(
        instance=instance_id,
        cosimple=True,
        girth=g,
        circuit=tuple(sorted(circ)),
        circuit_size=len(circ),
        nonbasis_count=stats.nonbasis_count,
        min_sym_diff=stats.min_sym_diff,
        minors=tuple(findings),
        density=density,
        basis=basis,
        basis_mode=mode_used,
        bases_checked=checked,
    )


def packing_ratios(system, deltas: Iterable[int]) -> list[dict]:
    """Measured |packing| * delta / |V| for each delta, with a post-hoc
    separation check; a trend artifact, no threshold is asserted."""
    out = []
    v = len(system.ground)
    for delta in deltas:
        packing = greedy_delta_packing(system, delta)
        ok = all(
            sym_diff_size(system, e, f) >= delta for e, f in combinations(packing, 2)
        )
        out.append(
            {
                "delta": delta,
                "size": len(packing),
                "ratio": (len(packing) * delta / v) if v else None,
                "separated": ok,
            }
        )
    return out
