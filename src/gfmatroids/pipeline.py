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

One extractor serves every caller.  `_sweep` visits a list of bases in
sorted column-index order over a stack of elimination states, so each
basis costs only the pivots past the prefix it shares with the basis
before it, and hands on the rows of A.  `_short_circuits` takes those rows
to packed column masks and finds the pair circuits of that one basis.
`find_short_circuit` sweeps its one basis and lists the circuits as label
sets to pick the smallest.

The harness needs only the worst basis: the first in list order whose
short circuit is largest.  `_worst_basis` finds it in one sweep with two
upper bounds, as a short circuit is at most any fundamental circuit.  A
known fundamental circuit of an earlier basis that has one element
outside a basis is one of that basis's own, so the basis may be passed
over before its pivots; the smallest fundamental circuit, read from A,
may spare a pivoted basis its pair scan.  The harness then runs
`find_short_circuit` on the one worst basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, compress
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .gf import FieldSpec
from .gfmatrix import NotABasisError, _pivot
from .matroid import (
    MINOR_TARGET_LIMIT,
    NoCircuitError,
    RepMatroid,
    TooLargeError,
    bases,
    circuit_of_dependent,
    cosimple_certificate,
    girth,
    has_minor,
    sample_bases,
    simplify,
)
from .setsystem import _closest_pairs, _column_masks, greedy_delta_packing, sym_diff_size
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
    """Smallest circuit with at most two non-basis elements, w.r.t. `basis`.

    Ties go to the smaller circuit by sorted labels, then to a fundamental
    circuit over a pair circuit.
    """
    basis = set(basis)
    ((_, cols, nonbasis, a_rows),) = _sweep(m, [basis])
    members, closest, pairs = _short_circuits(m, cols, nonbasis, a_rows)
    (min_sym, pair_ham, min_sym_pair), (min_ham, _) = closest
    candidates = []
    for e, _, _ in members:
        je = m._index[e]
        circ = frozenset(m.labels[c] for c, row in zip(cols, a_rows) if row[je]) | {e}
        candidates.append((len(circ), tuple(sorted(circ)), circ, "fundamental"))
    best_fund = min(candidates)[0]
    for _, (e, f), circ in pairs:
        circ = frozenset(_pair_set(m, cols, a_rows, e, f) if circ is None else circ)
        candidates.append((len(circ), tuple(sorted(circ)), circ, "pair"))
    _, _, best, source = min(candidates)
    stats = ShortCircuitStats(
        nonbasis_count=len(best - basis),
        min_sym_diff=min_sym,
        min_sym_pair=min_sym_pair,
        pair_hamming=pair_ham,
        min_hamming=min_ham,
        best_fundamental=best_fund,
        source=source,
    )
    return best, stats


def _worst_basis(m: RepMatroid, basis_list: Sequence[Iterable[str]]) -> tuple[int, int]:
    """(position, size) of the first basis in `basis_list` whose short
    circuit is largest, sizing as few bases as it can.

    A short circuit is at most the smallest fundamental circuit, so a basis
    whose bound is below the best size so far, or equal to it with the basis
    later in the list, cannot be the answer.  The bound is read from A before
    the pair scan.  Before the pivots, a known fundamental circuit C of an
    earlier basis with C \\ B = {e} lies in B + e, so it is C(e, B) and bounds
    B.  A pruned entry is never checked to be a basis, so callers pass lists
    from `bases` or `sample_bases`.
    """
    bit = [1 << j for j in range(m.size)]
    full = (1 << m.size) - 1
    known: list[set[int]] = [set() for _ in range(m.rank + 2)]  # circuit masks by size
    best = (0, 0)  # (size, -position) of the answer so far

    def pruned(pos: int, cols: tuple[int, ...]) -> bool:
        outside = full ^ sum(map(bit.__getitem__, cols))
        for size in range(1, len(known)):
            if (size, -pos) >= best:
                break
            for c in known[size]:
                x = c & outside
                if not x & (x - 1):
                    return True
        return False

    for pos, cols, nonbasis, a_rows in _sweep(m, basis_list, pruned):
        a_cols = list(zip(*a_rows)) if a_rows else [()] * m.size  # rank 0: all loops
        sizes = [len(cols) + 1 - a_cols[j].count(0) for j in nonbasis]
        for j, size in zip(nonbasis, sizes):
            known[size].add(bit[j] | sum(map(bit.__getitem__, compress(cols, a_cols[j]))))
        bound = min(sizes)
        if (bound, -pos) < best:
            continue
        _, _, pairs = _short_circuits(m, cols, nonbasis, a_rows)
        best = max(best, (min([bound] + [size for size, _, _ in pairs]), -pos))
    return -best[1], best[0]


def _sweep(m: RepMatroid, basis_list: Sequence[Iterable[str]],
           skip: Optional[Callable[[int, tuple[int, ...]], bool]] = None) -> Iterator[tuple]:
    """(position in `basis_list`, basis columns, label-sorted non-basis
    columns, rows of A) for each basis, in sorted column-index order.  [I | A]
    is unique for a basis order, so A is the one `standard_form` gives; its
    rows here keep all of m's columns.  A basis for which `skip(position,
    columns)` holds is passed over unpivoted and unchecked."""
    field, labels, n = m.field, m.labels, m.size
    keys = []
    for b in basis_list:
        b = set(b)
        unknown = b - m._index.keys()
        if unknown:
            raise ValueError(f"unknown labels in basis: {sorted(unknown)}")
        keys.append(tuple(sorted(m._index[l] for l in b)))
    by_label = sorted(range(n), key=labels.__getitem__)
    rows = m.matrix.row_tuples()
    stack = [(rows, list(range(len(rows))))]  # (rows, free rows) after each pivot
    pivots: list[int] = []  # pivot row of each column of `prev`, in order
    prev: tuple[int, ...] = ()
    for pos in sorted(range(len(keys)), key=keys.__getitem__):
        cols = keys[pos]
        if skip is not None and skip(pos, cols):
            continue
        k = 0
        for x, y in zip(prev, cols):
            if x != y:
                break
            k += 1
        del stack[k + 1:], pivots[k:]
        for c in cols[k:]:
            rows, free = map(list, stack[-1])
            r = _pivot(field, rows, free, c)
            if r is None:
                break
            stack.append((rows, free))
            pivots.append(r)
        prev = cols
        if len(pivots) != len(cols) or len(cols) != m.rank:
            raise NotABasisError(f"columns {sorted(labels[j] for j in cols)} do not form a basis")
        if len(cols) == n:
            raise NoCircuitError("free matroid has no circuits")
        basis = set(cols)
        # the pivot rows in basis order are the rows of A
        yield pos, cols, [j for j in by_label if j not in basis], [stack[-1][0][r] for r in pivots]


def _short_circuits(m: RepMatroid, cols: tuple[int, ...], nonbasis: list[int], a_rows: list):
    """(members, closest, pairs) of one basis, given its columns, the other
    columns in label order and the rows of A.  Members are the (label, mask
    M_e, row support N_e) triples of the other columns; a fundamental
    circuit is a row support plus its column.  `closest` is their
    `_closest_pairs`, all None with fewer than two.  Each distinct closest
    pair gives (circuit size, pair, circuit), the circuit None when it is
    the pair's whole `_pair_set`."""
    labels, index = m.labels, m._index
    members = [(labels[j],) + packed
               for j, packed in zip(nonbasis, _column_masks(m.field.q, a_rows, nonbasis))]
    if len(members) < 2:
        return members, ((None,) * 3, (None,) * 2), []
    closest = (_, h, sym_pair), (min_h, ham_pair) = _closest_pairs(members)
    pairs = []
    for (e, f), dist in dict.fromkeys([(sym_pair, h), (ham_pair, min_h)]):
        je, jf = index[e], index[f]
        if any(row[je] == row[jf] != 0 for row in a_rows):
            # a_e and a_f share a nonzero entry, so e is outside the span of
            # the differing rows: the pair set has nullity 1, and its one
            # dependency e - f - sum (a_e - a_f)_b b has full support
            pairs.append((dist + 2, (e, f), None))
        else:
            circ = circuit_of_dependent(m, _pair_set(m, cols, a_rows, e, f))
            pairs.append((len(circ), (e, f), circ))
    return members, closest, pairs


def _pair_set(m: RepMatroid, cols: tuple[int, ...], a_rows: list, e: str, f: str) -> list[str]:
    """D for the pair e, f: the basis rows where a_e and a_f differ, then e, f."""
    je, jf = m._index[e], m._index[f]
    return [m.labels[c] for c, row in zip(cols, a_rows) if row[je] != row[jf]] + [e, f]


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
    n = simplify(m).size
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

    Rejects non-cosimple input with a certificate.  The recorded circuit is
    the worst case over the bases in scope: the largest of the per-basis
    minimum short circuits.
    """
    if t < 2:
        raise ValueError(f"clique needs t >= 2, got {t}")
    cert = cosimple_certificate(m)
    if cert is not None:
        raise NotCosimpleError(cert)

    if basis_mode == "all" and m.size <= ALL_BASES_LIMIT:
        basis_list = bases(m)
        mode_used = "all"
    else:
        if samples < 1:
            raise ValueError(f"basis sampling needs samples >= 1, got {samples}")
        basis_list = sample_bases(m, samples, seed)
        mode_used = f"sample:{samples}" if basis_mode != "all" else f"sample:{samples} (auto)"
    if not basis_list:
        raise NoCircuitError("no bases found")

    pos, worst = _worst_basis(m, basis_list)
    worst_basis = tuple(basis_list[pos])
    circ, stats = find_short_circuit(m, worst_basis)
    # the girth is at most every short circuit, so this cutoff never binds:
    # the search stops at the girth, and no size guard applies
    g = girth(m, cutoff=worst)

    findings = []
    for tid, dualize in ((f"mk{t}", False), (f"mk{t}_dual", True)):
        # M(K_t) and its dual have C(t, 2) elements: skip a target has_minor
        # would refuse before building it
        if math.comb(t, 2) > MINOR_TARGET_LIMIT:
            findings.append(MinorFinding(tid, "skipped"))
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
        basis=worst_basis,
        basis_mode=mode_used,
        bases_checked=len(basis_list),
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
