"""Short-circuit extraction, the girth dichotomy harness, and density checks.

For a basis B the short circuit is the smallest among every fundamental
circuit and one circuit for each of the closest non-basis column pairs of
the standard form [I | A] (closest by symmetric difference and by Hamming
distance, both found by one scan, `setsystem.separation`).  For a pair
e, f let D be {e, f} plus the basis rows where a_e and a_f differ.  When
a_e and a_f share a nonzero entry, D has nullity 1 and is itself the
circuit, so no rank test runs; otherwise `circuit_of_dependent` shrinks D.
A duplicate-column parallel pair gives D = {e, f}.  The result always
satisfies |C \\ B| <= 2 and |C| <= hamming(closest pair) + 2.

The harness needs only the worst basis: the first in list order whose
short circuit is largest.  `_worst_basis` walks the list once with two
upper bounds, as a short circuit is at most any fundamental circuit.  A
known fundamental circuit of an earlier basis that has one element
outside a basis is one of that basis's own, so the basis may be passed
over before its standard form; the smallest fundamental circuit, read
from A, may spare a reduced basis its pair scan.  `find_short_circuit`
is its one-basis case.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations, compress
from typing import Iterable, Optional, Sequence

from .gf import FieldSpec
from .gfmatrix import standard_form
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
from .setsystem import build_set_system, greedy_delta_packing, separation, sym_diff_size
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

    A short circuit is at most the smallest fundamental circuit, so a basis
    whose bound is below the best size so far, or equal to it with the basis
    later in the list, cannot be the answer.  The bound is read from A before
    the pair scan.  Before `standard_form`, a known fundamental circuit C of
    an earlier basis with C \\ B = {e} lies in B + e, so it is C(e, B) and
    bounds B.  A pruned entry is never checked to be a basis, so callers pass
    lists from `bases` or `sample_bases`.  The circuit and its stats are
    built only for a basis that becomes the worst so far.
    """
    # an unknown label gets no bit here; `standard_form` rejects it
    bit = defaultdict(int, {l: 1 << j for j, l in enumerate(m.labels)})
    full = (1 << m.size) - 1
    known: list[set[int]] = [set() for _ in range(m.rank + 2)]  # circuit masks by size
    best = (0, 0)  # (size, -position) of the answer so far
    worst = None

    def pruned(pos: int, basis: tuple[str, ...]) -> bool:
        outside = full ^ sum(map(bit.__getitem__, basis))
        for size in range(1, len(known)):
            if (size, -pos) >= best:
                break
            for c in known[size]:
                x = c & outside
                if not x & (x - 1):
                    return True
        return False

    # each entry is read twice, by `pruned` and by `standard_form`
    for pos, basis in enumerate(map(tuple, basis_list)):
        if pruned(pos, basis):
            continue
        sf = standard_form(m.matrix, m.labels, basis)
        if not sf.nonbasis_order:
            raise NoCircuitError("free matroid has no circuits")
        cols = dict(zip(sf.nonbasis_order, sf.a.col_tuples()))
        rows = [bit[b] for b in sf.basis_order]
        bound = len(rows) + 1
        for e, col in cols.items():
            size = len(rows) + 1 - col.count(0)
            known[size].add(bit[e] | sum(compress(rows, col)))
            bound = min(bound, size)
        if (bound, -pos) < best:
            continue
        sep, pairs = None, []
        if len(cols) >= 2:
            sep = separation(build_set_system(sf))
            for e, f in dict.fromkeys([sep.min_pair, sep.hamming_pair]):
                circ = frozenset(b for b, x, y in zip(sf.basis_order, cols[e], cols[f]) if x != y) | {e, f}
                # when a_e and a_f share a nonzero entry, e is outside the span
                # of the differing rows: the pair set has nullity 1, and its one
                # dependency e - f - sum (a_e - a_f)_b b has full support
                if not any(x == y != 0 for x, y in zip(cols[e], cols[f])):
                    circ = circuit_of_dependent(m, circ)
                pairs.append(circ)
        if (min([bound] + [len(c) for c in pairs]), -pos) < best:
            continue
        fundamentals = [frozenset(compress(sf.basis_order, col)) | {e} for e, col in cols.items()]
        candidates = [(len(c), tuple(sorted(c)), c, "fundamental") for c in fundamentals]
        candidates += [(len(c), tuple(sorted(c)), c, "pair") for c in pairs]
        size, _, circ, source = min(candidates)
        best = (size, -pos)
        worst = pos, circ, ShortCircuitStats(
            nonbasis_count=len(circ.difference(sf.basis_order)),
            min_sym_diff=sep and sep.sym_diff,
            min_sym_pair=sep and sep.min_pair,
            pair_hamming=sep and sep.hamming,
            min_hamming=sep and sep.min_hamming,
            best_fundamental=bound,
            source=source,
        )
    return worst


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
        basis_list = bases(m)
        mode_used = "all"
    else:
        if samples < 1:
            raise ValueError(f"basis sampling needs samples >= 1, got {samples}")
        basis_list = sample_bases(m, samples, seed)
        mode_used = f"sample:{samples}" if basis_mode != "all" else f"sample:{samples} (auto)"

    pos, circ, stats = _worst_basis(m, basis_list)
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
        basis=tuple(basis_list[pos]),
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
