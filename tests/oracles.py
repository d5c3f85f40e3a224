"""Independent brute-force oracles used to derive expected test values.

These deliberately avoid the library's elimination kernels: independence is
checked by enumerating coefficient combinations, field arithmetic by
schoolbook polynomial work on digit lists, and graph facts by BFS or
networkx.  Keep them slow and obvious.  Three oracles read the library and
say so: `brute_minor`, which checks minors by the rank formula for
contraction with `subset_rank`, `short_circuit_reference`, which runs the
library's own kernels the long way, as the reference for the short-circuit
extractor, and `pair_circuit_size_oracle`, which reads [I | A] from
`standard_form` and does the rest with its own field arithmetic.
`assembled_standard_form` only puts a standard form's parts together.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from itertools import combinations, permutations, product

import networkx as nx


# -- linear algebra over GF(q), by exhaustive coefficient search -----------------


def brute_independent(q, add, mul, cols) -> bool:
    """No nonzero coefficient vector combines the columns to zero."""
    n = len(cols)
    rows = len(cols[0]) if cols else 0
    for coeffs in product(range(q), repeat=n):
        if not any(coeffs):
            continue
        acc = [0] * rows
        for c, col in zip(coeffs, cols):
            for i, x in enumerate(col):
                acc[i] = add(acc[i], mul(c, x))
        if not any(acc):
            return False
    return True


def brute_rank(q, add, mul, cols) -> int:
    for s in range(len(cols), 0, -1):
        for combo in combinations(cols, s):
            if brute_independent(q, add, mul, combo):
                return s
    return 0


def independent_masks_oracle(q, add, mul, cols) -> set[int]:
    """Every independent set of the columns as a bitmask, bit j for column j.

    Each independent set carries the set of all q^|I| vectors it spans,
    listed coefficient by coefficient; I + j is independent exactly when
    column j is not among them.  A set of `rows` columns spans the whole
    space, so its span is not listed.
    """
    out = set()
    rows = len(cols[0]) if cols else 0

    def grow(mask, start, span):
        out.add(mask)
        for j in range(start, len(cols)):
            if cols[j] in span:
                continue
            if mask.bit_count() + 1 == rows:
                out.add(mask | 1 << j)
            else:
                step = [tuple(mul(c, x) for x in cols[j]) for c in range(q)]
                grow(mask | 1 << j, j + 1,
                     {tuple(map(add, v, w)) for v in span for w in step})

    grow(0, 0, {(0,) * rows})
    return out


def brute_isomorphic(q, add, mul, cols_a, cols_b) -> bool:
    """Some column permutation maps the independent sets of one list of
    columns, from `independent_masks_oracle`, onto those of the other, so
    preserving the rank of every subset."""
    n = len(cols_a)
    if len(cols_b) != n:
        return False
    indep_a = independent_masks_oracle(q, add, mul, cols_a)
    indep_b = independent_masks_oracle(q, add, mul, cols_b)
    if len(indep_a) != len(indep_b):
        return False
    return any(
        all(sum(1 << perm[j] for j in range(n) if s >> j & 1) in indep_b for s in indep_a)
        for perm in permutations(range(n))
    )


def contract_columns_oracle(q, add, mul, cols, contract, keep):
    """The columns in `keep` of the contraction by the independent columns
    in `contract`: each contracted column's first nonzero row becomes its
    pivot, is cleared from the other rows, and is dropped.  Inverses and
    negatives come from searching the field."""
    inv = {a: next(b for b in range(q) if mul(a, b) == 1) for a in range(1, q)}
    neg = {a: next(b for b in range(q) if add(a, b) == 0) for a in range(q)}
    rows = [list(r) for r in zip(*cols)]
    for c in contract:
        pivot = rows.pop(next(i for i, r in enumerate(rows) if r[c]))
        scale = inv[pivot[c]]
        for r in rows:
            factor = neg[mul(r[c], scale)]
            r[:] = [add(x, mul(factor, y)) for x, y in zip(r, pivot)]
    return [tuple(r[j] for r in rows) for j in keep]


def minor_witnesses(m, target):
    """Yield, for each contract set with one, the first (delete, contract)
    pair, as label sets, that makes a minor of m isomorphic to the target;
    independent of `has_minor`.

    Contract sets C are the independent subsets of rank(m) - rank(target)
    columns in lexicographic column-index order, and for each, deletion
    sets D are the itertools.combinations of the other columns in index
    order, of the size left over.  Independence comes from
    `independent_masks_oracle`; a pair whose minor has as many independent
    sets of each size as the target, those S outside C and D with S + C
    independent in m, is decided by `brute_isomorphic` on the minor's
    columns from `contract_columns_oracle`.
    """
    f = m.field
    q = f.q
    add, mul = (functools.lru_cache(maxsize=None)(op) for op in field_ops_oracle(f.p, f.k, f.modulus))
    cols, t_cols = m.matrix.col_tuples(), target.matrix.col_tuples()
    indep = independent_masks_oracle(q, add, mul, cols)
    t_indep = independent_masks_oracle(q, add, mul, t_cols)
    t_sizes = sorted(s.bit_count() for s in t_indep)
    n = m.size
    r_diff = max(s.bit_count() for s in indep) - max(s.bit_count() for s in t_indep)
    d_count = n - r_diff - target.size
    if r_diff < 0 or d_count < 0:
        return
    for cset in combinations(range(n), r_diff):
        cmask = sum(1 << j for j in cset)
        if cmask not in indep:
            continue
        rest = [j for j in range(n) if j not in cset]
        for dset in combinations(rest, d_count):
            keep = [j for j in rest if j not in dset]
            kmask = sum(1 << j for j in keep)
            sizes = sorted(
                s.bit_count() - r_diff for s in indep if s & cmask == cmask and not s & ~(cmask | kmask)
            )
            if sizes == t_sizes and brute_isomorphic(
                q, add, mul, contract_columns_oracle(q, add, mul, cols, cset, keep), t_cols
            ):
                yield (frozenset(m.labels[j] for j in dset), frozenset(m.labels[j] for j in cset))
                break


def first_minor_witness(m, target):
    """The first pair of `minor_witnesses`, or None."""
    return next(minor_witnesses(m, target), None)


def brute_minor(m, target) -> bool:
    """Some (delete, contract) pair and label bijection makes a minor of m
    with the target's rank function.

    Contraction goes by the rank formula r_{M/C}(S) = r_M(S + C) - r_M(C)
    over every contract set C, dependent ones included, and isomorphism by
    trying every bijection; ranks come from the library's `subset_rank`,
    asked once per subset of m.
    """
    from gfmatroids import subset_rank

    bit = {l: 1 << j for j, l in enumerate(m.labels)}
    ranks: dict[int, int] = {}

    def rank(mask: int) -> int:
        if mask not in ranks:
            ranks[mask] = subset_rank(m, [l for l in m.labels if mask & bit[l]])
        return ranks[mask]

    tl = target.labels
    t_subsets = [S for size in range(len(tl) + 1) for S in combinations(tl, size)]
    t_ranks = {S: subset_rank(target, S) for S in t_subsets}
    for csize in range(m.size - target.size + 1):
        for cset in combinations(m.labels, csize):
            cmask = sum(bit[l] for l in cset)
            r_c = rank(cmask)
            rest_pool = [l for l in m.labels if l not in cset]
            dsize = m.size - target.size - csize
            for dset in combinations(rest_pool, dsize):
                rest = [l for l in rest_pool if l not in dset]
                if rank(cmask | sum(bit[l] for l in rest)) - r_c != t_ranks[tuple(tl)]:
                    continue  # every bijection fails on the whole ground set
                for perm in permutations(rest):
                    mapping = dict(zip(tl, perm))
                    if all(
                        rank(cmask | sum(bit[mapping[x]] for x in S)) - r_c == t_ranks[S]
                        for S in t_subsets
                    ):
                        return True
    return False


def assembled_standard_form(sf):
    """The full [I | A] matrix of a standard form with its column labels:
    an identity on the basis columns, then A's columns."""
    from gfmatroids import GFMatrix

    r = len(sf.basis_order)
    full = [tuple(int(i == j) for j in range(r)) + a for i, a in enumerate(sf.a.row_tuples())]
    return GFMatrix(sf.field, full, r + sf.a.cols), sf.basis_order + sf.nonbasis_order


# -- schoolbook polynomial arithmetic over GF(p) ----------------------------------


def digits_of(code: int, p: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        out.append(code % p)
        code //= p
    return out


def code_of(digits, p: int) -> int:
    out = 0
    for d in reversed(list(digits)):
        out = out * p + d
    return out


def poly_add_oracle(p: int, k: int, a: int, b: int) -> int:
    da, db = digits_of(a, p, k), digits_of(b, p, k)
    return code_of([(x + y) % p for x, y in zip(da, db)], p)


def poly_mul_oracle(p: int, k: int, modulus, a: int, b: int) -> int:
    """Schoolbook product then long division by the monic modulus."""
    da, db = digits_of(a, p, k), digits_of(b, p, k)
    prod = [0] * (2 * k)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    mod = list(modulus)
    for top in range(len(prod) - 1, k - 1, -1):
        lead = prod[top]
        if lead:
            shift = top - k
            for i, mi in enumerate(mod):
                prod[shift + i] = (prod[shift + i] - lead * mi) % p
    return code_of(prod[:k], p)



def field_ops_oracle(p: int, k: int, modulus):
    """(add, mul) on element codes of GF(p^k) from the schoolbook arithmetic
    above, so brute-force checks share nothing with the library's tables."""
    if k == 1:
        return (lambda a, b: (a + b) % p), (lambda a, b: (a * b) % p)
    return (
        lambda a, b: poly_add_oracle(p, k, a, b),
        lambda a, b: poly_mul_oracle(p, k, modulus, a, b),
    )


# -- graph oracles -----------------------------------------------------------------


def graph_of_edges(n: int, edges) -> nx.MultiGraph:
    g = nx.MultiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def graph_girth_oracle(n: int, edges) -> float:
    """Shortest cycle in a multigraph by per-edge BFS; inf for forests."""
    for u, v in edges:
        if u == v:
            return 1
    seen = set()
    for u, v in edges:
        key = (min(u, v), max(u, v))
        if key in seen:
            return 2
        seen.add(key)
    adj = {i: set() for i in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    best = float("inf")
    for u, v in seen:
        # shortest u-v path avoiding the edge itself
        dist = {u: 0}
        dq = deque([u])
        while dq:
            x = dq.popleft()
            for y in adj[x]:
                if (min(x, y), max(x, y)) == (u, v):
                    continue
                if y not in dist:
                    dist[y] = dist[x] + 1
                    dq.append(y)
        if v in dist:
            best = min(best, dist[v] + 1)
    return best


def edge_connectivity_oracle(n: int, edges) -> int:
    return nx.edge_connectivity(graph_of_edges(n, edges))


def components_oracle(n: int, edges) -> int:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(x) for x in range(n)})


def edge_label_pair(label: str) -> tuple[int, int]:
    """Invert the generator's edge labeling 'u-v' or 'u-v#k'."""
    base = label.split("#")[0]
    u, v = base.split("-")
    return int(u), int(v)


def is_graph_cycle(labels) -> bool:
    """The edge set forms a single simple cycle (every vertex degree 2, connected)."""
    edges = [edge_label_pair(l) for l in labels]
    if any(u == v for u, v in edges):
        return len(edges) == 1
    deg: dict[int, int] = {}
    for u, v in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    if len(edges) == 2:
        return len(deg) == 2 and all(d == 2 for d in deg.values())
    if any(d != 2 for d in deg.values()):
        return False
    g = nx.MultiGraph(edges)
    return nx.is_connected(g)


# -- projective classes --------------------------------------------------------------


def projective_class_count_oracle(q: int, mul, r: int) -> int:
    """Count scalar classes of nonzero vectors, normalizing by the class minimum."""
    reps = set()
    for vec in product(range(q), repeat=r):
        if not any(vec):
            continue
        members = []
        for c in range(1, q):
            members.append(tuple(mul(c, x) for x in vec))
        reps.add(min(members))
    return len(reps)


# -- reference short-circuit extraction -------------------------------------------


def short_circuit_reference(m, basis):
    """`find_short_circuit` the long way, as a differential reference.

    The standard form comes from `standard_form`, the closest pairs from a
    scan of every pair in sorted order (symmetric difference from the set
    system, Hamming distance by comparing the columns row by row), and each
    pair's circuit from `circuit_of_dependent` on the rows where the two
    columns differ plus the pair.  Ties break as in the library: the first
    pair in sorted order, then the smallest circuit by size and sorted
    labels, a fundamental circuit before a pair circuit.
    """
    from gfmatroids import (
        NoCircuitError, ShortCircuitStats, build_set_system, circuit_of_dependent,
        standard_form, sym_diff_size,
    )

    basis = set(basis)
    sf = standard_form(m.matrix, m.labels, basis)
    nonbasis = sf.nonbasis_order
    if not nonbasis:
        raise NoCircuitError("free matroid has no circuits")
    col = dict(zip(nonbasis, sf.a.col_tuples()))
    candidates = []
    for e in sorted(nonbasis):
        circ = frozenset(b for b, x in zip(sf.basis_order, col[e]) if x) | {e}
        candidates.append((len(circ), tuple(sorted(circ)), circ, "fundamental"))
    best_fund = min(c[0] for c in candidates)

    min_sym = min_sym_pair = pair_ham = min_ham = None
    if len(nonbasis) >= 2:
        system = build_set_system(sf)

        def hamming(e, f):
            return sum(1 for x, y in zip(col[e], col[f]) if x != y)

        pairs = list(combinations(sorted(nonbasis), 2))
        min_sym, min_sym_pair = min((sym_diff_size(system, e, f), (e, f)) for e, f in pairs)
        pair_ham = hamming(*min_sym_pair)
        min_ham, ham_pair = min((hamming(e, f), (e, f)) for e, f in pairs)
        for e, f in dict.fromkeys([min_sym_pair, ham_pair]):
            rows = {b for b, x, y in zip(sf.basis_order, col[e], col[f]) if x != y}
            circ = circuit_of_dependent(m, rows | {e, f})
            candidates.append((len(circ), tuple(sorted(circ)), circ, "pair"))

    _, _, best, source = min(candidates)
    return best, ShortCircuitStats(
        nonbasis_count=len(best - basis),
        min_sym_diff=min_sym,
        min_sym_pair=min_sym_pair,
        pair_hamming=pair_ham,
        min_hamming=min_ham,
        best_fundamental=best_fund,
        source=source,
    )


def pair_circuit_size_oracle(m, basis):
    """Least weight of a cycle-space vector supported on at most two
    non-basis elements: the size of the smallest circuit with at most two
    non-basis elements.  math.inf for a free matroid.

    Over [I | A] for the basis, the vector that is 1 on e, c on f and zero
    on the other non-basis elements is -(a_e + c a_f) on the basis, so its
    weight is 2 plus the nonzero entries of a_e + c a_f.  Every single
    non-basis element and every pair at every nonzero ratio c is tried,
    with the schoolbook arithmetic of `field_ops_oracle`.
    """
    from gfmatroids import standard_form

    f = m.field
    add, mul = field_ops_oracle(f.p, f.k, f.modulus)
    cols = standard_form(m.matrix, m.labels, basis).a.col_tuples()
    best = min((1 + sum(1 for x in a if x) for a in cols), default=math.inf)
    for a, b in combinations(cols, 2):
        for c in range(1, f.q):
            best = min(best, 2 + sum(1 for x, y in zip(a, b) if add(x, mul(c, y))))
    return best
