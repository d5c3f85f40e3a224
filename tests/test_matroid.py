import inspect
import math
import random
from collections import Counter
from itertools import combinations, product

import pytest

from gfmatroids import (
    GFMatrix,
    NoCircuitError,
    RepMatroid,
    TooLargeError,
    bases,
    circuit_of_dependent,
    clique,
    cosimple_certificate,
    dual,
    field_from_order,
    girth,
    graphic,
    has_minor,
    is_circuit,
    is_cosimple,
    is_isomorphic,
    matroid_from_gfm,
    matroid_to_gfm,
    minor,
    named_graph,
    projective_geometry,
    rank_table,
    random_matroid,
    sample_bases,
    shatter,
    simplify,
    subset_rank,
    uniform,
)
from gfmatroids import matroid
from gfmatroids.generators import Graph
from gfmatroids.matroid import (
    _Profile, _codeword_supports, _element_masks, _hitting_sets, _independent_masks,
    _match_profiles, _short_dependent_sets, _size_mask, _weight_counts,
)

from oracles import (
    brute_minor, edge_connectivity_oracle, first_minor_witness, graph_girth_oracle,
    independent_masks_oracle, minor_witnesses,
)

F2 = field_from_order(2)
F3 = field_from_order(3)
F4 = field_from_order(4)
F5 = field_from_order(5)


def test_subset_rank_examples():
    mk4 = clique(4, F2)
    assert subset_rank(mk4, []) == 0
    assert subset_rank(mk4, mk4.labels) == 3  # spanning tree of K_4
    m = RepMatroid(F3, GFMatrix(F3, [[2], [0]]), ["a"])
    assert subset_rank(m, ["a"]) == 1


def test_subset_rank_unknown_label():
    mk4 = clique(4, F2)
    with pytest.raises(ValueError):
        subset_rank(mk4, ["nope"])


def test_girth_golden_values():
    assert girth(uniform(2, 4, F5)) == 3
    identity = GFMatrix(F2, [[int(i == j) for j in range(4)] for i in range(4)])
    free = RepMatroid(F2, identity, list("abcd"))
    assert girth(free) == math.inf
    pet = graphic(named_graph("petersen"), F2)
    g = named_graph("petersen")
    assert girth(pet) == graph_girth_oracle(g.n, g.edges) == 5


def test_girth_of_mcgee_at_its_cutoff():
    # 36 elements of rank 23: each size up to 7 closes with a pair test
    # after at most 5 chosen columns, so this takes about 0.1 s
    g = named_graph("mcgee")
    assert girth(graphic(g, F2), cutoff=7) == graph_girth_oracle(g.n, g.edges) == 7


def test_girth_past_the_size_limit_reads_the_codewords():
    # McGee has 36 elements and a cycle space of 2^13 - 1 codewords: without
    # a cutoff, girth takes their least weight instead of refusing
    g = named_graph("mcgee")
    mcgee = graphic(g, F2)
    assert mcgee.size > matroid.GIRTH_LIMIT
    assert girth(mcgee) == graph_girth_oracle(g.n, g.edges) == 7
    # seeded binary matroids of 25-30 elements whose cycle spaces have 12-16
    # dimensions: small girth, so the subset search at cutoff r + 1 is quick
    rng = random.Random(25)
    girths = []
    for i in range(8):
        n = rng.randint(matroid.GIRTH_LIMIT + 1, 30)
        m = random_matroid(n - rng.randint(12, 16), n, F2, seed=8000 + i)
        girths.append(girth(m))
        assert girths[-1] == girth(m, cutoff=m.rank + 1), i
    assert len(set(girths)) > 2, girths


def test_girth_cutoff_and_guard():
    pet = graphic(named_graph("petersen"), F2)
    assert girth(pet, cutoff=4) is None
    assert girth(pet, cutoff=5) == 5
    wide = RepMatroid(F2, GFMatrix.zeros(F2, 1, 30), [f"z{i}" for i in range(30)])
    with pytest.raises(TooLargeError):
        girth(wide)
    assert girth(wide, cutoff=2) == 1


@pytest.mark.parametrize("cutoff", [0, -3])
def test_girth_rejects_cutoff_below_one(cutoff):
    with pytest.raises(ValueError, match="cutoff"):
        girth(clique(4, F2), cutoff=cutoff)


def test_dual_is_involution_on_rank_function():
    for i in range(12):
        m = random_matroid(min(2 + i % 4, 5), 6 + i % 5, field_from_order((2, 3, 4)[i % 3]), seed=300 + i)
        dd = dual(dual(m))
        assert dd.labels == m.labels
        assert rank_table(dd) == rank_table(m)


def test_dual_rank_complement():
    for i in range(10):
        m = random_matroid(2 + i % 3, 6 + i % 4, F3, seed=400 + i)
        assert m.rank + dual(m).rank == m.size


def test_dual_clique_girth_is_min_edge_cut():
    g = named_graph("k4")
    assert girth(dual(clique(4, F2))) == edge_connectivity_oracle(g.n, g.edges) == 3


def test_dual_u24_selfdual():
    u = uniform(2, 4, F5)
    assert is_isomorphic(dual(u), u)


def test_dual_is_eliminated_once_per_matroid(monkeypatch):
    # the cosimple check, the codeword listing and the dual side of the minor
    # search share one elimination; the dual's own dual is computed afresh,
    # as its matrix is not m's
    target = clique(4, F3)
    dual(target)
    eliminations = []
    real = matroid._canonical_standard_form
    monkeypatch.setattr(matroid, "_canonical_standard_form", lambda *args: eliminations.append(args) or real(*args))
    m = random_matroid(5, 9, F3, seed=17)
    d = dual(m)
    cosimple_certificate(m)
    _codeword_supports(m)
    assert dual(m) is d and len(eliminations) == 1
    dd = dual(d)
    assert len(eliminations) == 2 and dd is not m and dd.matrix != m.matrix
    assert rank_table(dd) == rank_table(m)
    hosts = _spy_sides(monkeypatch)
    has_minor(m, target)
    assert _sides(hosts, m)[0] == "dual" and len(eliminations) == 2


def test_minor_contract_basis_element():
    mk4 = clique(4, F2)
    m = minor(mk4, contract=["0-1"])
    assert m.rank == 2
    assert m.size == 5


def test_minor_delete_keeps_rank():
    mk4 = clique(4, F2)
    m = minor(mk4, delete=["0-1"])
    assert m.rank == 3


def test_minor_contract_creates_parallel_pair():
    # contracting edge 0-1 of K_4 makes 0-2 parallel to 1-2 and 0-3 to 1-3
    mk4 = clique(4, F2)
    m = minor(mk4, contract=["0-1"])
    assert subset_rank(m, ["0-2", "1-2"]) == 1
    assert subset_rank(m, ["0-3", "1-3"]) == 1
    assert simplify(m).size == 3


def test_minor_dependent_contract_splits():
    # contracting a full triangle only contracts an independent part (2 edges)
    mk4 = clique(4, F2)
    m = minor(mk4, contract=["0-1", "0-2", "1-2"])
    assert m.rank == 1
    assert m.size == 3
    assert set(m.labels) == {"0-3", "1-3", "2-3"}


def test_minor_commutes_on_rank_functions():
    rng = random.Random(17)
    for i in range(10):
        m = random_matroid(3, 8, field_from_order((2, 3, 4, 5)[i % 4]), seed=500 + i)
        labels = list(m.labels)
        rng.shuffle(labels)
        dels, cons = set(labels[:2]), set(labels[2:4])
        a = minor(minor(m, delete=dels), contract=cons)
        b = minor(minor(m, contract=cons), delete=dels)
        assert a.labels == b.labels
        assert rank_table(a) == rank_table(b)



@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_minor_rank_table_matches_contraction_oracle(q):
    """rank of X in M \\ D / C is r(X + C) - r(C), for an empty, a
    dependent and a spanning contract set, by brute-force rank."""
    from oracles import brute_rank, field_ops_oracle

    f = field_from_order(q)
    add, mul = field_ops_oracle(f.p, f.k, f.modulus)
    base = random_matroid(3, 5, f, seed=900 + q)
    cols = base.matrix.col_tuples()
    cols.append(tuple(add(x, y) for x, y in zip(cols[0], cols[1])))  # in span of 0 and 1
    labels = ["f", "e", "d", "c", "b", "a"]  # sorted label order reverses columns
    m = RepMatroid(f, GFMatrix.from_cols(f, cols, 3), labels)
    col_of = dict(zip(labels, cols))
    ranks: dict[frozenset, int] = {}

    def r(s):
        s = frozenset(s)
        if s not in ranks:
            ranks[s] = brute_rank(q, add, mul, [col_of[l] for l in sorted(s)])
        return ranks[s]

    spanning = set(bases(m)[0]) | {"a"}
    cases = [((), ("c",)), (("f", "e", "a"), ("d",)), (spanning, ())]
    for contract, delete in cases:
        mm = minor(m, delete=delete, contract=contract)
        assert set(mm.labels) == set(labels) - set(contract) - set(delete)
        assert mm.matrix.cols == mm.size
        table = rank_table(mm)
        for mask in range(1 << mm.size):
            x = {mm.labels[j] for j in range(mm.size) if mask >> j & 1}
            assert table[mask] == r(x | set(contract)) - r(contract)


def test_minor_rejects_overlap():
    mk4 = clique(4, F2)
    with pytest.raises(ValueError):
        minor(mk4, delete=["0-1"], contract=["0-1"])


def test_simplify_examples():
    free = RepMatroid(F2, GFMatrix(F2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]), list("abc"))
    assert simplify(free).labels == free.labels
    m = RepMatroid(F3, GFMatrix(F3, [[1, 2], [0, 0]]), ["a", "b"])
    assert simplify(m).labels == ("a",)  # (2,0) = 2*(1,0)
    # all 7 nonzero GF(2)^3 vectors, with duplicates -> the 7 projective points
    vecs = [(x, y, z) for x in range(2) for y in range(2) for z in range(2) if (x, y, z) != (0, 0, 0)]
    cols = vecs + vecs[:3]
    m = RepMatroid(F2, GFMatrix.from_cols(F2, cols, 3), [f"v{i}" for i in range(len(cols))])
    s = simplify(m)
    assert s.size == 7
    assert is_isomorphic(s, projective_geometry(3, F2))


def test_simplify_idempotent_and_rank_preserving():
    for i in range(10):
        m = random_matroid(3, 9, field_from_order((2, 3, 5)[i % 3]), seed=600 + i)
        s = simplify(m)
        assert simplify(s).labels == s.labels
        assert s.rank == m.rank


def test_cosimple_examples():
    assert is_cosimple(clique(4, F2))
    path = graphic(Graph(4, ((0, 1), (1, 2), (2, 3))), F2)
    cert = cosimple_certificate(path)
    assert cert is not None and cert[0] == "coloop"
    assert is_cosimple(uniform(2, 4, F5))


def test_circuit_of_dependent_examples():
    u23 = uniform(2, 3, F3)
    assert circuit_of_dependent(u23, u23.labels) == frozenset(u23.labels)
    # a circuit plus a coloop-like extra: triangle + pendant edge
    g = Graph(4, ((0, 1), (1, 2), (0, 2), (2, 3)))
    m = graphic(g, F2)
    assert circuit_of_dependent(m, m.labels) == frozenset({"0-1", "1-2", "0-2"})
    mk4 = clique(4, F2)
    four_cycle = {"0-2", "0-3", "1-2", "1-3"}
    assert circuit_of_dependent(mk4, four_cycle) == frozenset(four_cycle)
    assert is_circuit(mk4, four_cycle)


def test_circuit_of_dependent_rejects_independent():
    mk4 = clique(4, F2)
    with pytest.raises(NoCircuitError):
        circuit_of_dependent(mk4, ["0-1", "0-2"])


def test_isomorphism_examples():
    assert is_isomorphic(clique(3, F2), uniform(2, 3, F3))
    assert not is_isomorphic(uniform(2, 4, F5), uniform(3, 4, F5))
    # M(K_4) has 3-circuits, U_{3,6} has none
    assert not is_isomorphic(clique(4, F2), uniform(3, 6, F5))


def _relabelled_copy(m, rng):
    """m with its columns permuted, each scaled by a nonzero scalar, under new labels."""
    f = m.field
    cols = m.matrix.col_tuples()
    order = rng.sample(range(m.size), m.size)
    scales = [rng.randrange(1, f.q) for _ in order]
    new = [tuple(f.mul(c, x) for x in cols[j]) for c, j in zip(scales, order)]
    return RepMatroid(f, GFMatrix.from_cols(f, new, m.matrix.rows), [f"x{i}" for i in order])


@pytest.mark.parametrize("q", [2, 3, 4])
def test_isomorphism_agrees_with_brute_force_oracle(q):
    from oracles import brute_isomorphic, field_ops_oracle

    f = field_from_order(q)
    add, mul = field_ops_oracle(f.p, f.k, f.modulus)
    rng = random.Random(400 + q)
    answers = []
    for i in range(12):
        n = rng.randint(3, 6)
        r = rng.randint(1, min(3, n))
        a = random_matroid(r, n, f, seed=4000 + 100 * q + i)
        b = _relabelled_copy(a, rng) if i % 3 == 0 else random_matroid(r, n, f, seed=4500 + 100 * q + i)
        expected = brute_isomorphic(q, add, mul, a.matrix.col_tuples(), b.matrix.col_tuples())
        assert is_isomorphic(a, b) == expected, (i, n, r)
        answers.append(expected)
    assert True in answers and False in answers


def test_isomorphism_guard():
    big = uniform(1, 13, F2)
    with pytest.raises(TooLargeError):
        is_isomorphic(big, big)


def _det3_mod(p, a, b, c):
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    ) % p


def _cycles_of_lines(seed, cycle_lengths):
    """A rank-3 sparse paving matroid over GF(101): per cycle of k vertices,
    vertex i and a point on the line to vertex i + 1, so the 3-point lines
    {v_i, point_i, v_(i+1)} close up into a k-cycle.  The draw must leave
    those lines as the only dependent triples."""
    f = field_from_order(101)
    rng = random.Random(seed)
    cols, lines = [], set()
    for k in cycle_lengths:
        verts = [tuple(rng.randrange(101) for _ in range(3)) for _ in range(k)]
        base = len(cols)
        for i in range(k):
            lam = rng.randrange(1, 101)
            on_line = tuple((x + lam * y) % 101 for x, y in zip(verts[i], verts[(i + 1) % k]))
            cols += [verts[i], on_line]
            lines.add((base + 2 * i, base + 2 * i + 1, base + (2 * i + 2) % (2 * k)))
    # a 3x3 determinant, not oracles.brute_rank: that would try 101^3 coefficient vectors per triple
    dependent = {
        t for t in combinations(range(len(cols)), 3) if _det3_mod(101, *(cols[j] for j in t)) == 0
    }
    assert dependent == {tuple(sorted(t)) for t in lines}
    return RepMatroid(f, GFMatrix.from_cols(f, cols, 3), [f"p{j}" for j in range(len(cols))])


def test_bijection_search_decides_between_equal_profiles():
    # one 6-cycle of lines against two 3-cycles: every point lies on 1 or 2
    # lines in both, so rank, basis and independent-set counts and the
    # per-element pairs agree, and only the pairwise check can tell them apart
    hexagon = _cycles_of_lines(5, (6,))
    triangles = _cycles_of_lines(0, (3, 3))
    pa, pb = (_Profile.of(m) for m in (hexagon, triangles))
    assert (pa.n, pa.rank, pa.n_bases, len(pa.indep)) == (pb.n, pb.rank, pb.n_bases, len(pb.indep))
    assert sorted(pa.inv) == sorted(pb.inv)
    assert not is_isomorphic(hexagon, triangles)
    rng = random.Random(3)
    for m in (hexagon, triangles):
        assert is_isomorphic(m, _relabelled_copy(m, rng))


def test_isomorphism_answer_is_the_same_under_column_permutations():
    # the bijection search places elements in an order read from the
    # structure, so no column order changes its answer; the random pairs
    # agree on size, rank, basis count and independent-set count, and
    # brute force tells whether they are isomorphic
    from oracles import brute_isomorphic, field_ops_oracle

    rng = random.Random(17)
    cases = [(clique(5, F2), clique(5, F2), True), (dual(clique(5, F2)), dual(clique(5, F2)), True)]
    for q, n, r, seeds in [(2, 6, 2, (15, 18)), (3, 6, 3, (2, 34)), (3, 7, 3, (11, 12))]:
        f = field_from_order(q)
        add, mul = field_ops_oracle(f.p, f.k, f.modulus)
        a, b = (random_matroid(r, n, f, seed=seed) for seed in seeds)
        pa, pb = (_Profile.of(m) for m in (a, b))
        assert (pa.n_bases, len(pa.indep)) == (pb.n_bases, len(pb.indep))
        for other in (b, _relabelled_copy(a, rng)):
            expected = brute_isomorphic(q, add, mul, a.matrix.col_tuples(), other.matrix.col_tuples())
            cases.append((a, other, expected))
    assert [expected for _, _, expected in cases] == [True, True] + [False, True] * 3
    for a, b, expected in cases:
        for _ in range(5):
            a2, b2 = _relabelled_copy(a, rng), _relabelled_copy(b, rng)
            assert is_isomorphic(a2, b2) == expected
            assert _match_profiles(*(_Profile.of(m) for m in (a2, b2))) == expected


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_filtered_profile_agrees_with_the_minor_built_outright(q):
    # has_minor reads the profile of a candidate (m/C)\D from the
    # independent sets of m/C that miss D, by mask; build the minor instead.
    # Its per-element and basis masks number the sets by their place in the
    # walk of m/C, and a candidate keeps the places of the sets that miss D
    from oracles import brute_isomorphic, field_ops_oracle

    f = field_from_order(q)
    add, mul = field_ops_oracle(f.p, f.k, f.modulus)
    rng = random.Random(900 + q)
    answers = []
    for i in range(40):
        n = rng.randint(2, 10)
        m = random_matroid(rng.randint(1, n), n, f, seed=9000 + 100 * q + i)
        basis = sample_bases(m, 1, seed=i)[0]
        cset = set(rng.sample(basis, rng.randint(0, len(basis))))  # independent
        rest = [l for l in m.labels if l not in cset]
        if not rest:
            continue
        dset = set(rest) - set(rng.sample(rest, rng.randint(1, len(rest))))
        base = minor(m, contract=cset)
        dmask = sum(1 << j for j, l in enumerate(base.labels) if l in dset)
        family = _independent_masks(base._kernel, base._packed(), base.rank)
        kept = [j for j, l in enumerate(base.labels) if l not in dset]
        sets, bits = [s for s in family if not s & dmask], [1 << j for j in kept]
        # numbered by their place among the sets that miss D
        filtered = _Profile(sets, bits, _element_masks(sets, bits),
                            _size_mask(sets, max(map(int.bit_count, sets))))
        cand = minor(m, delete=dset, contract=cset)
        elem = _element_masks(family, [1 << j for j in range(base.size)])
        gone = 0
        for j, l in enumerate(base.labels):
            if l in dset:
                gone |= elem[j]
        keep = ~gone & (1 << len(family)) - 1
        # has_minor counts bases at the target's rank, which a match has
        masked = _Profile(sets, bits, [elem[j] & keep for j in kept], _size_mask(family, cand.rank) & keep)
        built = _Profile.of(cand)
        for p in (filtered, masked):
            assert (p.n, p.rank, p.n_bases, len(p.indep)) == (
                built.n, built.rank, built.n_bases, len(built.indep)
            ), i
            assert sorted(p.inv) == sorted(built.inv), i
        assert keep.bit_count() == len(built.indep), i
        if cand.size > 4:
            continue  # the brute-force oracle tries q^k combinations per k-subset
        if i % 2:
            other = _relabelled_copy(cand, rng)
        else:
            other = random_matroid(cand.rank, cand.size, f, seed=9500 + 100 * q + i)
        expected = brute_isomorphic(q, add, mul, cand.matrix.col_tuples(), other.matrix.col_tuples())
        assert _match_profiles(filtered, _Profile.of(other)) == expected, i
        answers.append(expected)
    assert True in answers and False in answers


def test_search_limits_are_not_options():
    import gfmatroids

    for fn in (girth, rank_table, bases, is_isomorphic, has_minor, random_matroid, shatter):
        params = inspect.signature(fn).parameters
        assert not [p for p in params if p.startswith("max_") or p == "mode"], fn.__name__
    assert not hasattr(gfmatroids, "field_new")


def _line(n):
    return uniform(1, n, F2)  # rank 1: every guarded search on it is cheap


@pytest.mark.parametrize("run, limit, message", [
    (lambda n: girth(_line(n)), 24, "exact girth limited to 24 elements (|E| = 25); pass a cutoff"),
    (lambda n: rank_table(_line(n)), 16, "rank_table limited to 16 elements (|E| = 17)"),
    (lambda n: bases(_line(n)), 16, "basis enumeration limited to 16 elements (|E| = 17)"),
    (lambda n: has_minor(_line(n), _line(1)), 16, "minor search limited to 16 elements (|E| = 17)"),
    (lambda n: has_minor(_line(16), _line(n)), 10,
     "minor search limited to 10-element targets (|E| = 11)"),
    (lambda n: is_isomorphic(_line(n), _line(n)), 12, "isomorphism limited to 12 elements (|E| = 13)"),
], ids=["girth", "rank_table", "bases", "has_minor", "has_minor-target", "is_isomorphic"])
def test_size_guards_fire_just_above_their_limit(run, limit, message):
    run(limit)
    with pytest.raises(TooLargeError) as exc:
        run(limit + 1)
    assert str(exc.value) == message


def test_has_minor_self_is_trivial_witness():
    for m in (clique(4, F2), uniform(2, 4, F5)):
        assert has_minor(m, m) == (frozenset(), frozenset())


def test_has_minor_goldens_small():
    assert has_minor(clique(4, F2), clique(3, F2)) is not None
    pg = projective_geometry(3, F2)
    assert has_minor(pg, clique(4, F2)) is not None
    assert has_minor(pg, uniform(2, 4, F5)) is None  # binary: no 4-point line


_PETERSEN = graphic(named_graph("petersen"), F2)


@pytest.mark.parametrize("m, target, witness, filtered", [
    (projective_geometry(3, F2), clique(4, F2), ({"e0"}, set()), True),
    (_PETERSEN, clique(5, F2), (set(), {"0-1", "2-3", "4-9", "5-7", "6-8"}), True),
    (clique(5, F2), clique(4, F2), ({"0-2", "0-3", "0-4"}, {"0-1"}), False),
    (projective_geometry(3, F3), clique(4, F3), ({"e0", "e1", "e2", "e4", "e5", "e7", "e8"}, set()), False),
    (uniform(3, 6, F5), uniform(2, 4, F5), ({"e1"}, {"e0"}), False),
    (uniform(3, 5, F4), uniform(2, 4, F4), (set(), {"e0"}), True),
    (clique(5, F3), uniform(2, 4, F3), None, False),
    (_PETERSEN, dual(clique(5, F2)), None, True),
    (random_matroid(5, 10, F2, seed=1), clique(4, F2), ({"e0", "e5"}, {"e1", "e2"}), True),
    (random_matroid(6, 11, F2, seed=2), dual(clique(4, F2)), None, True),
    (random_matroid(7, 11, F2, seed=8), dual(clique(4, F2)), ({"e5"}, {"e0", "e1", "e2", "e9"}), True),
    (random_matroid(7, 12, F2, seed=3), clique(4, F2), None, True),
    (random_matroid(8, 13, F2, seed=4), clique(4, F3), ({"e4", "e9"}, {"e0", "e1", "e2", "e3", "e8"}), True),
    (random_matroid(5, 11, F4, seed=3), clique(4, F4), ({"e3", "e5", "e10"}, {"e1", "e2"}), False),
    (random_matroid(7, 10, F4, seed=1), clique(4, F4), None, True),
    (random_matroid(7, 10, F4, seed=3), dual(clique(4, F4)), (set(), {"e0", "e2", "e6", "e8"}), True),
    (random_matroid(3, 10, F4, seed=3), dual(clique(4, F4)), None, False),
    (random_matroid(7, 10, F5, seed=2), clique(4, F5), (set(), {"e2", "e3", "e7", "e9"}), True),
    (random_matroid(3, 11, F5, seed=1), clique(4, F5), None, False),
    (random_matroid(7, 11, F5, seed=3), dual(clique(4, F5)), ({"e4"}, {"e0", "e3", "e7", "e10"}), False),
    (random_matroid(7, 10, F5, seed=4), dual(clique(4, F5)), None, True),
], ids=["pg_2_2-mk4", "petersen-mk5", "mk5-mk4", "pg_2_3-mk4", "u36-u24@gf5", "u35-u24@gf4",
        "mk5-u24@gf3", "petersen-mk5dual", "gf2_10-mk4", "gf2_11-mk4dual", "gf2_11b-mk4dual",
        "gf2_12-mk4", "gf2_13-mk4@gf3", "gf4_11-mk4", "gf4_10-mk4", "gf4_10-mk4dual",
        "gf4_10b-mk4dual", "gf5_10-mk4", "gf5_11-mk4", "gf5_11-mk4dual", "gf5_10-mk4dual"])
def test_has_minor_first_witness_is_pinned(m, target, witness, filtered):
    # the first witness in canonical order, as recorded from an earlier
    # implementation; `filtered` pins whether has_minor screens by codeword
    # weights, which it does when m's cycle space has at most as many
    # 1-dimensional subspaces as the target has independent sets
    q = m.field.q
    independent = sum(1 for s, r in enumerate(rank_table(target)) if r == s.bit_count())
    assert ((q ** (m.size - m.rank) - 1) // (q - 1) <= independent) == filtered
    if witness is not None:
        witness = tuple(frozenset(x) for x in witness)
    assert has_minor(m, target) == witness


@pytest.mark.parametrize("m, build", [
    (_PETERSEN, lambda: clique(5, F2)),
    (projective_geometry(3, F3), lambda: clique(4, F3)),
], ids=["petersen-mk5", "pg_2_3-mk4"])
def test_has_minor_witness_is_the_same_on_a_cached_and_a_fresh_target(m, build):
    # the target's screens are cached by value: an equal target built anew
    # reads them from the cache and gets the same first witness
    matroid._target_screens.cache_clear()
    cached = build()
    first = has_minor(m, cached)
    assert first is not None
    assert matroid._target_screens.cache_info().hits == 0
    fresh = build()
    assert fresh is not cached and fresh == cached
    assert has_minor(m, fresh) == first
    assert matroid._target_screens.cache_info().hits == 1


def _spy_sides(monkeypatch):
    """Patch matroid._minor_search to log the host of each search that
    has_minor runs; `_sides` names them."""
    hosts = []
    real = matroid._minor_search
    monkeypatch.setattr(matroid, "_minor_search", lambda host, target: hosts.append(host) or real(host, target))
    return hosts


def _sides(hosts, m):
    """"direct" for a search on m itself, "dual" for one on dual(m)."""
    assert all(h is m or h is dual(m) for h in hosts)
    return ["direct" if h is m else "dual" for h in hosts]


@pytest.mark.parametrize("m, target, sides, codewords", [
    (_PETERSEN, clique(5, F2), ["direct"], True),
    (_PETERSEN, clique(5, F2, dualize=True), ["dual"], False),
    (projective_geometry(3, F3), clique(4, F3), ["direct"], False),
    (random_matroid(6, 11, F3, seed=14), clique(4, F3), ["dual"], False),
], ids=["petersen-mk5", "petersen-mk5dual", "pg_2_3-mk4", "gf3_11-mk4"])
def test_has_minor_walks_each_contract_set_at_most_once(monkeypatch, m, target, sides, codewords):
    # one count-and-profile path: the first candidate of a contract set C
    # to reach the count walks m/C and builds the per-element masks with
    # the walk; every candidate of C then reads those masks.  `sides` are
    # the searches has_minor runs, and `codewords` whether they list the
    # codewords of their host: dual(Petersen) has 511, more than the 291
    # independent sets of M(K5), the dual side's target
    expected = has_minor(m, target)  # caches the targets' records, so their walks are not counted below
    hosts = _spy_sides(monkeypatch)
    calls = Counter()

    def counted(name):
        real = getattr(matroid, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(matroid, name, spy)

    for name in ("_independent_masks", "_element_masks", "_codeword_supports", "minor"):
        counted(name)
    real_sets = matroid._contract_sets

    def counted_sets(*args):
        for item in real_sets(*args):
            calls["contract sets"] += 1
            yield item

    monkeypatch.setattr(matroid, "_contract_sets", counted_sets)
    assert has_minor(m, target) == expected
    assert _sides(hosts, m) == sides
    assert calls["_codeword_supports"] == codewords
    # the walk hands over m/C's columns: no contraction is rebuilt
    assert calls["minor"] == 0, calls
    # a witness is matched on its walk's masks; the dual side's walk
    # yields no contract set of dual(Petersen) against M(K5)*, and walks
    # 14 of dual(gf3_11) against M(K4)
    assert (expected is not None) <= calls["_independent_masks"] <= calls["contract sets"], calls
    # with the codewords listed, one more call builds their per-element masks
    assert calls["_element_masks"] == calls["_independent_masks"] + codewords, calls


def test_has_minor_decides_petersen_gf5_against_mk5_dual_on_the_dual_side(monkeypatch):
    # Petersen has 15 elements and rank 9, M(K5)* has 10 and rank 6: the
    # direct side contracts 3 elements and deletes 2, so the dual side, which
    # contracts 2, walks at most C(15, 2) = 105 contract sets, where the
    # direct walk yields 455 and walks m/C for most of them
    m = graphic(named_graph("petersen"), F5)
    target = clique(5, F5, dualize=True)
    hosts = _spy_sides(monkeypatch)
    real_sets = matroid._contract_sets
    walked = []

    def counted_sets(*args):
        for item in real_sets(*args):
            walked.append(item[0])
            yield item

    monkeypatch.setattr(matroid, "_contract_sets", counted_sets)
    assert has_minor(m, target) is None
    assert _sides(hosts, m) == ["dual"]
    assert len(walked) <= math.comb(15, 2)
    g = matroid._target_screens(target, 5)[2]
    assert sum(1 for _ in real_sets(m, 3, g, 2, None)) == 455


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_has_minor_agrees_with_the_search_on_the_dual_side(monkeypatch, q):
    # N is a minor of m exactly when N* is a minor of m*: the search on
    # (m*, N*) gives has_minor's found or absent answer, and has_minor's
    # witness is the oracle's first in canonical order, whichever side ran
    # first, on seeded matroids of at most 12 elements: per target, hosts
    # with r_diff >= 2 contractions and d = 0, 1 and r_diff - 1 deletions,
    # and three more drawn at random; the oracle lists independent sets by
    # spans, so r_diff stays small
    f = field_from_order(q)
    rng = random.Random(2800 + q)
    search = matroid._minor_search
    hosts = _spy_sides(monkeypatch)
    branches = Counter()
    for t, (name, target) in enumerate(_first_witness_targets(f).items()):
        for i in range(6):
            r_diff = rng.randint(2 if i < 3 else 0, 3 if q < 4 else 2)
            d_count = (0, 1, r_diff - 1)[i] if i < 3 else rng.randint(1, 12 - target.size - r_diff)
            n = target.size + r_diff + d_count
            m = random_matroid(target.rank + r_diff, n, f, seed=28000 + 100 * q + 10 * t + i)
            hosts.clear()
            found = has_minor(m, target)
            assert (found is None) == (search(dual(m), dual(target)) is None), (name, i)
            assert found == first_minor_witness(m, target), (name, i)
            dual_first = 0 < d_count and math.comb(n, d_count) < math.comb(n, r_diff)
            sides = ["dual"] + ["direct"] * (found is not None) if dual_first else ["direct"]
            assert _sides(hosts, m) == sides, (name, i)
            branches["d = 0" if d_count == 0 else tuple(sides), found is not None] += 1
    # the dual side proves absent, finds and hands over, and d = 0 stays direct
    assert branches[("dual",), False] and branches[("dual", "direct"), True], branches
    assert branches["d = 0", True] and branches["d = 0", False], branches


def test_hitting_sets_are_the_combinations_that_meet_every_set():
    # the (indices, mask) sequence of itertools.combinations(range(n), k),
    # filtered by "meets every set", in the same order, on seeded families
    # over n <= 10: empty ones, k = 0 and k > n included
    rng = random.Random(2700)
    cases = Counter()
    for _ in range(400):
        n = rng.randint(0, 10)
        k = rng.randint(0, n + 1)
        sets = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(rng.choice((0, 0, 1, 2, 4, 6)))]
        subsets = list(combinations(range(n), k))
        expected = [(c, sum(1 << j for j in c)) for c in subsets
                    if all(any(s >> j & 1 for j in c) for s in sets)]
        assert list(_hitting_sets(n, k, sets)) == expected, (n, k, sets)
        cases["empty family" if not sets else "k = 0" if not k else "k > n" if k > n
              else "none meets" if subsets and not expected else "some meet"] += 1
    assert min(cases.values()) >= 5 and len(cases) == 5, cases


@pytest.mark.parametrize("q", [2, 3, 4])
def test_codeword_supports_match_brute_force(q):
    from oracles import field_ops_oracle

    f = field_from_order(q)
    add, mul = field_ops_oracle(f.p, f.k, f.modulus)
    n = 8 if q < 4 else 6
    for r in (2, 3, 4):
        m = random_matroid(r, n, f, seed=3000 + 10 * q + r)
        cols = m.matrix.col_tuples()
        multiples = [[tuple(mul(c, x) for x in col) for c in range(q)] for col in cols]
        seen, supports = set(), []
        for x in product(range(q), repeat=n):
            acc = (0,) * m.matrix.rows
            for j, c in enumerate(x):
                acc = tuple(add(a, b) for a, b in zip(acc, multiples[j][c]))
            if not any(x) or any(acc):
                continue
            point = min(tuple(mul(c, v) for v in x) for c in range(1, q))  # one per scalar class
            if point not in seen:
                seen.add(point)
                supports.append(sum(1 << j for j, v in enumerate(x) if v))
        assert sorted(_codeword_supports(m)) == sorted(supports), r
        weights = [s.bit_count() for s in supports]
        assert girth(m) == min(weights, default=math.inf)
        assert _weight_counts(rank_table(m), q) == Counter(weights)


def test_weight_counts_depend_only_on_the_matroid_and_q():
    # M(K_t) over each field; its codeword weights over GF(q) come from its ranks alone
    for t in (3, 4, 5):
        for q in (2, 3, 4):
            listed = Counter(s.bit_count() for s in _codeword_supports(clique(t, field_from_order(q))))
            for other in (2, 3, 4):
                ranks = rank_table(clique(t, field_from_order(other)))
                assert _weight_counts(ranks, q) == listed, (t, q, other)


def test_has_minor_witness_is_sound():
    m = clique(4, F2)
    target = clique(3, F2)
    dels, cons = has_minor(m, target)
    assert is_isomorphic(minor(m, delete=dels, contract=cons), target)


def test_has_minor_agrees_with_rank_formula_oracle():
    rng = random.Random(0)
    for trial in range(12):
        q = (2, 3)[trial % 2] if trial < 8 else (4, 5)[trial % 2]
        f = field_from_order(q)
        m = random_matroid(rng.randint(2, 3), 6, f, seed=7000 + trial)
        t = random_matroid(rng.randint(1, 2), 3, f, seed=7100 + trial)
        assert (has_minor(m, t) is not None) == brute_minor(m, t)
        dels = set(rng.sample(m.labels, 2))
        cons = set(rng.sample([l for l in m.labels if l not in dels], 1))
        assert has_minor(m, minor(m, delete=dels, contract=cons)) is not None
    # a guaranteed absent case on the same oracle
    mk4_gf3 = clique(4, F3)
    u24 = uniform(2, 4, F5)
    assert has_minor(mk4_gf3, u24) is None
    assert not brute_minor(mk4_gf3, u24)


def test_has_minor_girth_screen_agrees_with_rank_formula_oracle():
    # U_{3,5} has girth 4 and few independent sets, so these searches skip the
    # weight screen and reject the candidates that hold a 3-circuit by girth
    u35 = uniform(3, 5, F5)
    answers = []
    for seed in (1, 6):
        m = random_matroid(3, 7, F5, seed=seed)
        answers.append(has_minor(m, u35) is not None)
        assert answers[-1] == brute_minor(m, u35), seed
    assert answers == [True, False]


def _with_column(m, col, label):
    """m with one more column."""
    cols = m.matrix.col_tuples() + [col]
    return RepMatroid(m.field, GFMatrix.from_cols(m.field, cols, m.matrix.rows), m.labels + (label,))


def _first_witness_targets(f):
    """M(K4), M(K4)*, U_{2,4} and U_{3,5} where GF(q) represents them, four
    targets of girth at most 2: a triangle with one side doubled and
    triangles with one and with two loops, where no girth bound applies
    and the profile match alone rejects a wrong number of loops, and
    M(K3)* = U_{1,3}, one parallel class of three, of girth 2; and the free
    U_{3,3}, which has no circuit at all."""
    triangle = uniform(2, 3, f)
    targets = {"mk4": clique(4, f), "mk4_dual": dual(clique(4, f))}
    if f.q >= 3:
        targets["u24"] = uniform(2, 4, f)
    if f.q >= 4:
        targets["u35"] = uniform(3, 5, f)
    targets["parallel"] = _with_column(triangle, triangle.matrix.col_tuples()[0], "p")
    targets["loop"] = _with_column(triangle, (0, 0), "z")
    targets["free"] = uniform(3, 3, f)
    targets["mk3_dual"] = clique(3, f, dualize=True)
    targets["loops"] = _with_column(targets["loop"], (0, 0), "y")
    return targets


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_has_minor_first_witness_matches_the_brute_force_oracle(q):
    # the same (delete, contract) pair as an oracle that walks the canonical
    # order outright, on seeded matroids of at most 10 elements; the oracle
    # lists independent sets by spans, so ranks stay small
    f = field_from_order(q)
    rng = random.Random(1200 + q)
    outcomes = Counter()
    for t, (name, target) in enumerate(_first_witness_targets(f).items()):
        for i in range(8):
            n = rng.randint(target.size + 1, 10 if q < 4 else 9)
            r = rng.randint(target.rank, min(n - 1, target.rank + 2))
            m = random_matroid(r, n, f, seed=12000 + 100 * q + 10 * t + i)
            expected = first_minor_witness(m, target)
            assert has_minor(m, target) == expected, (name, i)
            outcomes[name, expected is not None] += 1
        # a free m has no cycle space: the codeword screen lists no codewords
        for n in (target.size, target.size + 2):
            m = uniform(n, n, f)
            expected = first_minor_witness(m, target)
            assert has_minor(m, target) == expected, (name, "free", n)
            outcomes[name, expected is not None] += 1
    assert {found for _, found in outcomes} == {True, False}
    assert outcomes["free", True] >= 2  # U_{3,3} is a minor of U_{n,n} for n >= 3


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_contract_set_walk_keeps_every_contract_set_with_a_witness(q):
    # the walk's prefix bound only drops contract sets C for which no
    # deletion set D makes (m/C)\D the target: every C with a witness in
    # the oracle is yielded, whether or not m's codewords are listed
    f = field_from_order(q)
    rng = random.Random(2600 + q)
    sides = Counter()
    for t, (name, target) in enumerate(_first_witness_targets(f).items()):
        g, t_count = girth(target), len(_Profile.of(target).indep)
        for i in range(4):
            n = rng.randint(target.size + 1, 10 if q < 4 else 9)
            r = rng.randint(target.rank, min(n - 1, target.rank + 2))
            m = random_matroid(r, n, f, seed=26000 + 100 * q + 10 * t + i)
            r_diff = m.rank - target.rank
            d_count = n - r_diff - target.size
            listed = (q ** (n - m.rank) - 1) // (q - 1) <= t_count  # has_minor's rule
            supports = _codeword_supports(m) if listed else None
            walked = {c for c, _, _ in matroid._contract_sets(m, r_diff, g, d_count, supports)}
            witnessed = {sum(1 << j for j in m.indices_of(c)) for _, c in minor_witnesses(m, target)}
            assert witnessed <= walked, (name, i)
            sides[listed, bool(witnessed)] += 1
    assert set(sides) == {(False, False), (False, True), (True, False), (True, True)}, sides


# the graphs of the graphic `_first_witness_targets`: K4 (self-dual, so for
# M(K4)* too), a triangle with a doubled side, triangles with one and with
# two loops, a path of three edges and three parallel edges
_TARGET_GRAPHS = {
    "mk4": (4, list(combinations(range(4), 2))),
    "mk4_dual": (4, list(combinations(range(4), 2))),
    "parallel": (3, [(0, 1), (1, 2), (0, 2), (0, 1)]),
    "loop": (3, [(0, 1), (1, 2), (0, 2), (0, 0)]),
    "free": (4, [(0, 1), (1, 2), (2, 3)]),
    "mk3_dual": (2, [(0, 1)] * 3),
    "loops": (3, [(0, 1), (1, 2), (0, 2), (0, 0), (0, 0)]),
}


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_target_record_reads_the_girth_as_the_least_weight(q):
    # Greene's theorem: a set smaller than every circuit counts 0 and a
    # circuit counts q - 1, so the least weight is the girth, also over a
    # field that does not represent the target
    f = field_from_order(q)
    targets = _first_witness_targets(f)
    if q == 2:
        targets["u24@gf3"] = uniform(2, 4, F3)
    for name, target in targets.items():
        g = matroid._target_screens(target, q)[2]
        assert g == min(_weight_counts(rank_table(target), q), default=math.inf) == girth(target), name
        if name in _TARGET_GRAPHS:
            assert g == graph_girth_oracle(*_TARGET_GRAPHS[name]), name
    assert _weight_counts(rank_table(targets["free"]), q) == {}
    assert matroid._target_screens(targets["free"], q)[2] == math.inf


@pytest.mark.parametrize("target, q", [
    (clique(5, F2), 2),
    (clique(5, F2, dualize=True), 2),
    (_first_witness_targets(F2)["loop"], 2),
    (uniform(2, 4, F3), 2),
], ids=["mk5", "mk5_dual", "loop", "u24@gf3-q2"])
def test_target_record_walks_its_target_once(monkeypatch, target, q):
    # the profile's independent sets also give the rank table behind the
    # weight counts, so a record walks its target's independent sets once
    walks = []
    real = matroid._independent_masks
    monkeypatch.setattr(matroid, "_independent_masks", lambda *args: walks.append(args) or real(*args))
    matroid._target_screens.cache_clear()
    profile, counts, g = matroid._target_screens(target, q)
    assert len(walks) == 1
    assert counts == _weight_counts(rank_table(target), q) and g == girth(target)
    assert profile.indep == set(real(target._kernel, target._packed(), target.rank))


@pytest.mark.parametrize("q", [2, 3, 5])
def test_dependent_masks_cover_every_small_dependent_set(q):
    f = field_from_order(q)
    for seed in range(6):
        m = random_matroid(2 + seed % 4, 8, f, seed=5000 + 10 * q + seed)
        for limit in range(1, m.rank + 2):
            masks = _short_dependent_sets(m._kernel, m._packed(), limit)
            # every dependent set of at most `limit` elements holds a listed
            # one, and every listed one is dependent and that small
            for s in range(1 << m.size):
                if s.bit_count() > limit:
                    continue
                labels = [l for j, l in enumerate(m.labels) if s >> j & 1]
                dependent = subset_rank(m, labels) < len(labels)
                assert any(not d & ~s for d in masks) == dependent, (seed, limit, s)
                assert (s in masks) <= dependent


def test_girth_of_dual_equals_min_cocircuit_size():
    # cocircuit oracle: smallest S with rank(E \ S) < rank(M)
    for i in range(8):
        m = random_matroid(3, 7, field_from_order((2, 3)[i % 2]), seed=700 + i)
        d_girth = girth(dual(m))
        labels = list(m.labels)
        r = m.rank
        oracle = math.inf
        for s in range(1, len(labels) + 1):
            if any(subset_rank(m, set(labels) - set(c)) < r for c in combinations(labels, s)):
                oracle = s
                break
        assert d_girth == oracle


def test_bases_are_maximal_independent_sets():
    m = clique(4, F2)
    bs = bases(m)
    assert len(bs) == 16  # spanning trees of K_4
    for b in bs:
        assert subset_rank(m, b) == 3


def test_girth_matches_brute_force_min_dependent_size():
    from oracles import brute_independent

    for i in range(9):
        q = (2, 3, 4)[i % 3]
        f = field_from_order(q)
        m = random_matroid(3, 7, f, seed=6000 + i)
        cols = m.matrix.col_tuples()
        expected = math.inf
        for s in range(1, 8):
            if any(
                not brute_independent(q, f.add, f.mul, [cols[j] for j in c])
                for c in combinations(range(7), s)
            ):
                expected = s
                break
        assert girth(m) == expected


def test_dual_bases_are_complements():
    # independent characterization: bases of M* = complements of bases of M
    for i in range(12):
        q = (2, 3, 4, 8, 9)[i % 5]
        m = random_matroid(3, 7, field_from_order(q), seed=5000 + i)
        d = dual(m)
        mb = {frozenset(b) for b in bases(m)}
        db = {frozenset(b) for b in bases(d)}
        assert db == {frozenset(set(m.labels) - b) for b in mb}


def test_extension_field_ranks_match_brute_force():
    from oracles import brute_independent

    for q in (4, 8, 9):
        f = field_from_order(q)
        m = random_matroid(3, 6, f, seed=60 + q)
        cols = m.matrix.col_tuples()
        for size in range(1, 5):
            for combo in combinations(range(6), size):
                sel = [cols[j] for j in combo]
                expected = brute_independent(q, f.add, f.mul, sel)
                got = subset_rank(m, [m.labels[j] for j in combo]) == size
                assert expected == got


def test_gfm_roundtrip():
    m = uniform(2, 4, F5)
    text = matroid_to_gfm(m)
    back = matroid_from_gfm(text)
    assert back.labels == m.labels
    assert back.matrix == m.matrix


def test_rank_table_matches_brute_rank():
    from oracles import brute_rank, poly_add_oracle, poly_mul_oracle

    for q in (2, 3, 4):
        f = field_from_order(q)
        if f.k == 1:
            add, mul = (lambda a, b: (a + b) % q), (lambda a, b: (a * b) % q)
        else:
            add = lambda a, b: poly_add_oracle(f.p, f.k, a, b)  # noqa: E731
            mul = lambda a, b: poly_mul_oracle(f.p, f.k, f.modulus, a, b)  # noqa: E731
        # a rank-0 and a free matroid: the walk gives only the empty set, or every set
        for rank, size in ((3, 7), (0, 4), (4, 4)):
            m = random_matroid(rank, size, f, seed=800 + q)
            cols = m.matrix.col_tuples()
            table = rank_table(m)
            for mask in range(1 << m.size):
                sub = [cols[j] for j in range(m.size) if mask >> j & 1]
                assert table[mask] == brute_rank(q, add, mul, sub)


def test_sample_bases_seeded_gf2():
    pet = graphic(named_graph("petersen"), F2)
    got = sample_bases(pet, 4, 7)
    assert got == [
        ("0-4", "1-2", "1-6", "3-4", "4-9", "5-8", "6-8", "6-9", "7-9"),
        ("0-1", "0-5", "1-6", "2-3", "3-4", "4-9", "5-7", "5-8", "6-9"),
        ("0-4", "0-5", "1-6", "2-3", "3-4", "3-8", "5-7", "6-8", "6-9"),
        ("0-1", "1-2", "1-6", "2-3", "2-7", "3-4", "5-8", "6-8", "7-9"),
    ]
    assert set(got) <= {tuple(sorted(b)) for b in bases(pet)}


def test_sample_bases_seeded_gf3():
    m = random_matroid(3, 7, F3, seed=41)
    got = sample_bases(m, 5, 3)
    assert got == [
        ("e0", "e2", "e3"),
        ("e1", "e2", "e3"),
        ("e0", "e2", "e6"),
        ("e1", "e2", "e5"),
        ("e3", "e5", "e6"),
    ]
    assert set(got) <= {tuple(sorted(b)) for b in bases(m)}


def _kernel_instances(q, add, mul):
    """Seeded matrices over GF(q) of ranks 1-5 with forced loops and
    parallel pairs; then, for s = 3 and 4, three generic columns followed
    by an s-circuit that is the only dependent set of at most s columns:
    a search that stops one start early misses it; then matrices of rank
    1, 2 and 4, each with a loop and a parallel class of three columns
    scaled by different nonzero elements where the field has them."""
    rng = random.Random(7000 + q)
    out = []
    for i in range(10):
        r = 1 + i % 5
        n = rng.randint(r + 1, 8 if r < 5 else 7)
        cols = [tuple(rng.randrange(q) for _ in range(r)) for _ in range(n)]
        if i % 3 == 0:
            cols[rng.randrange(n)] = (0,) * r
        if i % 3 == 1:
            a, b = rng.sample(range(n), 2)
            cols[b] = tuple(mul(rng.randrange(1, q), x) for x in cols[a])
        out.append(cols)
    for s in (3, 4):
        r = s + 1
        for _ in range(1000):
            cols = [tuple(rng.randrange(q) for _ in range(r)) for _ in range(2 + s)]
            last = [0] * r
            for col in cols[3:]:
                c = rng.randrange(1, q)
                last = [add(x, mul(c, y)) for x, y in zip(last, col)]
            cols.append(tuple(last))
            indep = independent_masks_oracle(q, add, mul, cols)
            n = len(cols)
            small = [c for k in range(1, s + 1) for c in combinations(range(n), k)
                     if sum(1 << j for j in c) not in indep]
            if small == [tuple(range(n - s, n))]:
                out.append(cols)
                break
        else:
            raise AssertionError(f"no GF({q}) instance with a lone last {s}-circuit")
    for r in (1, 2, 4):
        while True:
            gens = [[rng.randrange(q) for _ in range(r + 1)] for _ in range(r)]
            cols = []
            for _ in range(r + 4):
                col = [0] * (r + 1)
                for g in gens:
                    c = rng.randrange(q)
                    col = [add(x, mul(c, y)) for x, y in zip(col, g)]
                cols.append(tuple(col))
            a, b, c, z = rng.sample(range(len(cols)), 4)
            for k, j in enumerate((b, c), 1):
                cols[j] = tuple(mul(1 + k % (q - 1), x) for x in cols[a])
            cols[z] = (0,) * (r + 1)
            if any(cols[a]) and max(map(int.bit_count, independent_masks_oracle(q, add, mul, cols))) == r:
                out.append(cols)
                break
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_span_kernel_matches_independent_set_oracle(q):
    from oracles import field_ops_oracle

    f = field_from_order(q)
    add_o, mul_o = field_ops_oracle(f.p, f.k, f.modulus)
    add_t = [[add_o(a, b) for b in range(q)] for a in range(q)]
    mul_t = [[mul_o(a, b) for b in range(q)] for a in range(q)]
    add, mul = (lambda a, b: add_t[a][b]), (lambda a, b: mul_t[a][b])
    for cols in _kernel_instances(q, add, mul):
        n, rows = len(cols), len(cols[0])
        m = RepMatroid(f, GFMatrix.from_cols(f, cols, rows), [f"e{j}" for j in range(n)])
        indep = independent_masks_oracle(q, add, mul, cols)
        r = max(s.bit_count() for s in indep)
        assert m.rank == r
        sizes = [s for s in range(1, n + 1)
                 if any(sum(1 << j for j in c) not in indep for c in combinations(range(n), s))]
        expected = sizes[0] if sizes else math.inf
        assert girth(m) == expected
        for cutoff in range(1, r + 2):
            assert girth(m, cutoff=cutoff) == (expected if expected <= cutoff else None)
        # both walks reduce once per independent set of 1 to r - 2 columns
        # and close with the pair test; the masks come in preorder, that is
        # in the order of their index tuples
        reductions = []
        kern = m._kernel
        m._kernel = kern._replace(reduce=lambda p, red: reductions.append(p) or kern.reduce(p, red))
        order = sorted(indep, key=lambda s: [j for j in range(n) if s >> j & 1])
        assert _independent_masks(m._kernel, m._packed(), r) == order
        assert len(reductions) == sum(1 <= s.bit_count() <= r - 2 for s in indep)
        reductions.clear()
        assert bases(m) == [tuple(m.labels[j] for j in c) for c in combinations(range(n), r)
                            if sum(1 << j for j in c) in indep]
        # the basis walk skips a set with fewer later columns than it needs
        assert len(reductions) == sum(
            1 <= s.bit_count() <= r - 2 and n - s.bit_length() >= r - s.bit_count() for s in indep
        )
        m._kernel = kern
        # every set of at most r + 1 columns holds a listed short dependent
        # set exactly when it is dependent
        short = _short_dependent_sets(m._kernel, m._packed(), r + 1)
        assert not set(short) & indep
        for size in range(r + 2):
            for c in combinations(range(n), size):
                s = sum(1 << j for j in c)
                assert any(not d & ~s for d in short) == (s not in indep), c


def test_repmatroid_rejects_mismatched_inputs():
    mat = GFMatrix(F2, [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="matrix field differs"):
        RepMatroid(F3, mat, ("a", "b"))
    with pytest.raises(ValueError, match="3 labels for 2 columns"):
        RepMatroid(F2, mat, ("a", "b", "c"))
    with pytest.raises(ValueError, match="labels must be distinct"):
        RepMatroid(F2, mat, ("a", "a"))


def test_is_circuit_of_empty_and_independent_sets():
    m = clique(4, F2)
    assert not is_circuit(m, ())
    assert not is_circuit(m, ("0-1", "0-2"))
    assert is_circuit(m, ("0-1", "0-2", "1-2"))
