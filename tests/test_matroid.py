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
    _Profile, _codeword_supports, _dependent_masks, _independent_masks, _match_profiles,
    _weight_counts,
)

from oracles import brute_minor, graph_girth_oracle, edge_connectivity_oracle

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
    free = RepMatroid(F2, GFMatrix.identity(F2, 4), list("abcd"))
    assert girth(free) == math.inf
    pet = graphic(named_graph("petersen"), F2)
    g = named_graph("petersen")
    assert girth(pet) == graph_girth_oracle(g.n, g.edges) == 5


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
    free = RepMatroid(F2, GFMatrix.identity(F2, 3), list("abc"))
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
    pa, pb = (_Profile.of(m._kernel, m._packed()) for m in (hexagon, triangles))
    assert (pa.n, pa.rank, pa.n_bases, len(pa.indep)) == (pb.n, pb.rank, pb.n_bases, len(pb.indep))
    assert sorted(pa.inv) == sorted(pb.inv)
    assert not is_isomorphic(hexagon, triangles)
    rng = random.Random(3)
    for m in (hexagon, triangles):
        assert is_isomorphic(m, _relabelled_copy(m, rng))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_filtered_profile_agrees_with_the_minor_built_outright(q):
    # has_minor reads the profile of a candidate (m/C)\D from the
    # independent sets of m/C that miss D, by mask; build the minor instead
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
        filtered = _Profile(
            [s for s in _independent_masks(base._kernel, base._packed()) if not s & dmask],
            [1 << j for j, l in enumerate(base.labels) if l not in dset],
        )
        cand = minor(m, delete=dset, contract=cset)
        built = _Profile.of(cand._kernel, cand._packed())
        assert (filtered.n, filtered.rank, filtered.n_bases, len(filtered.indep)) == (
            built.n, built.rank, built.n_bases, len(built.indep)
        ), i
        assert sorted(filtered.inv) == sorted(built.inv), i
        if cand.size > 4:
            continue  # the brute-force oracle tries q^k combinations per k-subset
        if i % 2:
            other = _relabelled_copy(cand, rng)
        else:
            other = random_matroid(cand.rank, cand.size, f, seed=9500 + 100 * q + i)
        expected = brute_isomorphic(q, add, mul, cand.matrix.col_tuples(), other.matrix.col_tuples())
        assert _match_profiles(filtered, _Profile.of(other._kernel, other._packed())) == expected, i
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
    matroid._weight_counts.cache_clear()
    cached = build()
    first = has_minor(m, cached)
    assert first is not None
    assert matroid._target_screens.cache_info().hits == 0
    fresh = build()
    assert fresh is not cached and fresh == cached
    assert has_minor(m, fresh) == first
    assert matroid._target_screens.cache_info().hits == 1
    # Petersen has few codewords, so its search also reads the target's weights
    weights = matroid._weight_counts.cache_info()
    assert (weights.misses, weights.hits) == ((1, 1) if m.field.q == 2 else (0, 0))


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
        assert _weight_counts(m, q) == Counter(weights)


def test_weight_counts_depend_only_on_the_matroid_and_q():
    # M(K_t) over each field; its codeword weights over GF(q) come from its ranks alone
    for t in (3, 4, 5):
        for q in (2, 3, 4):
            listed = Counter(s.bit_count() for s in _codeword_supports(clique(t, field_from_order(q))))
            for other in (2, 3, 4):
                assert _weight_counts(clique(t, field_from_order(other)), q) == listed, (t, q, other)


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


@pytest.mark.parametrize("q", [2, 3, 5])
def test_dependent_masks_cover_every_small_dependent_set(q):
    f = field_from_order(q)
    for seed in range(6):
        m = random_matroid(2 + seed % 4, 8, f, seed=5000 + 10 * q + seed)
        for size in (1, 2, 3, 4):
            masks = _dependent_masks(m._kernel, m._packed(), size)
            for s in range(1 << m.size):
                if s.bit_count() > size:
                    continue
                labels = [l for j, l in enumerate(m.labels) if s >> j & 1]
                dependent = subset_rank(m, labels) < len(labels)
                assert any(not d & ~s for d in masks) == dependent, (seed, size, s)
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
        m = random_matroid(3, 7, f, seed=800 + q)
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
