import math
import random
from itertools import combinations

import pytest

from gfmatroids import (
    clique,
    dual,
    field_from_order,
    from_id,
    format_graph,
    girth,
    graphic,
    is_isomorphic,
    named_graph,
    named_graph_info,
    parse_graph,
    projective_geometry,
    random_matroid,
    simplify,
    subset_rank,
    uniform,
)
from gfmatroids.generators import Graph, _check_entries, complete_graph

from oracles import (
    brute_independent,
    brute_rank,
    components_oracle,
    edge_connectivity_oracle,
    graph_girth_oracle,
)

F2 = field_from_order(2)
F3 = field_from_order(3)
F5 = field_from_order(5)


def test_graphic_k3_is_u23():
    m = graphic(complete_graph(3), F2)
    assert is_isomorphic(m, uniform(2, 3, F3))


def test_graphic_k4_shape():
    m = clique(4, F2)
    assert (m.size, m.rank, girth(m)) == (6, 3, 3)


def test_graphic_petersen_over_gf3():
    g = named_graph("petersen")
    m = graphic(g, F3)
    assert m.rank == 9
    assert girth(m) == graph_girth_oracle(g.n, g.edges) == 5


def test_graphic_rank_is_vertices_minus_components():
    rng = random.Random(9)
    for _ in range(15):
        n = rng.randint(3, 8)
        edges = tuple(
            tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(1, 10))
        )
        g = Graph(n, edges)
        m = graphic(g, F3)
        assert m.rank == n - components_oracle(n, edges)


def test_graphic_loop_becomes_zero_column():
    g = Graph(2, ((0, 0), (0, 1)))
    m = graphic(g, F3)
    assert girth(m) == 1


def test_graphic_girth_and_cogirth_match_graph_oracles():
    for gid in ("k3", "k4", "k5", "cube"):
        g = named_graph(gid)
        m = graphic(g, F2)
        assert girth(m) == graph_girth_oracle(g.n, g.edges)
        assert girth(dual(m)) == edge_connectivity_oracle(g.n, g.edges)


def test_clique_examples():
    m3 = clique(3, F2, dualize=True)
    assert (m3.size, m3.rank, girth(m3)) == (3, 1, 2)
    assert girth(clique(4, F2, dualize=True)) == 3
    m5 = clique(5, F2)
    assert (m5.size, m5.rank) == (10, 4)
    k5 = named_graph("k5")
    assert girth(clique(5, F2, dualize=True)) == edge_connectivity_oracle(k5.n, k5.edges) == 4


def test_uniform_u24_gf5():
    u = uniform(2, 4, F5)
    assert girth(u) == 3
    for pair in combinations(u.labels, 2):
        assert subset_rank(u, pair) == 2


def test_uniform_u13_parallel_class():
    u = uniform(1, 3, F2)
    assert simplify(u).size == 1
    assert girth(u) == 2


def test_uniform_u35_vandermonde_oracle():
    u = uniform(3, 5, F5)
    cols = u.matrix.col_tuples()
    for combo in combinations(cols, 3):
        assert brute_independent(5, F5.add, F5.mul, combo)


def test_uniform_rank_function_exhaustive():
    for t, n, f in [(2, 5, F5), (3, 6, F5), (1, 4, F3), (3, 3, F2), (4, 4, F5)]:
        u = uniform(t, n, f)
        for size in range(n + 1):
            for combo in combinations(u.labels, size):
                assert subset_rank(u, combo) == min(size, t)


@pytest.mark.parametrize("f", [F2, F3], ids=["gf2", "gf3"])
def test_uniform_of_corank_at_most_one_over_any_field(f):
    # U_{n-1,n} and U_{n,n} exist over every field, past the q + 1 columns
    # the moments give
    for n in range(1, 7):
        for t in (n - 1, n):
            u = uniform(t, n, f)
            assert u.labels == tuple(f"e{j}" for j in range(n))
            cols = dict(zip(u.labels, u.matrix.col_tuples()))
            for size in (t, t + 1):
                for combo in combinations(u.labels, size):
                    assert brute_rank(f.q, f.add, f.mul, [cols[l] for l in combo]) == t


def test_uniform_field_too_small():
    with pytest.raises(ValueError, match="needs q >="):
        uniform(2, 5, F3)
    with pytest.raises(ValueError, match="needs q >="):
        uniform(3, 6, field_from_order(4))  # a hyperoval: representable, not by moments


def test_projective_geometry_point_counts():
    for q, r in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2)]:
        f = field_from_order(q)
        pg = projective_geometry(r, f)
        assert pg.size == (q**r - 1) // (q - 1)
        assert pg.rank == r
        assert simplify(pg).size == pg.size  # already simple


def test_projective_geometry_examples():
    assert projective_geometry(3, F2).size == 7  # Fano plane
    pg13 = projective_geometry(2, F3)
    assert pg13.size == 4
    assert is_isomorphic(pg13, uniform(2, 4, F3))
    assert projective_geometry(1, F5).size == 1


def test_projective_geometry_guard():
    with pytest.raises(ValueError, match="guard"):
        projective_geometry(25, F3)


def test_matrix_size_guard_counts_rank_times_elements():
    _check_entries(10, 10**6)
    _check_entries(0, 10**6)  # the ground set is bounded at every rank
    with pytest.raises(ValueError, match=r"10000001 entries\) exceeds the 10\^7 entry guard"):
        _check_entries(11, 909_091)
    with pytest.raises(ValueError, match=r"1000001 elements\) exceeds the 10\^7 entry guard"):
        _check_entries(0, 10**6 + 1)
    with pytest.raises(ValueError, match="1000001 elements"):
        _check_entries(1, 10**6 + 1)


@pytest.mark.parametrize("build", [
    lambda: clique(400, F2),  # 399 x 79,800
    lambda: clique(81, F2, dualize=True),  # 3,160 x 3,240
    lambda: clique(100_000, F2),
    lambda: uniform(0, 10**7 + 1, F2),
    lambda: uniform(1, 10**7 + 1, F3),
    lambda: uniform(0, 10**6 + 1, F2),  # few entries, but the ground set is too large
], ids=["mk400", "mk81_dual", "mk100000", "u_0", "u_1", "u_0_1000001"])
def test_clique_and_uniform_refuse_large_matrices_before_building(build):
    with pytest.raises(ValueError, match=r"exceeds the 10\^7 entry guard"):
        build()


def test_named_graphs_match_metadata_oracles():
    for gid in ("k3", "k4", "k5", "petersen", "heawood", "cube", "mcgee"):
        g = named_graph(gid)
        want_girth, want_conn = named_graph_info(gid)
        assert graph_girth_oracle(g.n, g.edges) == want_girth
        assert edge_connectivity_oracle(g.n, g.edges) == want_conn


def test_named_graph_sizes():
    pet = named_graph("petersen")
    assert (pet.n, len(pet.edges)) == (10, 15)
    hw = named_graph("heawood")
    assert (hw.n, len(hw.edges)) == (14, 21)
    mg = named_graph("mcgee")
    assert (mg.n, len(mg.edges)) == (24, 36)
    k4 = named_graph("k4")
    assert (k4.n, len(k4.edges)) == (4, 6)


def test_named_graph_unknown():
    with pytest.raises(ValueError, match="unknown graph id"):
        named_graph("dodecahedron")


def test_random_matroid_deterministic():
    a = random_matroid(4, 10, F2, seed=7)
    b = random_matroid(4, 10, F2, seed=7)
    assert a.matrix == b.matrix
    # regression value recorded from the implementation's own oracle run
    assert girth(a) == 1


def test_random_matroid_full_rank_free():
    m = random_matroid(5, 5, F3, seed=1)
    assert girth(m) == math.inf


def test_random_matroid_reaches_requested_rank():
    for seed in range(10):
        m = random_matroid(3, 6, F2, seed=seed)
        assert m.rank == 3


def test_graphic_rows_follow_the_edges_not_the_vertex_count():
    m = graphic(Graph(10**6, ((0, 1),)), F2)
    assert m.matrix.rows == 2
    assert m.rank == 1
    assert girth(m) == math.inf


def test_graph_text_roundtrip():
    g = named_graph("cube")
    back = parse_graph(format_graph(g))
    assert back == g


def test_graph_text_errors():
    with pytest.raises(ValueError, match="header"):
        parse_graph("grap n=2 m=1\n0 1\n")
    with pytest.raises(ValueError, match="edge lines"):
        parse_graph("graph n=2 m=2\n0 1\n")


def test_from_id_forms():
    assert from_id("mk4").size == 6
    assert from_id("mk5_dual").rank == 6
    assert from_id("pg_2_2").size == 7
    assert from_id("u_2_4@gf5").size == 4
    assert from_id("petersen@gf2").size == 15
    assert from_id("cube@gf3").field.q == 3


def test_from_id_errors():
    with pytest.raises(ValueError, match="unknown generator"):
        from_id("mystery")
    with pytest.raises(ValueError, match="need a field"):
        from_id("u_2_4")
    with pytest.raises(ValueError, match="conflicts"):
        from_id("pg_2_2@gf3")


def test_generators_reject_bad_parameters():
    with pytest.raises(ValueError, match="outside vertex range"):
        Graph(3, ((0, 3),))
    with pytest.raises(ValueError, match="uniform needs 0 <= t <= n, got t=5, n=3"):
        uniform(5, 3, F5)
    with pytest.raises(ValueError, match="rank >= 1, got 0"):
        projective_geometry(0, F2)
    with pytest.raises(ValueError, match="rank 4 exceeds element count 3"):
        random_matroid(4, 3, F2, 0)
