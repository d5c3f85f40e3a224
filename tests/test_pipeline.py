import pytest

import time

from gfmatroids import (
    GFMatrix,
    NoCircuitError,
    NotABasisError,
    NotCosimpleError,
    RepMatroid,
    bases,
    build_set_system,
    circuit_of_dependent,
    clique,
    density_ratio,
    field_from_order,
    find_short_circuit,
    from_id,
    graphic,
    is_circuit,
    named_graph,
    packing_ratios,
    projective_geometry,
    random_matroid,
    rref,
    sample_bases,
    standard_form,
    uniform,
    verify_dichotomy,
)
from gfmatroids import generators, pipeline
from gfmatroids.generators import Graph
from gfmatroids.matroid import GIRTH_LIMIT

from oracles import (
    brute_rank, field_ops_oracle, graph_girth_oracle, is_graph_cycle, short_circuit_reference,
)

F2 = field_from_order(2)
F3 = field_from_order(3)
F5 = field_from_order(5)


def test_short_circuit_mk4_star_basis():
    mk4 = clique(4, F2)
    circ, stats = find_short_circuit(mk4, ["0-1", "0-2", "0-3"])
    # the fundamental triangle beats the pair-extracted 4-cycle
    assert len(circ) == 3
    assert stats.nonbasis_count == 1
    assert stats.source == "fundamental"
    assert stats.min_sym_diff == 2
    assert is_circuit(mk4, circ)
    assert is_graph_cycle(circ)


def test_short_circuit_duplicate_columns():
    m = RepMatroid(F3, GFMatrix(F3, [[1, 0, 2, 2], [0, 1, 1, 1]]), ["b1", "b2", "x", "y"])
    circ, stats = find_short_circuit(m, ["b1", "b2"])
    assert circ == frozenset({"x", "y"})
    assert stats.min_sym_diff == 0


def test_short_circuit_single_nonbasis_falls_back_to_fundamental():
    u23 = uniform(2, 3, F3)
    basis = u23.labels[:2]
    circ, stats = find_short_circuit(u23, basis)
    assert circ == frozenset(u23.labels)
    assert stats.min_sym_diff is None
    assert stats.source == "fundamental"


def test_short_circuit_free_matroid_errors():
    free = RepMatroid(F2, GFMatrix.identity(F2, 3), list("abc"))
    with pytest.raises(NoCircuitError):
        find_short_circuit(free, list("abc"))


def test_short_circuit_invariants_random():
    for i in range(25):
        q = (2, 3, 4, 5)[i % 4]
        m = random_matroid(min(2 + i % 4, 5), 7 + i % 4, field_from_order(q), seed=1500 + i)
        for basis in bases(m)[:10]:
            circ, stats = find_short_circuit(m, basis)
            assert is_circuit(m, circ)
            assert len(circ - set(basis)) <= 2
            assert len(circ) <= stats.best_fundamental
            if stats.min_sym_diff is not None:
                assert len(circ) <= stats.pair_hamming + 2
                assert len(circ) <= stats.min_hamming + 2


def test_short_circuit_graphic_is_cycle_with_few_nontree_edges():
    for gid in ("k4", "k5", "petersen", "cube"):
        m = graphic(named_graph(gid), F2)
        for basis in sample_bases(m, 6, seed=1):
            circ, _ = find_short_circuit(m, basis)
            assert is_graph_cycle(circ)
            assert len(circ - set(basis)) <= 2


def test_verify_dichotomy_mk4_dual():
    rep = verify_dichotomy(clique(4, F2, dualize=True), 4, instance_id="mk4_dual")
    statuses = {f.target: f.status for f in rep.minors}
    assert statuses["mk4_dual"] == "found"
    assert rep.cosimple and rep.girth == 3
    assert rep.nonbasis_count <= 2


def test_verify_dichotomy_u24_over_gf5():
    rep = verify_dichotomy(uniform(2, 4, F5), 3, instance_id="u_2_4@gf5")
    statuses = {f.target: f.status for f in rep.minors}
    assert rep.girth == 3
    assert statuses["mk3"] == "found"
    assert statuses["mk3_dual"] == "found"
    assert rep.circuit_size == 3 and rep.nonbasis_count <= 2


def test_verify_dichotomy_rejects_bridge():
    # path graph: every edge is a bridge, i.e. a coloop
    path = graphic(Graph(3, ((0, 1), (1, 2))), F2)
    with pytest.raises(NotCosimpleError) as info:
        verify_dichotomy(path, 3)
    kind, elements = info.value.certificate
    assert kind == "coloop"
    assert elements


def test_verify_dichotomy_series_pair_certificate():
    # triangle with one subdivided edge: the two subdivision edges are in series
    g = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
    cyc = graphic(g, F2)  # a 4-cycle is cosimple? no: every pair of edges is a series pair
    with pytest.raises(NotCosimpleError) as info:
        verify_dichotomy(cyc, 3)
    assert info.value.certificate[0] == "series_pair"


def test_verify_dichotomy_sampled_mode():
    # 21 elements: above the minor-search limit, so only the basis sampling runs
    heawood = from_id("heawood@gf2")
    rep = verify_dichotomy(heawood, 5, basis_mode="sample", samples=5, seed=3)
    assert rep.bases_checked == 5
    assert rep.basis_mode == "sample:5"
    assert rep.nonbasis_count <= 2
    assert [f.status for f in rep.minors] == ["skipped", "skipped"]


def test_verify_dichotomy_past_the_girth_limit_reports_exact_girth():
    # McGee has 36 elements: girth without a cutoff refuses it, and the
    # report must degrade only its minor findings
    mcgee = from_id("mcgee@gf2")
    assert mcgee.size > GIRTH_LIMIT
    rep = verify_dichotomy(mcgee, 5, basis_mode="sample", samples=5)
    g = named_graph("mcgee")
    assert rep.girth == graph_girth_oracle(g.n, g.edges) == 7
    assert rep.circuit_size >= rep.girth
    assert [f.status for f in rep.minors] == ["skipped", "skipped"]


def test_verify_dichotomy_skips_minor_search_beyond_has_minor_limits():
    heawood = from_id("heawood@gf2")
    assert heawood.size == 21
    rep = verify_dichotomy(heawood, 5)
    assert [(f.target, f.status) for f in rep.minors] == [("mk5", "skipped"), ("mk5_dual", "skipped")]


@pytest.mark.parametrize("t", [6, 100])
def test_verify_dichotomy_skips_large_targets_without_building_them(monkeypatch, t):
    mk4 = clique(4, F2)
    built = []
    monkeypatch.setattr(generators, "clique", lambda *a, **kw: built.append(a))
    rep = verify_dichotomy(mk4, t)
    assert built == []
    assert [(f.target, f.status) for f in rep.minors] == [
        (f"mk{t}", "skipped"), (f"mk{t}_dual", "skipped"),
    ]


@pytest.mark.parametrize("t", [1, 0, -3])
def test_verify_dichotomy_rejects_t_below_2(t):
    with pytest.raises(ValueError, match=f"clique needs t >= 2, got {t}"):
        verify_dichotomy(clique(4, F2), t)


def test_verify_dichotomy_rejects_t_below_2_before_any_other_work(monkeypatch):
    def unexpected(*args):
        raise AssertionError("called before t was checked")

    for name in ("cosimple_certificate", "bases", "sample_bases", "_worst_basis"):
        monkeypatch.setattr(pipeline, name, unexpected)
    with pytest.raises(ValueError, match="clique needs t >= 2, got 1"):
        verify_dichotomy(clique(4, F2), 1)


def test_density_ratio_goldens():
    d = density_ratio(projective_geometry(3, F2))
    assert (d.elements, d.rank) == (7, 3)
    assert d.ratio == 7 / 3
    d = density_ratio(clique(4, F2))
    assert d.ratio == 2.0


def test_density_ratio_rank_zero_error():
    loops = RepMatroid(F2, GFMatrix.zeros(F2, 0, 3), list("abc"))
    with pytest.raises(ValueError, match="rank 0"):
        density_ratio(loops)


def test_density_simplify_invariant_and_projective_bound():
    for i in range(12):
        q = (2, 3, 4)[i % 3]
        m = random_matroid(3, 8, field_from_order(q), seed=1600 + i)
        from gfmatroids import simplify

        d1 = density_ratio(m)
        d2 = density_ratio(simplify(m))
        assert d1 == d2
        assert d1.elements <= (q**m.rank - 1) // (q - 1)


def test_packing_ratios_shape():
    m = random_matroid(4, 10, F2, seed=77)
    pivots = rref(m.matrix).pivot_cols
    sf = standard_form(m.matrix, m.labels, {m.labels[j] for j in pivots})
    rows = packing_ratios(build_set_system(sf), (1, 2, 3))
    assert [r["delta"] for r in rows] == [1, 2, 3]
    assert all(r["separated"] for r in rows)
    assert all(r["ratio"] == r["size"] * r["delta"] / len(sf.basis_order) for r in rows)


def _first_worst(sizes):
    return sizes.index(max(sizes)), max(sizes)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_short_circuit_matches_reference_on_every_basis(q):
    f = field_from_order(q)
    for i in range(16):
        r = 2 + i % 4
        m = random_matroid(r, r + 2 + i % 5, f, seed=3100 + 100 * q + i)
        refs = {}
        for basis in bases(m):
            refs[basis] = short_circuit_reference(m, basis)
            assert find_short_circuit(m, basis) == refs[basis]
        # sampled bases come in draw order, not in the sweep's order; each
        # list reversed puts another basis first among those that tie
        for basis_list in (bases(m), sample_bases(m, 8, seed=i)):
            for ordered in (basis_list, basis_list[::-1]):
                assert pipeline._worst_basis(m, ordered) == _first_worst(
                    [len(refs[b][0]) for b in ordered])


def test_short_circuit_sizes_with_more_rows_than_rank():
    cube = graphic(named_graph("cube"), F2)
    assert cube.matrix.rows == 8 and cube.rank == 7
    sampled = sample_bases(cube, 60, seed=4)
    key = lambda b: sorted(cube.labels.index(l) for l in b)
    assert sorted(sampled, key=key) != sampled
    assert pipeline._worst_basis(cube, sampled) == _first_worst(
        [len(short_circuit_reference(cube, b)[0]) for b in sampled])


@pytest.mark.parametrize("bad, error", [(["0-1", "0-2", "1-2"], NotABasisError),
                                        (["0-1", "0-2"], NotABasisError),
                                        (["0-1", "0-2", "x", "3-9"], ValueError)],
                         ids=["dependent", "not-spanning", "unknown-label"])
def test_short_circuit_sizes_rejects_a_non_basis(bad, error):
    mk4 = clique(4, F2)
    with pytest.raises(error) as want:
        standard_form(mk4.matrix, mk4.labels, bad)
    with pytest.raises(error) as got:
        find_short_circuit(mk4, bad)
    assert want.type is got.type is error
    assert str(got.value) == str(want.value)
    if error is ValueError:
        assert str(want.value) == "unknown labels in basis: ['3-9', 'x']"


def test_verify_dichotomy_reports_the_first_worst_basis_in_list_order():
    m = RepMatroid(F3, GFMatrix(F3, [[0, 0, 0, 1, 0, 2, 2, 1], [1, 2, 0, 2, 0, 2, 2, 0],
                                     [1, 2, 1, 2, 2, 1, 2, 1]]),
                   [f"e{j}" for j in range(8)])
    sampled = sample_bases(m, 4, seed=3)
    # two bases tie at the largest size; the later one comes first in column order
    assert sampled[1] == ("e5", "e6", "e7") and sampled[3] == ("e3", "e5", "e6")
    assert [len(find_short_circuit(m, b)[0]) for b in sampled] == [2, 3, 2, 3]
    assert pipeline._worst_basis(m, sampled) == (1, 3)
    rep = verify_dichotomy(m, 3, basis_mode="sample", samples=4, seed=3)
    assert rep.basis == ("e5", "e6", "e7")
    assert rep.circuit_size == 3
    assert rep.circuit == tuple(sorted(find_short_circuit(m, rep.basis)[0]))


def test_basis_sampling_stops_once_no_new_basis_is_found():
    # M(K4) has 16 bases: the draws stop soon after the last one is found
    start = time.perf_counter()
    rep = verify_dichotomy(clique(4, F2), 3, basis_mode="sample", samples=10**6)
    assert time.perf_counter() - start < 1.0
    assert rep.bases_checked == 16


def _assert_circuit_by_brute_force(m, circ):
    # prime fields only: the oracle's arithmetic is then mod q
    add, mul = field_ops_oracle(m.field.q, 1, None)
    cols = dict(zip(m.labels, m.matrix.col_tuples()))
    rank = lambda s: brute_rank(m.field.q, add, mul, [cols[l] for l in s])
    assert rank(circ) == len(circ) - 1
    assert all(rank(circ - {e}) == len(circ) - 1 for e in circ)


def _spied_short_circuit(monkeypatch, m, basis):
    calls = []

    def spy(mat, s):
        calls.append(frozenset(s))
        return circuit_of_dependent(mat, s)

    monkeypatch.setattr(pipeline, "circuit_of_dependent", spy)
    return find_short_circuit(m, basis), calls


def test_pair_sharing_a_nonzero_entry_is_its_own_circuit(monkeypatch):
    # e and f agree on b1..b3 and differ on b4: D = {b4, e, f} is the circuit
    m = RepMatroid(F3, GFMatrix(F3, [[1, 0, 0, 0, 1, 1], [0, 1, 0, 0, 1, 1], [0, 0, 1, 0, 1, 1],
                                     [0, 0, 0, 1, 1, 2]]),
                   ["b1", "b2", "b3", "b4", "e", "f"])
    (circ, stats), calls = _spied_short_circuit(monkeypatch, m, ["b1", "b2", "b3", "b4"])
    assert stats.min_sym_pair == ("e", "f") and stats.source == "pair"
    assert pipeline._worst_basis(m, [["b1", "b2", "b3", "b4"]]) == (0, 3)
    assert calls == []
    assert circ == {"b4", "e", "f"}
    _assert_circuit_by_brute_force(m, circ)


def test_pair_with_disjoint_supports_is_shrunk(monkeypatch):
    # e and f have disjoint supports: D = E has nullity 2 and is shrunk
    m = RepMatroid(F5, GFMatrix(F5, [[1, 0, 0, 0, 3, 0], [0, 1, 0, 0, 2, 0], [0, 0, 1, 0, 0, 4],
                                     [0, 0, 0, 1, 0, 1]]),
                   ["b1", "b2", "b3", "b4", "e", "f"])
    (circ, stats), calls = _spied_short_circuit(monkeypatch, m, ["b1", "b2", "b3", "b4"])
    assert stats.min_sym_pair == ("e", "f")
    assert calls == [frozenset(m.labels)]
    assert pipeline._worst_basis(m, [["b1", "b2", "b3", "b4"]]) == (0, 3)
    assert calls == [frozenset(m.labels)] * 2
    assert circ == {"b1", "b2", "e"}
    _assert_circuit_by_brute_force(m, circ)
    _assert_circuit_by_brute_force(m, circuit_of_dependent(m, m.labels))


@pytest.mark.parametrize("samples", [0, -3])
def test_verify_dichotomy_rejects_nonpositive_sample_counts(samples):
    with pytest.raises(ValueError, match=f"samples >= 1, got {samples}"):
        verify_dichotomy(clique(4, F2, dualize=True), 4, basis_mode="sample", samples=samples)
