import pytest

import gc
import random
import re
import time
from itertools import compress

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
    girth,
    graphic,
    has_minor,
    is_circuit,
    is_cosimple,
    is_isomorphic,
    named_graph,
    packing_ratios,
    projective_geometry,
    random_matroid,
    rank_table,
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
    brute_isomorphic, brute_minor, brute_rank, field_ops_oracle, graph_girth_oracle, is_graph_cycle,
    pair_circuit_size_oracle, short_circuit_reference,
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
    free = RepMatroid(F2, GFMatrix(F2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]), list("abc"))
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
    # McGee has 36 elements: verify passes its worst short circuit's size
    # as the girth cutoff, and the report must degrade only its minor findings
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


def _k4_minor_instances(f):
    """Ten seeded random cosimple matroids of rank 3-4 and 7 elements over f,
    and two seeded one-column extensions of M(K4), which hold an M(K4) minor."""
    out, seed = [], 0
    while len(out) < 10:
        seed += 1
        m = random_matroid(3 + seed % 2, 7, f, seed=9000 + 100 * f.q + seed)
        if is_cosimple(m):
            out.append(m)
    mk4 = clique(4, f)
    rows = rref(mk4.matrix).matrix.row_tuples()[:mk4.rank]
    rng = random.Random(f.q)
    for _ in range(2):
        extended = [row + (rng.randrange(f.q),) for row in rows]
        out.append(RepMatroid(f, GFMatrix(f, extended), mk4.labels + ("x",)))
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_verify_mk4_dual_finding_matches_its_own_minor_search(q):
    # verify copies the mk4 finding to mk4_dual, as M(K4)* is isomorphic to
    # M(K4); the copy must be what a search for M(K4)* itself returns
    f = field_from_order(q)
    mk4, mk4_dual = clique(4, f), clique(4, f, dualize=True)
    add, mul = field_ops_oracle(f.p, f.k, f.modulus)
    assert brute_isomorphic(q, add, mul, mk4.matrix.col_tuples(), mk4_dual.matrix.col_tuples())
    statuses = set()
    for m in _k4_minor_instances(f):
        findings = {x.target: x for x in verify_dichotomy(m, 4).minors}
        witness = has_minor(m, mk4_dual)
        if witness is None:
            assert findings["mk4_dual"] == pipeline.MinorFinding("mk4_dual", "absent")
        else:
            dels, cons = witness
            assert findings["mk4_dual"] == pipeline.MinorFinding(
                "mk4_dual", "found", tuple(sorted(dels)), tuple(sorted(cons)))
        assert (witness is not None) == brute_minor(m, mk4_dual)
        statuses.add(findings["mk4_dual"].status)
    assert statuses == {"found", "absent"}


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_clique_is_isomorphic_to_its_dual_exactly_at_t4(q):
    # verify copies the mk_t finding to mk_t_dual exactly when t == 4
    f = field_from_order(q)
    for t in range(2, 6):
        assert is_isomorphic(clique(t, f), clique(t, f, dualize=True)) == (t == 4), t


@pytest.mark.parametrize("basis_mode", ["all", "sample"])
def test_verify_rank_zero(basis_mode):
    # at rank 0 the one basis is (): three loops have girth 1, and the empty
    # matroid has no circuit at all
    loops = RepMatroid(F2, GFMatrix(F2, [], 3), ("a", "b", "c"))
    r = verify_dichotomy(loops, 3, basis_mode=basis_mode).to_json_dict()
    assert (r["girth"], r["circuit"], r["circuit_size"]) == (1, ["a"], 1)
    empty = RepMatroid(F2, GFMatrix(F2, [], 0), ())
    with pytest.raises(NoCircuitError, match="free matroid has no circuits"):
        verify_dichotomy(empty, 3, basis_mode=basis_mode)


@pytest.mark.parametrize("q", [2, 5])
@pytest.mark.parametrize("t, searches", [(3, 2), (4, 1), (5, 2)])
def test_verify_runs_one_minor_search_per_target_isomorphism_class(monkeypatch, q, t, searches):
    # only M(K4) is isomorphic to its dual, so only t = 4 saves a search
    real, targets = pipeline.has_minor, []

    def counted(m, target):
        targets.append(target)
        return real(m, target)

    monkeypatch.setattr(pipeline, "has_minor", counted)
    rep = verify_dichotomy(clique(5, field_from_order(q)), t)
    assert len(targets) == searches
    first, second = rep.minors
    assert (first.target, second.target) == (f"mk{t}", f"mk{t}_dual")
    if t == 4:
        assert first.status == "found"
        assert (second.status, second.delete, second.contract) == (
            first.status, first.delete, first.contract)


@pytest.mark.parametrize("t", [1, 0, -3])
def test_verify_dichotomy_rejects_t_below_2(t):
    with pytest.raises(ValueError, match=f"clique needs t >= 2, got {t}"):
        verify_dichotomy(clique(4, F2), t)


def test_verify_dichotomy_rejects_t_below_2_before_any_other_work(monkeypatch):
    def unexpected(*args):
        raise AssertionError("called before t was checked")

    for name in ("cosimple_certificate", "_basis_masks", "sample_bases", "_worst_of"):
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


def _short_circuit_sizes_against_pair_oracle(q):
    """(find_short_circuit size, oracle size) for every basis of a few draws."""
    f = field_from_order(q)
    out = []
    for i in range(6):
        m = random_matroid(2 + i % 4, 7 + i % 4, f, seed=4100 + 100 * q + i)
        out += [(len(find_short_circuit(m, b)[0]), pair_circuit_size_oracle(m, b)) for b in bases(m)]
    return out


def test_short_circuit_is_the_smallest_pair_circuit_over_gf2():
    sizes = _short_circuit_sizes_against_pair_oracle(2)
    assert all(got == best for got, best in sizes)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_short_circuit_is_never_below_the_smallest_pair_circuit(q):
    sizes = _short_circuit_sizes_against_pair_oracle(q)
    assert all(got >= best for got, best in sizes)


@pytest.mark.xfail(strict=True, reason="over GF(q >= 3) the extractor tries only the closest "
                   "pairs, and only a_e - a_f (ROADMAP item 6)")
@pytest.mark.parametrize("q", [3, 4, 5])
def test_short_circuit_is_the_smallest_pair_circuit_over_gfq(q):
    sizes = _short_circuit_sizes_against_pair_oracle(q)
    assert all(got == best for got, best in sizes)


def _first_worst(refs):
    """(position, circuit, stats) of the first of the reference results
    `refs`, one per basis in list order, whose circuit is largest."""
    sizes = [len(circ) for circ, _ in refs]
    pos = sizes.index(max(sizes))
    return (pos, *refs[pos])


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
                    [refs[b] for b in ordered])


def _verify_instances(q):
    """Cosimple matroids over GF(q): three of rank r(M(K4)) = r(M(K4)*) = 3,
    whose M(K4) search contracts nothing, Fano's plane among them over
    GF(2), and three each of ranks 2 and 4."""
    f = field_from_order(q)
    out = [projective_geometry(3, f)] if q == 2 else []
    for r in (3, 2, 4):
        drawn = [m for m in (random_matroid(r, r + 3 + i % 4, f, seed=9000 + 100 * q + i)
                             for i in range(40)) if m.rank == r and is_cosimple(m)]
        out += drawn[:3 - len(out) if r == 3 else 3]
    return out


def _sized_bases_reference(m, basis_list):
    """The bases the worst-basis pass sizes, one test per basis: a basis B
    is passed over when a fundamental circuit C of an earlier sized basis,
    no larger than the largest short circuit so far, has |C \\ B| <= 1."""
    known, sized, best = [], [], 0
    for b in basis_list:
        if any(len(c) <= best and len(c - set(b)) <= 1 for c in known):
            continue
        sized.append(frozenset(b))
        sf = standard_form(m.matrix, m.labels, b)
        known += [frozenset(compress(sf.basis_order, col)) | {e}
                  for e, col in zip(sf.nonbasis_order, sf.a.col_tuples())]
        best = max(best, len(short_circuit_reference(m, b)[0]))
    return sized


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_verify_dichotomy_agrees_with_the_label_walk_and_the_reference(monkeypatch, q):
    # verify walks the bases as bitmasks; its report is `_worst_basis` over
    # the bases as labels, and the reference's first worst basis, and the
    # bitset prune sizes exactly the bases that a test per basis would.  A
    # GF(2) basis is read by `_gf2_basis`, any other by `standard_form`
    sized, other = [], []
    real_sf, real_gf2 = pipeline.standard_form, pipeline._gf2_basis
    gf2_log, sf_log = (sized, other) if q == 2 else (other, sized)  # `other` takes the wrong reader
    monkeypatch.setattr(pipeline, "standard_form",
                        lambda mat, labels, b: sf_log.append(frozenset(b)) or real_sf(mat, labels, b))
    monkeypatch.setattr(pipeline, "_gf2_basis",
                        lambda m, b: gf2_log.append(frozenset(b)) or real_gf2(m, b))
    for m in _verify_instances(q):
        sized.clear()
        rep = verify_dichotomy(m, 4)
        in_verify = list(sized)
        assert not other
        listed = bases(m)
        pos, circ, stats = pipeline._worst_basis(m, listed)
        assert (rep.basis, rep.circuit, rep.bases_checked) == (listed[pos], tuple(sorted(circ)),
                                                               len(listed))
        assert (rep.circuit_size, rep.nonbasis_count, rep.min_sym_diff) == (
            len(circ), stats.nonbasis_count, stats.min_sym_diff)
        assert (pos, circ, stats) == _first_worst([short_circuit_reference(m, b) for b in listed])
        assert in_verify == _sized_bases_reference(m, listed)


def test_short_circuit_sizes_with_more_rows_than_rank():
    cube = graphic(named_graph("cube"), F2)
    assert cube.matrix.rows == 8 and cube.rank == 7
    sampled = sample_bases(cube, 60, seed=4)
    key = lambda b: sorted(cube.labels.index(l) for l in b)
    assert sorted(sampled, key=key) != sampled
    assert pipeline._worst_basis(cube, sampled) == _first_worst(
        [short_circuit_reference(cube, b) for b in sampled])


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
    with pytest.raises(error, match=f"^{re.escape(str(want.value))}$"):
        pipeline._worst_basis(mk4, [bad])
    if error is ValueError:
        assert str(want.value) == "unknown labels in basis: ['3-9', 'x']"


def _messy_matroid(rng, f, rows, n):
    """A random matroid over f on `rows` rows and n columns, drawn so that
    rows often exceed the rank, with loops and parallel columns: repeated
    ones, and over GF(q > 2) nonzero multiples."""
    cols = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.15:
            cols.append([0] * rows)
        elif kind < 0.3 and cols:
            c = rng.choice(cols)
            scale = rng.randrange(1, f.q) if f.q > 2 else 1
            cols.append([f.mul(scale, x) for x in c])
        else:
            cols.append([rng.randrange(f.q) for _ in range(rows)])
    spare = rng.randrange(rows)  # a row that repeats another, or is zero
    for col in cols:
        col[spare] = col[rng.randrange(rows)] if rng.random() < 0.5 else 0
    return RepMatroid(f, GFMatrix(f, [list(r) for r in zip(*cols)]), [f"e{j}" for j in range(n)])


def test_gf2_basis_reading_matches_the_standard_form_reference():
    # over GF(2) `_worst_basis` reads each basis from the packed columns,
    # and the reference through `standard_form`; on any set that is not a
    # basis both raise the same error
    rng = random.Random(30)
    seen = {"rows above rank": 0, "loop": 0, "repeat": 0, "unknown": 0, "dependent": 0,
            "non-spanning": 0}
    for i in range(300):
        m = _messy_matroid(rng, F2, 1 + i % 7, 1 + rng.randrange(12))
        cols = m.matrix.col_tuples()
        seen["rows above rank"] += m.matrix.rows > m.rank
        seen["loop"] += not all(map(any, cols))
        seen["repeat"] += len(set(cols)) < len(cols)
        listed = bases(m)
        if m.rank == m.size:
            with pytest.raises(NoCircuitError):
                pipeline._worst_basis(m, listed)
            continue
        refs = {frozenset(b): short_circuit_reference(m, b) for b in listed}
        for basis_list in (listed, listed[::-1], sample_bases(m, 6, seed=i)):
            assert pipeline._worst_basis(m, basis_list) == _first_worst(
                [refs[frozenset(b)] for b in basis_list])
        for _ in range(6):
            bad = rng.sample(m.labels, rng.randrange(m.size + 1))
            if rng.random() < 0.2:
                bad.append("x")
            try:
                standard_form(m.matrix, m.labels, bad)
            except ValueError as want:
                with pytest.raises(type(want), match=f"^{re.escape(str(want))}$"):
                    pipeline._worst_basis(m, [bad])
                seen["unknown" if "x" in bad else "dependent" if len(bad) > m.rank
                     else "non-spanning"] += 1
            else:
                assert frozenset(bad) in refs
    assert min(seen.values()) >= 40, seen


def _decoded_column(x, m, basis_order):
    """The values per basis row of a column mask of `_read_basis`: bit
    (v - 1)|E| + j is the value v at m's column j."""
    n, q = m.size, m.field.q
    assert 0 <= x < 1 << (q - 1) * n
    groups = [x >> (v - 1) * n & (1 << n) - 1 for v in range(1, q)]
    col = []
    for b in basis_order:
        j = m.labels.index(b)
        values = [v for v, g in enumerate(groups, 1) if g >> j & 1]
        assert len(values) <= 1
        col.append(values[0] if values else 0)
    assert x.bit_count() == sum(map(bool, col))  # no bit off B's columns
    return tuple(col)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_read_basis_masks_decode_to_the_standard_form_over_gfq(q):
    # every field's basis reader gives A's columns in one mask layout:
    # decoded, they are the standard form's A, value and position, and the
    # worst basis read from them is the reference's over every basis and
    # over sampled lists
    f = field_from_order(q)
    rng = random.Random(3100 + q)
    seen = {"rows above rank": 0, "loop": 0, "parallel": 0, "free": 0}
    for i in range(40):
        m = _messy_matroid(rng, f, 1 + i % 5, 1 + rng.randrange(8))
        cols = m.matrix.col_tuples()
        seen["rows above rank"] += m.matrix.rows > m.rank
        seen["loop"] += not all(map(any, cols))
        seen["parallel"] += len({f.normalize(c) for c in cols if any(c)}) < sum(map(any, cols))
        listed = bases(m)
        for b in listed:
            sf = standard_form(m.matrix, m.labels, b)
            a = pipeline._read_basis(m, b)
            assert list(a) == list(sf.nonbasis_order)
            assert [_decoded_column(a[e], m, sf.basis_order) for e in a] == list(sf.a.col_tuples())
        if m.rank == m.size:
            seen["free"] += 1
            with pytest.raises(NoCircuitError):
                pipeline._worst_basis(m, listed)
            continue
        refs = {frozenset(b): short_circuit_reference(m, b) for b in listed}
        for basis_list in (listed, listed[::-1], sample_bases(m, 6, seed=i)):
            assert pipeline._worst_basis(m, basis_list) == _first_worst(
                [refs[frozenset(b)] for b in basis_list])
    assert min(seen.values()) >= 5, seen


def test_short_circuit_reads_a_one_shot_basis_once():
    pet = graphic(named_graph("petersen"), F2)
    basis = bases(pet)[0]
    circ, stats = find_short_circuit(pet, (label for label in basis))
    assert len(circ) == 5
    assert (circ, stats) == find_short_circuit(pet, basis) == short_circuit_reference(pet, basis)


def test_verify_dichotomy_reduces_no_basis_past_the_worst_basis_walk(monkeypatch):
    # the walk's circuit and stats are the report's: verify makes no call
    # of its own to a basis reader, `_gf2_basis` over GF(2) and
    # `standard_form` otherwise, or to the closest-pair scan
    counts = {}
    for name in ("standard_form", "_gf2_basis", "_closest_pairs"):
        def counted(*args, _fn=getattr(pipeline, name), _name=name):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(pipeline, name, counted)
    pet = graphic(named_graph("petersen"), F2)
    gf3 = random_matroid(4, 9, F3, seed=1)
    for m, t, mode, basis_list in ((pet, 5, "sample", sample_bases(pet, 20, seed=0)),
                                   (gf3, 4, "all", bases(gf3))):
        counts.clear()
        rep = verify_dichotomy(m, t, basis_mode=mode, samples=20)
        in_verify = dict(counts)
        counts.clear()
        pos, circ, _ = pipeline._worst_basis(m, basis_list)
        assert (rep.basis, rep.circuit) == (basis_list[pos], tuple(sorted(circ)))
        read, unread = ("_gf2_basis", "standard_form") if m.field.q == 2 else ("standard_form", "_gf2_basis")
        assert in_verify == counts and counts[read] > 0 and counts["_closest_pairs"] > 0
        assert unread not in counts


def test_verify_dichotomy_leaves_no_reference_cycles():
    # the recursive walks free their lists when they end, without waiting
    # for the cyclic collector: verify, and each walk's own entry point
    pet, cube3 = graphic(named_graph("petersen"), F2), graphic(named_graph("cube"), F3)
    k4 = clique(4, F2)
    calls = {
        "verify": lambda: [verify_dichotomy(pet, 5), verify_dichotomy(cube3, 4)],
        "girth with a cutoff": lambda: girth(pet, cutoff=5),
        "rank_table": lambda: rank_table(k4),
        "bases": lambda: bases(pet),
        "is_isomorphic": lambda: is_isomorphic(k4, clique(4, F2)),
        # codeword mode, short dependent sets, and the dual side first
        "has_minor codewords": lambda: has_minor(pet, clique(5, F2)),
        "has_minor short sets": lambda: has_minor(projective_geometry(3, F3), clique(4, F3)),
        "has_minor dual side": lambda: has_minor(graphic(named_graph("petersen"), F5),
                                                 clique(5, F5, dualize=True)),
        "find_short_circuit": lambda: find_short_circuit(cube3, bases(cube3)[0]),
    }
    for call in calls.values():
        call()  # builds the cached targets first
    gc.collect()
    gc.disable()
    try:
        for name, call in calls.items():
            call()
            assert gc.collect() == 0, name
    finally:
        gc.enable()


def test_verify_dichotomy_reports_the_first_worst_basis_in_list_order():
    m = RepMatroid(F3, GFMatrix(F3, [[0, 0, 0, 1, 0, 2, 2, 1], [1, 2, 0, 2, 0, 2, 2, 0],
                                     [1, 2, 1, 2, 2, 1, 2, 1]]),
                   [f"e{j}" for j in range(8)])
    sampled = sample_bases(m, 4, seed=3)
    # two bases tie at the largest size; the later one comes first in column order
    assert sampled[1] == ("e5", "e6", "e7") and sampled[3] == ("e3", "e5", "e6")
    assert [len(find_short_circuit(m, b)[0]) for b in sampled] == [2, 3, 2, 3]
    assert pipeline._worst_basis(m, sampled) == (1, *find_short_circuit(m, sampled[1]))
    rep = verify_dichotomy(m, 3, basis_mode="sample", samples=4, seed=3)
    assert rep.basis == ("e5", "e6", "e7")
    assert rep.circuit_size == 3
    assert rep.circuit == tuple(sorted(find_short_circuit(m, rep.basis)[0]))


@pytest.mark.parametrize("q, seed", [(2, 0), (3, 2)])
def test_verify_dichotomy_reports_a_sampled_basis_as_sampled(q, seed):
    # past ALL_BASES_LIMIT the bases are sampled as label-sorted tuples; with
    # labels e0..e14 that is not column order, and the report keeps it
    m = random_matroid(6, 15, field_from_order(q), seed=seed)
    assert m.size > pipeline.ALL_BASES_LIMIT and is_cosimple(m)
    sampled = sample_bases(m, 20, seed=0)
    pos, circ, stats = pipeline._worst_basis(m, sampled)
    rep = verify_dichotomy(m, 4)
    assert rep.basis_mode == "sample:20 (auto)" and rep.bases_checked == len(sampled)
    assert rep.basis == sampled[pos] != tuple(sorted(sampled[pos], key=m.labels.index))
    assert (rep.circuit, rep.nonbasis_count) == (tuple(sorted(circ)), stats.nonbasis_count)


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
    assert pipeline._worst_basis(m, [["b1", "b2", "b3", "b4"]]) == (0, circ, stats)
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
    assert pipeline._worst_basis(m, [["b1", "b2", "b3", "b4"]]) == (0, circ, stats)
    assert calls == [frozenset(m.labels)] * 2
    assert circ == {"b1", "b2", "e"}
    _assert_circuit_by_brute_force(m, circ)
    _assert_circuit_by_brute_force(m, circuit_of_dependent(m, m.labels))


@pytest.mark.parametrize("samples", [0, -3])
def test_verify_dichotomy_rejects_nonpositive_sample_counts(samples):
    with pytest.raises(ValueError, match=f"samples >= 1, got {samples}"):
        verify_dichotomy(clique(4, F2, dualize=True), 4, basis_mode="sample", samples=samples)


def test_verify_dichotomy_rejects_an_unknown_basis_mode_before_any_other_work(monkeypatch):
    def unexpected(*args):
        raise AssertionError("called before basis_mode was checked")

    for name in ("cosimple_certificate", "_basis_masks", "sample_bases", "_worst_of"):
        monkeypatch.setattr(pipeline, name, unexpected)
    with pytest.raises(ValueError, match="basis_mode must be 'all' or 'sample', got 'bogus'"):
        verify_dichotomy(clique(4, F2, dualize=True), 4, basis_mode="bogus")
