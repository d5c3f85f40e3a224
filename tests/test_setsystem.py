import math
import random
from itertools import combinations

import numpy as np
import pytest

from gfmatroids import (
    GFMatrix,
    InsufficientFamilyError,
    build_set_system,
    canonical_system,
    claim_chain_check,
    field_from_order,
    greedy_delta_packing,
    hamming_distance,
    random_matroid,
    separation,
    shatter,
    standard_form,
    sym_diff_size,
    trace_count,
)
from gfmatroids.setsystem import SHATTER_LIMIT


def sf_from_a(q, a_rows):
    """Standard form with basis b1..br and non-basis e1..ec, A given by rows."""
    f = field_from_order(q)
    r = len(a_rows)
    c = len(a_rows[0]) if r else 0
    eye = np.eye(r, dtype=np.uint8)
    full = np.hstack([eye, np.array(a_rows, dtype=np.uint8)]) if c else eye
    labels = [f"b{i + 1}" for i in range(r)] + [f"e{j + 1}" for j in range(c)]
    return standard_form(GFMatrix(f, full), labels, {l for l in labels if l.startswith("b")})


def _set_of(s, label):
    """The ground pairs of a member, read from its mask."""
    mask = s.mask_of(label)
    return {p for i, p in enumerate(s.ground) if mask >> i & 1}


def test_build_matches_figure_golden():
    # ternary column with entries A[b1,e]=1, A[b2,e]=1, rest 0
    sf = sf_from_a(3, [[1], [1], [0]])
    s = build_set_system(sf)
    assert _set_of(s, "e1") == {("b1", 1), ("b2", 1)}


def test_zero_column_gives_empty_set():
    s = build_set_system(sf_from_a(3, [[0], [0]]))
    assert _set_of(s, "e1") == frozenset()


def test_gf2_sets_are_column_supports():
    sf = sf_from_a(2, [[1, 0], [1, 1], [0, 1]])
    s = build_set_system(sf)
    assert _set_of(s, "e1") == {("b1", 1), ("b2", 1)}
    assert _set_of(s, "e2") == {("b2", 1), ("b3", 1)}


def test_ground_size_and_member_weights():
    for q, a in [(2, [[1, 0], [1, 1]]), (3, [[1, 2], [0, 2], [1, 0]]), (4, [[3], [1]])]:
        sf = sf_from_a(q, a)
        s = build_set_system(sf)
        assert len(s.ground) == (q - 1) * len(sf.basis_order)
        for j, e in enumerate(sf.nonbasis_order):
            col = [row[j] for row in a]
            assert s.mask_of(e).bit_count() == sum(1 for x in col if x)
            basis_hits = [b for (b, _) in _set_of(s, e)]
            assert len(basis_hits) == len(set(basis_hits))


def test_equal_sets_iff_equal_columns():
    sf = sf_from_a(3, [[1, 1, 2], [2, 2, 1]])
    s = build_set_system(sf)
    assert s.mask_of("e1") == s.mask_of("e2")
    assert s.mask_of("e1") != s.mask_of("e3")


def test_trace_count_examples():
    sf = sf_from_a(2, [[0, 1], [0, 1]])
    s = build_set_system(sf)  # family {0, {b1,b2}}
    assert trace_count(s, []) == 1
    assert trace_count(s, s.ground) == 2
    assert trace_count(s, [("b1", 1)]) == 2


def test_shatter_trivial_cases():
    sf = sf_from_a(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])  # all singletons
    s = build_set_system(sf)
    assert shatter(s, 0).value == 1
    r = shatter(s, 1)
    assert r.value == 2 and r.exact


def test_shatter_monotone_on_random_instances():
    # direct enumeration on random 8-element grounds
    for i in range(6):
        q = (2, 3)[i % 2]
        m = random_matroid(4, 8, field_from_order(q), seed=800 + i)
        _, s = canonical_system(m)
        values = [shatter(s, k).value for k in range(min(5, len(s.ground)) + 1)]
        assert values == sorted(values)


def test_shatter_budget_guard():
    # exact mode refuses C(|V|, m) > SHATTER_LIMIT before enumerating any subset
    m = random_matroid(8, 16, field_from_order(5), seed=42)
    _, s = canonical_system(m)
    g = len(s.ground)
    assert math.comb(g, 7) <= SHATTER_LIMIT < math.comb(g, 8)
    assert shatter(s, 7).exact  # stops at the ceiling of 8 distinct sets
    with pytest.raises(ValueError, match=f"needs {math.comb(g, 8)} subsets, over the limit {SHATTER_LIMIT}"):
        shatter(s, 8)
    assert shatter(s, 8, trials=3, seed=1).subsets_checked == 3


@pytest.mark.parametrize("kwargs, expected", [
    ({}, (5, True, 3, 9)),  # exact: stops at the ceiling of 5 distinct sets
    ({"trials": 3, "seed": 1}, (3, False, 3, 3)),
    ({"trials": 30, "seed": 1}, (5, False, 3, 30)),  # sampling never stops early
], ids=["exact", "sampled-3", "sampled-30"])
def test_shatter_results_pinned(kwargs, expected):
    m = random_matroid(3, 8, field_from_order(3), seed=1)
    _, s = canonical_system(m)
    r = shatter(s, 3, **kwargs)
    assert (r.value, r.exact, r.m, r.subsets_checked) == expected


def test_shatter_rejects_negative_trials():
    _, s = canonical_system(random_matroid(3, 8, field_from_order(3), seed=1))
    with pytest.raises(ValueError, match="trials must be >= 0"):
        shatter(s, 3, trials=-5)


def test_shatter_sampled_is_lower_bound():
    m = random_matroid(4, 10, field_from_order(3), seed=99)
    _, s = canonical_system(m)
    exact = shatter(s, 3)
    sampled = shatter(s, 3, trials=50, seed=5)
    assert not sampled.exact
    assert sampled.value <= exact.value


def test_separation_examples():
    s = build_set_system(sf_from_a(2, [[1, 1], [1, 1]]))
    rep = separation(s)
    assert rep.sym_diff == 0 and rep.min_pair == ("e1", "e2")

    s = build_set_system(sf_from_a(2, [[1, 1], [1, 0]]))
    rep = separation(s)
    assert (rep.sym_diff, rep.hamming) == (1, 1)

    # GF(3): columns (1,1,0) and (2,1,0) differ at b1 with both entries nonzero
    s = build_set_system(sf_from_a(3, [[1, 2], [1, 1], [0, 0]]))
    rep = separation(s)
    assert (rep.sym_diff, rep.hamming) == (2, 1)


def test_separation_needs_two_sets():
    s = build_set_system(sf_from_a(2, [[1], [0]]))
    with pytest.raises(InsufficientFamilyError):
        separation(s)


def test_hamming_sym_diff_sandwich():
    for i in range(10):
        q = (2, 3, 4, 5)[i % 4]
        m = random_matroid(3, 8, field_from_order(q), seed=900 + i)
        _, s = canonical_system(m)
        for e, f in combinations(sorted(s.labels), 2):
            h = hamming_distance(s, e, f)
            d = sym_diff_size(s, e, f)
            assert h <= d <= 2 * h


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_hamming_and_separation_match_column_counts(q):
    for i in range(6):
        m = random_matroid(2 + i % 3, 7 + i % 3, field_from_order(q), seed=950 + 10 * q + i)
        sf, s = canonical_system(m)
        col = dict(zip(sf.nonbasis_order, sf.a.col_tuples()))
        pairs = list(combinations(sorted(s.labels), 2))
        ham = {(e, f): sum(1 for x, y in zip(col[e], col[f]) if x != y) for e, f in pairs}
        for (e, f), h in ham.items():
            assert hamming_distance(s, e, f) == hamming_distance(s, f, e) == h
        rep = separation(s)
        assert (rep.min_hamming, rep.hamming_pair) == min((h, p) for p, h in ham.items())
        assert (rep.sym_diff, rep.min_pair) == min((sym_diff_size(s, *p), p) for p in pairs)
        assert rep.hamming == ham[rep.min_pair]


def test_greedy_packing_delta_one_keeps_distinct():
    s = build_set_system(sf_from_a(2, [[1, 1, 0], [0, 0, 1]]))
    assert greedy_delta_packing(s, 1) == ["e1", "e3"]  # e2 duplicates e1


def test_greedy_packing_huge_delta_single_survivor():
    s = build_set_system(sf_from_a(2, [[1, 0], [1, 1]]))
    assert greedy_delta_packing(s, len(s.ground) + 1) == ["e1"]


def test_greedy_packing_post_hoc_separation():
    rng = random.Random(4)
    for i in range(8):
        m = random_matroid(4, 10, field_from_order(2), seed=1100 + i)
        _, s = canonical_system(m)
        delta = rng.choice([2, 3])
        packing = greedy_delta_packing(s, delta)
        for e, f in combinations(packing, 2):
            assert sym_diff_size(s, e, f) >= delta


def test_claim_chain_empty_window():
    sf = sf_from_a(3, [[1, 2], [0, 1]])
    s = build_set_system(sf)
    chk = claim_chain_check(s, sf, [])
    assert chk.traces == 1 and chk.ok


def test_claim_chain_gf2_relation():
    # over GF(2) distinct restricted columns = classes + (1 if a zero column appears)
    for i in range(8):
        m = random_matroid(3, 8, field_from_order(2), seed=1200 + i)
        sf, s = canonical_system(m)
        rng = random.Random(i)
        for _ in range(10):
            w = rng.sample(s.ground, rng.randint(0, len(s.ground)))
            chk = claim_chain_check(s, sf, w)
            rows = [idx for idx, b in enumerate(sf.basis_order) if b in chk.basis_projection]
            has_zero = any(
                all(int(sf.a.data[r, j]) == 0 for r in rows)
                for j in range(len(sf.nonbasis_order))
            )
            assert chk.distinct_restricted_cols == chk.parallel_classes + (1 if has_zero else 0)
            assert chk.ok


def test_claim_chain_random_gf3():
    for i in range(10):
        m = random_matroid(4, 9, field_from_order(3), seed=1300 + i)
        sf, s = canonical_system(m)
        rng = random.Random(50 + i)
        for _ in range(20):
            w = rng.sample(s.ground, rng.randint(0, len(s.ground)))
            assert claim_chain_check(s, sf, w).ok


def test_claim_chain_full_fiber_equality():
    # when w covers every nonzero value of its basis rows, traces = distinct columns
    for i in range(6):
        q = (3, 4, 5)[i % 3]
        m = random_matroid(3, 8, field_from_order(q), seed=1400 + i)
        sf, s = canonical_system(m)
        rng = random.Random(60 + i)
        for _ in range(5):
            bw = rng.sample(sf.basis_order, rng.randint(0, len(sf.basis_order)))
            w = [(b, a) for b in bw for a in range(1, q)]
            chk = claim_chain_check(s, sf, w)
            assert chk.traces == chk.distinct_restricted_cols
            assert chk.ok


def test_set_system_rejects_bad_arguments():
    s = build_set_system(sf_from_a(3, [[1, 2], [1, 0]]))
    assert s.ground_mask([("b1", 2)]) == 1 << 1
    for bad in (("b3", 1), ("b1", 0), ("e1", 1)):
        with pytest.raises(ValueError, match="is not a ground element"):
            s.ground_mask([bad])
    with pytest.raises(ValueError, match="m must be >= 0, got -1"):
        shatter(s, -1)
    with pytest.raises(ValueError, match="delta must be >= 1, got 0"):
        greedy_delta_packing(s, 0)
