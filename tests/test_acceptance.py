"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The heavier searches (minor detection on the Petersen instance)
stay well under their budgets on commodity hardware.
"""

import contextlib
import itertools
import json
import random
from itertools import combinations

import pytest

from gfmatroids import (
    bases,
    canonical_system,
    claim_chain_check,
    clique,
    dual,
    field_from_order,
    find_short_circuit,
    girth,
    graphic,
    greedy_delta_packing,
    hamming_distance,
    has_minor,
    is_circuit,
    is_cosimple,
    is_isomorphic,
    minor,
    named_graph,
    projective_geometry,
    random_matroid,
    rank_table,
    sample_bases,
    simplify,
    subset_rank,
    sym_diff_size,
    uniform,
    verify_dichotomy,
)
from gfmatroids.cli import main as cli_main

from conftest import duality_instance

F2 = field_from_order(2)
F5 = field_from_order(5)


@contextlib.contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {num:2d} {name}: FAIL")
        raise
    print(f"[acceptance] criterion {num:2d} {name}: PASS")


def test_criterion_01_field_axioms():
    with criterion(1, "field axioms"):
        for q in (2, 3, 4, 5, 7, 8, 9):
            f = field_from_order(q)
            elems = list(f.elements())
            for a, b, c in itertools.product(elems, repeat=3):
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            for a in elems:
                assert sum(1 for b in elems if f.add(a, b) == 0) == 1
                if a:
                    assert sum(1 for b in elems if f.mul(a, b) == 1) == 1


def test_criterion_02_duality_suite():
    with criterion(2, "duality suite"):
        for i in range(50):
            m = duality_instance(i)
            assert m.size <= 10 and m.field.q in (2, 3, 4)
            d = dual(m)
            assert m.rank + d.rank == m.size
            dd = dual(d)
            assert dd.labels == m.labels
            assert rank_table(dd) == rank_table(m)


def test_criterion_03_girth_goldens():
    with criterion(3, "girth goldens"):
        assert girth(clique(4, F2)) == 3
        assert girth(clique(4, F2, dualize=True)) == 3
        assert girth(clique(5, F2, dualize=True)) == 4
        assert girth(graphic(named_graph("petersen"), F2)) == 5
        assert girth(graphic(named_graph("heawood"), F2)) == 6
        assert girth(uniform(2, 4, F5)) == 3


def test_criterion_04_claim_chain(corpus200):
    with criterion(4, "trace-count chain"):
        for i, m in enumerate(corpus200):
            assert m.size <= 12 and m.field.q in (2, 3, 4, 5)
            sf, system = canonical_system(m)
            rng = random.Random(3000 + i)
            ground = list(system.ground)
            for _ in range(50):
                w = rng.sample(ground, rng.randint(0, len(ground)))
                assert claim_chain_check(system, sf, w).ok
            q = m.field.q
            for _ in range(5):
                bw = rng.sample(sf.basis_order, rng.randint(0, len(sf.basis_order)))
                w = [(b, a) for b in bw for a in range(1, q)]
                chk = claim_chain_check(system, sf, w)
                assert chk.ok
                assert chk.traces == chk.distinct_restricted_cols


def test_criterion_05_sym_diff_sandwich(corpus200):
    with criterion(5, "symmetric-difference sandwich"):
        for m in corpus200:
            _, system = canonical_system(m)
            for e, f in combinations(sorted(system.labels), 2):
                h = hamming_distance(system, e, f)
                d = sym_diff_size(system, e, f)
                assert h <= d <= 2 * h


def test_criterion_06_short_circuit_guarantee(corpus200):
    with criterion(6, "short-circuit structural guarantee"):
        for i, m in enumerate(corpus200):
            basis_list = bases(m) if m.size <= 10 else sample_bases(m, 20, seed=i)
            for basis in basis_list:
                circ, stats = find_short_circuit(m, basis)
                assert is_circuit(m, circ)
                assert len(circ - set(basis)) <= 2
                if stats.min_sym_diff is not None:
                    assert len(circ) <= stats.pair_hamming + 2
                    assert len(circ) <= stats.min_hamming + 2


def test_criterion_07_minor_goldens():
    with criterion(7, "minor detection goldens"):
        assert has_minor(clique(4, F2), clique(3, F2)) is not None
        pg = projective_geometry(3, F2)
        assert has_minor(pg, clique(4, F2)) is not None
        assert has_minor(pg, uniform(2, 4, F5)) is None
        pet = graphic(named_graph("petersen"), F2)
        witness = has_minor(pet, clique(5, F2))
        assert witness is not None
        dels, cons = witness
        assert is_isomorphic(minor(pet, delete=dels, contract=cons), clique(5, F2))


def test_criterion_08_dichotomy_smoke():
    with criterion(8, "dichotomy smoke test"):
        rep = verify_dichotomy(clique(5, F2, dualize=True), 5, instance_id="mk5_dual")
        statuses = {f.target: f.status for f in rep.minors}
        assert rep.girth == 4 and rep.cosimple
        assert statuses["mk5_dual"] == "found"

        pet = graphic(named_graph("petersen"), F2)
        rep = verify_dichotomy(pet, 5, instance_id="petersen@gf2")
        statuses = {f.target: f.status for f in rep.minors}
        assert statuses["mk5"] == "found"

        # first seed giving a cosimple GF(2) instance of girth <= 3 (scan is
        # deterministic; seed 0 qualifies with girth 2)
        seed = next(
            s for s in range(100)
            if is_cosimple(random_matroid(4, 10, F2, seed=s))
            and girth(random_matroid(4, 10, F2, seed=s)) <= 3
        )
        m = random_matroid(4, 10, F2, seed=seed)
        rep = verify_dichotomy(m, 5, instance_id=f"random(4,10,gf2,{seed})")
        assert rep.circuit_size <= 3
        assert rep.nonbasis_count <= 2


def test_criterion_09_growth_density(corpus200):
    with criterion(9, "growth-rate density"):
        assert projective_geometry(3, F2).size == 7
        zoo = list(corpus200)
        zoo.extend(clique(t, F2) for t in (3, 4, 5))
        zoo.append(uniform(2, 4, F5))
        zoo.extend(projective_geometry(r, field_from_order(q)) for r, q in [(2, 2), (3, 2), (2, 3), (2, 4)])
        for m in zoo:
            r, q = m.rank, m.field.q
            if r == 0:
                continue
            s = simplify(m)
            bound = (q**r - 1) // (q - 1)
            assert s.size <= bound
            if s.size == bound:
                assert is_isomorphic(s, projective_geometry(r, m.field))
        for r, q in [(2, 2), (3, 2), (2, 3), (2, 4)]:
            pg = projective_geometry(r, field_from_order(q))
            assert simplify(pg).size == (q**r - 1) // (q - 1)


def test_criterion_10_packing_ratio_measurement(capsys):
    with criterion(10, "delta-packing measurement"):
        records = []
        for i in range(50):
            m = duality_instance(i)
            _, system = canonical_system(m)
            v = len(system.ground)
            for delta in (1, 2, 3, 4):
                packing = greedy_delta_packing(system, delta)
                for e, f in combinations(packing, 2):
                    assert sym_diff_size(system, e, f) >= delta
                records.append(
                    {"instance": i, "delta": delta, "size": len(packing),
                     "ratio": len(packing) * delta / v}
                )
        by_delta = {
            d: [r["ratio"] for r in records if r["delta"] == d] for d in (1, 2, 3, 4)
        }
        summary = {
            d: {"mean": sum(v) / len(v), "max": max(v)} for d, v in by_delta.items()
        }
        print("[acceptance] packing ratios |packing|*delta/|V|:",
              json.dumps(summary, sort_keys=True))
        assert len(records) == 200


def test_criterion_11_reproducibility(tmp_path):
    with criterion(11, "byte-identical reports"):
        pairs = [
            ["verify", "gen:mk4_dual", "--t", "4", "--seed", "9"],
            ["girth", "gen:petersen@gf2"],
            ["shatter", "gen:mk5_dual", "--m", "5", "--trials", "100", "--seed", "13"],
            ["separation", "gen:petersen@gf2"],
        ]
        for k, argv in enumerate(pairs):
            a = tmp_path / f"a{k}.json"
            b = tmp_path / f"b{k}.json"
            assert cli_main(argv + ["--out", str(a)]) == 0
            assert cli_main(argv + ["--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes()
