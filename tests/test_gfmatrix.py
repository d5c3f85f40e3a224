import ast
import random
from pathlib import Path

import numpy as np
import pytest

import gfmatroids
from gfmatroids import (
    GFMatrix,
    NotABasisError,
    RepMatroid,
    dual,
    field_from_order,
    format_gfm,
    in_span,
    minor,
    parse_gfm,
    rref,
    simplify,
    standard_form,
    verify_dichotomy,
)

from oracles import brute_rank, field_ops_oracle


def _mat(q, rows):
    f = field_from_order(q)
    return f, GFMatrix(f, rows)


def test_rref_gf2_duplicate_rows():
    _, m = _mat(2, [[1, 1], [1, 1]])
    r = rref(m)
    assert r.matrix.data.tolist() == [[1, 1], [0, 0]]
    assert r.rank == 1
    assert r.pivot_cols == (0,)


def test_rref_gf3_singular_pair_matches_brute_oracle():
    # det = 1*1 - 2*2 = -3 = 0 mod 3, so rank 1 (oracle-confirmed)
    f, m = _mat(3, [[1, 2], [2, 1]])
    r = rref(m)
    assert brute_rank(3, f.add, f.mul, m.col_tuples()) == 1
    assert r.rank == 1
    assert r.pivot_cols == (0,)


def test_rref_identity_fixed_point():
    f = field_from_order(5)
    m = GFMatrix.identity(f, 4)
    r = rref(m)
    assert r.matrix == m
    assert r.rank == 4


def test_rref_idempotent_on_random_matrices():
    rng = random.Random(42)
    for q in (2, 3, 4, 5):
        f = field_from_order(q)
        for _ in range(20):
            rows = [[rng.randrange(q) for _ in range(5)] for _ in range(4)]
            once = rref(GFMatrix(f, rows))
            twice = rref(once.matrix)
            assert twice.matrix == once.matrix
            assert twice.rank == once.rank


def test_rank_equals_transpose_rank():
    rng = random.Random(7)
    for q in (2, 3, 5, 9):
        f = field_from_order(q)
        for _ in range(15):
            rows = [[rng.randrange(q) for _ in range(4)] for _ in range(6)]
            m = GFMatrix(f, rows)
            assert rref(m).rank == rref(m.transpose()).rank


def test_rank_matches_brute_oracle_small():
    rng = random.Random(11)
    for q in (2, 3, 4, 9):
        f = field_from_order(q)
        add, mul = field_ops_oracle(f.p, f.k, f.modulus)
        for _ in range(10):
            rows = [[rng.randrange(q) for _ in range(4)] for _ in range(3)]
            m = GFMatrix(f, rows)
            assert rref(m).rank == brute_rank(q, add, mul, m.col_tuples())


def test_standard_form_already_standard():
    f, m = _mat(2, [[1, 0, 1], [0, 1, 1]])
    sf = standard_form(m, ["e1", "e2", "e3"], {"e1", "e2"})
    assert sf.basis_order == ("e1", "e2")
    assert sf.nonbasis_order == ("e3",)
    assert sf.a.data.tolist() == [[1], [1]]


def test_standard_form_reduces_other_basis():
    # e2 = e1 + e3 over GF(2), so A-column for e2 is (1,1)
    f, m = _mat(2, [[1, 0, 1], [0, 1, 1]])
    sf = standard_form(m, ["e1", "e2", "e3"], {"e1", "e3"})
    assert sf.basis_order == ("e1", "e3")
    assert sf.a.data.tolist() == [[1], [1]]


def test_standard_form_rejects_non_basis():
    f, m = _mat(2, [[1, 0, 1], [0, 1, 1]])
    with pytest.raises(NotABasisError):
        standard_form(m, ["e1", "e2", "e3"], {"e3"})
    with pytest.raises(NotABasisError):
        standard_form(m, ["e1", "e2", "e3"], {"e1"})


def test_standard_form_drops_zero_rows():
    f, m = _mat(3, [[1, 2, 0], [2, 1, 0], [0, 0, 1]])
    # rank 2: rows 1,2 dependent; basis {c0, c2}
    sf = standard_form(m, ["c0", "c1", "c2"], {"c0", "c2"})
    assert sf.a.rows == 2
    assert sf.a.cols == 1


def test_standard_form_preserves_rank_function():
    # exhaustive subset-rank comparison between source and reassembled [I | A]
    rng = random.Random(3)
    from itertools import combinations

    for q in (2, 3, 4):
        f = field_from_order(q)
        for trial in range(8):
            rows = [[rng.randrange(q) for _ in range(6)] for _ in range(3)]
            m = GFMatrix(f, rows)
            r = rref(m)
            if r.rank == 0:
                continue
            labels = [f"x{j}" for j in range(6)]
            basis = {labels[j] for j in r.pivot_cols}
            sf = standard_form(m, labels, basis)
            full, full_labels = sf.assemble()
            pos_src = {l: j for j, l in enumerate(labels)}
            pos_new = {l: j for j, l in enumerate(full_labels)}
            for size in range(len(labels) + 1):
                for combo in combinations(labels, size):
                    src = rref(m.take_cols([pos_src[l] for l in combo])).rank
                    new = rref(full.take_cols([pos_new[l] for l in combo])).rank
                    assert src == new


def test_in_span_examples():
    f, m = _mat(2, [[1, 0], [0, 1]])
    assert in_span(m, [0, 1], (0, 0)) == (0, 0)
    assert in_span(m, [0, 1], (1, 1)) == (1, 1)
    f3, m3 = _mat(3, [[1], [1]])
    # exhaustive scalar oracle: c*(1,1) != (1,2) for c in GF(3)
    for c in range(3):
        assert (f3.mul(c, 1), f3.mul(c, 1)) != (1, 2)
    assert in_span(m3, [0], (1, 2)) is None


def test_in_span_coefficients_reconstruct_vector():
    rng = random.Random(5)
    for q in (2, 3, 5):
        f = field_from_order(q)
        for _ in range(20):
            rows = [[rng.randrange(q) for _ in range(4)] for _ in range(3)]
            m = GFMatrix(f, rows)
            v = tuple(rng.randrange(q) for _ in range(3))
            coeffs = in_span(m, range(4), v)
            if coeffs is None:
                continue
            acc = [0, 0, 0]
            for c, col in zip(coeffs, m.col_tuples()):
                for i, x in enumerate(col):
                    acc[i] = f.add(acc[i], f.mul(c, x))
            assert tuple(acc) == v


def test_entry_range_validation():
    f = field_from_order(3)
    with pytest.raises(ValueError):
        GFMatrix(f, [[0, 3]])


def test_rank_zero_matrix_keeps_its_width_through_every_layer():
    text = "gfm q=3 rows=0 cols=3\nlabels a b c\n"
    f, mat, labels = parse_gfm(text)
    assert (mat.rows, mat.cols) == (0, 3)
    assert mat.col_tuples() == [(), (), ()]
    m = RepMatroid(f, mat, labels)
    d = dual(m)  # three coloops
    assert (d.matrix.rows, d.matrix.cols, d.rank) == (3, 3, 3)
    assert dual(d).matrix == mat
    assert simplify(d).matrix == d.matrix
    assert simplify(m).size == 0
    assert minor(m, delete={"a"}).matrix == GFMatrix.zeros(f, 0, 2)
    assert minor(d, contract={"a"}).matrix == GFMatrix.identity(f, 2)
    rr = rref(mat)
    assert rr.matrix == mat and rr.rank == 0
    sf = standard_form(mat, labels, ())
    assert (sf.a.rows, sf.a.cols) == (0, 3)
    assert sf.assemble() == (mat, labels)
    assert format_gfm(f, mat, labels) == text
    assert format_gfm(f, dual(d).matrix, labels) == text
    assert format_gfm(f, sf.assemble()[0], labels) == text
    # three loops: A has no rows, and every short circuit is a single loop
    rep = verify_dichotomy(m, 3)
    assert (rep.girth, rep.circuit, rep.bases_checked) == (1, ("a",), 1)


def test_numpy_list_and_tuple_input_give_equal_matrices():
    f = field_from_order(5)
    rows = [[1, 0, 4], [0, 3, 2]]
    built = [
        GFMatrix(f, rows),
        GFMatrix(f, tuple(map(tuple, rows))),
        GFMatrix(f, np.array(rows, dtype=np.uint8)),
        GFMatrix(f, np.array(rows, dtype=np.int64)),
        GFMatrix(f, rows, 3),
    ]
    assert all(m == built[0] for m in built)
    assert len({hash(m) for m in built}) == 1
    assert built[0].row_tuples() == ((1, 0, 4), (0, 3, 2))
    assert built[0] != GFMatrix(field_from_order(7), rows)
    assert GFMatrix.zeros(f, 0, 2) != GFMatrix.zeros(f, 0, 3)
    assert GFMatrix(f, []) == GFMatrix.zeros(f, 0, 0)


@pytest.mark.parametrize("data, cols", [
    ([1, 0, 1], None),
    (np.array([1, 0, 1]), None),
    ([[[1], [0]]], None),
    (np.zeros((2, 2, 2), dtype=np.uint8), None),
    ([[1, 0], [1]], None),
    ([[1, 0], [1, 1]], 3),
], ids=["1-D list", "1-D array", "3-D list", "3-D array", "ragged", "width disagrees"])
def test_input_that_is_not_2d_raises(data, cols):
    with pytest.raises(ValueError, match="must be 2-D"):
        GFMatrix(field_from_order(2), data, cols)


def test_data_is_a_read_only_uint8_view_of_the_rows():
    f = field_from_order(251)
    m = GFMatrix(f, [[250, 0, 7], [1, 2, 3]])
    arr = m.data
    assert arr.dtype == np.uint8 and arr.shape == (2, 3)
    assert not arr.flags.writeable
    assert [tuple(int(x) for x in row) for row in arr] == list(m.row_tuples())
    with pytest.raises(ValueError):
        arr[0, 0] = 1
    assert GFMatrix.zeros(f, 0, 4).data.shape == (0, 4)
    assert GFMatrix.zeros(f, 2, 0).data.shape == (2, 0)


def test_only_gfmatrix_imports_numpy():
    """numpy only stores matrices, so replacing it touches one module."""
    importers = set()
    for path in Path(gfmatroids.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "numpy" for n in names):
                importers.add(path.name)
    assert importers == {"gfmatrix.py"}
