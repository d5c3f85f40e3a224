import itertools
import random
import re

import pytest
import sympy

from gfmatroids import FieldSpec, field_from_order
from gfmatroids.gf import _BUNDLED_MODULI

from oracles import poly_add_oracle, poly_mul_oracle

AXIOM_ORDERS = [2, 3, 4, 5, 7, 8, 9]


def test_prime_field_construction():
    f = FieldSpec(2, 1)
    assert (f.p, f.k, f.q) == (2, 1, 2)


def test_default_gf4_modulus_is_irreducible():
    f = FieldSpec(2, 2)
    assert f.modulus == (1, 1, 1)  # x^2 + x + 1
    # degree 2, so irreducible iff no root in GF(2)
    for x in (0, 1):
        assert (1 + x + x * x) % 2 != 0


def test_nonprime_characteristic_rejected():
    with pytest.raises(ValueError):
        FieldSpec(4, 1)


def test_reducible_modulus_rejected():
    # x^2 + 1 = (x+1)^2 over GF(2)
    with pytest.raises(ValueError, match="reducible"):
        FieldSpec(2, 2, modulus=(1, 0, 1))


def test_unsupported_extension_without_modulus_rejected():
    with pytest.raises(ValueError, match="bundled"):
        FieldSpec(7, 2)


def test_explicit_modulus_accepted():
    # x^2 + 1 is irreducible over GF(7): -1 is not a square mod 7
    f = FieldSpec(7, 2, modulus=(1, 0, 1))
    assert f.q == 49
    assert f.mul(f.inv(3), 3) == 1


def _sympy_irreducible(p, mod):
    return sympy.Poly(list(reversed(mod)), sympy.Symbol("x"), modulus=p).is_irreducible


@pytest.mark.parametrize("pk,mod", sorted(_BUNDLED_MODULI.items()))
def test_bundled_moduli_irreducible_by_sympy(pk, mod):
    p, k = pk
    assert _sympy_irreducible(p, mod)
    assert FieldSpec(p, k, mod).modulus == mod


@pytest.mark.parametrize("p,k", [(p, k) for p in (2, 3, 5) for k in (2, 3)])
def test_modulus_accepted_exactly_when_sympy_says_irreducible(p, k):
    for low in itertools.product(range(p), repeat=k):
        mod = low + (1,)
        if _sympy_irreducible(p, mod):
            assert FieldSpec(p, k, mod).q == p**k
        else:
            message = f"modulus {list(mod)} is reducible over GF({p})"
            with pytest.raises(ValueError, match=re.escape(message)):
                FieldSpec(p, k, mod)


# explicit moduli, irreducible by sympy: x^7+x+1, x^8+x^4+x^3+x^2+1, x^5+2x+1
LARGE_FIELDS = [
    (2, 7, (1, 1, 0, 0, 0, 0, 0, 1)),
    (2, 8, (1, 0, 1, 1, 1, 0, 0, 0, 1)),
    (3, 5, (1, 2, 0, 0, 0, 1)),
]


@pytest.mark.parametrize("p,k,mod", LARGE_FIELDS)
def test_large_field_tables_match_schoolbook_oracle(p, k, mod):
    assert _sympy_irreducible(p, mod)
    f = FieldSpec(p, k, mod)
    rng = random.Random(p * 1000 + k)
    for _ in range(3000):
        a, b = rng.randrange(f.q), rng.randrange(f.q)
        assert f.add(a, b) == poly_add_oracle(p, k, a, b)
        assert f.mul(a, b) == poly_mul_oracle(p, k, mod, a, b)


def test_add_examples():
    f3 = FieldSpec(3)
    assert f3.add(2, 2) == 1
    f4 = FieldSpec(2, 2)
    assert f4.add(2, 3) == poly_add_oracle(2, 2, 2, 3) == 1
    for f in (f3, f4):
        for a in f.elements():
            assert f.add(a, 0) == a


def test_mul_examples():
    f5 = FieldSpec(5)
    assert f5.mul(3, 2) == 1
    f4 = FieldSpec(2, 2)
    assert f4.mul(2, 2) == poly_mul_oracle(2, 2, f4.modulus, 2, 2) == 3
    for f in (f5, f4):
        for a in f.elements():
            assert f.mul(a, 1) == a


def test_mul_matches_schoolbook_oracle_everywhere():
    for p, k in [(2, 2), (2, 3), (3, 2)]:
        f = FieldSpec(p, k)
        for a in f.elements():
            for b in f.elements():
                assert f.mul(a, b) == poly_mul_oracle(p, k, f.modulus, a, b)
                assert f.add(a, b) == poly_add_oracle(p, k, a, b)


def test_inv_examples():
    f5 = FieldSpec(5)
    assert f5.inv(3) == 2
    f4 = FieldSpec(2, 2)
    assert f4.inv(2) == 3
    assert poly_mul_oracle(2, 2, f4.modulus, 2, 3) == 1
    for q in AXIOM_ORDERS:
        assert field_from_order(q).inv(1) == 1


def test_inv_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        FieldSpec(5).inv(0)


@pytest.mark.parametrize("q", AXIOM_ORDERS)
def test_field_axioms_exhaustive(q):
    f = field_from_order(q)
    elems = list(f.elements())
    for a, b, c in itertools.product(elems, repeat=3):
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a, b in itertools.product(elems, repeat=2):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
    for a in elems:
        assert f.add(a, f.neg(a)) == 0
        assert sum(1 for b in elems if f.add(a, b) == 0) == 1
        if a:
            assert f.mul(a, f.inv(a)) == 1
            assert sum(1 for b in elems if f.mul(a, b) == 1) == 1


@pytest.mark.parametrize("q", AXIOM_ORDERS)
def test_fermat_lagrange(q):
    f = field_from_order(q)
    for a in f.nonzero_elements():
        assert f.pow(a, q - 1) == 1


@pytest.mark.parametrize("q", AXIOM_ORDERS)
def test_nonzero_enumeration(q):
    f = field_from_order(q)
    assert len(set(f.nonzero_elements())) == q - 1
    assert 0 not in f.nonzero_elements()


def test_subtraction_and_negation_are_digitwise():
    f9 = FieldSpec(3, 2)
    for a in f9.elements():
        for b in f9.elements():
            assert f9.add(f9.add(a, f9.neg(b)), b) == a
        assert f9.add(a, f9.neg(a)) == 0


def test_spec_string_roundtrip():
    f = FieldSpec(3, 2)
    assert f.spec_string() == f"3,2,{f.modulus_code()}"
    g = field_from_order(9, f.modulus_code())
    assert g == f


def test_field_from_order_rejects_non_prime_powers():
    for bad in (6, 12, 100):
        with pytest.raises(ValueError):
            field_from_order(bad)


def test_fields_above_256_are_refused():
    for q in (257, 521):
        with pytest.raises(ValueError, match="256"):
            field_from_order(q)


@pytest.mark.parametrize("p, k, message", [
    (0, 1, "characteristic 0 is not prime"),
    (9, 1, "characteristic 9 is not prime"),
    (2, 0, "extension degree must be >= 1, got 0"),
    (2, 9, "field order 512 exceeds the supported limit 256"),
])
def test_field_constructor_rejects_bad_parameters(p, k, message):
    with pytest.raises(ValueError, match=message):
        FieldSpec(p, k)


def test_pow_with_negative_exponent_inverts():
    f9 = FieldSpec(3, 2)
    for a in f9.nonzero_elements():
        assert f9.pow(a, -1) == f9.inv(a)
        assert f9.mul(f9.pow(a, -3), f9.pow(a, 3)) == 1
    with pytest.raises(ZeroDivisionError):
        f9.pow(0, -1)
