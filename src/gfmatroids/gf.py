"""Exact arithmetic in GF(p^k) for small prime powers.

Field elements are plain ints in [0, q).  The integer's base-p digits are
the coefficients of the residue polynomial: digit i is the coefficient of
x^i.  Code 0 is the additive identity and code 1 the multiplicative one,
so for prime fields (k = 1) the encoding is just the usual residue.

A FieldSpec precomputes q x q addition and multiplication tables and
negation and inverse lists; the kernels subtract e*p by adding (-e)*p.

All operations are pure; a FieldSpec is immutable after construction and
safe to share between threads.
"""

from __future__ import annotations

from typing import Optional, Sequence

# Bundled monic irreducible moduli (Conway polynomials), as coefficient
# tuples low degree -> high degree.  Keyed by (p, k).
_BUNDLED_MODULI = {
    (2, 2): (1, 1, 1),        # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),     # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),  # x^4 + x + 1
    (3, 2): (2, 2, 1),        # x^2 + 2x + 2
    (3, 3): (1, 2, 0, 1),     # x^3 + 2x + 1
    (5, 2): (2, 4, 1),        # x^2 + 4x + 2
}

# Largest supported field order: every field gets q x q addition and
# multiplication tables, and `GFMatrix.data` holds element codes as uint8.
MAX_ORDER = 256


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _code(digits: Sequence[int], p: int) -> int:
    out = 0
    for d in reversed(digits):
        out = out * p + d
    return out


class FieldSpec:
    """A validated GF(p^k) with canonical integer element encoding.

    Parameters
    ----------
    p : int
        Prime characteristic.
    k : int, default 1
        Extension degree (the field has p^k elements).
    modulus : sequence of int, optional
        Coefficients of a monic irreducible degree-k polynomial over
        GF(p), low degree first.  Ignored for k = 1; for k > 1 it
        defaults to the bundled table, and a reducible one is refused
        with ValueError.

    Tables are precomputed (see the module docstring); orders above
    MAX_ORDER = 256 are refused with ValueError.
    """

    __slots__ = (
        "p", "k", "q", "modulus",
        "_add", "_mul", "_neg", "_inv",
    )

    def __init__(self, p: int, k: int = 1, modulus: Optional[Sequence[int]] = None):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if k < 1:
            raise ValueError(f"extension degree must be >= 1, got {k}")
        q = p**k
        if q > MAX_ORDER:
            raise ValueError(f"field order {q} exceeds the supported limit {MAX_ORDER}")
        if k == 1:
            modulus = (0, 1)  # unused; kept monic for serialization
        elif modulus is None:
            try:
                modulus = _BUNDLED_MODULI[(p, k)]
            except KeyError:
                raise ValueError(
                    f"no bundled modulus for GF({p}^{k}); supply one explicitly"
                ) from None
        else:
            modulus = tuple(x % p for x in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise ValueError(
                    f"modulus must be monic of degree {k}, got {list(modulus)}"
                )
        self.p = p
        self.k = k
        self.q = q
        self.modulus = tuple(modulus)
        self._build_tables()

    # -- construction helpers ------------------------------------------------

    def _build_tables(self) -> None:
        """Build each table row from rows already built: a code a stands for
        a%p + x·(a//p), and a//p < a for a > 0.  The modulus is irreducible
        exactly when every nonzero element has an inverse, i.e. every
        nonzero row of `mul` holds 1."""
        p, q = self.p, self.q
        # add the low digits mod p; the other digits add as the code a//p
        add = [list(range(q))]
        for a in range(1, q):
            low, high = a % p, add[a // p]
            add.append([(low + b % p) % p + p * high[b // p] for b in range(q)])
        # a constant c < p: c·b = (c-1)·b + b
        mul = [[0] * q]
        for c in range(1, p):
            mul.append([add[u][b] for b, u in enumerate(mul[c - 1])])
        # x·b shifts b up one digit; the digit t that falls off the top comes
        # back as t·x^k = t·(-(modulus below its leading term))
        top = q // p
        wrap = _code([-m % p for m in self.modulus[:-1]], p)
        times_x = [add[b * p % q][mul[b // top][wrap]] for b in range(q)]
        # Horner's rule: a·b = (a%p)·b + x·((a//p)·b)
        for a in range(p, q):
            mul.append([add[u][times_x[v]] for u, v in zip(mul[a % p], mul[a // p])])
        try:
            inv = [0] + [mul[a].index(1) for a in range(1, q)]
        except ValueError:
            raise ValueError(
                f"modulus {list(self.modulus)} is reducible over GF({p})"
            ) from None
        # a row of `add` holds 0 once, at the additive inverse
        neg = [row.index(0) for row in add]
        self._add, self._mul, self._neg, self._inv = add, mul, neg, inv

    # -- scalar operations ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._inv[a]

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(a), -n)
        r = 1
        while n:
            if n & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            n >>= 1
        return r

    def normalize(self, col: Sequence[int]) -> Optional[tuple[int, ...]]:
        """Projective normal form: `col` scaled so its first nonzero entry is
        1, or None for the zero vector.  Two nonzero vectors are parallel
        exactly when their normal forms are equal."""
        for x in col:
            if x:
                if x == 1:
                    return tuple(col)
                mrow = self._mul[self._inv[x]]
                return tuple(mrow[y] for y in col)
        return None

    # -- enumeration and serialization ----------------------------------------

    def elements(self) -> range:
        return range(self.q)

    def nonzero_elements(self) -> range:
        return range(1, self.q)

    def modulus_code(self) -> int:
        return _code(self.modulus, self.p)

    def spec_string(self) -> str:
        """Serialize as `p,k,modulus-code` (modulus coefficients base p)."""
        return f"{self.p},{self.k},{self.modulus_code()}"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldSpec)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.k, self.modulus))

    def __repr__(self) -> str:
        """`GF(q)`, plus the modulus code for an extension field, so fields
        of one order with different moduli read differently."""
        if self.k == 1:
            return f"GF({self.q})"
        return f"GF({self.q}) modulus={self.modulus_code()}"


def field_from_order(q: int, modulus_code: Optional[int] = None) -> FieldSpec:
    """Build GF(q) from the order alone, factoring q = p^k."""
    if not 2 <= q <= MAX_ORDER:
        raise ValueError(f"field order must be in [2, {MAX_ORDER}], got {q}")
    p = 2
    while p * p <= q and q % p:
        p += 1
    if q % p:
        p = q  # q itself prime
    k = 0
    rest = q
    while rest % p == 0:
        rest //= p
        k += 1
    if rest != 1:
        raise ValueError(f"{q} is not a prime power")
    modulus = None
    if modulus_code is not None:
        if modulus_code < 0:
            raise ValueError(f"modulus code must be >= 0, got {modulus_code}")
        digits = []
        c = modulus_code
        while c:
            digits.append(c % p)
            c //= p
        modulus = tuple(digits)
    return FieldSpec(p, k, modulus)
