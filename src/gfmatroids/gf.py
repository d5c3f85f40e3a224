"""Exact arithmetic in GF(p^k) for small prime powers.

Field elements are plain ints in [0, q).  The integer's base-p digits are
the coefficients of the residue polynomial: digit i is the coefficient of
x^i.  Code 0 is the additive identity and code 1 the multiplicative one,
so for prime fields (k = 1) the encoding is just the usual residue.

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

# Largest supported field order: every field gets full q x q operation
# tables, and matrices store element codes as uint8.
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


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(p: int, a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(p: int, a: Sequence[int], mod: Sequence[int]) -> list[int]:
    # mod must be monic
    a = list(a)
    dm = len(mod) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, mi in enumerate(mod):
                a[shift + i] = (a[shift + i] - lead * mi) % p
        a.pop()
    return _poly_trim(a)


def _all_monic_polys(p: int, degree: int):
    for code in range(p**degree):
        coeffs = []
        c = code
        for _ in range(degree):
            coeffs.append(c % p)
            c //= p
        coeffs.append(1)
        yield coeffs


def is_irreducible(p: int, coeffs: Sequence[int]) -> bool:
    """Trial division by every monic polynomial of degree <= k/2 over GF(p)."""
    k = len(coeffs) - 1
    if k < 1 or coeffs[-1] != 1:
        return False
    if k == 1:
        return True
    if coeffs[0] == 0:  # divisible by x
        return False
    for d in range(1, k // 2 + 1):
        for cand in _all_monic_polys(p, d):
            if not _poly_mod(p, coeffs, cand):
                return False
    return True


def _digits(code: int, p: int, k: int) -> tuple[int, ...]:
    out = []
    for _ in range(k):
        out.append(code % p)
        code //= p
    return tuple(out)


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
    k : int
        Extension degree (the field has p^k elements).
    modulus : sequence of int, optional
        Coefficients of a monic irreducible degree-k polynomial over
        GF(p), low degree first.  Ignored for k = 1; for k > 1 it
        defaults to the bundled table and is checked exhaustively.

    Operation tables are precomputed; orders above MAX_ORDER = 256 are
    refused with ValueError.
    """

    __slots__ = (
        "p", "k", "q", "modulus",
        "_add", "_sub", "_mul", "_neg", "_inv",
    )

    def __init__(self, p: int, k: int, modulus: Optional[Sequence[int]] = None):
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
            if not is_irreducible(p, modulus):
                raise ValueError(f"modulus {list(modulus)} is reducible over GF({p})")
        self.p = p
        self.k = k
        self.q = q
        self.modulus = tuple(modulus)
        self._build_tables()

    # -- construction helpers ------------------------------------------------

    def _scalar_add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        da, db = _digits(a, self.p, self.k), _digits(b, self.p, self.k)
        return _code([(x + y) % self.p for x, y in zip(da, db)], self.p)

    def _scalar_mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        prod = _poly_mul(self.p, _digits(a, self.p, self.k), _digits(b, self.p, self.k))
        red = _poly_mod(self.p, prod, self.modulus)
        return _code(red + [0] * (self.k - len(red)), self.p)

    def _build_tables(self) -> None:
        q = self.q
        add = [[self._scalar_add(a, b) for b in range(q)] for a in range(q)]
        mul = [[self._scalar_mul(a, b) for b in range(q)] for a in range(q)]
        # a row of `add` holds 0 once, at the additive inverse; a nonzero row
        # of `mul` holds 1 once, at the inverse, as the modulus is irreducible
        neg = [row.index(0) for row in add]
        inv = [0] + [mul[a].index(1) for a in range(1, q)]
        sub = [[add[a][neg[b]] for b in range(q)] for a in range(q)]
        self._add, self._sub, self._mul = add, sub, mul
        self._neg, self._inv = neg, inv

    # -- scalar operations ---------------------------------------------------

    def check(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise ValueError(f"element code {a} out of range for GF({self.q})")
        return a

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._sub[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._inv[a]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

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
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.k})"


def field_new(p: int, k: int = 1, modulus: Optional[Sequence[int]] = None) -> FieldSpec:
    """Construct a validated FieldSpec.

    Without an explicit modulus, k > 1 requires (p, k) to be in the bundled
    table {GF(4), GF(8), GF(9), GF(16), GF(25), GF(27)}.
    """
    return FieldSpec(p, k, modulus)


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
        digits = []
        c = modulus_code
        while c:
            digits.append(c % p)
            c //= p
        modulus = tuple(digits)
    return FieldSpec(p, k, modulus)
