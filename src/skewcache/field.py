"""Finite-field arithmetic for cache index math.

Two constructions are supported:

* prime fields GF(p): plain integers mod p, and
* binary extension fields GF(2^n): integers read as coefficient
  bit-vectors, where bit i is the coefficient of x^i.  Index 42
  (0b101010) is the polynomial x^5 + x^3 + x.  Addition is XOR;
  multiplication is carry-less polynomial multiplication reduced by an
  irreducible modulus.

Element values are plain ints in [0, order).  A FieldSpec is immutable
and its operations are pure functions, so instances can be shared
freely across threads.

GF(p^n) with p > 2 and n > 1 is rejected at construction: every use in
this package only needs prime fields or binary extensions, and mixed
radix polynomial arithmetic would complicate the gate-cost model for no
benefit.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import reduce


#: Default reducing polynomials by extension degree.  n=2 is forced
#: (x^2+x+1 is the only irreducible quadratic over GF(2)); the rest are
#: the lightest-weight irreducibles for their degree.
DEFAULT_MODULI = {
    2: 0b111,        # x^2 + x + 1
    3: 0b1011,       # x^3 + x + 1
    4: 0b10011,      # x^4 + x + 1
    5: 0b100101,     # x^5 + x^2 + 1
    6: 0b1000011,    # x^6 + x + 1
    7: 0b10000011,   # x^7 + x + 1
}

#: Largest supported extension degree for GF(2^n); also caps p at 2^16.
MAX_DEGREE = 16

#: Largest cell count of a layout table (m^3) or cache (sets x ways x stack).
MAX_CELLS = 1 << 24

#: Fields up to this order get a memoized inverse table on first use.
_INV_TABLE_MAX = 4096

#: Fields up to this order also memoize the full multiplication table.
_MUL_TABLE_MAX = 256


def is_prime(p: int) -> bool:
    """Trial-division primality test, adequate for index-width values."""
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def poly_mod(a: int, b: int) -> int:
    """Remainder of carry-less division of polynomial a by b over GF(2)."""
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    db = b.bit_length() - 1
    while a and a.bit_length() - 1 >= db:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def is_irreducible(n: int, candidate: int) -> bool:
    """Decide whether a degree-n polynomial over GF(2) is irreducible.

    Uses trial division against every polynomial of degree 1..n//2,
    which is cheap at the degrees this package supports and easy to
    audit.  Raises ValueError when the candidate's degree is not
    exactly n.
    """
    if n < 1:
        raise ValueError(f"degree must be >= 1, got {n}")
    if candidate.bit_length() - 1 != n:
        raise ValueError(
            f"candidate {bin(candidate)} does not have degree {n}"
        )
    for deg in range(1, n // 2 + 1):
        for q in range(1 << deg, 1 << (deg + 1)):
            if poly_mod(candidate, q) == 0:
                return False
    return True


def default_modulus(n: int) -> int:
    """Built-in reducing polynomial for GF(2^n), n in 2..7."""
    try:
        return DEFAULT_MODULI[n]
    except KeyError:
        raise ValueError(
            f"no default modulus for degree {n}; pass one explicitly"
        ) from None


def poly_terms(value: int) -> tuple[int, ...]:
    """Exponents with nonzero coefficients, highest first (42 -> (5, 3, 1))."""
    return tuple(i for i in range(value.bit_length() - 1, -1, -1) if (value >> i) & 1)


def from_poly_terms(terms) -> int:
    """Inverse of poly_terms: pack exponents back into a bit-vector."""
    return reduce(lambda acc, t: acc | (1 << t), terms, 0)


def poly_str(value: int) -> str:
    """Human-readable polynomial, e.g. 0b1011 -> 'x^3+x+1'."""
    if value == 0:
        return "0"
    parts = []
    for t in poly_terms(value):
        if t == 0:
            parts.append("1")
        elif t == 1:
            parts.append("x")
        else:
            parts.append(f"x^{t}")
    return "+".join(parts)


@dataclass(frozen=True)
class FieldSpec:
    """A finite field GF(p) or GF(2^n) with its reducing modulus.

    For n == 1 the modulus must be 0 and arithmetic is integers mod p.
    For p == 2, n > 1 the modulus must have degree exactly n and be
    irreducible.  `order` is derived and cached.
    """

    p: int
    n: int = 1
    modulus: int = 0
    order: int = dc_field(init=False, compare=False)

    def __post_init__(self):
        if self.p > 1 << MAX_DEGREE:
            raise ValueError(f"characteristic {self.p} exceeds 2^{MAX_DEGREE}")
        if not is_prime(self.p):
            raise ValueError(f"characteristic {self.p} is not prime")
        if self.n < 1:
            raise ValueError(f"extension degree must be >= 1, got {self.n}")
        if self.modulus < 0:
            raise ValueError(f"modulus {self.modulus} is negative")
        if self.n == 1 and self.modulus:
            raise ValueError(f"GF({self.p}) takes no modulus, got {self.modulus}")
        if self.n > 1:
            if self.p != 2:
                raise ValueError(
                    "only p=2 extensions are supported (got "
                    f"GF({self.p}^{self.n}))"
                )
            if self.n > MAX_DEGREE:
                raise ValueError(f"extension degree {self.n} exceeds {MAX_DEGREE}")
            if self.modulus == 0:
                object.__setattr__(self, "modulus", default_modulus(self.n))
            if not is_irreducible(self.n, self.modulus):
                raise ValueError(
                    f"modulus {bin(self.modulus)} is not an irreducible "
                    f"polynomial of degree {self.n}"
                )
        object.__setattr__(self, "order", self.p ** self.n)

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        return cls(p=p)

    @classmethod
    def binary(cls, n: int, modulus: int = 0) -> "FieldSpec":
        return cls(p=2, n=n, modulus=modulus)

    # -- element arithmetic -------------------------------------------

    def check(self, *xs: int) -> None:
        """Raise ValueError when any value is outside [0, order)."""
        for x in xs:
            if not 0 <= x < self.order:
                raise ValueError(f"element {x} out of range for order {self.order}")

    def add(self, x: int, y: int) -> int:
        self.check(x, y)
        if self.p == 2:
            return x ^ y
        return (x + y) % self.p

    def sub(self, x: int, y: int) -> int:
        self.check(x, y)
        if self.p == 2:
            return x ^ y
        return (x - y) % self.p

    def mul(self, x: int, y: int) -> int:
        """Field product: shift-and-XOR with interleaved reduction for p=2."""
        self.check(x, y)
        if self.n == 1:
            return (x * y) % self.p
        table = getattr(self, "_mul_table", None)
        if table is not None:
            return table[x * self.order + y]
        if self.order <= _MUL_TABLE_MAX:
            # memoize the full product table on first use
            m = self.order
            table = tuple(
                self._mul_raw(a, b) for a in range(m) for b in range(m)
            )
            object.__setattr__(self, "_mul_table", table)
            return table[x * m + y]
        return self._mul_raw(x, y)

    def _mul_raw(self, x: int, y: int) -> int:
        mod = self.modulus
        top = 1 << self.n
        r = 0
        while y:
            if y & 1:
                r ^= x
            y >>= 1
            x <<= 1
            if x & top:
                x ^= mod
        return r

    def inv(self, x: int) -> int:
        """Multiplicative inverse of a nonzero element."""
        self.check(x)
        if x == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        table = getattr(self, "_inv_table", None)
        if table is not None:
            return table[x]
        if self.order <= _INV_TABLE_MAX:
            # memoize all inverses on first use; solvers hit inv hard
            table = (0,) + tuple(self._inv_pow(v) for v in range(1, self.order))
            object.__setattr__(self, "_inv_table", table)
            return table[x]
        return self._inv_pow(x)

    def _inv_pow(self, x: int) -> int:
        if self.n == 1:
            return pow(x, self.p - 2, self.p)
        # x^(order-2) by square and multiply
        result = 1
        base = x
        e = self.order - 2
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def __repr__(self):
        if self.n == 1:
            return f"GF({self.p})"
        return f"GF(2^{self.n}, {bin(self.modulus)})"


@dataclass(frozen=True)
class BinaryMatrix:
    """An n x n matrix over GF(2), stored as column bit-vectors.

    cols[j] is the image of the basis vector 2^j; applying the matrix
    XORs together the columns selected by the input's set bits.
    """

    size: int
    cols: tuple[int, ...]

    def apply(self, x: int) -> int:
        y = 0
        for j in range(self.size):
            if (x >> j) & 1:
                y ^= self.cols[j]
        return y

    def row(self, i: int) -> int:
        r = 0
        for j in range(self.size):
            r |= ((self.cols[j] >> i) & 1) << j
        return r


def const_mul_matrix(f: FieldSpec, k: int) -> BinaryMatrix:
    """The GF(2)-linear map x -> k*x in a binary field, as a matrix.

    Multiplication by a fixed constant modulo the reducing polynomial
    is linear over GF(2), so column j is simply k * 2^j.
    """
    if f.p != 2:
        raise ValueError(f"constant-multiplication matrices need p=2, got {f!r}")
    f.check(k)
    return BinaryMatrix(size=f.n, cols=tuple(f.mul(k, 1 << j) for j in range(f.n)))
