"""
Finite field arithmetic for F_q with q = p^e, p an odd prime.

Elements are represented as plain Python ints in range(q).  For prime
fields the int is just the residue mod p.  For extension fields the int
encodes the coefficient vector of the residue polynomial in base p:
the element sum(c_i * x^i) is stored as sum(c_i * p^i), where x is the
class of the variable modulo a fixed irreducible polynomial.

The modulus for F_{p^e} is always the lexicographically least monic
irreducible polynomial of degree e over F_p (comparing coefficient
tuples in ascending order), so that two runs always agree on the
representation.

Keeping elements as bare ints keeps polynomial code and enumeration
loops cheap; the Fq object carries all the arithmetic.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt


class SquareClass:
    """Square class of a field element: Square, NonSquare or Zero.

    Square classes form the group F_q^x / (F_q^x)^2 of order 2 (for odd q),
    extended by an absorbing Zero element so that class(ab) is always
    class(a)*class(b).
    """

    __slots__ = ("tag",)

    def __init__(self, tag: str):
        if tag not in ("Square", "NonSquare", "Zero"):
            raise ValueError(f"unknown square class tag {tag!r}")
        self.tag = tag

    def __repr__(self):
        return self.tag

    def __eq__(self, other):
        return isinstance(other, SquareClass) and self.tag == other.tag

    def __hash__(self):
        return hash(self.tag)

    def __mul__(self, other):
        if self.tag == "Zero" or other.tag == "Zero":
            return ZERO_CLASS
        if self.tag == other.tag:
            return SQUARE
        return NONSQUARE

    @property
    def sign(self) -> int:
        """+1 for Square, -1 for NonSquare; Zero has no sign."""
        if self.tag == "Square":
            return 1
        if self.tag == "NonSquare":
            return -1
        raise ValueError("Zero has no sign")


SQUARE = SquareClass("Square")
NONSQUARE = SquareClass("NonSquare")
ZERO_CLASS = SquareClass("Zero")


def _is_prime(n: int) -> bool:
    """Deterministic trial division: the package's one primality test."""
    if n < 2:
        return False
    for d in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        if n % d == 0:
            return n == d
    return all(n % d for d in range(37, isqrt(n) + 1, 2))


# -- the F_p list-polynomial kernel ------------------------------------------
#
# Polynomials over a prime field F_p as int lists in ascending order.
# This is the package's one mod-p list-polynomial kernel: Fq.mul and
# the modular resultant run on it (the batched factor-degree kernel in
# galclass works on int64 matrices instead).  Inputs may be unreduced
# ints; outputs are reduced mod p.


def _poly_mul_mod_p(a, b, p):
    """Multiply coefficient tuples over F_p (ascending order)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_rem_mod_p(a, m, p):
    """Remainder of a modulo the monic polynomial m, over F_p.

    Returned with exactly deg(m) coefficients (high zeros kept).
    """
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            a[i] = 0
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    return [c % p for c in a[:dm]]


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def conway_like_modulus(p: int, e: int) -> tuple:
    """Lexicographically least monic irreducible of degree e over F_p.

    Returned as an ascending coefficient tuple of length e+1 with
    leading coefficient 1.  Cached per (p, e) so every field object for
    the same parameters shares one modulus.
    """
    from .poly import Poly, is_irreducible   # poly imports this module

    if e < 2:
        raise ValueError("extension degree must be >= 2")
    F = get_field(p)
    # iterate over constant-first tuples in lexicographic order
    for code in range(p ** e):
        coeffs = []
        c = code
        for _ in range(e):
            coeffs.append(c % p)
            c //= p
        m = coeffs + [1]
        if m[0] == 0:
            continue  # divisible by x
        if is_irreducible(Poly(m, F)):
            return tuple(m)
    raise RuntimeError("no irreducible modulus found")  # unreachable


class Fq:
    """The finite field F_q, q = p^e with p an odd prime.

    Elements are ints in range(q).  For e > 1 the int is the base-p
    encoding of the residue polynomial's coefficients.
    """

    def __init__(self, p: int, e: int = 1):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p == 2:
            raise ValueError("characteristic 2 is not supported")
        if e < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.e = e
        self.q = p ** e
        if e > 1:
            self.modulus = conway_like_modulus(p, e)
        else:
            self.modulus = None
        self._mul_table = None
        self._inv_table = None
        self._log = None
        self._exp = None

    def __repr__(self):
        if self.e == 1:
            return f"F_{self.p}"
        return f"F_{self.p}^{self.e}"

    def __eq__(self, other):
        return isinstance(other, Fq) and (self.p, self.e) == (other.p, other.e)

    def __hash__(self):
        return hash((self.p, self.e))

    # -- encoding helpers ------------------------------------------------

    def to_vector(self, a: int):
        """Base-p digits of an element (ascending powers of x)."""
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return out

    def from_vector(self, v) -> int:
        a = 0
        for c in reversed(v):
            a = a * self.p + (c % self.p)
        return a

    def from_int(self, n: int) -> int:
        """Image of the integer n under Z -> F_p -> F_q."""
        return n % self.p

    # -- arithmetic ------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.e):
            out += ((a % p + b % p) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a - b) % self.p
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.e):
            out += ((a % p - b % p) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        t = self._mul_table
        if t is not None:
            return t[a * self.q + b]
        prod = _poly_mul_mod_p(self.to_vector(a), self.to_vector(b), self.p)
        return self.from_vector(_poly_rem_mod_p(prod, self.modulus, self.p))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        t = self._inv_table
        if t is not None:
            return t[a]
        return self.pow(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        if self.e == 1:
            return pow(a, n % (self.p - 1) if a else n, self.p)
        n = n % (self.q - 1) if a else n
        if a == 0:
            return 0 if n else 1
        result = 1
        base = a
        while n:
            if n & 1:
                result = self.mul(result, base)
            n >>= 1
            base = self.mul(base, base)
        return result

    # -- tables for small fields ----------------------------------------

    def build_tables(self):
        """Precompute flat mul/inv tables (worth it for q <= ~2000)."""
        if self.e == 1 or self._mul_table is not None:
            return
        q = self.q
        table = [0] * (q * q)
        for a in range(q):
            for b in range(a, q):
                v = self.mul(a, b)
                table[a * q + b] = v
                table[b * q + a] = v
        inv = [0] * q
        for a in range(1, q):
            inv[a] = self.pow(a, q - 2)
        self._mul_table = table
        self._inv_table = inv

    # -- multiplicative structure ----------------------------------------

    def generator(self) -> int:
        """A fixed generator of F_q^x (least in the int encoding)."""
        q = self.q
        factors = set(_prime_factors(q - 1))
        for g in range(1, q):
            if self.e == 1 and g == 1:
                continue
            if all(self.pow(g, (q - 1) // r) != 1 for r in factors):
                return g
        raise RuntimeError("no generator")  # unreachable

    def build_logs(self):
        """Discrete-log tables w.r.t. the fixed generator."""
        if self._log is not None:
            return
        g = self.generator()
        q = self.q
        exp = [0] * (q - 1)
        log = [0] * q  # log[0] unused
        acc = 1
        for i in range(q - 1):
            exp[i] = acc
            log[acc] = i
            acc = self.mul(acc, g)
        self._exp = exp
        self._log = log

    def square_class(self, a: int) -> SquareClass:
        """Square class of a, decided by a^((q-1)/2)."""
        if a == 0:
            return ZERO_CLASS
        if self._log is not None:
            return SQUARE if self._log[a] % 2 == 0 else NONSQUARE
        return SQUARE if self.pow(a, (self.q - 1) // 2) == 1 else NONSQUARE

    def squares(self):
        """Set of nonzero squares."""
        return {self.mul(a, a) for a in range(1, self.q)}

    def elements(self):
        return range(self.q)


@lru_cache(maxsize=None)
def get_field(p: int, e: int = 1) -> Fq:
    """Shared Fq instances so lazily built tables are reused."""
    return Fq(p, e)


def square_class(a: int, field: Fq) -> SquareClass:
    """Square class of the element a of the given field."""
    return field.square_class(a)
