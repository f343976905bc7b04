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
loops cheap; the Fq object carries all the arithmetic and owns its
tables.  ``Fq.build_logs`` is the one builder of discrete-log tables:
numpy exp/log arrays with respect to the least generator, filled by
blocked powering with the companion matrix of that generator, and the
quadratic character chi read off the log parity.  They are built on
first use and live as long as the field object (``get_field`` shares
one per (p, e)):

* the vectorized ``vmul``, ``vadd``, ``veval``, ``vlog``, ``vexp`` and
  ``vchi`` on arrays of codes build them whatever q is;
* for e > 1 the scalar ``mul``, ``inv`` and ``pow`` read them too, and
  build them themselves when q <= TABLE_MAX_Q; above that bound, unless
  a vectorized op has built them, they multiply residue polynomials;
* ``vadd`` adds base-p digits blockwise (digitwise addition has no
  carries) through p^k x p^k tables, which ``build_tables`` builds on
  its first call: the digits are split into at least two blocks, and
  into more while a block's table would exceed ADD_TABLE_MAX entries.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

import numpy as np

#: Largest q for which the scalar ops of an extension field build the
#: exp/log tables themselves (three int64 arrays of about q entries).
TABLE_MAX_Q = 1 << 16
#: Most entries in one digit-block addition table of ``Fq.vadd``.
ADD_TABLE_MAX = 1 << 20


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
# This is the package's one mod-p list-polynomial kernel: Fq._poly_mul
# and the Hensel lifting of poly run on it (the batched factor-degree
# kernel in galclass works on int64 matrices instead).  Inputs may be
# unreduced ints; outputs are reduced mod p.


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
        self._exp = None     # g^i for i in range(2 (q - 1)): doubled
        self._log = None     # log_g a, and -1 at a = 0
        self._chi = None     # 1, -1 or 0: the quadratic character
        self._adds = None    # (width, add table or None) per digit block

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
        if self._log is None and not self._scalar_tables():
            return self._poly_mul(a, b)
        if a == 0 or b == 0:
            return 0
        log = self._log
        return self._exp.item(log.item(a) + log.item(b))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        if self._log is None and not self._scalar_tables():
            return self._poly_pow(a, self.q - 2)
        return self._exp.item(self.q - 1 - self._log.item(a))

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        if self.e == 1:
            return pow(a, n % (self.p - 1) if a else n, self.p)
        n = n % (self.q - 1) if a else n
        if a == 0:
            return 0 if n else 1
        if self._log is None and not self._scalar_tables():
            return self._poly_pow(a, n)
        return self._exp.item(self._log.item(a) * n % (self.q - 1))

    # -- the polynomial path, which the table build itself runs on --------

    def _poly_mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        prod = _poly_mul_mod_p(self.to_vector(a), self.to_vector(b), self.p)
        return self.from_vector(_poly_rem_mod_p(prod, self.modulus, self.p))

    def _poly_pow(self, a: int, n: int) -> int:
        """a^n for n >= 0 by square-and-multiply on the polynomial path."""
        result = 1
        while n:
            if n & 1:
                result = self._poly_mul(result, a)
            n >>= 1
            a = self._poly_mul(a, a)
        return result

    def _scalar_tables(self) -> bool:
        """Build the tables for the scalar ops if q <= TABLE_MAX_Q; whether
        they are built."""
        if self._log is None and self.q <= TABLE_MAX_Q:
            self.build_logs()
        return self._log is not None

    # -- multiplicative structure ----------------------------------------

    def generator(self) -> int:
        """A fixed generator of F_q^x (least in the int encoding)."""
        q = self.q
        factors = set(_prime_factors(q - 1))
        for g in range(1, q):
            if self.e == 1 and g == 1:
                continue
            if all(self._poly_pow(g, (q - 1) // r) != 1 for r in factors):
                return g
        raise RuntimeError("no generator")  # unreachable

    def build_logs(self):
        """Discrete-log tables w.r.t. the fixed generator g.

        The digit vectors of g^i are the columns M^i e_0 for the matrix M
        of multiplication by g on F_p^e: the first block of powers is
        stepped one at a time, and each further block is the last one
        multiplied by M^block.  Entries stay below p, so every product
        sum is at most e (p - 1)^2.
        """
        if self._log is not None:
            return
        p, e, q = self.p, self.e, self.q
        g = self.generator()
        M = np.array([self.to_vector(self._poly_mul(g, p ** j))
                      for j in range(e)], dtype=np.int64).T
        block = min(1024, q - 1)
        V = np.zeros((e, block), dtype=np.int64)
        v = np.zeros(e, dtype=np.int64)
        v[0] = 1
        for i in range(block):
            V[:, i] = v
            v = (M @ v) % p
        Mb = np.eye(e, dtype=np.int64)         # M^block by squaring
        base, nn = M, block
        while nn:
            if nn & 1:
                Mb = (Mb @ base) % p
            nn >>= 1
            if nn:
                base = (base @ base) % p
        nblocks = -(-(q - 1) // block)
        digits = np.empty((e, nblocks * block), dtype=np.int64)
        for b in range(nblocks):
            digits[:, b * block:(b + 1) * block] = V
            V = (Mb @ V) % p
        codes = p ** np.arange(e, dtype=np.int64) @ digits[:, :q - 1]
        log = np.full(q, -1, dtype=np.int64)
        log[codes] = np.arange(q - 1)
        chi = np.zeros(q, dtype=np.int64)
        chi[codes] = np.where(np.arange(q - 1) % 2 == 0, 1, -1)
        self._exp = np.concatenate([codes, codes])
        self._chi = chi
        self._log = log

    def build_tables(self):
        """The digit-block addition tables of vadd (see _digit_blocks)."""
        if self._adds is None:
            self._adds = [(self.p ** k, _block_add_table(self.p, k))
                          for k in _digit_blocks(self.p, self.e)]

    def square_class(self, a: int) -> SquareClass:
        """Square class of a, decided by a^((q-1)/2) or by log parity."""
        if a == 0:
            return ZERO_CLASS
        if self._log is not None or self.e > 1 and self._scalar_tables():
            return SQUARE if self._log.item(a) % 2 == 0 else NONSQUARE
        return SQUARE if self.pow(a, (self.q - 1) // 2) == 1 else NONSQUARE

    def squares(self):
        """Set of nonzero squares."""
        return {self.mul(a, a) for a in range(1, self.q)}

    def elements(self):
        return range(self.q)

    # -- vectorized arithmetic on int64 arrays of codes --------------------

    def _logs(self):
        if self._log is None:
            self.build_logs()
        return self._exp, self._log

    def vlog(self, u) -> np.ndarray:
        """log_g of each code, -1 at zero."""
        return self._logs()[1][u]

    def vexp(self, k) -> np.ndarray:
        """g^k for exponents 0 <= k < 2 (q - 1)."""
        return self._logs()[0][k]

    def vchi(self, u) -> np.ndarray:
        """The quadratic character: 1, -1, or 0 at zero."""
        self._logs()
        return self._chi[u]

    def vmul(self, u, v) -> np.ndarray:
        exp, log = self._logs()
        u, v = np.broadcast_arrays(np.asarray(u), np.asarray(v))
        lu = log[u]
        lv = log[v]
        out = np.zeros(u.shape, dtype=np.int64)
        nz = (lu >= 0) & (lv >= 0)
        out[nz] = exp[lu[nz] + lv[nz]]
        return out

    def vadd(self, u, v) -> np.ndarray:
        if self.e == 1:
            return (np.asarray(u) + np.asarray(v)) % self.p
        if self._adds is None:
            self.build_tables()
        out = None
        scale = 1
        for i, (width, table) in enumerate(self._adds):
            if i + 1 < len(self._adds):
                u, a = np.divmod(u, width)
                v, b = np.divmod(v, width)
            else:
                a, b = u, v
            s = table[a, b] if table is not None else (a + b) % self.p
            out = s if out is None else out + scale * s
            scale *= width
        return out

    def veval(self, coeffs, ts) -> np.ndarray:
        """Horner evaluation of the polynomial with ascending coefficient
        codes coeffs at each code of the array ts."""
        acc = np.zeros(np.shape(ts), dtype=np.int64)
        for c in reversed(coeffs):
            acc = self.vadd(self.vmul(acc, ts), int(c))
        return acc


def _digit_blocks(p: int, e: int) -> list:
    """Digit counts of the blocks that Fq.vadd splits a code of F_{p^e}
    into, low block first: e // 2 and e - e // 2 digits, or as many
    near-equal blocks as it takes to keep every table p^(2k) within
    ADD_TABLE_MAX.  A one-digit block of a larger p gets no table."""
    k = 1
    while p ** (2 * k + 2) <= ADD_TABLE_MAX:
        k += 1
    nb = max(2, -(-e // k))
    return [e // nb + (i >= nb - e % nb) for i in range(nb)]


@lru_cache(maxsize=16)
def _block_add_table(p: int, k: int):
    """(a + b) for every pair of k-digit codes, or None when the table
    would exceed ADD_TABLE_MAX entries."""
    n = p ** k
    if n * n > ADD_TABLE_MAX:
        return None
    codes = np.arange(n)
    out = np.zeros((n, n), dtype=np.int64)
    scale = 1
    for _ in range(k):
        da = (codes // scale) % p
        out += scale * ((da[:, None] + da[None, :]) % p)
        scale *= p
    return out


@lru_cache(maxsize=None)
def get_field(p: int, e: int = 1) -> Fq:
    """Shared Fq instances so lazily built tables are reused."""
    return Fq(p, e)
