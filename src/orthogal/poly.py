"""
Dense univariate polynomials with exact coefficients.

A Poly is a coefficient tuple in ascending order plus a ring tag:
field=None means rational coefficients (ints and Fractions), field=Fq
means the coefficients are ints encoding elements of that finite field
(see ffield).  Both rings share one scalar interface, Fq's (from_int,
add, sub, neg, mul, inv, div), with QQ the rationals; Poly reads it from
its ring property, so every algorithm is written once.  All arithmetic
is exact; there is no floating point.

Factorization over F_q is the classical three-stage pipeline:
squarefree decomposition, distinct-degree splitting, then a randomized
equal-degree split (odd q) driven by an explicit seed.  The factor list
is sorted canonically so output never depends on the seed.  A
squarefree integer polynomial is factored over Z by Zassenhaus' method:
Hensel lifting from one good prime, then recombination.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction
from itertools import combinations
from math import comb, gcd as int_gcd, isqrt, prod

from .ffield import (Fq, get_field, _is_prime, _poly_mul_mod_p,
                     _poly_rem_mod_p, _prime_factors)


def _integral(c):
    """c itself, or the int it equals when it is an integral Fraction."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


class _Rationals:
    """Q with the scalar interface of Fq, on ints and Fractions: an
    integral product or quotient comes back as an int."""

    p, e = 0, 1                  # characteristic 0, a prime field
    add, sub, neg = operator.add, operator.sub, operator.neg

    def __repr__(self):
        return "QQ"

    @staticmethod
    def from_int(n):
        return n

    @staticmethod
    def mul(a, b):
        return _integral(a * b)

    @staticmethod
    def div(a, b):
        return _integral(Fraction(a, b))

    def inv(self, a):
        return self.div(1, a)


QQ = _Rationals()


def _field_code(c, field: Fq) -> int:
    """The code of the integer c in field: canonical codes pass through,
    and other integers are read as integer images (so a negative c is
    -|c|, also over extension fields)."""
    n = int(c)
    if n != c:
        raise TypeError(f"coefficient {c!r} is not an integer")
    return n if 0 <= n < field.q else field.from_int(n)


class Poly:
    __slots__ = ("coeffs", "field")

    def __init__(self, coeffs, field: Fq | None = None):
        if field is not None:
            q = field.q
            coeffs = [c if type(c) is int and 0 <= c < q
                      else _field_code(c, field) for c in coeffs]
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(coeffs)
        self.field = field

    @property
    def ring(self):
        """The coefficient ring: the Fq, or QQ for field=None."""
        return self.field or QQ

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_int_coeffs(coeffs, field: Fq | None = None) -> "Poly":
        """Reduce integer coefficients into the target ring."""
        R = field or QQ
        return Poly([R.from_int(c) if isinstance(c, int) else c for c in coeffs], field)

    @staticmethod
    def x(field=None) -> "Poly":
        return Poly([0, 1], field)

    @staticmethod
    def constant(c, field=None) -> "Poly":
        return Poly([c], field)

    # -- basics ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __repr__(self):
        tag = "" if self.field is None else f" over {self.field}"
        return f"Poly({list(self.coeffs)}{tag})"

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.coeffs == other.coeffs
                and self.field == other.field)

    def __hash__(self):
        return hash((self.coeffs, self.field))

    def _same_ring(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(other, self.field)
        if self.field != other.field:
            raise ValueError("mixed coefficient rings")
        return other

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        other = self._same_ring(other)
        add = self.ring.add
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = add(out[i], c)
        return Poly(out, self.field)

    def __neg__(self):
        neg = self.ring.neg
        return Poly([neg(c) for c in self.coeffs], self.field)

    def __sub__(self, other):
        return self + (-self._same_ring(other))

    def __mul__(self, other):
        other = self._same_ring(other)
        if self.is_zero() or other.is_zero():
            return Poly([], self.field)
        R = self.ring
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        if R.e == 1:
            # Q and F_p: plain products; over F_p reduced once at the end
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        out[i + j] += ai * bj
            if R.p:
                p = R.p
                out = [c % p for c in out]
        else:
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        out[i + j] = R.add(out[i + j], R.mul(ai, bj))
        return Poly(out, self.field)

    def scale(self, c):
        """Multiply by a ring constant."""
        mul = self.ring.mul
        return Poly([mul(c, a) for a in self.coeffs], self.field)

    def __pow__(self, n: int):
        result = Poly([1], self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def divmod(self, other):
        """Quotient and remainder, exact in the coefficient ring (over Q
        a non-unit leading coefficient gives Fraction quotients)."""
        other = self._same_ring(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        R = self.ring
        F = self.field
        a = list(self.coeffs)
        b = other.coeffs
        db = len(b) - 1
        if len(a) - 1 < db:
            return Poly([], F), Poly(a, F)
        q = [0] * (len(a) - db)
        inv = R.inv(b[-1])
        for i in range(len(a) - 1, db - 1, -1):
            if a[i]:
                c = R.mul(a[i], inv)
                q[i - db] = c
                for j in range(db + 1):
                    a[i - db + j] = R.sub(a[i - db + j], R.mul(c, b[j]))
        return Poly(q, F), Poly(a[:db], F)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def exact_div(self, other):
        """Division asserting a zero remainder."""
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    # -- calculus and evaluation ------------------------------------------

    def derivative(self):
        R = self.ring
        return Poly([R.mul(R.from_int(i), c)
                     for i, c in enumerate(self.coeffs) if i], self.field)

    def __call__(self, x):
        """Evaluate (Horner).  x is a ring element of the same ring; a
        negative int stands for -|x|."""
        R = self.ring
        if isinstance(x, int) and x < 0:
            x = R.from_int(x)
        acc = 0
        for c in reversed(self.coeffs):
            acc = R.add(R.mul(acc, x), c)
        return acc

    def eval_int(self, n: int):
        """Evaluate at the image of the integer n."""
        return self(self.ring.from_int(n))

    def monic(self):
        if self.is_zero() or self.lc == 1:
            return self
        return self.scale(self.ring.inv(self.lc))

    def reverse(self):
        """T^deg * f(1/T)."""
        return Poly(list(reversed(self.coeffs)), self.field)

    def shift_compose(self, a):
        """f(T + a) for a field/ring constant a."""
        F = self.field
        out = Poly([], F)
        for c in reversed(self.coeffs):
            out = out * Poly([a, 1], F) + Poly([c], F)
        return out

    # -- gcd -------------------------------------------------------------

    def gcd(self, other):
        """Monic gcd over the coefficient field, Q or F_q."""
        a, b = self, self._same_ring(other)
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def is_squarefree(self) -> bool:
        d = self.derivative()
        if d.is_zero():
            return self.degree == 0
        return self.gcd(d).degree == 0


# ---------------------------------------------------------------------------
# Resultants and discriminants
# ---------------------------------------------------------------------------


def _resultant_field(f: Poly, g: Poly):
    """Resultant over a finite field via the Euclidean scheme."""
    F = f.field
    if f.degree < 0 or g.degree < 0:
        return 0
    res = 1
    a, b = f, g
    while True:
        da, db = a.degree, b.degree
        if db == 0:
            return F.mul(res, F.pow(b.coeffs[0], da))
        r = a % b
        dr = r.degree
        if r.is_zero():
            return 0
        # res(a, b) = (-1)^(da*db) lc(b)^(da-dr) res(b, r)
        sign_flip = (da * db) % 2 == 1
        res = F.mul(res, F.pow(b.lc, da - dr))
        if sign_flip:
            res = F.neg(res)
        a, b = b, r


_RES_PRIMES: list[int] = []


def _res_primes(count):
    global _RES_PRIMES
    cand = _RES_PRIMES[-1] + 2 if _RES_PRIMES else (1 << 30) + 3
    while len(_RES_PRIMES) < count:
        while not _is_prime(cand):
            cand += 2
        _RES_PRIMES.append(cand)
        cand += 2
    return _RES_PRIMES[:count]


def _resultant_mod(fc, gc, p):
    """Resultant of integer coefficient lists mod p (Euclidean)."""
    a = [c % p for c in fc]
    b = [c % p for c in gc]

    def deg(u):
        i = len(u) - 1
        while i >= 0 and not u[i]:
            i -= 1
        return i

    da, db = deg(a), deg(b)
    a, b = a[:da + 1], b[:db + 1]
    if da < 0 or db < 0:
        return 0
    res = 1
    while True:
        if db == 0:
            return (res * pow(b[0], da, p)) % p
        # a mod b equals a mod the monic b / lc(b)
        inv = pow(b[db], -1, p)
        r = _poly_rem_mod_p(a, [(c * inv) % p for c in b], p)
        dr = deg(r)
        if dr < 0:
            return 0
        r = r[:dr + 1]
        if (da * db) % 2 == 1:
            res = (-res) % p
        res = (res * pow(b[db], da - dr, p)) % p
        a, b, da, db = b, r, db, dr


def _resultant_int(f: Poly, g: Poly) -> int:
    """Exact integer resultant via CRT over 30-bit primes."""
    fc, gc = list(f.coeffs), list(g.coeffs)
    if not fc or not gc:
        return 0
    # Hadamard-style bound: prod of 2-norms
    nf = isqrt(sum(c * c for c in fc)) + 1
    ng = isqrt(sum(c * c for c in gc)) + 1
    bound = 2 * (nf ** len(gc)) * (ng ** len(fc)) + 1
    need = 1
    primes = []
    modulus = 1
    k = 0
    while modulus < bound:
        k += 8
        primes = _res_primes(k)
        modulus = prod(primes)
    residues = []
    used = []
    for p in primes:
        if fc[-1] % p == 0 or gc[-1] % p == 0:
            continue  # degree would drop; skip this prime
        residues.append(_resultant_mod(fc, gc, p))
        used.append(p)
    modulus = prod(used)
    if modulus < bound:
        # pathological: leading coeffs hit every prime; extend
        extra = _res_primes(k + 16)[k:]
        for p in extra:
            if fc[-1] % p == 0 or gc[-1] % p == 0:
                continue
            residues.append(_resultant_mod(fc, gc, p))
            used.append(p)
            modulus = prod(used)
            if modulus >= bound:
                break
    # CRT
    x = 0
    for r, p in zip(residues, used):
        m = modulus // p
        x = (x + r * m * pow(m, -1, p)) % modulus
    if x > modulus // 2:
        x -= modulus
    return x


def resultant(f: Poly, g: Poly):
    """Exact resultant of two polynomials over the same ring."""
    if f.field is not None:
        return _resultant_field(f, g)
    if any(isinstance(c, Fraction) for c in f.coeffs + g.coeffs):
        # clear denominators: res(af, bg) = a^deg g b^deg f res(f, g)
        df, dg = f.degree, g.degree
        cf = 1
        for c in f.coeffs:
            cf = cf * Fraction(c).denominator // int_gcd(cf, Fraction(c).denominator)
        cg = 1
        for c in g.coeffs:
            cg = cg * Fraction(c).denominator // int_gcd(cg, Fraction(c).denominator)
        fi = Poly([int(Fraction(c) * cf) for c in f.coeffs])
        gi = Poly([int(Fraction(c) * cg) for c in g.coeffs])
        r = _resultant_int(fi, gi)
        return Fraction(r, cf ** dg * cg ** df)
    return _resultant_int(f, g)


def discriminant(f: Poly):
    """disc(f) = (-1)^(d(d-1)/2) * Res(f, f') / lc(f)."""
    if f.is_zero():
        raise ValueError("discriminant of the zero polynomial")
    d = f.degree
    if d == 0:
        raise ValueError("discriminant of a constant")
    fp = f.derivative()
    if fp.is_zero():
        return 0
    R = f.ring
    val = R.div(resultant(f, fp), f.lc)
    return R.neg(val) if (d * (d - 1) // 2) % 2 else val


# ---------------------------------------------------------------------------
# Factorization over F_q
# ---------------------------------------------------------------------------


def _pth_root(f: Poly) -> Poly:
    """For f(x) = g(x^p), return g (coefficientwise p-th roots)."""
    F = f.field
    p = F.p
    out = []
    for i in range(0, len(f.coeffs), p):
        # p-th root in F_q is c -> c^(q/p)
        out.append(F.pow(f.coeffs[i], F.q // p))
    return Poly(out, F)


def squarefree_decomposition(f: Poly):
    """List of (squarefree monic g, multiplicity m) with f = lc * prod g^m."""
    F = f.field
    if F is None:
        raise ValueError("squarefree decomposition needs a polynomial "
                         "over a finite field")
    f = f.monic()
    out = []

    def rec(g, mult):
        if g.degree == 0:
            return
        d = g.derivative()
        if d.is_zero():
            rec(_pth_root(g), mult * F.p)
            return
        c = g.gcd(d)
        w = g.exact_div(c)
        i = 1
        while w.degree > 0:
            y = w.gcd(c)
            z = w.exact_div(y)
            if z.degree > 0:
                out.append((z, mult * i))
            w = y
            c = c.exact_div(y)
            i += 1
        if c.degree > 0:
            rec(c, mult)

    rec(f, 1)
    # merge duplicates (possible through the p-th power branch)
    merged = {}
    for g, m in out:
        merged[g] = merged.get(g, 0) + m
    return sorted(merged.items(), key=lambda t: (t[1], t[0].degree, t[0].coeffs))


def _pow_mod(base: Poly, n: int, mod: Poly) -> Poly:
    result = Poly([1], base.field)
    base = base % mod
    while n:
        if n & 1:
            result = (result * base) % mod
        n >>= 1
        if n:
            base = (base * base) % mod
    return result


def distinct_degree_split(f: Poly):
    """For squarefree monic f: list of (d, product of irreducible factors
    of degree d), ascending in d, skipping trivial entries."""
    F = f.field
    q = F.q
    out = []
    x = Poly.x(F)
    frob = x % f
    rest = f
    d = 0
    while rest.degree > 0:
        d += 1
        if rest.degree < 2 * d:
            out.append((rest.degree, rest))
            break
        frob = _pow_mod(frob, q, rest if d == 1 else rest)
        g = rest.gcd(frob - x)
        if g.degree > 0:
            out.append((d, g))
            rest = rest.exact_div(g)
            frob = frob % rest
    return out


def factor_degrees(f: Poly):
    """Sorted degree multiset of the irreducible factors of f (with
    multiplicity), computed by distinct-degree splitting only."""
    out = []
    for g, m in squarefree_decomposition(f):
        for d, block in distinct_degree_split(g):
            out.extend([d] * ((block.degree // d) * m))
    return sorted(out)


def _equal_degree_split(f: Poly, d: int, rng: random.Random):
    """Cantor–Zassenhaus split of a squarefree product of degree-d
    irreducibles over F_q, q odd."""
    F = f.field
    if f.degree == d:
        return [f]
    q = F.q
    exponent = (q ** d - 1) // 2
    while True:
        r = Poly([rng.randrange(q) for _ in range(f.degree)], F)
        if r.degree < 1:
            continue
        g = f.gcd(r)
        if 0 < g.degree < f.degree:
            pieces = [g, f.exact_div(g)]
        else:
            h = _pow_mod(r, exponent, f) - Poly([1], F)
            g = f.gcd(h)
            if 0 < g.degree < f.degree:
                pieces = [g, f.exact_div(g)]
            else:
                continue
        out = []
        for piece in pieces:
            out.extend(_equal_degree_split(piece, d, rng))
        return out


def factor(f: Poly, seed: int = 0):
    """Complete factorization over F_q.

    Returns (unit, [(irreducible monic Poly, multiplicity), ...]) with the
    factor list sorted canonically by (degree, coefficient tuple); the
    product of factors times the unit reproduces f exactly.
    """
    if f.field is None:
        raise ValueError("factor requires finite-field coefficients")
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    unit = f.lc
    if f.degree == 0:
        return unit, []
    rng = random.Random(seed)
    factors = []
    for g, m in squarefree_decomposition(f):
        for d, block in distinct_degree_split(g):
            if block.degree == d:
                factors.append((block, m))
            else:
                for piece in _equal_degree_split(block, d, rng):
                    factors.append((piece, m))
    factors.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    return unit, factors


# ---------------------------------------------------------------------------
# Factorization over Z (Zassenhaus: Hensel lifting, then recombination)
# ---------------------------------------------------------------------------
#
# Cohen, A Course in Computational Algebraic Number Theory, 3.5.  The
# list kernels of ffield never invert, so they also work modulo the
# prime powers l^j of the lifting, where every divisor is monic.


def _xgcd(a: Poly, b: Poly):
    """(s, t) with s a + t b = 1 for coprime a, b over a finite field;
    deg s < deg b and deg t < deg a."""
    F = a.field
    r0, r1 = a, b
    s0, s1 = Poly([1], F), Poly([], F)
    t0, t1 = Poly([], F), Poly([1], F)
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.degree != 0:
        raise ArithmeticError("Hensel factors are not coprime")
    inv = F.inv(r0.coeffs[0])
    return s0.scale(inv), t0.scale(inv)


def _add_mod(a, b, m):
    if len(a) < len(b):
        a, b = b, a
    return [(c + (b[i] if i < len(b) else 0)) % m for i, c in enumerate(a)]


def _sub_mod(a, b, m):
    return _add_mod(a, [-c for c in b], m)


def _hensel_lift(f, factors, steps: int):
    """Monic factors of the monic integer list f modulo M = l^(2^steps),
    lifted from its factorization into the monic, pairwise coprime
    factors (Polys over F_l).  Splits the list in two halves, lifts that
    split quadratically (von zur Gathen and Gerhard, Algorithm 15.10, for
    monic g and h), then recurses into each half."""
    if len(factors) == 1:
        return [f]
    F = factors[0].field
    half = len(factors) // 2
    g, h = prod(factors[:half], start=Poly([1], F)), \
        prod(factors[half:], start=Poly([1], F))
    s, t = _xgcd(g, h)
    g, h, s, t = (list(p.coeffs) for p in (g, h, s, t))
    m = F.p
    for _ in range(steps):
        m *= m
        # f = g h + e: g += t e mod g, h += s e mod h; then the same
        # correction for the Bezout pair, with b = s g + t h - 1
        e = _sub_mod(f, _poly_mul_mod_p(g, h, m), m)
        g = _add_mod(g, _poly_rem_mod_p(_poly_mul_mod_p(t, e, m), g, m), m)
        h = _add_mod(h, _poly_rem_mod_p(_poly_mul_mod_p(s, e, m), h, m), m)
        b = _sub_mod(_add_mod(_poly_mul_mod_p(s, g, m),
                              _poly_mul_mod_p(t, h, m), m), [1], m)
        s = _sub_mod(s, _poly_rem_mod_p(_poly_mul_mod_p(s, b, m), h, m), m)
        t = _sub_mod(t, _poly_rem_mod_p(_poly_mul_mod_p(t, b, m), g, m), m)
    return (_hensel_lift(g, factors[:half], steps)
            + _hensel_lift(h, factors[half:], steps))


def _primitive(cs):
    """Primitive part with a positive leading coefficient."""
    c = int_gcd(*cs) * (1 if cs[-1] > 0 else -1)
    return [x // c for x in cs]


def _subset_sums(parts):
    sums = {0}
    for k in parts:
        sums |= {s + k for s in sums}
    return sums


def _factor_over_z(coeffs, reductions):
    """Factors over Z of a squarefree integer polynomial.

    coeffs: ascending integers, degree >= 1.  reductions: pairs (l,
    factor degrees mod l) at odd primes l where the polynomial keeps its
    degree and stays squarefree.  The prime with the fewest factors is
    factored with `factor`, its factors are Hensel-lifted to l^k above
    twice lc times the Mignotte bound, and subsets of them are
    recombined by trial division.  A subset is tried only when its
    degree is a subset sum of every pattern in reductions.

    Returns primitive factors with positive leading coefficients whose
    product is the primitive part of coeffs, up to sign.  Every factor
    split off divides exactly over Z; the last one is what is left, and
    can only be reducible if the reductions were not what they claim.
    """
    f = _primitive(list(coeffs))
    d = len(f) - 1
    sums = set(range(d + 1))
    for _, pattern in reductions:
        sums &= _subset_sums(pattern)
    if not reductions or not any(0 < k < d for k in sums):
        return [f]
    ell = min(reductions, key=lambda r: len(r[1]))[0]
    F = get_field(ell)
    fl = Poly([c % ell for c in f], F)
    _, mod_factors = factor(fl)
    if fl.degree != d or any(m > 1 for _, m in mod_factors):
        return [f]          # not a good prime after all: leave f whole
    # Mignotte: a factor g of f has |g_j| <= C(d-1, j) |f|_2 +
    # C(d-1, j-1) lc(f), at most C(d-1, (d-1)//2) (|f|_2 + lc(f)) for
    # every j; a lifted subset reproduces lc(f) g / lc(g)
    lc = f[-1]
    mignotte = comb(d - 1, (d - 1) // 2) * (isqrt(sum(c * c for c in f))
                                            + 1 + lc)
    steps, M = 0, ell
    while M <= 2 * lc * mignotte:
        steps, M = steps + 1, M * M
    monic = [c * pow(lc, -1, M) % M for c in f]
    lifted = _hensel_lift(monic, [g for g, _ in mod_factors], steps)
    found, rest, size = [], list(range(len(lifted))), 1
    while 2 * size <= len(rest):
        for subset in combinations(rest, size):
            if sum(len(lifted[i]) - 1 for i in subset) not in sums:
                continue
            cand = [f[-1]]
            for i in subset:
                cand = _poly_mul_mod_p(cand, lifted[i], M)
            g = _primitive([c - M if 2 * c > M else c for c in cand])
            # g is primitive, so g | f over Q leaves an integral quotient
            quotient, remainder = Poly(f).divmod(Poly(g))
            if remainder.is_zero():
                found.append(g)
                f = list(quotient.coeffs)
                rest = [i for i in rest if i not in subset]
                break
        else:
            size += 1
    return found + [f]


def is_irreducible(f: Poly) -> bool:
    """Rabin irreducibility test over F_q."""
    if f.field is None:
        raise ValueError("is_irreducible requires finite-field coefficients")
    if f.degree < 1:
        raise ValueError("constant polynomial")
    F = f.field
    n = f.degree
    if n == 1:
        return True
    f = f.monic()
    q = F.q
    x = Poly.x(F)
    # x^(q^k) mod f for k = 1..n by repeated q-th powering
    frob = x % f
    powers = {}
    for k in range(1, n + 1):
        frob = _pow_mod(frob, q, f)
        powers[k] = frob
    if powers[n] != x % f:
        return False
    for r in set(_prime_factors(n)):
        if f.gcd(powers[n // r] - x).degree > 0:
            return False
    return True


def poly_from_string(s: str, field: Fq | None = None) -> Poly:
    """Parse the comma-separated ascending coefficient format, e.g.
    "1,-3,1" for 1 - 3T + T^2."""
    coeffs = [int(tok.strip()) for tok in s.split(",")]
    return Poly.from_int_coeffs(coeffs, field)


def poly_to_string(f: Poly) -> str:
    return ",".join(str(c) for c in f.coeffs)
