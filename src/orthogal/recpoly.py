"""
Reciprocal polynomials and their trace forms.

A monic polynomial f of even degree 2n is reciprocal when
T^{2n} f(1/T) = f(T); its roots come in pairs a, 1/a and f can be
written uniquely as f(T) = T^n h(T + 1/T) for a monic h of degree n
(the trace form; roots of h are the sums a + 1/a).  This module
implements:

  * strip      - remove the linear factors forced by the functional
                 equation of a degree-N polynomial, leaving a monic-by-
                 construction reciprocal core of even degree;
  * to_trace_form / trace_lift - the exact transform in both directions;
  * disc_identity - disc(f) = h(2) h(-2) disc(h)^2
                  = (-1)^n f(1) f(-1) disc(h)^2, all sides computed
                 independently;
  * classify_H / in_F_class - the six factorization-pattern classes of
                 trace forms used by the Galois classifier;
  * count_irreducible_classes - exact counts of irreducible degree-m
                 polynomials bucketed by the square classes of h(2), h(-2).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass

from .errors import BudgetExceededError, NotReciprocalError
from .ffield import SquareClass, SQUARE, NONSQUARE, _is_prime, _prime_factors
from .poly import Poly, QQ, discriminant, factor
from .signedperm import _partitions


# ---------------------------------------------------------------------------
# Stripping and trace forms
# ---------------------------------------------------------------------------


@dataclass
class StrippedPoly:
    f: Poly          # reciprocal core, even degree 2n
    removed: str     # "", "1-T", "1+T", or "1-T^2"
    epsilon: int     # sign in T^N P(1/T) = eps P(T)
    original_degree: int

    @property
    def n(self) -> int:
        return self.f.degree // 2


def reciprocal_sign(P: Poly):
    """eps with T^N P(1/T) = eps P(T), or None."""
    rev = list(reversed(P.coeffs))
    fwd = list(P.coeffs)
    if rev == fwd:
        return 1
    if rev == [P.ring.neg(c) for c in fwd]:
        return -1
    return None


def strip(P: Poly) -> StrippedPoly:
    """Remove the linear factors forced by the functional equation.

    N odd: divide by (1 + eps*T).  N even and eps = -1: divide by
    (1 - T^2).  N even and eps = 1: unchanged.  Divisions are exact by
    construction; a failure means P was not reciprocal.
    """
    N = P.degree
    if N <= 2:
        raise ValueError("degree must exceed 2")
    eps = reciprocal_sign(P)
    if eps is None:
        raise NotReciprocalError(f"no sign satisfies the functional equation: {P}")
    F = P.field
    if N % 2 == 1:
        # the forced root is -eps; divide by the monic factor T + eps
        # so the core stays monic
        div = Poly([eps, 1], F)
        removed = "1+T" if eps == 1 else "1-T"
    elif eps == -1:
        div = Poly([-1, 0, 1], F)
        removed = "1-T^2"
    else:
        return StrippedPoly(P, "", 1, N)
    q, r = P.divmod(div)
    if not r.is_zero():
        raise NotReciprocalError("forced linear factor does not divide exactly")
    return StrippedPoly(q, removed, eps, N)


@dataclass
class TraceForm:
    h: Poly


def _trace_coeffs(cs, R=QQ) -> list:
    """Coefficients of h with f = T^n h(T + 1/T), for the coefficient
    list cs of a palindromic f of even degree 2n, over the ring R (QQ,
    which keeps integers integral, or an Fq).

    T^n (T + 1/T)^k = sum_j C(k, j) T^(n - k + 2j) is palindromic, and
    its top term is T^(n + k).  So h_k is the coefficient of T^(n + k)
    left once the terms of degree above k are taken off, top degree
    first.  Only the upper half (T^n .. T^2n) is kept: f and every term
    are palindromic, so the lower half goes to zero with it.  Exact in
    the coefficient ring (integers stay integers: the leading
    coefficient of each term is 1)."""
    n = (len(cs) - 1) // 2
    upper = list(cs[n:])              # upper[i]: the coefficient of T^(n+i)
    hc = [0] * (n + 1)
    for k in range(n, -1, -1):
        c = hc[k] = upper[k]
        if not c:
            continue
        for j in range((k + 1) // 2, k + 1):     # 2j - k >= 0
            upper[2 * j - k] = R.sub(upper[2 * j - k],
                                     R.mul(c, R.from_int(math.comb(k, j))))
    return hc


def to_trace_form(f: Poly) -> TraceForm:
    """The unique monic h of degree n with f(T) = T^n h(T + 1/T).

    Solved by exact triangular elimination on the coefficients
    (_trace_coeffs), top degree first.
    """
    if f.is_zero() or f.degree % 2 != 0 or f.degree < 2:
        raise NotReciprocalError("need even degree >= 2")
    if not f.is_monic():
        raise NotReciprocalError("trace form requires a monic polynomial")
    if reciprocal_sign(f) != 1:
        raise NotReciprocalError("not reciprocal with sign +1")
    if f.ring.p == 2:
        raise ValueError("characteristic 2 unsupported")
    return TraceForm(Poly(_trace_coeffs(f.coeffs, f.ring), f.field))


def trace_lift(h: Poly) -> Poly:
    """f(T) = T^n h(T + 1/T) expanded exactly, term by term with
    T^n (T + 1/T)^k = sum_j C(k, j) T^(n - k + 2j)."""
    R = h.ring
    n = h.degree
    out = [0] * (2 * n + 1)
    for k, c in enumerate(h.coeffs):
        if not c:
            continue
        for j in range(k + 1):
            i = n - k + 2 * j
            out[i] = R.add(out[i], R.mul(c, R.from_int(math.comb(k, j))))
    return Poly(out, h.field)


def disc_identity(f: Poly):
    """Both printed forms of the discriminant identity.

    Returns (lhs, rhs, cross) where lhs = disc(f),
    rhs = h(2) h(-2) disc(h)^2 and cross = (-1)^n f(1) f(-1) disc(h)^2.
    """
    h = to_trace_form(f).h
    R = f.ring
    lhs = discriminant(f)
    dh = discriminant(h) if h.degree >= 1 else 1
    dh2 = R.mul(dh, dh)
    rhs = R.mul(R.mul(h.eval_int(2), h.eval_int(-2)), dh2)
    cross = R.mul(R.mul(f.eval_int(1), f.eval_int(-1)), dh2)
    if h.degree % 2 == 1:
        cross = R.neg(cross)
    return lhs, rhs, cross


# ---------------------------------------------------------------------------
# The six factorization classes
# ---------------------------------------------------------------------------


def in_P_n(h: Poly) -> bool:
    """Membership in the base set: monic, separable, h(2) h(-2) != 0."""
    if not h.is_monic() or h.degree < 1:
        return False
    if h.eval_int(2) == 0 or h.eval_int(-2) == 0:
        return False
    return h.is_squarefree()


def classes_from_degrees(hdeg, fdeg) -> frozenset:
    """Class indices from the factor degree multisets of h and its lift.

    Assumes the base-set conditions already hold (h monic separable
    with h(2) h(-2) != 0).  Memoised on the sorted patterns.
    """
    return _pattern_classes(tuple(sorted(hdeg)), tuple(sorted(fdeg)))


@functools.lru_cache(maxsize=4096)
def _pattern_classes(hdeg: tuple, fdeg: tuple) -> frozenset:
    n = sum(hdeg)
    if n == 1:
        return frozenset({1, 2, 3, 4, 5, 6} if fdeg == (2,)
                         else {1, 2, 3, 4, 5})
    out = set()
    if hdeg == (n,):
        out.add(1)
    if any(_is_prime(d) and 2 * d > n for d in hdeg):
        out.add(2)
    if hdeg.count(2) == 1 and all(d % 2 == 1 for d in hdeg if d != 2):
        out.add(3)
    f_quads = fdeg.count(2)
    f_rest_odd = all(d % 2 == 1 for d in fdeg if d != 2)
    if all(d % 2 == 1 for d in hdeg) and f_quads in (1, 2) and f_rest_odd:
        out.add(4)
    evens = sum(1 for d in hdeg + fdeg if d % 2 == 0)
    if evens % 2 == 1:
        out.add(5)
    if f_quads == 1 and f_rest_odd:
        out.add(6)
    return frozenset(out)


def _relation_basis(vectors) -> tuple:
    """The reduced echelon basis of the F_2-span of the bit vectors: no
    vector holds the leading bit of another.  A span has exactly one
    such basis, so the sorted tuple is a canonical key."""
    basis: list = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)          # clears b's leading bit from v
        if v:
            basis = [min(b, b ^ v) for b in basis] + [v]
    return tuple(sorted(basis))


def _square_relations(values) -> tuple:
    """The subsets of the non-zero integers values (bit j for values[j])
    whose product is a rational square, as _relation_basis of that
    F_2-space.

    No integer is factored.  The absolute values are refined by gcds
    into a coprime base: a pair x, y with g = gcd(x, y) > 1 becomes x/g,
    g, y/g, which lowers the product of the list, and every value stays
    a product of powers of the list.  For pairwise coprime p, a product
    +-prod p^(E_p) is a square exactly when its sign is + and each
    p^(E_p) is a square (the p share no prime), and p^E with E odd is a
    square exactly when p is.  So the product of a subset is a square
    exactly when its bit vector (sign, E_p mod 2 for each base element p
    that is no square) sums to zero over the subset, and the relations
    are the kernel of that F_2-linear map, found by elimination."""
    values = [int(v) for v in values]
    if not all(values):
        raise ValueError("square classes of zero")
    base: list = []
    todo = [abs(v) for v in values]
    while todo:
        x = todo.pop()
        if x == 1:
            continue
        for i, y in enumerate(base):
            g = math.gcd(x, y)
            if g > 1:
                del base[i]
                todo += [y // g, g, x // g]
                break
        else:
            base.append(x)
    base = [p for p in base if math.isqrt(p) ** 2 != p]
    pivots: dict = {}                  # leading bit -> (image, subset)
    kernel = []
    for j, v in enumerate(values):
        image = int(v < 0)
        for t, p in enumerate(base, 1):
            v, e = abs(v), 0
            while v % p == 0:
                v, e = v // p, e + 1
            image |= (e & 1) << t
        subset = 1 << j
        while image:
            top = image.bit_length() - 1
            if top not in pivots:
                pivots[top] = (image, subset)
                break
            image ^= pivots[top][0]
            subset ^= pivots[top][1]
        else:
            kernel.append(subset)
    return _relation_basis(kernel)


def _part_patterns(d: int, splits: bool):
    """(h_i mod l, its lift mod l, parity bits) for a rational factor
    h_i of degree d, over the patterns whose lift has at most eight
    factors.  A factor of degree k lifts to [2k] or [k, k], always to
    [k, k] when splits (see _reachable_classes).  Bit 0 is the parity
    of the number of even-degree factors of h_i, bit 1 that of its
    lift.  Each unsplit [2k] is even and each split pair [k, k] adds an
    even count, so bit 1 is the parity of the number of unsplit
    factors, which is that of the length of the lift pattern.

    Through Frobenius, h_i mod l is the cycle type of an element of
    W_{2d} on the d pairs {a, 1/a} and its lift the cycle type on the 2d
    roots, so the bits are its signatures: bit 0 is set when eps2 = -1,
    the signature on the pairs, and bit 1 when eps1 = -1, the signature
    on the 2d symbols (signedperm.invariants)."""
    for ks in _partitions(d, d, 8):
        h_bit = sum(k % 2 == 0 for k in ks) & 1
        if splits:
            if 2 * len(ks) <= 8:
                yield ks, tuple(k for k in ks for _ in (0, 1)), h_bit
            continue
        # the ways that s of the m factors of each degree k split
        spare = 8 - len(ks)
        pieces = [[(2 * k,) * (m - s) + (k,) * (2 * s)
                   for s in range(min(m, spare) + 1)]
                  for k, m in Counter(ks).items()]
        for choice in itertools.product(*pieces):
            fs = tuple(itertools.chain.from_iterable(choice))
            if len(fs) <= 8:
                yield ks, fs, h_bit | (len(fs) & 1) << 1


@functools.lru_cache(maxsize=256)
def _reachable_classes(n: int, relations: tuple = (),
                       parts: tuple = ()) -> frozenset:
    """The classes a good odd prime l can show for a degree-n h with the
    rational factors parts and the parity relations relations.

    parts: the pairs (deg h_i, whether T^k h_i(T + 1/T) splits over Q)
    for the factors h_i of h over Q; empty means ((n, False),), an h
    taken as irreducible.  Each h_i mod l is a partition of deg h_i, and
    a part of degree k lifts to [2k] or [k, k], always to [k, k] when
    the lift of h_i splits over Q: its two factors over Q take one root
    of each pair a, 1/a, and stay coprime mod l.

    relations: the canonical basis (_square_relations) of the subsets
    of a_1, b_1, a_2, b_2, ... whose product is a rational square, where
    a_i = disc(h_i) and b_i = h_i(2) h_i(-2); bit 2i stands for a_i and
    bit 2i + 1 for b_i, in the order of parts.  A subset gives the
    relation that the numbers of even-degree factors mod l of its
    members (h_i for a_i, the lift f_i of h_i for b_i) add up to an even
    number.

    Proof.  At a good l, f = c prod f_i mod l keeps its degree and is
    squarefree, so each f_i and h_i is too (disc f_i = b_i disc(h_i)^2,
    and lc h_i divides lc h), and l divides no a_i, b_i.  Stickelberger:
    a squarefree g of full degree over F_l has (disc(g)/l) = (-1)^(number
    of even-degree factors), whatever its leading coefficient, as
    disc(c g) = c^(2 deg g - 2) disc(g).  disc f_i = b_i disc(h_i)^2
    (recpoly.disc_identity; both sides scale by c^(4k - 2) when h_i has
    leading coefficient c), so (b_i/l) is the sign of f_i mod l, and
    (a_i/l) that of h_i mod l.  A rational square prime to l has
    Legendre symbol 1, so the product of the signs over a relation is 1.

    The three flags of disc(f), disc(h) and their product are the
    one-part case: disc(f) = b disc(h)^2 has the square class of b.
    Patterns are listed part by part with their parity bits, the
    largest part lazily; pairs with more than eight f-factors are
    skipped, as classify skips those primes.  The classes of the pairs
    that meet every relation come from _pattern_classes, uncached: a walk
    visits thousands of distinct pairs once each, and would only evict
    the pairs that classify's per-prime loop reuses.  The walk stops once
    all six are found.
    """
    parts = parts or ((n, False),)
    if sum(d for d, _ in parts) != n:
        raise ValueError(f"factor degrees {parts} do not add up to {n}")
    if any(r >> 2 * len(parts) for r in relations):
        raise ValueError(f"relations {relations} name a missing part")
    classes = _pattern_classes.__wrapped__
    order = sorted(range(len(parts)), key=lambda i: -parts[i][0])
    # every combination of the smaller parts, merged once
    rest = [((), (), 0)]
    for i in order[1:]:
        rest = [(hs + ks, fs + ls, bits | b << 2 * i)
                for hs, fs, bits in rest
                for ks, ls, b in _part_patterns(*parts[i])
                if len(fs) + len(ls) <= 8]
    fits: dict = {}                    # parity bits -> whether they fit
    out: set = set()
    for ks, fs, bits in _part_patterns(*parts[order[0]]):
        bits <<= 2 * order[0]
        for hs, ls, more in rest:
            if len(fs) + len(ls) > 8:
                continue
            mask = bits | more
            ok = fits.get(mask)
            if ok is None:
                ok = fits[mask] = not any((r & mask).bit_count() & 1
                                          for r in relations)
            if ok:
                out |= classes(tuple(sorted(ks + hs)),
                               tuple(sorted(fs + ls)))
        if len(out) == 6:
            break
    return frozenset(out)


def _factor_types(h: Poly) -> tuple:
    """Sorted (deg h_i, chi(h_i(2)), chi(h_i(-2))) over the monic
    irreducible factors h_i of h in P_n over a finite field, with chi
    the quadratic character as +-1."""
    F = h.field
    return tuple(sorted((hi.degree, F.square_class(hi.eval_int(2)).sign,
                         F.square_class(hi.eval_int(-2)).sign)
                        for hi, _ in factor(h)[1]))


def _type_key(types, n: int, F) -> tuple:
    """(classes, number of factors of f, (deg, e) pairs, class of f(1),
    class of f(-1)) for f = T^n h(T + 1/T), from the factor types
    (d, s, t) of h in P_n over F (_factor_types): all that the trace-form
    readers (classify_H, in_F_class, orthfin's class proportions and
    census) need of h.

    e = s t is the character of h_i(2) h_i(-2), the norm of b^2 - 4 for
    a root b of h_i, so e = +1 exactly when the roots a of
    a^2 - b a + 1 lie in F(b): the lift of h_i then splits as [d, d],
    and otherwise stays irreducible of degree 2d.  f(1) = h(2) and
    f(-1) = (-1)^n h(-2), and h(+-2) is the product of the h_i(+-2)."""
    pairs = tuple(sorted((d, s * t) for d, s, t in types))
    hdeg = [d for d, _ in pairs]
    fdeg = [k for d, e in pairs for k in ((d, d) if e == 1 else (2 * d,))]
    f1 = math.prod(s for _, s, _ in types)
    fm1 = (1 if F.q % 4 == 1 else -1) ** n * math.prod(t for _, _, t in types)
    return (classes_from_degrees(hdeg, fdeg), len(fdeg), pairs,
            SQUARE if f1 == 1 else NONSQUARE,
            SQUARE if fm1 == 1 else NONSQUARE)


def classify_H(h: Poly) -> set:
    """The set of class indices i in {1..6} with h in H_{n,i}.

    Empty when h fails the base-set conditions (separability or a
    boundary zero).  Decided by the factor types of h (_type_key), which
    fix the factor degrees of its lift f = T^n h(T+1/T) without
    factoring f.
    """
    if h.field is None:
        raise ValueError("classify_H works over a finite field")
    if not in_P_n(h):
        return set()
    return set(_type_key(_factor_types(h), h.degree, h.field)[0])


def in_F_class(f: Poly, i: int, alpha: SquareClass, beta: SquareClass) -> bool:
    """Membership of f in the class F_{2n,i}^{alpha,beta}.

    Requires f = T^n h(T+1/T) with h in H_{n,i}, boundary values
    f(1), f(-1) nonzero with the prescribed square classes, and at most
    eight irreducible factors in f.  All of these are read from the
    factor types of h (_type_key); f is not factored.
    """
    F = f.field
    if F is None:
        raise ValueError("in_F_class works over a finite field")
    if f.degree % 2 != 0 or not f.is_monic():
        return False
    try:
        h = to_trace_form(f).h
    except NotReciprocalError:
        return False
    if not in_P_n(h):
        return False
    classes, nf, _, f1, fm1 = _type_key(_factor_types(h), h.degree, F)
    return i in classes and f1 == alpha and fm1 == beta and nf <= 8


# ---------------------------------------------------------------------------
# Counting irreducible polynomials by boundary square classes
# ---------------------------------------------------------------------------


@dataclass
class IrreducibleCountTable:
    q: int
    m: int
    counts: dict                 # (alpha.tag, beta.tag) -> exact count
    deviations: dict             # same keys -> |4m*count - q^m|
    total: int = 0

    def __post_init__(self):
        self.total = sum(self.counts.values())


def _odd_prime_power(q: int) -> tuple[int, int]:
    """(p, e) with q = p^e for an odd prime p; ValueError otherwise."""
    factors = _prime_factors(q)
    if not factors or factors[0] == 2 or len(set(factors)) != 1:
        raise ValueError("q must be an odd prime power")
    return factors[0], len(factors)


def _irreducible_counts(q: int, m: int) -> dict:
    """{(s, t): I_m(s, t)} for s, t = +-1: the number of monic
    irreducible h of degree m over F_q (q odd) with h(+-2) != 0,
    chi(h(2)) = s and chi(h(-2)) = t.  See count_irreducible_classes."""
    signs = [(s, t) for s in (1, -1) for t in (1, -1)]
    total = dict.fromkeys(signs, 0)
    for d in range(1, m + 1):
        r = m // d
        primes = _prime_factors(r)
        if m % d or len(set(primes)) != len(primes):
            continue                        # d does not divide m, or mu = 0
        mu, Q = (-1) ** len(primes), q ** d
        if r % 2:
            chi = 1 if Q % 4 == 1 else -1   # chi_Q(-1)
            for s, t in signs:
                total[s, t] += mu * (Q - 2 - s - t * chi - s * t) // 4
        else:
            total[1, 1] += mu * (Q - 2)
    counts = {}
    for key, c in total.items():
        counts[key], rest = divmod(c, m)
        if rest:
            raise ArithmeticError(f"root count {c} is not divisible by m = {m}")
    return counts


def count_irreducible_classes(q: int, m: int, budget: int = 10 ** 6) -> IrreducibleCountTable:
    """Exact bucket counts of monic irreducible degree-m h over F_q with
    h(2) h(-2) != 0, keyed by the square classes of (h(2), h(-2)).

    The counts are in closed form (_irreducible_counts), and the budget
    on q^m bounds the inputs accepted.

    Proof.  Write chi_Q for the quadratic character of F_Q.  For
    s, t = +-1 let N_Q(s, t) count the z in F_Q with z != +-2,
    chi_Q(2 - z) = s and chi_Q(-2 - z) = t.  Summing
    (1 + s chi_Q(2 - z)) (1 + t chi_Q(-2 - z)) / 4 over z != +-2, with
    sum_z chi_Q(2 - z) = sum_z chi_Q(-2 - z) = 0 and
    sum_z chi_Q(z^2 - 4) = -1 (a quadratic of non-zero discriminant;
    Lidl-Niederreiter, Finite Fields, Thm 5.48), gives

        N_Q(s, t) = (Q - 2 - s - t chi_Q(-1) - s t) / 4.

    An irreducible h of degree m is the minimal polynomial of m
    conjugate z that generate F_{q^m}, and h(+-2) = N(+-2 - z) for the
    norm N down to F_q, so chi_q(h(+-2)) = chi_{q^m}(+-2 - z).  For w in
    F_{q^d} with d | m, chi_{q^m}(w) = chi_{q^d}(w)^(m/d).  So the z in
    F_{q^d} with z != +-2 and the given signs in F_{q^m} number
    A_d = N_{q^d}(s, t) when m/d is odd; when m/d is even every such z
    counts at (1, 1), A_d = q^d - 2, and none elsewhere.  Moebius
    inversion over the subfields leaves the generators:

        m I_m(s, t) = sum_{d | m} mu(m/d) A_d(s, t).
    """
    if q ** m > budget:
        raise BudgetExceededError(f"q^m = {q ** m} exceeds budget {budget}")
    _odd_prime_power(q)
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    tag = {1: "Square", -1: "NonSquare"}
    counts = {(tag[s], tag[t]): c
              for (s, t), c in _irreducible_counts(q, m).items()}
    devs = {k: abs(4 * m * c - q ** m) for k, c in counts.items()}
    return IrreducibleCountTable(q, m, counts, devs)
