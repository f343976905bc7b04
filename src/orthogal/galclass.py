"""
Galois-group classifier for reciprocal polynomials over Q.

Given a reciprocal P of degree N > 2, the classifier strips the forced
linear factors, reduces the core f modulo increasing odd primes, sorts
the reductions into the six factorization classes, and certifies the
Galois group of the splitting field as a full hyperoctahedral group
W_{2n} (or its index-two subgroup W_{2n}^+) once witnesses of classes
1..5 are found.  The W vs W^+ split is decided by an exact perfect
square test on disc(f); an i=6 witness forces the full group.

The discriminants also bound the scan.  By Stickelberger a good odd
prime l has (disc/l) = (-1)^(number of even-degree factors mod l), so
square classes of disc(f), disc(h) and their product over Q decide
which classes any prime can show (recpoly._reachable_classes).  So does
the factorization of the trace form h over Q: a reducible h never shows
class 1, and each rational factor h_i splits mod l on its own.  h is
factored (poly._factor_over_z) only when the first block of primes
shows no class 1 while the discriminants allow it.  The scan stops once
every wanted class has a witness or, when a wanted class is ruled out,
once every reachable class has one; either way the certificate is that
of a scan of the whole budget.  Primes are factored in growing blocks
(32, 224, then doubling up to 2048 rows), so an early certificate
factors few primes.

The companion validator compares the joint factorization statistics of
(h mod l, f mod l) over many primes against the exact conjugacy-class
statistics of the claimed group, via total-variation distance.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .errors import NotSeparableError
from .poly import Poly, discriminant, _factor_over_z
from .recpoly import (strip, to_trace_form, trace_lift, classes_from_degrees,
                      _reachable_classes)
from .signedperm import WGroup, class_statistics


# ---------------------------------------------------------------------------
# Primes
# ---------------------------------------------------------------------------


def primes_up_to(bound: int):
    """All primes <= bound (numpy sieve)."""
    if bound < 2:
        return np.array([], dtype=np.int64)
    mask = np.ones(bound + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, int(bound ** 0.5) + 1):
        if mask[p]:
            mask[p * p::p] = False
    return np.nonzero(mask)[0].astype(np.int64)


# ---------------------------------------------------------------------------
# Batched distinct-degree factorization over many primes at once
# ---------------------------------------------------------------------------
#
# Coefficients for all primes are kept in int64 matrices (one row per
# prime, with that row's modulus), so every stage runs vectorized across
# the primes.  The Frobenius powers x^(l^k) mod f come from one
# square-and-multiply; then one batched Euclid takes the degrees of
# g_k = gcd(x^(l^k) - x, f) for every prime and every level k at once.
# A good row is squarefree mod l, so deg g_k = sum_{j | k} j n_j, where
# n_j counts the irreducible factors of degree j; the levels need no
# division by the factors already found.


# Overflow: inputs stay reduced into [0, l) for their row prime l, and
# every int64 accumulation sums at most d products of two such values
# before the next reduction (d = deg f; Frobenius rows hold d coefficients):
#   * _vec_polymul: an output coefficient sums <= d products;
#   * _vec_polymod: a coefficient is lowered by <= d products c * F[j];
#   * the einsum: each entry sums d products;
#   * _vec_powmod and the Euclid step lc(b) a - lc(a) x^s b: one product,
#     or the difference of two, of reduced values, at most (l - 1)^2.
# So every intermediate is bounded in size by d (l - 1)^2, and the
# kernel is exact when d (l - 1)^2 < 2^63; batch_factor_degrees refuses
# larger primes.


# Most rows the kernel takes in one call where the caller chooses the
# block (classify's prime blocks, the trace-form censuses of orthfin), so
# its (levels x rows x degree) arrays stay small.
BLOCK_ROWS = 2048


def _max_kernel_prime(d: int) -> int:
    """Largest l with d (l - 1)^2 < 2^63 (see the overflow note)."""
    return 1 + math.isqrt((2 ** 63 - 1) // d)


def _check_kernel_prime(d: int, largest: int):
    """Raise ValueError when a prime up to largest overflows at degree d."""
    max_prime = _max_kernel_prime(d)
    if largest > max_prime:
        raise ValueError(f"primes above {max_prime} would overflow the "
                         f"int64 kernel at degree {d}")


def _vec_polymul(A, B, m):
    """Row-wise product of polynomial coefficient matrices mod m."""
    P, da = A.shape
    db = B.shape[1]
    out = np.zeros((P, da + db - 1), dtype=np.int64)
    for i in range(da):
        out[:, i:i + db] += A[:, i:i + 1] * B
    out %= m[:, None]
    return out


def _vec_polymod(A, F, m):
    """Row-wise remainder of A modulo the monic row polynomials F."""
    d = F.shape[1] - 1
    A = A.copy()
    for i in range(A.shape[1] - 1, d - 1, -1):
        c = A[:, i] % m
        A[:, i - d:i] -= c[:, None] * F[:, :d]
    out = A[:, :max(d, 1)] % m[:, None]
    return out


def _vec_powmod(a, e, m):
    """a^e mod m entrywise (a reduced into [0, m), e >= 0)."""
    out = np.ones_like(a)
    a, e = a.copy(), e.copy()
    while e.any():
        out = np.where(e & 1, out * a % m, out)
        a = a * a % m
        e >>= 1
    return out


def _batch_frobenius_chains(C, primes, kmax):
    """x^(l^k) mod f for k = 1..kmax, all rows at once.

    C: (P, d+1) monic row polynomials; returns (kmax, P, d).
    """
    P, dp1 = C.shape
    d = dp1 - 1
    m = primes
    # r = x^l mod f by square-and-multiply over the bits of each row's l
    r = np.zeros((P, d), dtype=np.int64)
    r[:, 0] = 1
    maxbits = int(primes.max()).bit_length()
    for k in range(maxbits - 1, -1, -1):
        r = _vec_polymod(_vec_polymul(r, r, m), C, m)
        bit = ((primes >> k) & 1).astype(bool)
        if bit.any():
            shifted = np.zeros((P, d + 1), dtype=np.int64)
            shifted[:, 1:] = r
            shifted = _vec_polymod(shifted, C, m)
            r = np.where(bit[:, None], shifted, r)
    # matrix of the Frobenius endomorphism: row i is x^(i*l) mod f
    mat = np.zeros((d, P, d), dtype=np.int64)
    mat[0, :, 0] = 1
    if d > 1:
        mat[1] = r
    for i in range(2, d):
        mat[i] = _vec_polymod(_vec_polymul(mat[i - 1], r, m), C, m)
    # chains: s_{k+1} = Frobenius(s_k), linear in the coefficients
    out = np.zeros((kmax, P, d), dtype=np.int64)
    s = r
    for k in range(kmax):
        out[k] = s
        if k + 1 < kmax:
            s = np.einsum("pi,ipj->pj", s, mat) % m[:, None]
    return out


def _top_aligned(X, w):
    """(w columns per row, leading coefficient in column 0; degrees).

    X holds ascending coefficient rows; a zero row has degree -1."""
    nz = X != 0
    deg = np.where(nz.any(axis=1),
                   X.shape[1] - 1 - np.argmax(nz[:, ::-1], axis=1), -1)
    src = deg[:, None] - np.arange(w)
    below = src < 0
    np.maximum(src, 0, out=src)
    top = np.take_along_axis(X, src, axis=1)
    top[below] = 0
    return top, deg


def _batch_gcd_degrees(A, B, m):
    """deg gcd(a, b) over F_m for each row pair; -1 when both are zero.

    A, B: ascending coefficient rows, R of each, reduced into [0, m)
    for the row's prime m.  Each step keeps deg a >= deg b by swapping
    and replaces a by lc(b) a - lc(a) x^(deg a - deg b) b, which lowers
    deg a and needs no inverse.  A row whose b is zero is finished: its
    degree is recorded and it drops out of the mask of live rows.  Rows
    are stored top-aligned (leading coefficient first), so
    x^(deg a - deg b) b is b's row as stored, and the cancelled leading
    term of a is dropped by a shift of one column.  The step works in
    place in four buffers allocated once.
    """
    w = max(A.shape[1], B.shape[1])
    (A, da), (B, db) = _top_aligned(A, w), _top_aligned(B, w)
    T, U = np.empty_like(A), np.empty_like(A)
    out = np.full(len(m), -1, dtype=np.int64)
    while True:
        swap = da < db
        if swap.any():
            T[...] = A
            np.copyto(A, B, where=swap[:, None])
            np.copyto(B, T, where=swap[:, None])
            da, db = np.maximum(da, db), np.minimum(da, db)
        done = (db < 0) & (da >= 0)
        out[done] = da[done]
        da[done] = -1
        live = db >= 0
        if not live.any():
            return out
        # columns past the largest degree are zero in every live row
        w = int(da.max()) + 1
        a, b, t, u = A[:, :w], B[:, :w], T[:, :w], U[:, :w]
        np.multiply(a, b[:, :1], out=t)
        np.multiply(b, a[:, :1], out=u)
        t -= u
        t %= m[:, None]
        # drop the cancelled leading term, then any zero leading terms
        a[:, :-1] = t[:, 1:]
        a[:, -1] = 0
        da -= live
        lead = (A[:, 0] == 0) & (da >= 0)
        while lead.any():
            A[lead, :-1] = A[lead, 1:]
            A[lead, -1] = 0
            da -= lead
            lead = (A[:, 0] == 0) & (da >= 0)


@functools.lru_cache(maxsize=64)
def _int_discriminant(int_coeffs: tuple) -> int:
    """disc(f) of an integer polynomial, computed once per polynomial.
    classify takes its zero test and square classes from it: for f over
    Q with c f integral, disc(c f) = c^(2d - 2) disc(f)."""
    return Fraction(discriminant(Poly(list(int_coeffs)))).numerator


def _degenerate_numerator(int_coeffs: tuple) -> int:
    """lc(f) times disc(f): a prime l divides it exactly when the
    reduction mod l loses its degree or is not squarefree."""
    return int_coeffs[-1] * _int_discriminant(int_coeffs)


def _reduce_rows(int_coeffs, primes):
    """(P, d+1) matrix of the coefficients reduced mod each row's prime."""
    try:
        cs = np.array(int_coeffs, dtype=np.int64)
    except OverflowError:   # a coefficient beyond int64: reduce exactly
        cs = np.array(int_coeffs, dtype=object)
        return (cs[None, :] % primes.astype(object)[:, None]).astype(np.int64)
    return cs[None, :] % primes[:, None]


def _factor_degree_rows(C, m):
    """Sorted factor degree tuple of each row of C over F_m for its row's
    prime m.

    C: (R, d+1) monic rows with d >= 1, reduced into [0, m) and
    squarefree mod m (a row that is not raises ArithmeticError or gives
    wrong degrees); the caller checks that the primes fit the overflow
    bound.  One Frobenius chain and one batched Euclid serve every row.
    """
    R, dp1 = C.shape
    d = dp1 - 1
    kmax = d // 2
    # n[k] = number of irreducible factors of degree k, for k <= d/2
    n = np.zeros((kmax + 1, R), dtype=np.int64)
    if kmax >= 1 and R:
        chains = _batch_frobenius_chains(C, m, kmax)
        chains[:, :, 1] = (chains[:, :, 1] - 1) % m   # x^(l^k) - x
        g = _batch_gcd_degrees(chains.reshape(kmax * R, d),
                               np.tile(C, (kmax, 1)),
                               np.tile(m, kmax)).reshape(kmax, R)
        for k in range(1, kmax + 1):
            below = sum(j * n[j] for j in range(1, k) if k % j == 0)
            n[k], inexact = np.divmod(g[k - 1] - below, k)
            if inexact.any() or (n[k] < 0).any():
                raise ArithmeticError(f"gcd degrees at level {k} do not "
                                      "fit a squarefree factorization")
    # the rest is one irreducible factor of degree > d/2, if any
    rest = d - (np.arange(kmax + 1)[:, None] * n).sum(axis=0)
    if ((rest < 0) | ((rest > 0) & (rest <= kmax))).any():
        raise ArithmeticError("factor degrees do not add up to the degree")
    out = []
    for counts, r in zip(n[1:].T.tolist(), rest.tolist()):
        degs = [k for k, nk in enumerate(counts, 1) for _ in range(nk)]
        if r:
            degs.append(r)
        out.append(tuple(degs))
    return out


def batch_factor_degrees(int_coeffs, primes):
    """Factor degree multisets of one integer polynomial mod many primes.

    Returns a list parallel to primes; entry is the sorted tuple of
    irreducible factor degrees with multiplicity, or None when the
    reduction is degenerate (leading coefficient vanishes or the
    reduction is not squarefree).  Raises ValueError when a prime is
    too large for exact int64 arithmetic at this degree.  The good
    reductions, one row per prime, go through _factor_degree_rows.
    """
    int_coeffs = tuple(int(c) for c in int_coeffs)
    d = len(int_coeffs) - 1
    if d < 1:
        raise ValueError("need positive degree")
    if len(primes):
        _check_kernel_prime(d, max(int(ell) for ell in primes))
    primes = np.asarray(primes, dtype=np.int64)
    results: list = [None] * len(primes)
    bad = _degenerate_numerator(int_coeffs)
    gidx = np.nonzero(bad % primes.astype(object))[0]
    if len(gidx) == 0:
        return results
    m = primes[gidx]
    # monic reductions: multiply by lc^(l - 2), the inverse of lc mod l
    C = _reduce_rows(int_coeffs, m)
    C = C * _vec_powmod(C[:, -1], m - 2, m)[:, None] % m[:, None]
    for idx, degs in zip(gidx.tolist(), _factor_degree_rows(C, m)):
        results[idx] = degs
    return results


# ---------------------------------------------------------------------------
# Rational input handling
# ---------------------------------------------------------------------------


def _as_fracs(poly: Poly):
    if poly.field is not None:
        raise ValueError("expected a polynomial over Q")
    return [Fraction(c) for c in poly.coeffs]


def _monic_over_q(poly: Poly) -> Poly:
    cs = _as_fracs(poly)
    lc = cs[-1]
    return Poly([c / lc for c in cs])


def _clear_denominators(poly: Poly):
    """(integer coefficient list, common denominator) of a Q-polynomial."""
    cs = _as_fracs(poly)
    den = 1
    for c in cs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    return [int(c * den) for c in cs], den


def is_perfect_square(x: Fraction) -> bool:
    if x < 0:
        return False
    n, d = x.numerator, x.denominator
    return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d


# ---------------------------------------------------------------------------
# K field
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KField:
    """K = Q(sqrt(radicand)) for an integer radicand."""
    radicand: int
    is_rational: bool

    @classmethod
    def from_radicand(cls, radicand: int) -> KField:
        """is_rational is an exact perfect-square test on the radicand."""
        return cls(radicand, is_perfect_square(Fraction(radicand)))

    def __str__(self):
        return "Q" if self.is_rational else f"Q(sqrt({self.radicand}))"


def _squarefree_part(n: int, trial_bound: int = 10 ** 6):
    """(squarefree part, fully_factored) by trial division."""
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = 1
    d = 2
    while d <= trial_bound and d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            if e % 2:
                out *= d
        d += 1
    if n > 1:
        if math.isqrt(n) ** 2 == n:
            return sign * out, True
        if n <= trial_bound * trial_bound:
            # remaining cofactor is prime
            return sign * out * n, True
        return sign * out * n, False
    return sign * out, True


def compute_K(P: Poly) -> KField:
    """K = Q(sqrt((-1)^(N/2) P(1) P(-1))) for even-degree P over Q.

    The radicand is normalized to an integer of the same square class;
    is_rational is an exact perfect-square decision.
    """
    cs = _as_fracs(P)
    N = len(cs) - 1
    if N % 2 != 0 or N < 2:
        raise ValueError("need even degree")
    p1 = sum(cs)
    pm1 = sum(c if i % 2 == 0 else -c for i, c in enumerate(cs))
    if p1 == 0 or pm1 == 0:
        raise ValueError("P(1) and P(-1) must be nonzero")
    m = Fraction(-1) ** (N // 2) * p1 * pm1
    return KField.from_radicand(m.numerator * m.denominator)


def group_constraint(N: int, eps: int,
                     k_rational: bool | None = None) -> WGroup:
    """Ambient group for degree N and functional-equation sign eps."""
    if N <= 2:
        raise ValueError("need N > 2")
    if N % 2 == 1:
        return WGroup((N - 1) // 2, False)
    if eps == -1:
        return WGroup(N // 2 - 1, False)
    return WGroup(N // 2, plus=bool(k_rational))


# ---------------------------------------------------------------------------
# Classifier
# ---------------------------------------------------------------------------


def _prime_blocks(primes, bad_num: int):
    """The primes not dividing bad_num, in blocks cut from the first 32,
    the next 224, then each block twice the one before, at most
    BLOCK_ROWS."""
    start, size = 0, 32
    while start < len(primes):
        block = primes[start:start + size]
        start += size
        size = 224 if start == 32 else min(2 * size, BLOCK_ROWS)
        yield block[[bad_num % int(ell) != 0 for ell in block]]


def _rational_parts(int_f, int_h, rows) -> tuple:
    """Sorted (deg h_i, whether T^k h_i(T + 1/T) splits over Q) for the
    factors h_i of h over Z, from the reductions (l, degrees of f mod l,
    degrees of h mod l) already factored.  The lift of h_i divides f,
    so the patterns of f bound the degrees of its factors."""
    f_rows = [(ell, ft) for ell, ft, _ in rows if ft is not None]
    h_rows = [(ell, ht) for ell, _, ht in rows if ht is not None]
    parts = []
    for g in _factor_over_z(int_h, h_rows):
        lift = trace_lift(Poly(g)).coeffs
        parts.append((len(g) - 1, len(_factor_over_z(lift, f_rows)) > 1))
    return tuple(sorted(parts))


@dataclass
class GaloisCertificate:
    input_coeffs: list
    N: int
    epsilon: int
    stripped_coeffs: list            # monic core f over Q, as Fractions
    n: int
    claimed_group: WGroup | None
    witnesses: dict                  # class index -> first witness prime
    disc_is_square: bool | None
    K: KField | None
    status: str                      # "Certified" | "Inconclusive" | "Rejected"
    reason: str = ""
    prime_budget: int = 0
    normalization: str = "monic over Q; denominators cleared per prime"


def classify(P: Poly, prime_budget: int = 10 ** 4) -> GaloisCertificate:
    """Certify the Galois group of a reciprocal polynomial over Q.

    Scans odd primes in increasing order; for each good prime the core
    f is reduced and sorted into the factorization classes.  Witnesses
    for classes 1..5 certify the group as W_{2n} or W_{2n}^+; the split
    is decided by the parity of disc(f) as an exact square (even N,
    eps=1) or by an additional class-6 witness (odd N or eps=-1).
    Exhausting the budget yields status "Inconclusive", never an error.

    By Stickelberger, (disc/l) = (-1)^(number of even-degree factors
    mod l) at a good odd prime l, so a square disc(f), disc(h) or
    disc(f) disc(h) rules some classes out at every prime (a square
    disc(f) rules out class 6).  When the first block shows no class 1
    and the discriminants allow it, h is factored over Q: with h
    reducible no prime shows class 1, and the patterns mod l refine the
    degrees of the rational factors.  The scan stops at the first prime
    where every wanted class has a witness; when a wanted class is
    ruled out, it stops once every class still reachable has one, so
    the witnesses equal those of a scan of the whole budget.  A witness
    of a ruled-out class raises ArithmeticError.  The primes are
    factored in blocks of 32 and 224, then each block twice the one
    before, at most 2048 rows, so a certificate found early factors few
    primes and a large budget keeps the kernel's arrays bounded.
    """
    cs = _as_fracs(P)
    N = len(cs) - 1
    if N <= 2:
        raise ValueError("need degree > 2")
    Pm = _monic_over_q(P)
    sp = strip(Pm)   # raises NotReciprocalError when no sign works
    f = sp.f
    n = f.degree // 2

    def reject(reason):
        return GaloisCertificate(
            input_coeffs=list(P.coeffs), N=N, epsilon=sp.epsilon,
            stripped_coeffs=list(f.coeffs), n=n, claimed_group=None,
            witnesses={}, disc_is_square=None, K=None,
            status="Rejected", reason=reason, prime_budget=prime_budget)

    if f.degree < 2:
        return reject("stripped core is constant")
    f1 = f(1)
    fm1 = f(-1)
    if f1 == 0 or fm1 == 0:
        return reject("boundary root: f(1) f(-1) = 0")
    int_f, den_f = _clear_denominators(f)
    disc_f = _int_discriminant(tuple(int_f))
    if disc_f == 0:
        raise NotSeparableError("stripped core has a repeated factor")

    K = compute_K(f)
    disc_sq = is_perfect_square(Fraction(disc_f))
    _check_kernel_prime(f.degree, prime_budget)   # before the sieve allocates

    h = to_trace_form(f).h
    int_h, den_h = _clear_denominators(h)
    disc_h = _int_discriminant(tuple(int_h))
    # a square discriminant has Legendre symbol +1 at every good prime,
    # which rules out the classes of the patterns of the other parity
    flags = (disc_sq, is_perfect_square(Fraction(disc_h)),
             is_perfect_square(Fraction(disc_f * disc_h)))
    reachable = _reachable_classes(n, *flags)
    bad_num = abs(f1.numerator * fm1.numerator) * den_f * den_h
    witnesses: dict = {}
    needed = {1, 2, 3, 4, 5}
    even_plus = (N % 2 == 0 and sp.epsilon == 1)
    wanted = needed if even_plus else needed | {6}
    primes = primes_up_to(prime_budget)
    for index, block in enumerate(_prime_blocks(primes[primes > 2], bad_num)):
        if index == 1 and 1 in reachable and 1 not in witnesses:
            # No class 1 in the first block: factor h over Q.  With h
            # reducible no prime shows class 1, and each h_i mod l
            # refines deg h_i.
            reachable = _reachable_classes(
                n, *flags, _rational_parts(int_f, int_h, rows))
            if not witnesses.keys() <= reachable:
                raise ArithmeticError("a witness of a class that the "
                                      "factorization of h rules out")
        # With a wanted class out of reach the certificate stays
        # Inconclusive whatever the budget; the scan then only has to
        # record the first witness of every class that can still appear,
        # as a full scan would.
        goal = wanted if wanted <= reachable else reachable
        if goal <= witnesses.keys():
            break
        rows = list(zip(block.tolist(), batch_factor_degrees(int_f, block),
                        batch_factor_degrees(int_h, block)))
        for ell, ft, ht in rows:
            if ft is None or ht is None or len(ft) > 8:
                continue
            for i in classes_from_degrees(ht, ft):
                if i not in reachable:
                    raise ArithmeticError(
                        f"class-{i} witness at prime {ell}, but the "
                        "discriminants or the factors of h rule it out")
                if i not in witnesses:
                    witnesses[i] = ell
            if goal <= witnesses.keys():
                break

    cert = GaloisCertificate(
        input_coeffs=list(P.coeffs), N=N, epsilon=sp.epsilon,
        stripped_coeffs=list(f.coeffs), n=n, claimed_group=None,
        witnesses=witnesses, disc_is_square=disc_sq, K=K,
        status="Inconclusive", reason="", prime_budget=prime_budget)

    if not needed <= set(witnesses):
        cert.reason = "missing witnesses for classes " + str(
            sorted(needed - set(witnesses)))
        return cert
    if even_plus:
        cert.claimed_group = WGroup(n, plus=disc_sq)
    elif 6 in witnesses:
        cert.claimed_group = WGroup(n, False)
    else:
        cert.reason = "missing the class-6 witness for the full group"
        return cert
    cert.status = "Certified"
    return cert


# ---------------------------------------------------------------------------
# Chebotarev-style validation
# ---------------------------------------------------------------------------


@dataclass
class ChebotarevReport:
    claimed: WGroup
    n: int
    primes_used: int
    tv_distance: float
    tolerance: float
    passed: bool
    empirical: dict = dc_field(repr=False, default_factory=dict)
    predicted: dict = dc_field(repr=False, default_factory=dict)


def chebotarev_validate(f: Poly, claimed: WGroup, prime_bound: int = 10 ** 5,
                        tolerance: float = 0.05) -> ChebotarevReport:
    """Compare mod-l factorization statistics of f with the claimed group.

    For each good prime l <= prime_bound the joint factor degree type
    (degrees of h mod l, degrees of f mod l) is tabulated; the
    dictionary degrees-of-f <-> cycle type on the 2n signed symbols and
    degrees-of-h <-> cycle type on the n pairs turns the exact group
    statistics into a predicted distribution.  The report carries the
    total-variation distance and a pass/fail against the tolerance.
    """
    if not isinstance(claimed, WGroup):
        raise TypeError(f"claimed must be a WGroup, not {claimed!r}")
    n = claimed.n
    fm = _monic_over_q(f)
    if fm.degree != 2 * n:
        raise ValueError("degree of f does not match the claimed group")
    stats = class_statistics(n, claimed.plus)
    _check_kernel_prime(2 * n, prime_bound)   # before the sieve allocates
    h = to_trace_form(fm).h
    int_f, den_f = _clear_denominators(fm)
    int_h, den_h = _clear_denominators(h)
    primes = primes_up_to(prime_bound)
    primes = primes[primes > 2]
    ok = np.array([den_f % int(l) != 0 and den_h % int(l) != 0
                   for l in primes])
    primes = primes[ok]
    ftypes = batch_factor_degrees(int_f, primes)
    htypes = batch_factor_degrees(int_h, primes)
    counts = Counter()
    used = 0
    for ft, ht in zip(ftypes, htypes):
        if ft is None or ht is None:
            continue
        counts[(ft, ht)] += 1
        used += 1
    if used < 100:
        raise ValueError(f"only {used} good primes below {prime_bound}")
    predicted = Counter()
    for (ctx, ctp, _e1), freq in stats.items():
        predicted[(tuple(sorted(ctx)), tuple(sorted(ctp)))] += freq
    empirical = {key: Fraction(c, used) for key, c in counts.items()}
    keys = set(empirical) | set(predicted)
    tv = float(sum(abs(empirical.get(k, Fraction(0)) - predicted.get(k, Fraction(0)))
                   for k in keys)) / 2.0
    return ChebotarevReport(
        claimed=claimed, n=n, primes_used=used, tv_distance=tv,
        tolerance=tolerance, passed=tv <= tolerance,
        empirical={k: empirical[k] for k in sorted(empirical)},
        predicted={k: predicted[k] for k in sorted(predicted)},
    )
