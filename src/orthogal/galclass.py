"""
Galois-group classifier for reciprocal polynomials over Q.

Given a reciprocal P of degree N > 2, the classifier strips the forced
linear factors, reduces the core f modulo increasing odd primes, sorts
the reductions into the six factorization classes, and certifies the
Galois group of the splitting field as a full hyperoctahedral group
W_{2n} (or its index-two subgroup W_{2n}^+) once witnesses of classes
1..5 are found.  The W vs W^+ split is decided by an exact perfect
square test on disc(f); an i=6 witness forces the full group.

disc(f) is read off the trace form: disc(f) = h(2) h(-2) disc(h)^2, so
one resultant of degree n serves both (_int_discriminant).

The discriminants also bound the scan.  By Stickelberger a good odd
prime l has (disc/l) = (-1)^(number of even-degree factors mod l).
Applied to every rational factor h_i of the trace form h and to its
lift, with disc(h_i) and h_i(2) h_i(-2), each product of these values
that is a rational square ties the parities of the patterns mod l at
every good prime; recpoly._reachable_classes lists the classes that
fit.  Before h is factored, h itself is the one factor.  The
factorization adds its own constraints: a reducible h never shows class
1, each h_i splits mod l on its own, and a lift that splits over Q
splits mod every l.  h and the lifts of its factors are factored
(poly._factor_over_z) when the first block of primes leaves the goal
open.  For n = 4 an irreducible h whose resolvent cubic has a rational
root has Gal(h) inside a D4, which has no 3-cycle, so class 2 is ruled
out too.  The scan stops once every wanted class has a witness or, when
a wanted class is ruled out, once every reachable class has one; either
way the certificate is that of a scan of the whole budget.  Primes are
factored in growing blocks (32, 224, then doubling up to 2048 rows), so
an early certificate factors few primes.

Each block is one kernel pass over the rows of f mod l: the Frobenius
chain x^(l^k) mod f gives the factor degrees of f, and the same chain
started at y = x + 1/x gives those of h, since F_l[x]/(f) is free of
rank 2 over F_l[y]/(h).  The level degrees deg gcd(x^(l^k) - x, f) come
from 2d - 1 polynomial divsteps per row (Bernstein and Yang), with no
per-row branching.  The kernel runs on int64 arrays, every prime of a
block at once (see the notes above _max_kernel_prime).

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
from numpy.lib.stride_tricks import as_strided

from .errors import NotSeparableError
from .poly import Poly, discriminant, _factor_over_z
from .recpoly import (strip, to_trace_form, trace_lift, classes_from_degrees,
                      _reachable_classes, _square_relations, _trace_coeffs)
from .signedperm import WGroup, class_statistics


# ---------------------------------------------------------------------------
# Primes
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=4)
def primes_up_to(bound: int):
    """All primes <= bound (numpy sieve), sieved once per bound: the
    array is shared between calls, so it is read-only."""
    mask = np.ones(max(bound + 1, 2), dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(max(bound, 0)) + 1):
        if mask[p]:
            mask[p * p::p] = False
    out = np.nonzero(mask)[0].astype(np.int64)
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# Batched distinct-degree factorization over many primes at once
# ---------------------------------------------------------------------------
#
# Coefficients for all primes are kept in int64 matrices (one row per
# prime, with that row's modulus), so every stage runs vectorized across
# the primes.  The Frobenius powers x^(l^k) mod f come from one
# square-and-multiply; then one batched gcd kernel (divsteps, see
# _batch_gcd_degrees) takes the degrees of g_k = gcd(x^(l^k) - x, f)
# for every prime and every level k at once.
# A good row is squarefree mod l, so deg g_k = sum_{j | k} j n_j, where
# n_j counts the irreducible factors of degree j; the levels need no
# division by the factors already found.
#
# The same chain factors the trace form h of a lift f = T^n h(T + 1/T).
# With y = x + x^(-1), F_l[x]/(f) = B[x]/(x^2 - y x + 1) is free of rank
# 2 over B = F_l[y]/(h), so a quotient by an element b of B has twice
# the dimension of B/(b): deg gcd(z, f) = 2 deg gcd(b, h) for z = b
# written in x.  Frobenius is a ring map, so b = y^(l^k) - y is the
# chain started at y, less y; and x^(-1) = -(c_1 + c_2 x + ... +
# x^(2n-1)) mod f because f(0) = 1.  The levels of f and of h then go
# through the same gcd kernel against f, as many levels per call as fit
# in BLOCK_ROWS rows (_level_gcd_degrees): one call for a small block.
#
# Each square of the chain is one product by the Toeplitz matrix of a
# factor (_mulmod) and one reduction low + high @ R by the per-block
# table R of x^d, ..., x^(2d-2) mod f; the Frobenius matrix x^(i l) mod f
# is built by doubling.

# Overflow: inputs stay reduced into [0, l) for their row prime l, and
# every int64 sum before the next reduction is bounded as follows
# (d = deg f >= 2 wherever a chain is run; rows hold d coefficients):
#   * _mulmod's product: a coefficient of a b sums at most d non-zero
#     products of reduced values, <= d (l - 1)^2;
#   * _mulmod's reduction low + high @ R: one reduced value plus d - 1
#     products, <= (l - 1) + (d - 1) (l - 1)^2;
#   * _mulx (x a mod f, the table R and the multiply step): a shifted
#     reduced value plus one product, <= (l - 1) + (l - 1)^2;
#   * the start y = x + x^(-1): two reduced values, <= 2 (l - 1);
#   * the chain step s @ M: d products, <= d (l - 1)^2;
#   * _vec_powmod and the divstep difference f~(0) g~ - g~(0) f~ of
#     _batch_gcd_degrees: one product, or the difference of two, of
#     reduced values, below (l - 1)^2 in absolute value.
# As l - 1 <= (l - 1)^2 and d >= 2, each is at most d (l - 1)^2, and the
# kernel is exact when d (l - 1)^2 < 2^63; its callers refuse larger
# primes (_check_kernel_prime).  The trace-form census of orthfin forms
# f = H B with n + 1 <= d products per coefficient, within the same bound.


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


def _vec_powmod(a, e, m):
    """a^e mod m entrywise (a reduced into [0, m), e >= 0)."""
    out = np.ones_like(a)
    a, e = a.copy(), e.copy()
    while e.any():
        out = np.where(e & 1, out * a % m, out)
        a = a * a % m
        e >>= 1
    return out


def _mulx(a, R0, m):
    """x a mod f for rows a (..., P, d), given R0 = x^d mod f (P, d)."""
    out = a[..., -1:] * R0
    out[..., 1:] += a[..., :-1]
    out %= m[:, None]
    return out


def _reduction_table(C, m):
    """(P, d - 1, d): row i is x^(d + i) mod f, for the monic rows C
    (P, d + 1) with d >= 2."""
    P, d = C.shape[0], C.shape[1] - 1
    R = np.empty((P, d - 1, d), dtype=np.int64)
    R[:, 0] = -C[:, :d] % m[:, None]
    for i in range(1, d - 1):
        R[:, i] = _mulx(R[:, i - 1], R[:, 0], m)
    return R


def _mulmod(a, b, R, m):
    """a b mod f for reduced rows a (..., P, d) and b (P, d); R from
    _reduction_table.

    The product is one einsum of a with the Toeplitz matrix of b,
    T[i, c] = b[c - i] (zero unless 0 <= c - i < d): a strided view of
    b padded with d - 1 zeros on each side, read with stride -1 along i.
    Its top d - 1 coefficients are then reduced by one einsum with R."""
    d = b.shape[-1]
    pad = np.zeros((len(b), 3 * d - 2), dtype=np.int64)
    pad[:, d - 1:2 * d - 1] = b
    mid = pad[:, d - 1:]
    step = pad.itemsize
    T = as_strided(mid, (len(b), d, 2 * d - 1), (pad.strides[0], -step, step),
                   writeable=False)
    prod = np.einsum("...pi,pic->...pc", a, T) % m[:, None]
    out = prod[..., :d] + np.einsum("...pi,pij->...pj", prod[..., d:], R)
    out %= m[:, None]
    return out


def _batch_frobenius_chains(C, primes, kmax, V):
    """V^(l^k) mod f for k = 1..kmax, every start row and prime at once.

    C: (P, d+1) monic row polynomials with d >= 2; V: (S, P, d) start
    rows reduced mod the row primes.  Returns (kmax, S, P, d).
    """
    P, dp1 = C.shape
    d = dp1 - 1
    m = primes
    R = _reduction_table(C, m)
    # r = x^l mod f by square-and-multiply over the bits of each row's l,
    # from r = x^(l >> top), which is x or 1
    top = int(primes.max()).bit_length() - 1
    r = np.zeros((P, d), dtype=np.int64)
    r[:, 1] = primes >> top
    r[:, 0] = 1 - r[:, 1]
    for k in range(top - 1, -1, -1):
        r = _mulmod(r, r, R, m)
        bit = (primes >> k) & 1 == 1
        if bit.any():
            r = np.where(bit[:, None], _mulx(r, R[:, 0], m), r)
    # the Frobenius matrix, M[i] = x^(i l) mod f, by doubling:
    # M[b+1..2b] = M[1..b] x^(b l)
    M = np.zeros((d, P, d), dtype=np.int64)
    M[0, :, 0] = 1
    M[1] = r
    b = 1
    while b + 1 < d:
        end = min(2 * b + 1, d)
        M[b + 1:end] = _mulmod(M[1:end - b], M[b], R, m)
        b *= 2
    # chains: s_{k+1} = Frobenius(s_k), linear in the coefficients
    out = np.empty((kmax,) + V.shape, dtype=np.int64)
    s = V
    for k in range(kmax):
        s = np.einsum("...pi,ipj->...pj", s, M) % m[:, None]
        out[k] = s
    return out


def _batch_gcd_degrees(F, G, m):
    """deg gcd(f, g) over F_m for each row pair f of F, g of G.

    F: (R, d + 1) ascending coefficient rows of exact degree d, lc(f)
    non-zero mod m; G: ascending rows of degree < d (columns from d on
    zero); both reduced into [0, m) for the row's prime m.  g = 0 gives
    d.  Raises ValueError when a row breaks this contract.

    Polynomial divsteps (Bernstein and Yang, "Fast constant-time gcd
    computation and modular inversion", TCHES 2019, section 6, Theorem
    6.2) on the reversals f~ = x^d f(1/x), g~ = x^(d - 1) g(1/x) and
    delta = 1, each step

        swap = delta > 0 and g~(0) != 0;
        t = f~(0) g~ - g~(0) f~;  f~ = g~ if swap;
        delta = 1 - delta if swap else 1 + delta;  g~ = t / x,

    and after exactly 2d - 1 steps deg gcd(f, g) = delta / 2.

    Why: write f~ = x^A a(1/x) for a polynomial a of degree exactly A
    (f~(0) = lc(a) stays non-zero, as f~ takes g~ only when g~(0) != 0)
    and g~ = x^B b(1/x) with deg b <= B (b = 0 once B < 0), so g~(0) is
    b's x^B coefficient b_B.  At the start (a, A, b, B) = (f, d, g, d -
    1), and delta = A - B throughout.  Without a swap b becomes lc(a) b -
    b_B x^(B - A) a (B >= A whenever b_B != 0), which has no x^B term,
    and B drops by one.  A swap (A > B, b_B != 0) makes b the new a, of
    degree B, and lc(a) x^(A - B) b - b_B a, of degree < A, the new b
    with B = A - 1.  Both keep gcd(a, b) = gcd(f, g) up to a unit and
    lower A + B by one, from 2d - 1 to 0 after 2d - 1 steps.  Then A = -B
    = delta / 2, and either A = 0, so a is a unit, or B < 0, so b = 0;
    either way deg gcd(f, g) = A.

    Truncation: only the decisions (swap) reach delta, and each reads
    f~(0) and g~(0).  A step maps the coefficients j >= 1 of (f~, g~) to
    coefficients >= j - 1, so once s steps are done the 2d - 1 - s steps
    left read only the low 2d - 1 - s coefficients; and f~, g~ have
    degree <= d throughout.  So step s (from 0) works on views of width
    min(d + 1, 2d - 1 - s) of four buffers allocated once.  The
    difference f~(0) g~ - g~(0) f~ of reduced values is below (l - 1)^2
    in absolute value before its reduction.
    """
    R, d = F.shape[0], F.shape[1] - 1
    if (F[:, d] % m == 0).any() | G[:, d:].any():
        raise ValueError("need f of exact degree d and deg g < d in "
                         "every row")
    f = F[:, ::-1].copy()
    g = np.zeros_like(f)
    width = min(d, G.shape[1])          # G's columns from d on are zero
    g[:, d - width:d] = G[:, :width][:, ::-1]
    t, u = np.empty_like(f), np.empty_like(f)
    mc = m[:, None]
    delta = np.ones(R, dtype=np.int64)
    for s in range(2 * d - 1):
        w = min(d + 1, 2 * d - 1 - s)
        fs, gs, ts, us = f[:, :w], g[:, :w], t[:, :w], u[:, :w]
        swap = (delta > 0) & (gs[:, 0] != 0)
        np.multiply(gs, fs[:, :1], out=ts)
        np.multiply(fs, gs[:, :1], out=us)
        ts -= us
        ts %= mc
        np.copyto(fs, gs, where=swap[:, None])
        np.negative(delta, out=delta, where=swap)
        delta += 1
        gs[:, :w - 1] = ts[:, 1:]
        gs[:, w - 1] = 0
    return delta >> 1


@functools.lru_cache(maxsize=64)
def _int_discriminant(int_coeffs: tuple) -> int:
    """disc(f) of an integer polynomial, computed once per polynomial.
    classify takes its zero test and square classes from it: for f over
    Q with c f integral, disc(c f) = c^(2d - 2) disc(f).

    A palindromic f = T^n H(T + 1/T) of even degree 2n >= 2 has disc(f)
    = H(2) H(-2) disc(H)^2 (recpoly.disc_identity), for any leading
    coefficient c, as both sides scale by c^(4n - 2); H is integral
    (_int_trace_form).  So it costs one resultant of degree n, not 2n,
    and gives the same integer."""
    d = len(int_coeffs) - 1
    if d >= 2 and d % 2 == 0 and int_coeffs == int_coeffs[::-1]:
        H = _int_trace_form(int_coeffs)
        return _boundary_product(H) * _int_discriminant(H) ** 2
    return Fraction(discriminant(Poly(list(int_coeffs)))).numerator


def _int_trace_form(int_coeffs) -> tuple:
    """The integer H with F = T^n H(T + 1/T), for a palindromic integer
    F of even degree 2n; F monic over Q times c gives H = c h."""
    return tuple(_trace_coeffs(int_coeffs))


def _boundary_product(int_coeffs) -> int:
    """H(2) H(-2) of an integer polynomial: the square class of
    disc(T^n H(T + 1/T)) / disc(H)^2."""
    return (sum(c << i for i, c in enumerate(int_coeffs))
            * sum(c * (-2) ** i for i, c in enumerate(int_coeffs)))


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


def _degrees_from_levels(g, d):
    """Sorted factor degree tuple of each squarefree row of degree d,
    from its level degrees g[k - 1] = deg gcd(x^(l^k) - x, f), k <= d/2
    (g: (d // 2, R))."""
    kmax = d // 2
    # n[k] = number of irreducible factors of degree k, for k <= d/2
    n = np.zeros((kmax + 1, g.shape[1]), dtype=np.int64)
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
    n[0] = rest                 # the key layout of _degree_tuple
    return [_degree_tuple(counts) for counts in map(tuple, n.T.tolist())]


@functools.lru_cache(maxsize=1024)
def _degree_tuple(counts: tuple) -> tuple:
    """Sorted factor degrees from (rest, n_1, n_2, ...): n_k factors of
    degree k, and one of degree rest when rest > 0."""
    degs = [k for k, nk in enumerate(counts[1:], 1) for _ in range(nk)]
    return tuple(degs + [counts[0]] if counts[0] else degs)


def _level_gcd_degrees(A, C, m):
    """deg gcd(A[k], f) for every level k and monic row f of C: (K, R),
    from the divstep kernel over the K R pairs (f, A[k]) (A: (K, R, d),
    of degree < d, reduced in place).  Each kernel call takes as many
    whole levels as fit in BLOCK_ROWS rows (at least one), so a small
    block needs one call and a large one bounded buffers."""
    K, R, d = A.shape
    A %= m[:, None]
    out = np.empty((K, R), dtype=np.int64)
    step = max(1, BLOCK_ROWS // R)
    for k in range(0, K, step):
        L = min(step, K - k)
        out[k:k + L] = _batch_gcd_degrees(
            np.tile(C, (L, 1)), A[k:k + L].reshape(L * R, d),
            np.tile(m, L)).reshape(L, R)
    return out


def _x_rows(R, d):
    """The polynomial x as R rows of d >= 2 coefficients."""
    x = np.zeros((R, d), dtype=np.int64)
    x[:, 1] = 1
    return x


def _monic_reductions(int_coeffs, m):
    """(R, d+1) rows: the polynomial mod each row's prime m, made monic
    by lc^(m - 2), the inverse of lc; no m may divide lc."""
    C = _reduce_rows(int_coeffs, m)
    return C * _vec_powmod(C[:, -1], m - 2, m)[:, None] % m[:, None]


def _factor_degree_rows(C, m):
    """Sorted factor degree tuple of each row of C over F_m for its row's
    prime m.

    C: (R, d+1) monic rows with d >= 1, reduced into [0, m) and
    squarefree mod m (a row that is not raises ArithmeticError or gives
    wrong degrees); the caller checks that the primes fit the overflow
    bound.  One Frobenius chain and the divstep gcd kernel
    (_level_gcd_degrees) serve every row.
    """
    R, d = C.shape[0], C.shape[1] - 1
    g = np.zeros((d // 2, R), dtype=np.int64)
    if d >= 2 and R:
        x = _x_rows(R, d)
        chains = _batch_frobenius_chains(C, m, d // 2, x[None])
        g = _level_gcd_degrees(chains[:, 0] - x, C, m)
    return _degrees_from_levels(g, d)


def _lift_degree_rows(C, m):
    """(degrees of f, degrees of h) for each row f = T^n h(T + 1/T) of C,
    each a sorted factor degree tuple over F_m for the row's prime m.

    C: (R, 2n+1) monic rows with n >= 1 and constant coefficient 1,
    reduced into [0, m) and squarefree mod m (then h is squarefree too,
    as disc f = h(2) h(-2) disc(h)^2); the caller checks the
    overflow bound.  One Frobenius chain, started at x and at y = x +
    x^(-1), gives the n levels of f and the n // 2 levels of h, and the
    divstep gcd kernel against f takes them all (_level_gcd_degrees); a
    level of h has half the degree found (see the note above
    _max_kernel_prime).
    """
    R, d = C.shape[0], C.shape[1] - 1
    n = d // 2
    if not R:
        return []
    x = _x_rows(R, d)
    starts = [x]
    if n >= 2:                 # h of degree 1 has no levels
        y = -C[:, 1:] % m[:, None]        # x^(-1)
        y[:, 1] += 1
        starts.append(y % m[:, None])
    chains = _batch_frobenius_chains(C, m, n, np.stack(starts))
    levels = [chains[:, 0] - x]
    if n >= 2:
        levels.append(chains[:n // 2, 1] - starts[1])
    del chains                  # not held through the gcd kernel's buffers
    g = _level_gcd_degrees(np.concatenate(levels), C, m)
    gh, odd = np.divmod(g[n:], 2)
    if odd.any():
        raise ArithmeticError("a level of h has odd degree in f")
    return list(zip(_degrees_from_levels(g[:n], d),
                    _degrees_from_levels(gh, n)))


def _good_monic_rows(int_coeffs, primes):
    """(indices of the good primes, the monic reductions there as (R,
    d+1) rows, those primes) for one integer polynomial.

    A prime is good when it divides neither the leading coefficient nor
    the discriminant.  Raises ValueError when a prime is too large for
    exact int64 arithmetic at this degree."""
    int_coeffs = tuple(int(c) for c in int_coeffs)
    d = len(int_coeffs) - 1
    if d < 1:
        raise ValueError("need positive degree")
    if len(primes):
        _check_kernel_prime(d, max(int(ell) for ell in primes))
    primes = np.asarray(primes, dtype=np.int64)
    bad = _degenerate_numerator(int_coeffs)
    gidx = np.nonzero(bad % primes.astype(object))[0]
    m = primes[gidx]
    return gidx.tolist(), _monic_reductions(int_coeffs, m), m


def batch_factor_degrees(int_coeffs, primes):
    """Factor degree multisets of one integer polynomial mod many primes.

    Returns a list parallel to primes; entry is the sorted tuple of
    irreducible factor degrees with multiplicity, or None when the
    reduction is degenerate (leading coefficient vanishes or the
    reduction is not squarefree).  Raises ValueError when a prime is
    too large for exact int64 arithmetic at this degree.  The good
    reductions, one row per prime, go through _factor_degree_rows.
    """
    gidx, C, m = _good_monic_rows(int_coeffs, primes)
    results: list = [None] * len(primes)
    for idx, degs in zip(gidx, _factor_degree_rows(C, m)):
        results[idx] = degs
    return results


def _batch_lift_degrees(int_f, primes):
    """(degrees of f, degrees of h) mod each prime for an integer lift
    f = c T^n h(T + 1/T), in one pass of _lift_degree_rows.

    Returns a list parallel to primes, with (None, None) where f mod l
    is degenerate.  Where it is not, l divides neither c nor disc(f) =
    h(2) h(-2) disc(h)^2 (over the monic reductions), so h mod l
    keeps its degree and is squarefree too.
    """
    gidx, C, m = _good_monic_rows(int_f, primes)
    results: list = [(None, None)] * len(primes)
    for idx, pair in zip(gidx, _lift_degree_rows(C, m)):
        results[idx] = pair
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
    """(parts, relations) for _reachable_classes from the factors h_i of
    h over Z: parts holds the sorted (deg h_i, whether T^k h_i(T + 1/T)
    splits over Q), and relations the subsets of the disc(h_i) and
    h_i(2) h_i(-2) whose product is a square, in the order of parts.

    The factors come from the reductions (l, degrees of f mod l, degrees
    of h mod l) already factored; the lift of h_i divides f, so the
    patterns of f bound the degrees of its factors.  disc(h) is c^(2n -
    2) prod disc(h_i) prod_{i<j} Res(h_i, h_j)^2 for h = c prod h_i, so
    the last disc(h_i) has the square class of disc(h) times the others,
    and an irreducible h needs no discriminant beyond disc(h)."""
    f_rows = [(ell, ft) for ell, ft, _ in rows if ft is not None]
    h_rows = [(ell, ht) for ell, _, ht in rows if ht is not None]
    factors = sorted(
        ((len(g) - 1,
          len(_factor_over_z(trace_lift(Poly(g)).coeffs, f_rows)) > 1), g)
        for g in _factor_over_z(int_h, h_rows))
    discs = [_int_discriminant(tuple(g)) for _, g in factors[:-1]]
    discs.append(_int_discriminant(tuple(int_h)) * math.prod(discs))
    values = [v for (_, g), a in zip(factors, discs)
              for v in (a, _boundary_product(g))]
    return tuple(part for part, _ in factors), _square_relations(values)


def _resolvent_has_root(int_h, primes) -> bool:
    """Whether the resolvent cubic of a separable quartic h has a
    rational root, given primes where h mod l is squarefree and keeps
    its degree.

    For h / lc(h) = x^4 + a x^3 + b x^2 + c x + d the resolvent is
    y^3 - b y^2 + (ac - 4d) y - (a^2 d - 4bd + c^2), with the roots
    r1 r2 + r3 r4, r1 r3 + r2 r4 and r1 r4 + r2 r3.  An irreducible h
    has Gal(h) inside a D4, and so no 3-cycle, exactly when the
    resolvent has a rational root.  It has the discriminant of h, and
    its denominators divide lc(h)^3, so it is good at the given primes;
    it is factored over Z by _factor_over_z from its patterns there.
    """
    d, c, b, a = (Fraction(v, int_h[4]) for v in int_h[:4])
    res = [-(a * a * d - 4 * b * d + c * c), a * c - 4 * d, -b, Fraction(1)]
    den = math.lcm(*(v.denominator for v in res))
    res = [int(v * den) for v in res]
    m = np.array(primes, dtype=np.int64)
    degs = _factor_degree_rows(_monic_reductions(res, m), m)
    return len(_factor_over_z(res, list(zip(primes, degs)))) > 1


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

    disc(f) = h(2) h(-2) disc(h)^2 costs one resultant of degree n.
    By Stickelberger, (disc/l) = (-1)^(number of even-degree factors
    mod l) at a good odd prime l.  Every product of the values disc(h_i)
    and h_i(2) h_i(-2) of the rational factors h_i of h that is a
    rational square forces the numbers of even-degree factors mod l of
    the matching h_i and lifts to add up to an even number, which rules
    classes out at every prime (with h as its one factor, a square
    disc(f) rules out class 6).  When the first block leaves the goal
    open, h and the lifts of its factors are factored over Q: with h
    reducible no prime shows class 1, the patterns mod l refine the
    degrees of the rational factors, and each factor brings its own
    relations.  For n = 4 and h irreducible, a rational root of its
    resolvent cubic rules out class 2.  Each block factors f and h mod
    l in one kernel pass (_batch_lift_degrees); a prime where f is good
    has h good too.  The scan stops at the first prime where
    every wanted class has a witness; when a wanted class is
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
    disc_f = _int_discriminant(tuple(int_f))      # from disc(h)
    if disc_f == 0:
        raise NotSeparableError("stripped core has a repeated factor")

    K = compute_K(f)
    disc_sq = is_perfect_square(Fraction(disc_f))
    _check_kernel_prime(f.degree, prime_budget)   # before the sieve allocates

    # int_h = den_f h is integral, so den_f holds every denominator of h
    int_h = _int_trace_form(int_f)
    # a square has Legendre symbol +1 at every good prime, which rules
    # out the patterns whose parities do not fit
    reachable = _reachable_classes(n, _square_relations(
        [_int_discriminant(int_h), _boundary_product(int_h)]))
    bad_num = abs(f1.numerator * fm1.numerator) * den_f
    witnesses: dict = {}
    needed = {1, 2, 3, 4, 5}
    even_plus = (N % 2 == 0 and sp.epsilon == 1)
    wanted = needed if even_plus else needed | {6}
    # With a wanted class out of reach the certificate stays Inconclusive
    # whatever the budget; the scan then only has to record the first
    # witness of every class that can still appear, as a full scan would.
    goal = wanted if wanted <= reachable else reachable
    primes = primes_up_to(prime_budget)
    for index, block in enumerate(_prime_blocks(primes[primes > 2], bad_num)):
        if index == 1 and not goal <= witnesses.keys():
            # The first block left the goal open: factor h and the lifts
            # of its factors over Q.  With h reducible no prime shows
            # class 1, each h_i mod l refines deg h_i, and the
            # discriminants of the h_i and their lifts tie the parities
            # of their patterns.
            parts, relations = _rational_parts(int_f, int_h, rows)
            reachable = _reachable_classes(n, relations, parts)
            if (n == 4 and len(parts) == 1 and 2 in reachable
                    and 2 not in witnesses
                    and _resolvent_has_root(
                        int_h, [ell for ell, ft, _ in rows
                                if ft is not None])):
                # Gal(h) lies in a D4, which has no 3-cycle, so no prime
                # shows the [1, 3] pattern of h that class 2 needs
                reachable -= {2}
            if not witnesses.keys() <= reachable:
                raise ArithmeticError("a witness of a class that the "
                                      "factors of h or its resolvent "
                                      "rule out")
            goal = wanted if wanted <= reachable else reachable
        if goal <= witnesses.keys():
            break
        rows = [(ell, ft, ht) for ell, (ft, ht) in
                zip(block.tolist(), _batch_lift_degrees(int_f, block))]
        for ell, ft, ht in rows:
            if ft is None or len(ft) > 8:
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
    to_trace_form(fm)        # raises NotReciprocalError unless reciprocal
    # den_f h is integral (_int_trace_form), so den_f holds every
    # denominator of h
    int_f, den_f = _clear_denominators(fm)
    primes = primes_up_to(prime_bound)
    primes = primes[primes > 2]
    ok = np.array([den_f % int(l) != 0 for l in primes])
    primes = primes[ok]
    # one kernel pass per block of BLOCK_ROWS primes bounds its arrays
    counts = Counter(
        pair for start in range(0, len(primes), BLOCK_ROWS)
        for pair in _batch_lift_degrees(int_f,
                                        primes[start:start + BLOCK_ROWS])
        if pair[0] is not None)
    used = sum(counts.values())
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
