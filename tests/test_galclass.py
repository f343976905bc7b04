"""Galois classifier: the batched multi-prime factorization against the
single-prime pipeline, K-field arithmetic, certificates on pinned
inputs, and the statistics validator's pass/fail behavior."""

import functools
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.lib.stride_tricks import as_strided

from test_poly import _PROPERTIES
from orthogal import galclass, lfunc
from orthogal.errors import (BudgetExceededError, NotReciprocalError,
                             NotSeparableError)
from orthogal.ffield import get_field, _is_prime
from orthogal.poly import (Poly, discriminant, factor_degrees, is_irreducible,
                           _factor_over_z, _pow_mod)
from orthogal.recpoly import trace_lift, to_trace_form
from orthogal.galclass import (primes_up_to, batch_factor_degrees,
                               is_perfect_square,
                               KField, compute_K, group_constraint, classify,
                               chebotarev_validate)
from orthogal.signedperm import WGroup


def test_primes_up_to():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    got = list(primes_up_to(200))
    assert got == [n for n in range(201) if trial(n)]
    assert list(primes_up_to(1)) == []
    # sieved once per bound, and shared read-only
    assert primes_up_to(200) is primes_up_to(200)
    with pytest.raises(ValueError):
        primes_up_to(200)[0] = 4


def _assert_matches_single_prime(coeffs, primes, results):
    disc = Fraction(discriminant(Poly(coeffs)))
    for ell, got in zip(primes, results):
        degenerate = (coeffs[-1] % ell == 0
                      or disc.numerator % ell == 0)
        if degenerate:
            assert got is None
            continue
        F = get_field(ell)
        fmod = Poly.from_int_coeffs(coeffs, F).monic()
        assert got == tuple(factor_degrees(fmod)), (coeffs, ell)


def test_batch_factor_degrees_matches_single_prime():
    rng = random.Random(3)
    primes = [int(p) for p in primes_up_to(150) if p > 2]
    for _ in range(15):
        deg = rng.randrange(2, 9)
        coeffs = [rng.randrange(-20, 21) for _ in range(deg)] + \
            [rng.choice([1, 2, 3, -1])]
        results = batch_factor_degrees(coeffs, primes)
        _assert_matches_single_prime(coeffs, primes, results)
    # degrees 9-12 reach the levels k = 4..6, where the degrees of the
    # factors found at the divisors of k are subtracted
    for deg in (9, 10, 11, 12):
        for _ in range(3):
            coeffs = [rng.randrange(-20, 21) for _ in range(deg)] + \
                [rng.choice([1, 2, 3, -1])]
            results = batch_factor_degrees(coeffs, primes)
            _assert_matches_single_prime(coeffs, primes, results)
    # coefficients beyond int64 are reduced exactly
    for deg in (4, 7):
        coeffs = [rng.randrange(-10 ** 30, 10 ** 30) for _ in range(deg)] + \
            [rng.randrange(1, 10 ** 25)]
        results = batch_factor_degrees(coeffs, primes)
        _assert_matches_single_prime(coeffs, primes, results)


def _first_irreducible_mod_3(k):
    F = get_field(3)
    for low in itertools.product(range(3), repeat=k):
        if is_irreducible(Poly(list(low) + [1], F)):
            return Poly(list(low) + [1], F)


@pytest.mark.parametrize("degrees", [(1, 2, 4), (2, 4, 6)])
def test_batch_factor_degrees_counts_each_level_once(degrees):
    # a product of distinct irreducibles mod 3 of the given degrees: the
    # level-k gcd also holds the factors of degree j | k, which must be
    # subtracted exactly once
    f = Poly([1], get_field(3))
    for k in degrees:
        f = f * _first_irreducible_mod_3(k)
    assert batch_factor_degrees(list(f.coeffs), [3]) == [degrees]


def _max_prime_below(bound):
    ell = bound
    while not _is_prime(ell):
        ell -= 1
    return ell


def _random_poly(rng, F, degree, lead=None):
    """A random polynomial of exact degree degree over F (zero for -1),
    with leading coefficient lead when given."""
    if degree < 0:
        return Poly([], F)
    ell = F.p
    return Poly([rng.randrange(ell) for _ in range(degree)]
                + [lead or rng.randrange(1, ell)], F)


def _kernel_rows(polys, width):
    """Ascending coefficient rows of the polynomials, width columns."""
    return np.array([list(p.coeffs) + [0] * (width - len(p.coeffs))
                     for p in polys], dtype=np.int64)


@pytest.mark.parametrize(
    "ell", [3, 9973, _max_prime_below(galclass._max_kernel_prime(10))])
def test_batch_gcd_degrees_matches_poly_gcd(ell):
    # pairs (f, g) with deg f = 10 exactly and deg g < 10, g possibly
    # zero, as the divstep kernel requires
    F = get_field(ell)
    rng = random.Random(ell)
    fs, gs, want = [], [], []
    for _ in range(60):
        k = rng.randrange(0, 5)
        c = _random_poly(rng, F, k)
        if rng.random() < 0.7:      # a common factor c: a nontrivial gcd
            f = _random_poly(rng, F, 10 - k) * c
            g = _random_poly(rng, F, rng.randrange(-1, 10 - k)) * c
        else:
            f = _random_poly(rng, F, 10)
            g = _random_poly(rng, F, rng.randrange(-1, 10))
        fs.append(f)
        gs.append(g)
        want.append(f.gcd(g).degree)
    got = galclass._batch_gcd_degrees(
        _kernel_rows(fs, 11), _kernel_rows(gs, 10),
        np.full(len(want), ell, dtype=np.int64))
    assert got.tolist() == want


def _former_top_aligned(X, w):
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


def _former_batch_gcd_degrees(A, B, m):
    """deg gcd(a, b) over F_m for each row pair; -1 when both are zero:
    the former body of _batch_gcd_degrees, a masked Euclid.

    Each step keeps deg a >= deg b by swapping and replaces a by lc(b) a
    - lc(a) x^(deg a - deg b) b, which lowers deg a and needs no
    inverse.  A row whose b is zero is finished and drops out of the
    mask of live rows.  Rows are stored top-aligned, so the cancelled
    leading term of a is dropped by a shift of one column."""
    w = max(A.shape[1], B.shape[1])
    (A, da), (B, db) = _former_top_aligned(A, w), _former_top_aligned(B, w)
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
        w = int(da.max()) + 1
        a, b, t, u = A[:, :w], B[:, :w], T[:, :w], U[:, :w]
        np.multiply(a, b[:, :1], out=t)
        np.multiply(b, a[:, :1], out=u)
        t -= u
        t %= m[:, None]
        a[:, :-1] = t[:, 1:]
        a[:, -1] = 0
        da -= live
        lead = (A[:, 0] == 0) & (da >= 0)
        while lead.any():
            A[lead, :-1] = A[lead, 1:]
            A[lead, -1] = 0
            da -= lead
            lead = (A[:, 0] == 0) & (da >= 0)


def _row_major_divsteps(F, G, m):
    """deg gcd(f, g) for each row pair, as _batch_gcd_degrees takes them:
    its former body, the same 2d - 1 divsteps on row-major (R, d + 1)
    buffers, where the narrowing views are strided and f~(0), g~(0) are
    columns."""
    R, d = F.shape[0], F.shape[1] - 1
    f = F[:, ::-1].copy()
    g = np.zeros_like(f)
    width = min(d, G.shape[1])
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


# small primes and the largest primes the chain kernel takes at degrees
# 10 and 16; the divstep kernel's intermediates stay below (l - 1)^2, so
# both are exact at every degree
_GCD_TEST_PRIMES = [3, 5, 7, 9973,
                    _max_prime_below(galclass._max_kernel_prime(10)),
                    _max_prime_below(galclass._max_kernel_prime(16))]


@pytest.mark.parametrize("d", range(1, 17))
def test_batch_gcd_degrees_matches_the_former_euclid(d):
    # against Poly.gcd, the masked Euclid and the row-major divsteps, also
    # at the three largest primes that the overflow bound allows at d
    rng = random.Random(100 + d)
    fs, gs, ms = [], [], []
    for ell in (_GCD_TEST_PRIMES
                + _primes_below(galclass._max_kernel_prime(d), 3)):
        F = get_field(ell)
        pairs = []
        for k in range(d + 1):      # a planted common factor of degree k
            c = _random_poly(rng, F, k)
            pairs.append((_random_poly(rng, F, d - k) * c,
                          _random_poly(rng, F, rng.randrange(-1, d - k)) * c))
        for _ in range(3):          # g = 0, with f monic and not
            pairs.append((_random_poly(rng, F, d, lead=1), Poly([], F)))
            pairs.append((_random_poly(rng, F, d), Poly([], F)))
        for _ in range(4):          # coprime as a rule, f not monic
            pairs.append((_random_poly(rng, F, d),
                          _random_poly(rng, F, rng.randrange(-1, d))))
        # every coefficient l - 1: the largest products before reduction
        pairs.append((Poly([ell - 1] * (d + 1), F), Poly([ell - 1] * d, F)))
        for f, g in pairs:
            fs.append(f)
            gs.append(g)
            ms.append(ell)
    Fr, Gr = _kernel_rows(fs, d + 1), _kernel_rows(gs, d)
    m = np.array(ms, dtype=np.int64)
    assert (Fr[:, d] != 1).any()
    got = galclass._batch_gcd_degrees(Fr, Gr, m)
    assert got.tolist() == [f.gcd(g).degree for f, g in zip(fs, gs)]
    assert (got == _former_batch_gcd_degrees(Fr, Gr, m)).all()
    assert (got == _row_major_divsteps(Fr, Gr, m)).all()


def test_batch_gcd_degrees_refuses_rows_outside_its_contract():
    m = np.array([5, 5], dtype=np.int64)
    f = np.array([[1, 2, 1], [3, 0, 1]], dtype=np.int64)
    g = np.array([[1, 1], [2, 0]], dtype=np.int64)
    assert galclass._batch_gcd_degrees(f, g, m).tolist() == [1, 0]
    lost = f.copy()
    lost[1, 2] = 5                  # lc(f) vanishes mod 5
    with pytest.raises(ValueError):
        galclass._batch_gcd_degrees(lost, g, m)
    wide = np.array([[1, 1, 0], [2, 0, 4]], dtype=np.int64)   # deg g = d
    with pytest.raises(ValueError):
        galclass._batch_gcd_degrees(f, wide, m)
    assert galclass._batch_gcd_degrees(f, wide[:, :2], m).tolist() == [1, 0]


def test_batch_factor_degrees_computes_discriminant_once(monkeypatch):
    calls = []

    def counting(f):
        calls.append(f)
        return discriminant(f)

    monkeypatch.setattr(galclass, "discriminant", counting)
    galclass._int_discriminant.cache_clear()
    coeffs = [-3, 1, 0, 1]
    first = batch_factor_degrees(coeffs, [3, 5, 7, 11, 13])
    again = batch_factor_degrees(coeffs, [3, 5, 7, 11, 13])
    galclass._int_discriminant.cache_clear()
    assert first == again and len(calls) == 1
    _assert_matches_single_prime(coeffs, [3, 5, 7, 11, 13], first)


def _primes_from(start, count):
    out = []
    cand = start
    while len(out) < count:
        if _is_prime(cand):
            out.append(cand)
        cand += 1
    return out


def test_batch_factor_degrees_exact_or_refuses_large_primes():
    # the batched kernel accumulates in int64; up to its proven bound
    # (about 9.6e8 at degree 10) it must match the scalar pipeline, and
    # above 2^31 it must match it too or raise
    rng = random.Random(11)
    below = _primes_from(9 * 10 ** 8, 3)
    above = _primes_from(2 ** 31, 5) + _primes_from(3 * 10 ** 9, 5)
    for _ in range(6):
        coeffs = [rng.randrange(-50, 51) for _ in range(10)] + [1]
        _assert_matches_single_prime(
            coeffs, below, batch_factor_degrees(coeffs, below))
        try:
            results = batch_factor_degrees(coeffs, above)
        except ValueError:
            continue
        _assert_matches_single_prime(coeffs, above, results)


# ---------------------------------------------------------------------------
# One kernel pass over f and its trace form h
# ---------------------------------------------------------------------------


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
    return A[:, :max(d, 1)] % m[:, None]


def _frobenius_chains_oracle(C, primes, kmax):
    """x^(l^k) mod f for k = 1..kmax as (kmax, P, d): the former body of
    _batch_frobenius_chains, which multiplied column by column and
    reduced one coefficient at a time (about 3d numpy calls per bit)."""
    P, dp1 = C.shape
    d = dp1 - 1
    m = primes
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
    mat = np.zeros((d, P, d), dtype=np.int64)
    mat[0, :, 0] = 1
    if d > 1:
        mat[1] = r
    for i in range(2, d):
        mat[i] = _vec_polymod(_vec_polymul(mat[i - 1], r, m), C, m)
    out = np.zeros((kmax, P, d), dtype=np.int64)
    s = r
    for k in range(kmax):
        out[k] = s
        if k + 1 < kmax:
            s = np.einsum("pi,ipj->pj", s, mat) % m[:, None]
    return out


def _einsum_mulmod(a, b, R, m):
    """a b mod f as _mulmod takes them: its former body, one einsum with
    a strided view of b padded with d - 1 zeros on each side as the
    Toeplitz matrix T[i, c] = b[c - i], read with stride -1 along i, and
    one einsum with R for the top d - 1 coefficients."""
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


def _primes_below(bound, count):
    out = []
    ell = bound
    while len(out) < count:
        if _is_prime(ell):
            out.append(ell)
        ell -= 1
    return out


def _kernel_test_primes(d):
    """Small primes and the largest primes the kernel takes at degree d."""
    return np.array([3, 5, 7, 11, 101, 9973]
                    + _primes_below(galclass._max_kernel_prime(d), 3),
                    dtype=np.int64)


@pytest.mark.parametrize("d", range(1, 17))
def test_mulmod_matches_the_einsum_product(d):
    # against the former einsum product and Poly arithmetic, with a batch
    # of two factors a per row as in the doubling of the Frobenius matrix
    rng = random.Random(300 + d)
    primes = _kernel_test_primes(d)
    for extreme in (False, True):
        # extreme rows have every coefficient l - 1, the largest sums
        def draw(ell):
            return ell - 1 if extreme else rng.randrange(ell)
        C = np.array([[draw(ell) for _ in range(d)] + [1]
                      for ell in primes.tolist()], dtype=np.int64)
        a = np.array([[[draw(ell) for _ in range(d)]
                       for ell in primes.tolist()] for _ in range(2)],
                     dtype=np.int64)
        b = np.array([[draw(ell) for _ in range(d)]
                      for ell in primes.tolist()], dtype=np.int64)
        R = (galclass._reduction_table(C, primes) if d >= 2
             else np.zeros((len(primes), 0, 1), dtype=np.int64))
        got = galclass._mulmod(a, b, R, primes)
        assert got.shape == a.shape
        assert (got == _einsum_mulmod(a, b, R, primes)).all()
        for row, ell in enumerate(primes.tolist()):
            F = get_field(ell)
            want = (Poly(a[1, row].tolist(), F) * Poly(b[row].tolist(), F)
                    % Poly(C[row].tolist(), F))
            assert got[1, row].tolist() == (list(want.coeffs)
                                            + [0] * (d - len(want.coeffs)))


@pytest.mark.parametrize("d", range(2, 13))
def test_frobenius_chains_match_the_former_kernel(d):
    rng = random.Random(d)
    primes = _kernel_test_primes(d)
    for extreme in (False, True):
        # extreme rows have every coefficient l - 1, the largest sums
        C = np.array([[ell - 1 if extreme else rng.randrange(ell)
                       for _ in range(d)] + [1] for ell in primes.tolist()],
                     dtype=np.int64)
        x = np.zeros((1, len(primes), d), dtype=np.int64)
        x[0, :, 1] = 1
        got = galclass._batch_frobenius_chains(C, primes, d, x)
        assert got.shape == (d, 1, len(primes), d)
        assert (got[:, 0] == _frobenius_chains_oracle(C, primes, d)).all()


@pytest.mark.parametrize("d", [2, 5, 12])
def test_frobenius_chains_of_y_match_poly_powers(d):
    # the chain started at y = x + x^(-1), against y^(l^k) mod f by Poly
    # arithmetic, at small primes and at the kernel's bound
    rng = random.Random(100 + d)
    primes = _kernel_test_primes(d)
    C = np.array([[1] + [rng.randrange(ell) for _ in range(d - 1)] + [1]
                  for ell in primes.tolist()], dtype=np.int64)
    y = -C[:, 1:] % primes[:, None]
    y[:, 1] = (y[:, 1] + 1) % primes
    kmax = 3
    got = galclass._batch_frobenius_chains(C, primes, kmax, y[None])
    for row, ell in enumerate(primes.tolist()):
        F = get_field(ell)
        f = Poly(C[row].tolist(), F)
        yp = Poly(y[row].tolist(), F)
        assert (yp * Poly([0, 1], F)) % f == Poly([1, 0, 1], F) % f
        for k in range(kmax):
            want = _pow_mod(yp, ell ** (k + 1), f)
            want = list(want.coeffs) + [0] * (d - len(want.coeffs))
            assert got[k, 0, row].tolist() == want, (d, ell, k)


def _two_kernel_calls(int_f, primes):
    """(degrees of f, degrees of h) as two batch_factor_degrees calls,
    on f and on its trace form h, give them: (None, None) where either
    reduction is degenerate, as classify and the validator skip it."""
    f = Poly([Fraction(c, int_f[-1]) for c in int_f])
    int_h, _ = galclass._clear_denominators(to_trace_form(f).h)
    return [(ft, ht) if ft is not None and ht is not None else (None, None)
            for ft, ht in zip(batch_factor_degrees(int_f, primes),
                              batch_factor_degrees(int_h, primes))]


@pytest.mark.parametrize("n", range(1, 7))
def test_one_pass_matches_two_kernel_calls(n):
    rng = random.Random(40 + n)

    def rand_h(k):
        return Poly([rng.randint(-6, 6) for _ in range(k)] + [1])

    small = [int(p) for p in primes_up_to(400) if p > 2]
    top = _primes_below(galclass._max_kernel_prime(2 * n), 4)
    hs = [rand_h(n) for _ in range(4)]
    if n >= 2:   # reducible h, one with a rational root whose lift splits
        hs += [rand_h(1) * rand_h(n - 1),
               Poly([Fraction(-5, 2), 1]) * rand_h(n - 1)]
    if n >= 4:
        hs.append(rand_h(2) * rand_h(n - 2))
    degenerate = checked = 0
    for index, h in enumerate(hs):
        f = trace_lift(h)
        if discriminant(f) == 0:
            continue
        int_f, _ = galclass._clear_denominators(f)
        int_h, _ = galclass._clear_denominators(h)
        for primes in (small, top):
            got = galclass._batch_lift_degrees(int_f, primes)
            want = zip(batch_factor_degrees(int_f, primes),
                       batch_factor_degrees(int_h, primes))
            for ell, pair, (ft, ht) in zip(primes, got, want):
                if ft is None:    # f degenerate: the one pass skips it
                    assert pair == (None, None), (h, ell)
                    degenerate += 1
                else:             # f good: h is good too
                    assert pair == (ft, ht), (h, ell)
                    checked += 1
        if index < 2:    # at the kernel's bound, against scalar factoring
            good = [(ell, ft, ht) for ell, (ft, ht) in
                    zip(top, galclass._batch_lift_degrees(int_f, top))
                    if ft is not None]
            ells, fts, hts = zip(*good)
            _assert_matches_single_prime(int_f, ells, fts)
            _assert_matches_single_prime(int_h, ells, hts)
    assert degenerate and checked


_ODD_PRIMES = [int(p) for p in primes_up_to(10 ** 4) if p > 2]
_SMALL_ROW_PRIMES = st.lists(st.sampled_from(_ODD_PRIMES), min_size=1,
                             max_size=4, unique=True)
_BIG_INTS = st.integers(-2 ** 70, 2 ** 70)


def _row_kernel_primes(small, d):
    """The drawn primes below 10^4 and the two largest primes that the
    overflow bound allows at degree d."""
    return small + _primes_below(galclass._max_kernel_prime(d), 2)


@_PROPERTIES
@given(st.lists(_BIG_INTS, min_size=1, max_size=9), _BIG_INTS.filter(bool),
       _SMALL_ROW_PRIMES)
def test_factor_degree_rows_match_the_reduction(low, lead, small):
    int_f = low + [lead]
    d = len(low)
    primes = _row_kernel_primes(small, d)
    gidx, C, m = galclass._good_monic_rows(int_f, primes)
    got = dict(zip(gidx, galclass._factor_degree_rows(C, m)))
    for index, ell in enumerate(primes):
        f = Poly.from_int_coeffs(int_f, get_field(ell))
        if f.degree == d and f.is_squarefree():
            assert got[index] == tuple(factor_degrees(f.monic())), ell
        else:
            assert index not in got, ell


@_PROPERTIES
@given(st.lists(_BIG_INTS, min_size=1, max_size=5), _BIG_INTS.filter(bool),
       _SMALL_ROW_PRIMES)
def test_lift_degree_rows_match_the_reduction(low, lead, small):
    h = Poly(low + [lead])
    n = h.degree
    int_f = [int(c) for c in trace_lift(h).coeffs]
    primes = _row_kernel_primes(small, 2 * n)
    gidx, C, m = galclass._good_monic_rows(int_f, primes)
    got = dict(zip(gidx, galclass._lift_degree_rows(C, m)))
    for index, ell in enumerate(primes):
        F = get_field(ell)
        f = Poly.from_int_coeffs(int_f, F)
        if f.degree == 2 * n and f.is_squarefree():
            hq = Poly.from_int_coeffs(h.coeffs, F)
            assert got[index] == (tuple(factor_degrees(f.monic())),
                                  tuple(factor_degrees(hq.monic()))), ell
        else:
            assert index not in got, ell


def _validator_corpus():
    rng = random.Random(17)
    out = [(trace_lift(Poly([-3, -1, 1])), WGroup(2, False)),
           (trace_lift(Poly([-3, -1, 1])), WGroup(2, True)),
           (trace_lift(Poly([Fraction(-5, 2), 1]) * Poly([1, 1, 1])),
            WGroup(3, False))]
    for n in range(2, 7):
        h = Poly([rng.randint(-5, 5) for _ in range(n)] + [1])
        out.append((trace_lift(h), WGroup(n, n % 2 == 0)))
    return out


def test_reports_match_the_two_kernel_route(monkeypatch):
    # certificates and validator reports are the same when f and h are
    # factored by two kernel calls, as before the one pass
    corpus = _classify_corpus()
    validator = _validator_corpus()

    def reports():
        return [chebotarev_validate(f, claim, prime_bound=3000)
                for f, claim in validator]

    certs, reps = _certificates(corpus, 10 ** 4), reports()
    monkeypatch.setattr(galclass, "_batch_lift_degrees", _two_kernel_calls)
    assert _certificates(corpus, 10 ** 4) == certs
    assert reports() == reps


def test_resolvent_root_rules_out_class_2():
    # Gal(h) = D4, C4, V4 (resolvent root), S4, A4 (none), and random
    # quartics: the resolvent has a rational root exactly when no good
    # prime below 10^4 shows the [1, 3] pattern of a 3-cycle
    rng = random.Random(23)
    primes = [int(p) for p in primes_up_to(10 ** 4) if p > 2]
    quartics = [[-2, 0, 0, 0, 1], [5, 0, -5, 0, 1], [1, 0, -10, 0, 1],
                [-3, 0, 0, 0, 2], [1, 1, 0, 0, 1], [12, 8, 0, 0, 1]]
    quartics += [[rng.randint(-9, 9) for _ in range(4)] + [rng.choice([1, 3])]
                 for _ in range(12)]
    roots = 0
    for int_h in quartics:
        if discriminant(Poly(int_h)) == 0:
            continue
        degs = batch_factor_degrees(int_h, primes)
        good = [(ell, ht) for ell, ht in zip(primes, degs) if ht is not None]
        if len(_factor_over_z(int_h, good)) > 1:
            continue                      # h reducible over Q
        has_root = galclass._resolvent_has_root(
            int_h, [ell for ell, _ in good[:30]])
        assert has_root == all(3 not in ht for _, ht in good), int_h
        roots += has_root
    assert roots == 4


def test_is_perfect_square():
    assert is_perfect_square(Fraction(0))
    assert is_perfect_square(Fraction(49))
    assert is_perfect_square(Fraction(9, 4))
    assert not is_perfect_square(Fraction(-4))
    assert not is_perfect_square(Fraction(8))
    assert not is_perfect_square(Fraction(2, 3))


def test_compute_K():
    # P = T^4 + 3T^2 + 1: P(1) = P(-1) = 5, (-1)^2 * 25 = 25, a square
    K = compute_K(Poly([1, 0, 3, 0, 1]))
    assert K.is_rational and K.radicand == 25
    # P = (T^2 - 3T + 1)-lift style: P(1) P(-1) = -5 with N/2 odd
    K2 = compute_K(Poly([1, -3, 1]))
    # N = 2: (-1)^1 * P(1)P(-1) = -(-1)(5) = 5
    assert not K2.is_rational and K2.radicand == 5
    assert lfunc._squarefree_part(K2.radicand) == (5, True)
    assert str(K) == "Q" and str(K2) == "Q(sqrt(5))"
    with pytest.raises(ValueError):
        compute_K(Poly([1, 1, 1, 1]))      # odd degree
    with pytest.raises(ValueError):
        compute_K(Poly([-1, 0, 1]))        # P(1) = 0


def test_compute_K_does_not_factor_the_radicand():
    # the package's one trial division lives in lfunc, for survey_delta
    assert not hasattr(galclass, "_squarefree_part")
    # P(1) P(-1) = 2 (10^12 + 39): trial division would take 0.1-0.2 s
    K = compute_K(Poly([1, 10 ** 12 + 37, 1]))
    assert K.radicand == -(10 ** 12 + 39) * (-(10 ** 12 + 35))
    assert not K.is_rational


def test_k_field_square_test_matches_is_perfect_square():
    # the integer radicand num * den is a square exactly when the
    # rational m = num / den is one
    rng = random.Random(11)
    ms = [Fraction(9, 4), Fraction(4, 9), Fraction(-9, 4), Fraction(2, 8),
          Fraction(8, 2), Fraction(18, 8), Fraction(3, 12)]
    for _ in range(300):
        cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
              for _ in range(2 * rng.randint(1, 3) + 1)]
        cs[-1] = cs[-1] or Fraction(1)
        N = len(cs) - 1
        p1 = sum(cs)
        pm1 = sum(c if i % 2 == 0 else -c for i, c in enumerate(cs))
        if p1 == 0 or pm1 == 0:
            continue
        m = (-1) ** (N // 2) * p1 * pm1
        ms.append(m)
        K = compute_K(Poly(cs))
        assert K.radicand == m.numerator * m.denominator
        assert K.is_rational == is_perfect_square(m)
    for m in ms:
        K = KField.from_radicand(m.numerator * m.denominator)
        assert K.is_rational == is_perfect_square(m), m
    for d in range(0, 200):
        for r in (d, -d):
            assert KField.from_radicand(r).is_rational \
                == is_perfect_square(Fraction(r)), r
    assert any(is_perfect_square(m) for m in ms)


def test_group_constraint():
    assert group_constraint(5, 1) == WGroup(2, False)
    assert group_constraint(5, -1) == WGroup(2, False)
    assert group_constraint(6, -1) == WGroup(2, False)
    assert group_constraint(6, 1) == WGroup(3, False)
    assert group_constraint(6, 1, k_rational=True) == WGroup(3, True)
    assert group_constraint(6, 1, k_rational=False) == WGroup(3, False)
    with pytest.raises(ValueError):
        group_constraint(2, 1)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_quartic_plus_group():
    # T^4 + 3T^2 + 1 = lift of h = x^2 + x - 1; disc(f) = 2000... check:
    cert = classify(Poly([1, 0, 3, 0, 1]))
    assert cert.status == "Certified"
    assert cert.claimed_group == WGroup(2, True)
    assert cert.epsilon == 1 and cert.n == 2
    assert cert.disc_is_square is True
    assert set(cert.witnesses) >= {1, 2, 3, 4, 5}
    assert 6 not in cert.witnesses
    assert cert.K is not None and cert.K.is_rational


def test_classify_quartic_full_group():
    # lift of h = x^2 - x - 3: f = T^4 - T^3 - T^2 - T + 1
    f = trace_lift(Poly([-3, -1, 1]))
    cert = classify(f)
    assert cert.status == "Certified"
    assert cert.claimed_group == WGroup(2, False)
    assert cert.disc_is_square is False


def test_classify_odd_degree_and_minus_sign():
    h = Poly([-3, -1, 1])
    f = trace_lift(h)
    cert = classify(f * Poly([1, 1]))       # degree 5, eps = +1
    assert cert.N == 5 and cert.epsilon == 1
    if cert.status == "Certified":
        assert cert.claimed_group == WGroup(2, False)
        assert 6 in cert.witnesses
    cert2 = classify(f * Poly([-1, 0, 1]))  # degree 6, eps = -1
    assert cert2.N == 6 and cert2.epsilon == -1
    assert cert2.status == "Certified"
    assert cert2.claimed_group == WGroup(2, False)


def test_classify_rejects_boundary_roots():
    # (1 - T)^2 (1 + T)^2 is reciprocal with eps = 1 but f(1) = 0
    P = Poly([1, 0, -2, 0, 1])
    cert = classify(P)
    assert cert.status == "Rejected"
    assert "boundary root" in cert.reason


def test_classify_error_paths():
    with pytest.raises(NotReciprocalError):
        classify(Poly([1, 2, 3, 4, 5]))
    with pytest.raises(NotSeparableError):
        classify(trace_lift(Poly([1, 1])) ** 2)   # repeated core factor
    with pytest.raises(ValueError):
        classify(Poly([1, 3, 1]))                 # degree too small


def test_classify_refuses_class6_witness_with_square_disc(monkeypatch):
    # disc(T^4 + 3T^2 + 1) is a square, so a class-6 witness is a
    # contradiction; it must raise even under python -O
    monkeypatch.setattr(galclass, "classes_from_degrees",
                        lambda ht, ft: {1, 2, 3, 4, 5, 6})
    with pytest.raises(ArithmeticError):
        classify(Poly([1, 0, 3, 0, 1]))


def test_classify_inconclusive_with_tiny_budget():
    f = trace_lift(Poly([-3, -1, 1]))
    cert = classify(f, prime_budget=4)
    assert cert.status == "Inconclusive"
    assert cert.claimed_group is None
    assert "missing witnesses" in cert.reason


def test_classify_normalizes_scaling():
    f = trace_lift(Poly([-3, -1, 1]))
    scaled = Poly([Fraction(7 * c, 3) for c in f.coeffs])
    cert = classify(scaled)
    assert cert.status == "Certified"
    assert cert.claimed_group == WGroup(2, False)


def test_classify_refuses_a_witness_of_a_ruled_out_class(monkeypatch):
    # h = T^2 - T - 1: disc(f) disc(h) = 125 * 5 is a square, so no
    # good prime has an odd number of even-degree factors (class 5)
    f = trace_lift(Poly([-1, -1, 1]))
    assert classify(f).reason == "missing witnesses for classes [5]"
    monkeypatch.setattr(galclass, "classes_from_degrees", lambda ht, ft: {5})
    with pytest.raises(ArithmeticError, match="class-5 witness"):
        classify(f)


def test_classify_waits_for_every_reachable_class(monkeypatch):
    # once a wanted class is out of reach the scan still records the
    # first witness of every reachable class, as a full scan does
    seen = iter([{4, 5}, set(), {6}])
    monkeypatch.setattr(galclass, "_reachable_classes",
                        lambda *args: frozenset({4, 5, 6}))
    monkeypatch.setattr(galclass, "classes_from_degrees",
                        lambda ht, ft: next(seen))
    cert = classify(trace_lift(Poly([-3, -1, 1])))
    assert cert.reason == "missing witnesses for classes [1, 2, 3]"
    assert cert.witnesses == {4: 5, 5: 5, 6: 11}


def _square_disc_cores(rng, count):
    """Lifts of random h with (-1)^n h(2) h(-2), the square class of
    disc(f), a square."""
    out = []
    while len(out) < count:
        n = rng.randint(2, 4)
        h = Poly([rng.randint(-9, 9) for _ in range(n)] + [1])
        val = (-1) ** n * h(2) * h(-2)
        if val > 0 and is_perfect_square(Fraction(val)) \
                and discriminant(h) != 0:
            out.append(trace_lift(h))
    return out


@functools.lru_cache(maxsize=1)
def _classify_corpus():
    """Seeded classify inputs of every shape the scan treats apart."""
    rng = random.Random(9)

    def rand_h(n):
        return Poly([rng.randint(-5, 5) for _ in range(n)] + [1])

    forced = [Poly([1, 1]), Poly([1, -1]), Poly([1, 0, -1])]
    corpus = [Poly([1, 0, 3, 0, 1]), trace_lift(Poly([-1, -1, 1]))]
    for n in range(1, 7):
        for _ in range(2):
            f = trace_lift(rand_h(n))
            corpus += [f * rng.choice(forced)] if n == 1 else [f]
    corpus += [trace_lift(rand_h(3)) * g for g in forced]
    corpus += [trace_lift(rand_h(2) * rand_h(2)) for _ in range(3)]
    corpus += [trace_lift(Poly([rng.randint(-6, 6), 1]) * rand_h(n))
               for n in (1, 2, 3)]
    corpus += _square_disc_cores(rng, 4)
    # reducible h, whose scans the factorization of h cuts short: h1 h2
    # with a rational root, a root 5/2 (the lift 2T^2 - 5T + 2 splits),
    # T^2 - 5 (lift (T^2 - T - 1)(T^2 + T - 1)) alone and times a cubic,
    # and T^4 - 10T^2 + 1, irreducible but split mod every prime
    corpus += [trace_lift(rand_h(2) * rand_h(3) * Poly([rng.randint(3, 6), 1]))
               for _ in range(2)]
    corpus += [trace_lift(Poly([Fraction(-5, 2), 1]) * rand_h(n))
               for n in (2, 3)]
    corpus += [trace_lift(Poly([-5, 0, 1])),
               trace_lift(Poly([-5, 0, 1]) * rand_h(3)),
               trace_lift(Poly([1, 0, -10, 0, 1]))]
    # reducible h whose scans the discriminants of the factors and their
    # lifts cut short: partners of x^2 - 2, x^2 - 3, x^2 - 5 and x^2 + 1,
    # and a linear factor times a cubic
    corpus += [trace_lift(Poly(p) * rand_h(2))
               for p in ([-2, 0, 1], [-3, 0, 1], [-5, 0, 1], [1, 0, 1])]
    corpus += [trace_lift(Poly([rng.randint(-6, 6), 1]) * rand_h(3))]
    # irreducible quartic h with Gal(h) inside a D4 (D4, C4, D4 with a
    # denominator), whose resolvent cubic has a rational root
    corpus += [trace_lift(Poly([-2, 0, 0, 0, 1])),
               trace_lift(Poly([5, 0, -5, 0, 1])),
               trace_lift(Poly([Fraction(-3, 2), 0, 0, 0, 1]))]
    for q in (5, 7):
        E = lfunc.FqTCurve.from_a_invariants(get_field(q), [0], [-1, -1],
                                             [0], [0, 1], [0])
        for d in (2, 3):
            FQ, rows = lfunc._twist_family(E, d)
            for i in random.Random(10 * q + d).sample(range(len(rows)), 3):
                L = lfunc.l_function(E, Poly(rows[i].tolist(), FQ))
                corpus.append(Poly(L.p_u()))
    return corpus


def _certificates(corpus, budget):
    out = []
    for P in corpus:
        try:
            c = classify(P, prime_budget=budget)
        except (NotSeparableError, ValueError) as exc:
            out.append(type(exc).__name__)
            continue
        out.append((c.status, c.reason, sorted(c.witnesses.items()),
                    c.claimed_group, c.disc_is_square))
    return out


@pytest.mark.parametrize("budget", [4, 100, 257, 3000, 10 ** 4])
def test_classify_stop_rule_matches_a_full_scan(monkeypatch, budget):
    corpus = _classify_corpus()
    got = _certificates(corpus, budget)
    # with every class reachable the scan stops only on the wanted
    # classes, as a scan without the discriminant and resolvent rules does
    monkeypatch.setattr(galclass, "_reachable_classes",
                        lambda *args: frozenset(range(1, 7)))
    monkeypatch.setattr(galclass, "_resolvent_has_root", lambda *args: False)
    want = _certificates(corpus, budget)
    assert got == want
    if budget == 10 ** 4:
        statuses = {c[0] for c in got if isinstance(c, tuple)}
        assert statuses == {"Certified", "Inconclusive", "Rejected"}


def _record_rows(monkeypatch):
    """Record the block size of every one-pass kernel call of classify
    (one per block; it factors f and h together)."""
    rows = []
    inner = galclass._batch_lift_degrees

    def record(int_f, primes):
        rows.append(len(primes))
        return inner(int_f, primes)

    monkeypatch.setattr(galclass, "_batch_lift_degrees", record)
    return rows


def test_classify_stops_early_when_h_is_reducible(monkeypatch):
    # h = (T - 3)(T^2 - 3) never shows class 1, and disc(h) = 432 is no
    # square; factoring h over Q after the first block rules class 1 out
    rows = _record_rows(monkeypatch)
    cert = classify(trace_lift(Poly([-3, 1]) * Poly([-3, 0, 1])))
    assert cert.reason == "missing witnesses for classes [1]"
    assert len(rows) == 1 and sum(rows) <= 32


def test_classify_computes_one_discriminant(monkeypatch):
    # disc(f) comes from disc(h), so the input costs one discriminant,
    # of degree n; a factored h adds those of its rational factors but
    # the largest, whose square class follows from disc(h)
    calls = []

    def counting(f):
        calls.append(f.degree)
        return discriminant(f)

    monkeypatch.setattr(galclass, "discriminant", counting)
    for P, degrees in (
            (trace_lift(Poly([-3, 1]) * Poly([-3, 0, 1])), [1, 3]),
            (trace_lift(Poly([-2, 0, 0, 0, 1])) * Poly([1, 0, -1]), [4]),
            (trace_lift(Poly([-3, -1, 1])), [2]),
            (Poly([Fraction(7, 3), 5, Fraction(7, 3)])
             * Poly([1, 0, 3, 0, 1]), [1, 3])):
        galclass._int_discriminant.cache_clear()
        calls.clear()
        classify(P)
        assert sorted(calls) == degrees
    galclass._int_discriminant.cache_clear()


def test_int_discriminant_of_a_palindrome_is_the_resultant():
    # disc(F) = H(2) H(-2) disc(H)^2 for F = T^n H(T + 1/T), whatever
    # the leading coefficient; other polynomials go to the resultant
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randint(1, 6)
        H = [rng.randint(-9, 9) for _ in range(n)] + [rng.choice([1, -2, 3])]
        F = [int(c) for c in trace_lift(Poly(H)).coeffs]
        galclass._int_discriminant.cache_clear()
        assert galclass._int_discriminant(tuple(F)) \
            == discriminant(Poly(F)), F
        assert galclass._int_trace_form(F) == tuple(H)
    for cs in ([1, 2, 3], [-3, 1, 0, 1], [2, 0, 5, 0, 2, 1]):
        assert galclass._int_discriminant(tuple(cs)) == discriminant(Poly(cs))
    galclass._int_discriminant.cache_clear()


def _reductions_below(int_coeffs, bound):
    primes = primes_up_to(bound)
    primes = primes[primes > 2]
    return list(zip(primes.tolist(), batch_factor_degrees(int_coeffs, primes)))


def test_rational_parts_contain_every_prime():
    # for reducible h the classes of every good prime below 10^5 lie in
    # the set refined by the factorization of h and the relations of the
    # factors' discriminants, and class 1 is not in it; among the h are
    # partners of x^2 - 2, x^2 - 3, x^2 - 5 and x^2 + 1
    rng = random.Random(29)

    def rand_h(n):
        return Poly([rng.randint(-7, 7) for _ in range(n)] + [1])

    hs = [rand_h(2) * rand_h(2), rand_h(1) * rand_h(3), rand_h(2) * rand_h(4),
          rand_h(1) * rand_h(1) * rand_h(2), Poly([-5, 0, 1]) * rand_h(2),
          Poly([Fraction(-5, 2), 1]) * rand_h(3),
          Poly([-3, 1]) * Poly([-3, 0, 1])]
    hs += [Poly(p) * rand_h(2) for p in ([-2, 0, 1], [-3, 0, 1], [1, 0, 1])]
    hs += [rand_h(2) * rand_h(2), rand_h(1) * rand_h(3)]
    checked = 0
    for h in hs:
        f = trace_lift(h)
        if discriminant(f) == 0 or f(1) == 0 or f(-1) == 0:
            continue
        int_f, _ = galclass._clear_denominators(f)
        int_h, _ = galclass._clear_denominators(h)
        rows = [(ell, ft, ht) for (ell, ft), (_, ht) in
                zip(_reductions_below(int_f, 10 ** 5),
                    _reductions_below(int_h, 10 ** 5))]
        parts, relations = galclass._rational_parts(int_f, int_h, rows[:32])
        assert len(parts) >= 2, h
        reachable = galclass._reachable_classes(h.degree, relations, parts)
        assert 1 not in reachable
        for ell, ft, ht in rows:
            if ft is None or ht is None or len(ft) > 8:
                continue
            assert galclass.classes_from_degrees(ht, ft) <= reachable, \
                (h, ell, parts, relations)
        checked += 1
    assert checked >= 10


def _quadratic_products(seed, count):
    """Lifts of count products of two distinct monic irreducible
    quadratics with coefficients in [-5, 5]."""
    rng = random.Random(seed)

    def quadratic():
        while True:
            b, c = rng.randint(-5, 5), rng.randint(-5, 5)
            if not is_perfect_square(Fraction(b * b - 4 * c)):
                return Poly([c, b, 1])

    out = []
    while len(out) < count:
        h1, h2 = quadratic(), quadratic()
        if h1 != h2:
            out.append(trace_lift(h1 * h2))
    return out


def test_full_budget_scans_of_quadratic_products(monkeypatch):
    # a work guard, timing nothing: classify factors the last block of
    # the 10^4 budget (blocks of 32, 224, 448, then the rest) only where
    # no relation of the factors' discriminants settles the scan
    rows = _record_rows(monkeypatch)
    full = 0
    for f in _quadratic_products(53, 40):
        rows.clear()
        classify(f)
        full += len(rows) == 4
    # the one left is (x^2 - 3)(x^2 + 2x - 2), waiting for class 6; the
    # lift T^4 - T^2 + 1 of x^2 - 3 is cyclotomic
    assert full == 1


def test_classify_factors_primes_in_growing_blocks(monkeypatch):
    rows = _record_rows(monkeypatch)
    assert classify(trace_lift(Poly([-3, -1, 1]))).status == "Certified"
    assert 0 < rows[0] <= 32
    # h = T^4 - 5T^2 + 5 has Galois group C4, so no prime shows the
    # patterns of classes 2, 3 and 4; the resolvent rules out class 2
    # alone, so the scan runs through the whole budget
    f = trace_lift(Poly([5, 0, -5, 0, 1]))
    odd = len(primes_up_to(10 ** 4)) - 1
    rows.clear()
    assert classify(f).reason == "missing witnesses for classes [2, 3, 4]"
    assert sum(rows) >= odd - 5 and len(rows) <= 4
    rows.clear()
    classify(f, prime_budget=10 ** 5)
    assert sum(rows) > 9000 and max(rows) <= 2048
    # h = T^4 - 2 has Galois group D4, so no prime shows the degree-3
    # factor of class 2; its resolvent cubic y^3 + 8y has the root 0,
    # which rules class 2 out after the first block
    rows.clear()
    cert = classify(trace_lift(Poly([-2, 0, 0, 0, 1])))
    assert cert.reason == "missing witnesses for classes [2]"
    assert len(rows) == 1 and sum(rows) <= 32


# ---------------------------------------------------------------------------
# Statistics validator
# ---------------------------------------------------------------------------


def test_chebotarev_validator_accepts_and_rejects():
    f = trace_lift(Poly([-3, -1, 1]))        # certified W4 above
    good = chebotarev_validate(f, WGroup(2, False), prime_bound=10 ** 4)
    assert good.passed and good.primes_used >= 100
    assert good.tv_distance <= good.tolerance
    # the wrong index-two claim must fail by a wide margin
    bad = chebotarev_validate(f, WGroup(2, True), prime_bound=10 ** 4)
    assert not bad.passed
    assert bad.tv_distance > 0.2


def test_chebotarev_validator_input_checks():
    f = trace_lift(Poly([-3, -1, 1]))
    with pytest.raises(TypeError):
        chebotarev_validate(f, "W4")              # only a WGroup is a claim
    with pytest.raises(ValueError):
        chebotarev_validate(f, WGroup(3, False))  # degree mismatch
    with pytest.raises(ValueError):
        chebotarev_validate(f, WGroup(2, False), prime_bound=50)  # few primes


def test_wgroup_label():
    assert str(WGroup(3, False)) == "W6" and str(WGroup(3, True)) == "W6+"
    assert str(WGroup(5, False)) == "W10"
    assert WGroup(2, True) == WGroup(2, True) != WGroup(2, False)
    for n in (0, -1):
        with pytest.raises(ValueError):
            WGroup(n, False)


def test_chebotarev_validator_refuses_budget_before_scanning(monkeypatch):
    def no_scan(bound):
        raise AssertionError("primes scanned before the budget check")

    monkeypatch.setattr(galclass, "primes_up_to", no_scan)
    f = trace_lift(Poly([1] * 26))           # degree 50: n = 25 is over budget
    with pytest.raises(BudgetExceededError):
        chebotarev_validate(f, WGroup(25, False))


def test_chebotarev_validator_refuses_large_bound_before_sieving(
        monkeypatch):
    def no_sieve(bound):
        raise AssertionError("sieve allocated before the bound check")

    monkeypatch.setattr(galclass, "primes_up_to", no_sieve)
    f = trace_lift(Poly([-3, -1, 1]))
    with pytest.raises(ValueError, match="overflow the int64 kernel"):
        chebotarev_validate(f, WGroup(2, False), prime_bound=10 ** 10)
    bound = galclass._max_kernel_prime(4)
    with pytest.raises(ValueError, match=f"primes above {bound} "):
        chebotarev_validate(f, WGroup(2, False), prime_bound=bound + 1)


def test_classify_refuses_large_budget_before_sieving(monkeypatch):
    def no_sieve(bound):
        raise AssertionError("sieve allocated before the budget check")

    monkeypatch.setattr(galclass, "primes_up_to", no_sieve)
    f = trace_lift(Poly([-3, -1, 1]))
    with pytest.raises(ValueError, match="overflow the int64 kernel"):
        classify(f, prime_budget=10 ** 10)
    bound = galclass._max_kernel_prime(4)
    with pytest.raises(ValueError, match=f"primes above {bound} "):
        classify(f, prime_budget=bound + 1)


def test_chebotarev_validator_degree_16():
    f = trace_lift(Poly([1, -4, -2, -4, 3, 1, -5, 4, 1]))
    assert classify(f).claimed_group == WGroup(8, False)
    good = chebotarev_validate(f, WGroup(8, False), prime_bound=10 ** 4)
    bad = chebotarev_validate(f, WGroup(8, True), prime_bound=10 ** 4)
    assert good.primes_used == bad.primes_used >= 1000
    assert good.tv_distance + 0.2 <= bad.tv_distance
