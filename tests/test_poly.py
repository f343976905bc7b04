"""Polynomial layer tests: ring identities, division, factorization
reassembly, an independent Sylvester-determinant resultant oracle, and
root-product discriminant checks."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from orthogal.ffield import get_field, _poly_mul_mod_p, _poly_rem_mod_p
from orthogal.poly import (Poly, factor, factor_degrees, is_irreducible,
                           resultant, discriminant, squarefree_decomposition,
                           poly_from_string, poly_to_string)
from orthogal.recpoly import _trace_coeffs, to_trace_form, trace_lift


def _rand_poly(rng, field, deg, int_range=6):
    if field is None:
        return Poly([rng.randrange(-int_range, int_range + 1)
                     for _ in range(deg + 1)])
    return Poly([rng.randrange(field.q) for _ in range(deg + 1)], field)


RINGS = [None, get_field(3), get_field(7), get_field(9 // 3, 2),
         get_field(5, 2)]


@pytest.mark.parametrize("ring", RINGS)
def test_ring_identities(ring):
    rng = random.Random(17)
    for _ in range(25):
        f = _rand_poly(rng, ring, rng.randrange(0, 6))
        g = _rand_poly(rng, ring, rng.randrange(0, 6))
        h = _rand_poly(rng, ring, rng.randrange(0, 6))
        assert (f + g) * h == f * h + g * h
        assert f * g == g * f
        assert (f - g) + g == f
        assert f * (g * h) == (f * g) * h
        assert f ** 3 == f * f * f


@pytest.mark.parametrize("ring", [get_field(3), get_field(7), get_field(5, 2)])
def test_divmod_over_field(ring):
    rng = random.Random(5)
    for _ in range(30):
        f = _rand_poly(rng, ring, rng.randrange(0, 8))
        g = _rand_poly(rng, ring, rng.randrange(1, 5))
        if g.is_zero():
            continue
        q, r = f.divmod(g)
        assert q * g + r == f
        assert r.degree < g.degree


def test_divmod_over_q_with_fractions():
    for f, g in ((Poly([Fraction(1, 2), 0, 1]), Poly([1, 2])),
                 (Poly([3, 1, 4, 1]), Poly([1, 2]))):
        q, r = f.divmod(g)
        assert q * g + r == f
        assert r.degree < 1
    assert r == Poly([Fraction(27, 8)])
    # integral quotients come back as ints
    q, r = Poly([2, 6, 4]).divmod(Poly([1, 2]))
    assert r.is_zero() and [type(c) for c in q.coeffs] == [int, int]


def test_field_coefficients_must_be_integers():
    F = get_field(7)
    for bad in (Fraction(1, 2), 2.9):
        with pytest.raises(TypeError):
            Poly([bad, 1], F)
        with pytest.raises(TypeError):
            Poly.from_int_coeffs([bad, 1], F)
    # integral values of other types, and out-of-range ints, are codes
    assert Poly([Fraction(4, 2), 3.0, True, -1, 9], F) \
        == Poly([2, 3, 1, 6, 2], F)
    assert Poly([-1, 1], get_field(3, 2)) == Poly([2, 1], get_field(3, 2))


@pytest.mark.parametrize("q,e", [(7, 1), (3, 2)])
def test_numpy_integers_are_integers(q, e):
    F = get_field(q, e)
    want = Poly.from_int_coeffs([5, -4, 1], F)
    for cs in ([np.int64(5), np.int64(-4), 1], [np.int32(5), np.int32(-4), 1],
               np.array([5, -4, 1])):
        got = Poly.from_int_coeffs(cs, F)
        assert got == want
        assert all(type(c) is int for c in got.coeffs)
    assert Poly.from_int_coeffs(np.array([5, -4, 1])) == Poly([5, -4, 1])


def test_numpy_integers_do_not_wrap_over_q():
    # 2^62 * 4 = 2^64 does not fit in an int64
    got = Poly([np.int64(2 ** 62), 1]) * Poly([np.int64(4), 1])
    assert got == Poly([2 ** 62, 1]) * Poly([4, 1])
    assert got.coeffs[0] == 2 ** 64
    assert all(type(c) is int for c in Poly(np.array([3, -2, 1])).coeffs)


_INT64_COEFFS = st.lists(st.integers(-2 ** 62, 2 ** 62), min_size=1,
                         max_size=6)
_PROPERTIES = settings(max_examples=80, deadline=None, derandomize=True,
                       database=None)


def _int64_poly(cs):
    return Poly([np.int64(c) for c in cs])


@_PROPERTIES
@given(_INT64_COEFFS, _INT64_COEFFS, _INT64_COEFFS)
def test_int64_coefficients_give_the_int_arithmetic_over_q(f, g, d):
    # d + [1] is a monic divisor, so the quotient stays integral
    for a, b, m in [(Poly(f), Poly(g), Poly(d + [1])),
                    (_int64_poly(f), _int64_poly(g), _int64_poly(d + [1]))]:
        assert a + b == Poly([x + y for x, y in zip(f + [0] * len(g),
                                                     g + [0] * len(f))])
        assert a * b == Poly(f) * Poly(g)
        quo, rem = a.divmod(m)
        assert (quo, rem) == Poly(f).divmod(Poly(d + [1]))
        assert quo * m + rem == Poly(f) and rem.degree < m.degree


@_PROPERTIES
@given(st.sampled_from([(9973, 1), (3, 2)]), _INT64_COEFFS, _INT64_COEFFS,
       st.booleans())
def test_reduction_into_f_q_commutes_with_the_arithmetic(pe, f, g, as_int64):
    F = get_field(*pe)
    a, b = ([np.int64(c) for c in cs] if as_int64 else cs for cs in (f, g))
    total, product = Poly(f) + Poly(g), Poly(f) * Poly(g)
    assert (Poly.from_int_coeffs(total.coeffs, F)
            == Poly.from_int_coeffs(a, F) + Poly.from_int_coeffs(b, F))
    assert (Poly.from_int_coeffs(product.coeffs, F)
            == Poly.from_int_coeffs(a, F) * Poly.from_int_coeffs(b, F))


_REDUCTIONS = st.sampled_from([(3, 1), (2 ** 31 + 11, 1), (5, 2)])


@_PROPERTIES
@given(_REDUCTIONS, _INT64_COEFFS)
def test_reduction_into_f_q_commutes_with_trace_lift(pe, h):
    F = get_field(*pe)
    assume(h[-1] % F.p)        # the reduction keeps the degree of h
    assert (Poly.from_int_coeffs(trace_lift(Poly(h)).coeffs, F)
            == trace_lift(Poly.from_int_coeffs(h, F)))


@_PROPERTIES
@given(_REDUCTIONS, st.lists(st.integers(-2 ** 62, 2 ** 62), min_size=2,
                             max_size=5))
def test_reduction_into_f_q_commutes_with_the_trace_form(pe, half):
    F = get_field(*pe)
    cs = half + half[-2::-1]           # palindromic, of degree 2 (len - 1)
    # coefficient by coefficient: a zero top coefficient mod p is kept
    assert ([F.from_int(c) for c in _trace_coeffs(cs)]
            == _trace_coeffs([F.from_int(c) for c in cs], F))
    monic = [1] + cs[1:-1] + [1]
    assert (Poly.from_int_coeffs(to_trace_form(Poly(monic)).h.coeffs, F)
            == to_trace_form(Poly.from_int_coeffs(monic, F)).h)


@_PROPERTIES
@given(_REDUCTIONS, _INT64_COEFFS, _INT64_COEFFS)
def test_reduction_into_f_q_commutes_with_divmod_and_derivative(pe, f, d):
    F = get_field(*pe)

    def reduce(a):
        return Poly.from_int_coeffs(a.coeffs, F)

    a, monic = Poly(f), Poly(d + [1])
    quo, rem = a.divmod(monic)
    assert (reduce(quo), reduce(rem)) == reduce(a).divmod(reduce(monic))
    assert reduce(a.derivative()) == reduce(a).derivative()


@_PROPERTIES
@given(_REDUCTIONS, _INT64_COEFFS, _INT64_COEFFS)
def test_reduction_into_f_q_commutes_with_resultant_and_discriminant(pe, f,
                                                                     g):
    F = get_field(*pe)
    assume(f[-1] % F.p and g[-1] % F.p)   # both keep their degrees mod p
    fq, gq = Poly.from_int_coeffs(f, F), Poly.from_int_coeffs(g, F)
    assert F.from_int(resultant(Poly(f), Poly(g))) == resultant(fq, gq)
    if len(f) > 1:
        assert F.from_int(discriminant(Poly(f))) == discriminant(fq)


@pytest.mark.parametrize("ring", [get_field(3), get_field(5, 2)])
def test_gcd_divides_and_detects_common_factor(ring):
    rng = random.Random(11)
    for _ in range(20):
        a = _rand_poly(rng, ring, rng.randrange(1, 4))
        b = _rand_poly(rng, ring, rng.randrange(1, 4))
        c = _rand_poly(rng, ring, rng.randrange(1, 3))
        if a.is_zero() or b.is_zero() or c.degree < 1:
            continue
        g = (a * c).gcd(b * c)
        assert g.is_monic()
        assert ((a * c) % g).is_zero()
        assert ((b * c) % g).is_zero()
        assert (g % c.monic()).is_zero()


@pytest.mark.parametrize("q,e", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)])
def test_factor_reassembles_and_is_seed_independent(q, e):
    F = get_field(q, e)
    rng = random.Random(q * 10 + e)
    for _ in range(20):
        f = _rand_poly(rng, F, rng.randrange(1, 8))
        if f.is_zero() or f.degree < 1:
            continue
        unit, facs = factor(f)
        prod = Poly([unit], F)
        for g, m in facs:
            assert g.is_monic()
            assert is_irreducible(g)
            prod = prod * g ** m
        assert prod == f
        assert factor(f, seed=1) == factor(f, seed=99)
        assert factor_degrees(f) == sorted(
            d for g, m in facs for d in [g.degree] * m)


def test_squarefree_decomposition_exponents():
    F = get_field(5)
    f = (Poly([1, 1], F) ** 3) * (Poly([2, 1], F) ** 2) * Poly([1, 1, 1], F)
    parts = dict()
    for g, m in squarefree_decomposition(f):
        parts[m] = parts.get(m, Poly([1], F)) * g
    assert parts[3] == Poly([1, 1], F)
    assert parts[2] == Poly([2, 1], F)
    assert parts[1] == Poly([1, 1, 1], F)


def test_is_irreducible_against_trial_division():
    F = get_field(3)
    # all monic polynomials up to degree 4, factored by trial division
    def monics(d):
        for code in range(3 ** d):
            c, coeffs = code, []
            for _ in range(d):
                coeffs.append(c % 3)
                c //= 3
            yield Poly(coeffs + [1], F)

    small = [g for d in (1, 2) for g in monics(d)]
    for d in (2, 3, 4):
        for f in monics(d):
            has_small = any((f % g).is_zero() for g in small
                            if g.degree <= d // 2)
            assert is_irreducible(f) == (not has_small), f


def _sylvester_det(f, g):
    """Resultant as the Sylvester determinant (oracle), by Gaussian
    elimination on the scalar ops of f.ring: one routine for Q, F_p and
    F_{p^e}.  0 when f or g is zero."""
    if f.is_zero() or g.is_zero():
        return 0
    R = f.ring
    m, n = f.degree, g.degree
    size = m + n
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    rows = ([[0] * i + fc + [0] * (size - m - 1 - i) for i in range(n)]
            + [[0] * i + gc + [0] * (size - n - 1 - i) for i in range(m)])
    det = 1
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = R.neg(det)
        det = R.mul(det, rows[col][col])
        inv = R.inv(rows[col][col])
        for r in range(col + 1, size):
            if rows[r][col]:
                c = R.mul(rows[r][col], inv)
                rows[r] = [R.sub(a, R.mul(c, b))
                           for a, b in zip(rows[r], rows[col])]
    return det


@pytest.mark.parametrize("ell", [3, 9973, 2 ** 31 + 11])
def test_fp_kernel_matches_poly(ell):
    F = get_field(ell)
    rng = random.Random(ell)
    for _ in range(40):
        a = [rng.randrange(ell) for _ in range(rng.randrange(1, 12))]
        b = [rng.randrange(ell) for _ in range(rng.randrange(1, 7))]
        m = b[:-1] + [1]
        c = [rng.randrange(ell) for _ in range(rng.randrange(1, 5))]
        pa, pb, pm, pc = (Poly(u, F) for u in (a, b, m, c))
        assert Poly(_poly_mul_mod_p(a, b, ell), F) == pa * pb
        assert Poly(_poly_mul_mod_p(a, c, ell), F) == pa * pc
        assert Poly(_poly_rem_mod_p(a, m, ell), F) == pa % pm
        assert resultant(pa, pb) == _sylvester_det(pa, pb)


def _rand_coeff(rng, ring, fractions):
    if ring is not None:
        return rng.randrange(ring.q)
    if fractions:
        return Fraction(rng.randrange(-30, 31), rng.randrange(1, 8))
    return rng.randrange(-10 ** 4, 10 ** 4)


def test_resultant_matches_sylvester_determinant():
    """Over Q, F_7 and F_9: degrees 0-12 both ways round, constants,
    Fraction inputs over Q and planted common factors (resultant 0)."""
    rng = random.Random(43)
    for ring in (None, get_field(7), get_field(3, 2)):
        for trial in range(120):
            fractions = ring is None and trial % 3 == 0

            def rand(deg):
                cs = [_rand_coeff(rng, ring, fractions)
                      for _ in range(deg + 1)]
                while not cs[-1]:
                    cs[-1] = _rand_coeff(rng, ring, fractions)
                return Poly(cs, ring)

            f, g = rand(rng.randrange(0, 13)), rand(rng.randrange(0, 13))
            if trial % 4 == 1:
                common = rand(rng.randrange(1, 4))
                f, g = f * common, g * common
            got = resultant(f, g)
            assert got == _sylvester_det(f, g), (f, g)
            if trial % 4 == 1:
                assert got == 0
            if ring is None and not fractions:
                assert type(got) is int


def test_resultant_refuses_mixed_rings():
    f, g = Poly([1, 0, 1]), Poly([3, 1], get_field(7))
    for a, b in ((f, g), (g, f)):
        with pytest.raises(ValueError, match="mixed coefficient rings"):
            resultant(a, b)


def test_resultant_with_the_zero_polynomial_is_zero():
    F7, F9 = get_field(7), get_field(3, 2)
    for f in (Poly([Fraction(1, 2), 1]), Poly([3, 1]), Poly([2, 1], F7),
              Poly([2, 1], F9)):
        zero = Poly([], f.field)
        assert resultant(f, zero) == 0 == resultant(zero, f)


def test_resultant_multiplicativity_and_symmetry():
    rng = random.Random(29)
    for ring in (None, get_field(7), get_field(3, 2)):
        for _ in range(15):
            f = _rand_poly(rng, ring, rng.randrange(1, 5))
            g1 = _rand_poly(rng, ring, rng.randrange(1, 4))
            g2 = _rand_poly(rng, ring, rng.randrange(1, 4))
            if any(h.degree < 1 for h in (f, g1, g2)):
                continue
            lhs = resultant(f, g1 * g2)
            r1, r2 = resultant(f, g1), resultant(f, g2)
            sym = resultant(g1, f)
            if ring is None:
                assert lhs == r1 * r2
                assert sym == (-1) ** (f.degree * g1.degree) * r1
            else:
                F = ring
                assert lhs == F.mul(r1, r2)
                want = F.neg(r1) if (f.degree * g1.degree) % 2 else r1
                assert sym == want


def test_discriminant_from_distinct_roots():
    rng = random.Random(31)
    for _ in range(15):
        roots = rng.sample(range(-10, 11), rng.randrange(2, 6))
        f = Poly([1])
        for r in roots:
            f = f * Poly([-r, 1])
        want = 1
        for i in range(len(roots)):
            for j in range(i + 1, len(roots)):
                want *= (roots[i] - roots[j]) ** 2
        assert discriminant(f) == want


def test_discriminant_small_formulas():
    rng = random.Random(37)
    for _ in range(20):
        a = rng.randrange(1, 6)
        b = rng.randrange(-6, 7)
        c = rng.randrange(-6, 7)
        assert Fraction(discriminant(Poly([c, b, a]))) \
            == Fraction(b * b - 4 * a * c, 1)
        p_, q_ = rng.randrange(-6, 7), rng.randrange(-6, 7)
        assert discriminant(Poly([q_, p_, 0, 1])) == -4 * p_ ** 3 - 27 * q_ ** 2


def test_discriminant_reduction_mod_p():
    rng = random.Random(41)
    for q in (5, 7, 13):
        F = get_field(q)
        for _ in range(10):
            f = _rand_poly(rng, None, rng.randrange(2, 6), int_range=8)
            if f.degree < 2 or f.lc % q == 0:
                continue
            dz = discriminant(f)
            fq = Poly.from_int_coeffs(list(f.coeffs), F)
            assert discriminant(fq) == int(dz) % q
    # p | deg f: f' mod 3 = 2x drops from degree 2 to 1, and the
    # resultant is taken at the formal degree, as over Z
    f = Poly([1, 0, 1, 2])
    assert discriminant(f) == -112
    assert discriminant(Poly.from_int_coeffs(f.coeffs, get_field(3))) == 2


def test_eval_reverse_shift_compose():
    F = get_field(7)
    f = Poly([3, 0, 2, 1], F)
    assert f.eval_int(-1) == f(F.from_int(-1))
    assert f.reverse() == Poly([1, 2, 0, 3], F)
    g = f.shift_compose(2)
    for x in range(7):
        assert g(x) == f(F.add(x, 2))


def test_poly_string_roundtrip():
    f = poly_from_string("1,-3,1")
    assert f == Poly([1, -3, 1])
    assert poly_to_string(f) == "1,-3,1"
    F = get_field(5)
    assert poly_from_string("1,-3,1", F) == Poly([1, 2, 1], F)


def _int_product(factors):
    out = [1]
    for g in factors:
        out = [sum(out[i] * g[k - i] for i in range(len(out))
                   if 0 <= k - i < len(g))
               for k in range(len(out) + len(g) - 1)]
    return out


def _factor_over_z_corpus():
    """Squarefree integer polynomials whose factorization over Z the
    recombination has to find, seeded."""
    from orthogal.galclass import _clear_denominators

    rng = random.Random(23)
    corpus = [[1, 0, -10, 0, 1]]        # irreducible, splits mod every l
    while len(corpus) < 40:             # products of irreducibles, deg 1-6
        degrees = [rng.randint(1, 6) for _ in range(rng.randint(1, 4))]
        if len(corpus) % 4 == 0:        # repeated degrees
            degrees = [degrees[0]] * len(degrees)
        factors = [[rng.randint(-9, 9) for _ in range(k)] + [rng.randint(1, 4)]
                   for k in degrees]
        corpus.append(_int_product(factors))
    for _ in range(6):                  # non-monic, from a monic h over Q
        h = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                  for _ in range(3)] + [1]) * \
            Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 6)), 1])
        corpus.append(_clear_denominators(h)[0])
    for degrees in ((2, 3), (1, 4), (3, 3)):    # beyond int64
        corpus.append(_int_product(
            [[rng.randint(-10 ** 12, 10 ** 12) for _ in range(k)]
             + [rng.randint(1, 10 ** 6)] for k in degrees]))
    return corpus


def test_factor_over_z_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from orthogal.galclass import batch_factor_degrees, primes_up_to
    from orthogal.poly import _factor_over_z

    x = sympy.Symbol("x")
    primes = [int(p) for p in primes_up_to(150) if p > 2]
    checked = 0
    for cs in _factor_over_z_corpus():
        expr = sympy.Poly(list(reversed(cs)), x)
        if sympy.discriminant(expr) == 0:
            continue
        want = []
        for g, mult in sympy.factor_list(expr)[1]:
            g = [int(c) for c in reversed(sympy.Poly(g, x).all_coeffs())]
            want += [g if g[-1] > 0 else [-c for c in g]] * mult
        reductions = [(ell, t) for ell, t in
                      zip(primes, batch_factor_degrees(cs, primes))
                      if t is not None]
        got = _factor_over_z(cs, reductions)
        assert sorted(got) == sorted(want), cs
        checked += 1
    assert checked >= 45
