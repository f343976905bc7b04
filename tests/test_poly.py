"""Polynomial layer tests: ring identities, division, factorization
reassembly, an independent Sylvester-determinant resultant oracle, and
root-product discriminant checks."""

import random
from fractions import Fraction

import pytest

from orthogal.ffield import get_field, _poly_mul_mod_p, _poly_rem_mod_p
from orthogal.poly import (Poly, factor, factor_degrees, is_irreducible,
                           resultant, discriminant, squarefree_decomposition,
                           poly_from_string, poly_to_string, _resultant_mod)


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
    """Resultant as the Sylvester determinant over Q (oracle)."""
    m, n = f.degree, g.degree
    size = m + n
    rows = []
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    for i in range(n):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in fc]
                    + [Fraction(0)] * (size - m - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in gc]
                    + [Fraction(0)] * (size - n - 1 - i))
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            if rows[r][col]:
                c = rows[r][col] * inv
                rows[r] = [a - c * b for a, b in zip(rows[r], rows[col])]
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
        assert _resultant_mod(a, b, ell) == resultant(pa, pb)


def test_resultant_matches_sylvester_determinant():
    rng = random.Random(23)
    for _ in range(25):
        f = _rand_poly(rng, None, rng.randrange(1, 6), int_range=9)
        g = _rand_poly(rng, None, rng.randrange(1, 6), int_range=9)
        if f.degree < 1 or g.degree < 1:
            continue
        assert Fraction(resultant(f, g)) == _sylvester_det(f, g)


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
