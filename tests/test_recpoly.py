"""Reciprocal-polynomial layer: stripping, trace-form round trips, the
discriminant identity, the six-class machinery, and the irreducible
bucket counts against a direct enumeration oracle."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from orthogal.errors import NotReciprocalError
from orthogal.ffield import get_field, SQUARE, NONSQUARE
from orthogal.poly import Poly, factor_degrees, is_irreducible, discriminant
from orthogal.recpoly import (strip, reciprocal_sign, to_trace_form,
                              trace_lift, disc_identity, in_P_n, classify_H,
                              classes_from_degrees, in_F_class,
                              count_irreducible_classes,
                              _odd_prime_power, _reachable_classes,
                              _part_patterns, _pattern_classes,
                              _relation_basis, _square_relations)
from orthogal.signedperm import enumerate_W, invariants


def _flags(f_square, h_square, fh_square, parts=1):
    """The relations of square disc(f), disc(h), disc(f) disc(h) where
    flagged, over parts rational factors of h (bit 2i for h_i, bit
    2i + 1 for its lift)."""
    h_bits = sum(1 << 2 * i for i in range(parts))
    return _relation_basis(v for v, on in zip(
        (h_bits << 1, h_bits, 3 * h_bits), (f_square, h_square, fh_square))
        if on)


def _rand_h(rng, field, n, int_range=8):
    if field is None:
        cs = [rng.randrange(-int_range, int_range + 1) for _ in range(n)]
    else:
        cs = [rng.randrange(field.q) for _ in range(n)]
    return Poly(cs + [1], field)


# ---------------------------------------------------------------------------
# reciprocal_sign and strip
# ---------------------------------------------------------------------------


def test_reciprocal_sign_basic():
    assert reciprocal_sign(Poly([1, 3, 1])) == 1
    assert reciprocal_sign(Poly([1, 0, -1])) == -1
    assert reciprocal_sign(Poly([1, 2, 3])) is None
    F = get_field(5)
    assert reciprocal_sign(Poly([1, 3, 1], F)) == 1
    assert reciprocal_sign(Poly([4, 3, 0, 2, 1], F)) == -1


@pytest.mark.parametrize("ring", [None, get_field(5), get_field(3, 2)])
def test_strip_all_parities(ring):
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randrange(1, 4)
        h = _rand_h(rng, ring, n)
        f = trace_lift(h)              # reciprocal, even degree, sign +1
        assert reciprocal_sign(f) == 1

        sp = strip(f * Poly([1, 1], ring))        # odd degree, eps = +1
        assert (sp.epsilon, sp.removed) == (1, "1+T")
        assert sp.f == f and sp.f.is_monic()

        sp = strip(f * Poly([-1, 1], ring))       # odd degree, eps = -1
        assert (sp.epsilon, sp.removed) == (-1, "1-T")
        assert sp.f == f

        sp = strip(f * Poly([-1, 0, 1], ring))    # even degree, eps = -1
        assert (sp.epsilon, sp.removed) == (-1, "1-T^2")
        assert sp.f == f

        if f.degree > 2:
            sp = strip(f)                          # even degree, eps = +1
            assert (sp.epsilon, sp.removed) == (1, "")
            assert sp.f == f
            assert sp.n == f.degree // 2


def test_strip_rejects_non_reciprocal():
    with pytest.raises(NotReciprocalError):
        strip(Poly([1, 2, 3, 4]))
    with pytest.raises(ValueError):
        strip(Poly([1, 3, 1]))   # degree must exceed 2


# ---------------------------------------------------------------------------
# Trace forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("ring", [None, get_field(3), get_field(7),
                                  get_field(5, 2)])
def test_trace_form_roundtrip(ring):
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randrange(1, 8)
        h = _rand_h(rng, ring, n)
        f = trace_lift(h)
        assert f.degree == 2 * n and f.is_monic()
        assert reciprocal_sign(f) == 1
        assert to_trace_form(f).h == h


def test_trace_lift_agrees_with_substitution():
    # f(a) = a^n h(a + 1/a) for every invertible a
    F = get_field(11)
    rng = random.Random(3)
    for _ in range(10):
        h = _rand_h(rng, F, rng.randrange(1, 5))
        f = trace_lift(h)
        n = h.degree
        for a in range(1, 11):
            lhs = f(a)
            rhs = F.mul(F.pow(a, n), h(F.add(a, F.inv(a))))
            assert lhs == rhs


def _lift_by_powers(h):
    """T^n h(T + 1/T) summed from Poly powers T^(n-k) (T^2 + 1)^k: the
    reference for the binomial expansion of trace_lift."""
    F, n = h.field, h.degree
    out = Poly([], F)
    for k, c in enumerate(h.coeffs):
        basis = Poly([0] * (n - k) + [1], F) * Poly([1, 0, 1], F) ** k
        out = out + basis.scale(c)
    return out


@pytest.mark.parametrize("ring", [None, get_field(5), get_field(3, 2)])
def test_trace_form_matches_the_power_expansion(ring):
    rng = random.Random(31)
    for _ in range(30):
        h = _rand_h(rng, ring, rng.randrange(1, 9))
        if ring is None and rng.random() < 0.5:   # rational coefficients
            h = Poly([Fraction(c, rng.randint(1, 6)) for c in h.coeffs[:-1]]
                     + [1])
        f = _lift_by_powers(h)
        assert trace_lift(h) == f
        assert to_trace_form(f).h == h


def test_to_trace_form_rejects_bad_inputs():
    with pytest.raises(NotReciprocalError):
        to_trace_form(Poly([1, 2, 3]))       # odd degree
    with pytest.raises(NotReciprocalError):
        to_trace_form(Poly([1, 0, 2]))       # not monic
    with pytest.raises(NotReciprocalError):
        to_trace_form(Poly([2, 0, 1]))       # not reciprocal


@pytest.mark.parametrize("ring", [None, get_field(5), get_field(13),
                                  get_field(3, 2)])
def test_disc_identity(ring):
    rng = random.Random(19)
    for _ in range(25):
        h = _rand_h(rng, ring, rng.randrange(1, 6))
        f = trace_lift(h)
        lhs, rhs, cross = disc_identity(f)
        if ring is None:
            lhs, rhs, cross = Fraction(lhs), Fraction(rhs), Fraction(cross)
        assert lhs == rhs == cross


# ---------------------------------------------------------------------------
# The six classes
# ---------------------------------------------------------------------------


def test_in_P_n():
    F = get_field(5)
    assert in_P_n(Poly([1, 1], F))
    assert not in_P_n(Poly([3, 1], F))          # h(2) = 0
    assert not in_P_n(Poly([2, 1], F))          # h(-2) = 0
    assert not in_P_n(Poly([1, 2, 1], F))       # (T+1)^2 not separable
    assert not in_P_n(Poly([2, 2], F))          # not monic


def test_classes_from_degrees_pinned():
    # n = 1 special case: classes 1..5 always; 6 iff the lift stays prime
    assert classes_from_degrees([1], [1, 1]) == {1, 2, 3, 4, 5}
    assert classes_from_degrees([1], [2]) == {1, 2, 3, 4, 5, 6}
    # h irreducible of degree n = 4 (class 1); f = two quadratics: the
    # even count is 2+2 -> odd total evens in h+f would be 2, not class 5
    assert 1 in classes_from_degrees([4], [4, 4])
    # a 2-cycle next to odd cycles: class 3
    assert 3 in classes_from_degrees([1, 2], [1, 1, 2, 2])
    # prime cycle longer than n/2: class 2
    assert 2 in classes_from_degrees([1, 3], [1, 1, 3, 3])
    # all-odd h degrees with one or two quadratics in f: class 4
    assert 4 in classes_from_degrees([1, 1, 1], [1, 1, 2, 2])
    # odd number of even degrees across h and f: class 5
    assert 5 in classes_from_degrees([1, 2], [2, 4])
    # exactly one quadratic in f, rest odd: class 6
    assert 6 in classes_from_degrees([1, 1], [1, 1, 2])


def test_classify_H_matches_direct_definition():
    # classify_H must agree with classes_from_degrees applied to the
    # directly computed factor degree multisets
    for q in (5, 7):
        F = get_field(q)
        for n in (1, 2):
            for code in range(q ** n):
                cs, c = [], code
                for _ in range(n):
                    cs.append(c % q)
                    c //= q
                h = Poly(cs + [1], F)
                got = classify_H(h)
                if not in_P_n(h):
                    assert got == set()
                    continue
                f = trace_lift(h)
                assert got == classes_from_degrees(factor_degrees(h),
                                                   factor_degrees(f))


@pytest.mark.parametrize("ell", [3, 5, 7])
def test_reachable_classes_contain_every_reduction(ell):
    # Stickelberger: at a good prime every h in P_n shows only classes
    # the helper allows for its actual Legendre symbols
    F = get_field(ell)
    for n in (1, 2, 3, 4):
        for code in range(ell ** n):
            cs, c = [], code
            for _ in range(n):
                cs.append(c % ell)
                c //= ell
            h = Poly(cs + [1], F)
            if not in_P_n(h):
                continue
            chi_h = F.square_class(discriminant(h)).sign
            chi_f = F.square_class(discriminant(trace_lift(h))).sign
            allowed = _reachable_classes(n, _flags(chi_f == 1, chi_h == 1,
                                                   chi_f * chi_h == 1))
            assert classify_H(h) <= allowed, (ell, h)


@pytest.mark.parametrize("n", range(1, 9))
def test_reachable_classes_follow_the_parities(n):
    every = frozenset(range(1, 7))
    assert _reachable_classes(n, _flags(False, False, False)) == every
    # a square disc(f) leaves an even number of even f-factors
    assert 6 not in _reachable_classes(n, _flags(True, False, False))
    # a square disc(f) disc(h): class 5 needs an odd number of even
    # factors across h and f, except for n = 1, where every h shows it
    assert (5 in _reachable_classes(n, _flags(False, False, True))) \
        == (n == 1)
    assert 6 not in _reachable_classes(n, _flags(False, False, True))
    # a square disc(h): no single quadratic h-factor, and h irreducible
    # only for odd n
    assert 3 not in _reachable_classes(n, _flags(False, True, False)) \
        or n == 1
    assert (1 in _reachable_classes(n, _flags(False, True, False))) \
        == (n % 2 == 1)


@pytest.mark.parametrize("d", range(1, 5))
def test_parity_bits_are_the_signatures_of_w2d(d):
    """The patterns of _part_patterns are the cycle types of W_{2d} on
    the d pairs and on the 2d symbols, and the parity bits are its
    signatures: bit 0 for eps2 = -1, bit 1 for eps1 = -1."""
    seen = set()
    for g in enumerate_W(d):
        inv = invariants(g)
        if len(inv.cycle_type_X) <= 8:
            seen.add((tuple(sorted(inv.cycle_type_pairs)),
                      tuple(sorted(inv.cycle_type_X)),
                      (inv.eps2 == -1) | (inv.eps1 == -1) << 1))
    # each pattern once
    patterns = [(tuple(sorted(ks)), tuple(sorted(fs)), bits)
                for ks, fs, bits in _part_patterns(d, False)]
    assert sorted(patterns) == sorted(seen)


@pytest.mark.parametrize("n", [16, 24])
def test_reachable_classes_leave_the_pattern_cache_alone(n):
    """A walk visits thousands of pattern pairs once each; it must not
    evict the pairs that the per-prime loop of classify reuses."""
    classes_from_degrees((3, 1), (3, 3, 2))
    before = _pattern_classes.cache_info()
    _reachable_classes.__wrapped__(n, (0b10,))
    after = _pattern_classes.cache_info()
    assert after.currsize == before.currsize
    assert after.misses == before.misses


def test_in_F_class_consistency():
    F = get_field(7)
    rng = random.Random(23)
    for _ in range(40):
        h = _rand_h(rng, F, rng.randrange(1, 4))
        f = trace_lift(h)
        classes = classify_H(h)
        a = F.square_class(f.eval_int(1))
        b = F.square_class(f.eval_int(-1))
        for i in range(1, 7):
            if a.tag == "Zero" or b.tag == "Zero":
                continue
            want = (i in classes) and len(factor_degrees(f)) <= 8
            assert in_F_class(f, i, a, b) == want
            other = NONSQUARE if a == SQUARE else SQUARE
            assert not in_F_class(f, i, other, b)


def test_lift_dichotomy_small_exhaustive():
    # h irreducible with h(2)h(-2) != 0: the lift f is irreducible of
    # degree 2n exactly when h(2)h(-2) is a nonsquare, else it splits
    # into two irreducible factors of degree n
    for q in (3, 5):
        F = get_field(q)
        for n in (1, 2, 3):
            for code in range(q ** n):
                cs, c = [], code
                for _ in range(n):
                    cs.append(c % q)
                    c //= q
                h = Poly(cs + [1], F)
                if not is_irreducible(h):
                    continue
                val = F.mul(h.eval_int(2), h.eval_int(-2))
                if val == 0:
                    continue
                f = trace_lift(h)
                degs = factor_degrees(f)
                if F.square_class(val) == NONSQUARE:
                    assert degs == [2 * n]
                else:
                    assert degs == [n, n]


# ---------------------------------------------------------------------------
# Irreducible bucket counts
# ---------------------------------------------------------------------------


_BUCKETS = [("Square", "Square"), ("Square", "NonSquare"),
            ("NonSquare", "Square"), ("NonSquare", "NonSquare")]


def count_irreducible_classes_direct(q: int, m: int) -> dict:
    """Independent oracle: enumerate all monic degree-m polynomials over
    F_q directly, test irreducibility, and bucket.  Exponential in m;
    intended for cross-checks on small cells."""
    p, e = _odd_prime_power(q)
    F = get_field(p, e)
    counts = {k: 0 for k in _BUCKETS}
    for code in range(q ** m):
        c = code
        coeffs = []
        for _ in range(m):
            coeffs.append(c % q)
            c //= q
        h = Poly(coeffs + [1], F)
        a, b = h.eval_int(2), h.eval_int(-2)
        if a == 0 or b == 0:
            continue
        if not is_irreducible(h):
            continue
        counts[(F.square_class(a).tag, F.square_class(b).tag)] += 1
    return counts


@pytest.mark.parametrize("q,m", [(3, 1), (5, 1), (7, 1), (9, 1),
                                 (3, 2), (5, 2), (7, 2), (9, 2),
                                 (3, 3), (5, 3), (3, 4), (3, 6), (7, 4),
                                 (25, 2), (27, 2)])
def test_count_irreducible_classes_vs_direct(q, m):
    table = count_irreducible_classes(q, m)
    direct = count_irreducible_classes_direct(q, m)
    assert table.counts == direct
    assert table.total == sum(direct.values())
    for key, c in table.counts.items():
        assert table.deviations[key] == abs(4 * m * c - q ** m)


def test_count_irreducible_classes_budget():
    from orthogal.errors import BudgetExceededError
    with pytest.raises(BudgetExceededError):
        count_irreducible_classes(13, 9, budget=10 ** 6)


def _monic_polys(F, n):
    for code in range(F.q ** n):
        cs, c = [], code
        for _ in range(n):
            cs.append(c % F.q)
            c //= F.q
        yield Poly(cs + [1], F)


@pytest.mark.parametrize("ell", [3, 5])
def test_reachable_classes_of_a_product_contain_every_reduction(ell):
    # h = h1 h2 over F_l shows only classes allowed for the parts
    # (deg h_i, lift of h_i split), where "split" means each factor of
    # h_i lifts to two of its own degree, as a split lift over Q forces
    F = get_field(ell)

    def part(g):
        doubled = sorted(k for k in factor_degrees(g) for _ in (0, 1))
        return g.degree, factor_degrees(trace_lift(g)) == doubled

    for n in (2, 3, 4):
        for d1 in range(1, n // 2 + 1):
            for h1 in _monic_polys(F, d1):
                for h2 in _monic_polys(F, n - d1):
                    h = h1 * h2
                    if not in_P_n(h):
                        continue
                    chi_h = F.square_class(discriminant(h)).sign
                    chi_f = F.square_class(
                        discriminant(trace_lift(h))).sign
                    allowed = _reachable_classes(
                        n, _flags(chi_f == 1, chi_h == 1,
                                  chi_f * chi_h == 1, parts=2),
                        tuple(sorted((part(h1), part(h2)))))
                    assert classify_H(h) <= allowed, (ell, h1, h2)


def _is_square(v):
    return v > 0 and math.isqrt(v) ** 2 == v


def test_square_relations_are_the_square_subsets():
    # the span of the relations is exactly the set of subsets whose
    # product is a rational square, with squares, signs, repeats and
    # shared factors
    rng = random.Random(37)
    lists = [[2, 8, 3, 6], [-1, -4, 9, 5], [12, 18, 75, -3, 1], [7, 7, 7]]
    lists += [[rng.choice([-1, 1]) * rng.randint(1, 60)
               for _ in range(rng.randint(1, 7))] for _ in range(40)]
    for values in lists:
        basis = _square_relations(values)
        span = {0}
        for r in basis:
            span |= {v ^ r for v in span}
        assert len(span) == 2 ** len(basis)
        square = {mask for mask in range(1 << len(values))
                  if _is_square(math.prod(v for j, v in enumerate(values)
                                          if mask >> j & 1))}
        assert span == square, values
        assert _square_relations(values) == basis
    with pytest.raises(ValueError):
        _square_relations([3, 0])


def test_relation_basis_is_canonical():
    rng = random.Random(41)
    for _ in range(50):
        vecs = [rng.randrange(1, 64) for _ in range(rng.randint(1, 5))]
        basis = _relation_basis(vecs)
        mixed = [vecs[0] ^ v for v in vecs[1:]] + [vecs[0]]
        rng.shuffle(mixed)
        assert _relation_basis(mixed) == basis
        leads = [b.bit_length() - 1 for b in basis]
        assert all(not b >> t & 1 for b in basis for t in leads
                   if t != b.bit_length() - 1)


@pytest.mark.parametrize("ell", [3, 5])
def test_reachable_classes_of_the_factor_symbols_contain_the_reduction(ell):
    # h = h1 h2 (h3) over F_l: with the Legendre symbols of disc(h_i)
    # and h_i(2) h_i(-2) as relations, classify_H(h) is reachable
    F = get_field(ell)

    def part(g):
        doubled = sorted(k for k in factor_degrees(g) for _ in (0, 1))
        symbols = (F.square_class(discriminant(g)).sign,
                   F.square_class(F.mul(g.eval_int(2), g.eval_int(-2))).sign)
        return (g.degree, factor_degrees(trace_lift(g)) == doubled), symbols

    shapes = [(1, 1), (1, 2), (1, 3), (2, 2), (1, 1, 2)]
    checked = 0
    for shape in shapes:
        for hs in itertools.product(*(list(_monic_polys(F, d))
                                      for d in shape)):
            h = math.prod(hs[1:], start=hs[0])
            if not in_P_n(h):
                continue
            pairs = sorted(part(g) for g in hs)
            relations = _square_relations(
                [v for _, symbols in pairs for v in symbols])
            allowed = _reachable_classes(
                h.degree, relations, tuple(p for p, _ in pairs))
            assert classify_H(h) <= allowed, (ell, hs)
            checked += 1
    assert checked


def test_reachable_classes_refine_by_rational_factors():
    every = frozenset(range(1, 7))
    assert _reachable_classes(4, (), ((4, False),)) == every
    # two quadratic factors: no class 1, and no degree-3 factor (class 2)
    assert _reachable_classes(4, (), ((2, False), (2, False))) \
        == {3, 4, 5, 6}
    # ... and with split lifts every f-pattern is doubled
    assert _reachable_classes(4, (), ((2, True), (2, True))) == {3, 5}
    for n in range(2, 9):
        for flags in itertools.product((False, True), repeat=3):
            whole = _reachable_classes(n, _flags(*flags))
            for d in range(1, n // 2 + 1):
                for lifts in itertools.product((False, True), repeat=2):
                    parts = tuple(sorted(zip((d, n - d), lifts)))
                    refined = _reachable_classes(
                        n, _flags(*flags, parts=2), parts)
                    assert refined <= whole and 1 not in refined
    with pytest.raises(ValueError):
        _reachable_classes(4, (), ((1, False), (2, False)))
