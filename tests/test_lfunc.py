"""Elliptic curves over F_q(t): reduction typing, trace oracles by naive
point counts, exact L-polynomials with their functional equations, and
the twist-family machinery on a fully pinned degree-one family."""

import random

import pytest

from orthogal.errors import BudgetExceededError
from orthogal.ffield import get_field
from orthogal.poly import Poly
from orthogal.signedperm import WGroup
from orthogal.lfunc import (FqTCurve, quadratic_twist, INFINITY,
                            kodaira_table_row, kodaira_at,
                            finite_bad_places, bad_modulus,
                            invariants_Nd_Dd_B, l_function,
                            enumerate_twists, twist_target_group,
                            _embedding_table, _symbol_from_valuations)


def _legendre(q=5):
    """y^2 = x(x - 1)(x - t) in short form."""
    F = get_field(q)
    return FqTCurve.from_a_invariants(F, [0], [-1, -1], [0], [0, 1], [0])


# ---------------------------------------------------------------------------
# Kodaira table and symbol resolution
# ---------------------------------------------------------------------------


def test_kodaira_table_rows_pinned():
    assert kodaira_table_row("I0") == (0, 1, 0)
    assert kodaira_table_row("I1") == (1, 1, 0)
    assert kodaira_table_row("I2") == (1, 1, 0)
    assert kodaira_table_row("I3") == (1, 3, 0)
    assert kodaira_table_row("I4") == (1, 2, 0)
    assert kodaira_table_row("II") == (2, 1, 1)
    assert kodaira_table_row("III") == (2, 1, 1)
    assert kodaira_table_row("IV") == (2, 3, 1)
    assert kodaira_table_row("I0*") == (2, 1, 0)
    assert kodaira_table_row("I1*") == (2, 2, 1)
    assert kodaira_table_row("I2*") == (2, 1, 1)
    assert kodaira_table_row("I3*") == (2, 2, 1)
    assert kodaira_table_row("IV*") == (2, 3, 1)
    assert kodaira_table_row("III*") == (2, 1, 1)
    assert kodaira_table_row("II*") == (2, 1, 1)
    with pytest.raises(ValueError):
        kodaira_table_row("V")
    with pytest.raises(ValueError):
        kodaira_table_row("I-1")


def test_symbol_from_valuations_pinned():
    assert _symbol_from_valuations(0, 0) == "I0"
    assert _symbol_from_valuations(0, 3) == "I3"
    assert _symbol_from_valuations(1, 2) == "II"
    assert _symbol_from_valuations(1, 3) == "III"
    assert _symbol_from_valuations(2, 4) == "IV"
    assert _symbol_from_valuations(3, 6) == "I0*"
    assert _symbol_from_valuations(2, 8) == "I2*"
    assert _symbol_from_valuations(3, 8) == "IV*"
    assert _symbol_from_valuations(3, 9) == "III*"
    assert _symbol_from_valuations(4, 10) == "II*"
    with pytest.raises(ValueError):
        _symbol_from_valuations(5, 12)


# ---------------------------------------------------------------------------
# Curve construction
# ---------------------------------------------------------------------------


def test_from_a_invariants_short_form():
    E = _legendre()
    assert list(E.A.coeffs) == [3, 2, 3]
    assert list(E.B.coeffs) == [4, 4, 4, 4]
    # c4 = -48 A, c6 = -864 B, Delta = -64 A^3 - 432 B^2 (all nonzero)
    F = E.field
    assert E.c4() == E.A.scale(F.from_int(-48))
    assert not E.delta().is_zero()
    assert E.j_is_nonconstant()
    with pytest.raises(ValueError):
        FqTCurve.from_coeff_lists(get_field(3), [1], [1])   # p < 5
    with pytest.raises(ValueError):
        FqTCurve.from_coeff_lists(get_field(5), [0], [0])   # singular


def test_quadratic_twist_validation():
    E = _legendre()
    F = E.field
    with pytest.raises(ValueError):
        quadratic_twist(E, Poly([], F))
    with pytest.raises(ValueError):
        quadratic_twist(E, Poly([0, 0, 1], F))   # t^2 not squarefree
    tw = quadratic_twist(E, Poly([2], F))
    assert tw.A == E.A.scale(F.mul(2, 2))


# ---------------------------------------------------------------------------
# Local data of the pinned curve
# ---------------------------------------------------------------------------


def test_legendre_local_data_pinned():
    E = _legendre()
    fps = {tuple(pd.place.coeffs): pd for pd in finite_bad_places(E)}
    assert set(fps) == {(0, 1), (4, 1)}       # t and t - 1
    for pd in fps.values():
        assert pd.kodaira == "I2"
        assert (pd.f_v, pd.gamma_v, pd.b_v) == (1, 1, 0)
        assert pd.a_v == 1                    # split multiplicative
    inf = kodaira_at(E, INFINITY)
    assert inf.kodaira == "I2*"
    assert (inf.f_v, inf.gamma_v, inf.b_v) == (2, 1, 1)
    assert list(bad_modulus(E).coeffs) == [0, 4, 1]


def test_legendre_invariants_pinned():
    E = _legendre()
    assert invariants_Nd_Dd_B(E, 1) == (1, 1, 0)
    assert invariants_Nd_Dd_B(E, 2) == (4, 1, 0)
    assert invariants_Nd_Dd_B(E, 3) == (5, 1, 0)
    assert invariants_Nd_Dd_B(E, 4) == (8, 1, 0)
    with pytest.raises(ValueError):
        invariants_Nd_Dd_B(E, 0)


def _naive_fiber_trace(q, a, b):
    """q + 1 - #E(F_q) for y^2 = x^3 + a x + b by direct counting."""
    sq = {}
    for y in range(q):
        sq.setdefault(y * y % q, 0)
        sq[y * y % q] += 1
    pts = 1    # point at infinity
    for x in range(q):
        rhs = (x * x * x + a * x + b) % q
        pts += sq.get(rhs, 0)
    return q + 1 - pts


def test_good_fiber_traces_against_naive_count():
    for q in (5, 7, 11):
        E = _legendre(q)
        bad = bad_modulus(E)
        for c in range(q):
            pi = Poly([-c, 1], E.field)
            if (bad % pi).is_zero():
                continue
            pd = kodaira_at(E, pi)
            assert pd.kodaira == "I0"
            a = E.A(c)
            b = E.B(c)
            assert pd.a_v == _naive_fiber_trace(q, a, b)
            assert pd.a_v ** 2 <= 4 * q      # Hasse bound


def test_multiplicative_fiber_split_or_nonsplit():
    # a_v at a multiplicative place is +-1; verify against the point
    # count of the singular cubic: #E^ns = q - a_v, affine smooth points
    E = _legendre()
    q = 5
    for pd in finite_bad_places(E):
        c = (-pd.place.coeffs[0]) % q
        a, b = E.A(c), E.B(c)
        # count points on the projective cubic minus the singular point
        sing = None
        for x in range(q):
            if (3 * x * x + a) % q == 0 and (x * x * x + a * x + b) % q == 0:
                sing = x
        assert sing is not None
        pts = 1
        sq = {}
        for y in range(q):
            sq.setdefault(y * y % q, 0)
            sq[y * y % q] += 1
        for x in range(q):
            if x == sing:
                continue
            pts += sq.get((x * x * x + a * x + b) % q, 0)
        assert pts == q - pd.a_v


# ---------------------------------------------------------------------------
# L-functions
# ---------------------------------------------------------------------------


def test_degree_one_family_pinned():
    # the twelve degree-one twists split evenly into L = 1 +- 5T
    E = _legendre()
    us = enumerate_twists(E, 1)
    assert len(us) == 12
    seen = {(1, 5): 0, (1, -5): 0}
    for u in us:
        L = l_function(E, u)
        assert L.N_d == 1 and L.Q == 5
        assert L.coeffs in seen
        seen[L.coeffs] += 1
        assert L.functional_equation_holds()
        assert L.epsilon == L.coeffs[1] // 5
        assert L.inverse_root_abs_error() < 1e-9
    assert seen == {(1, 5): 6, (1, -5): 6}


def test_l_function_paths_agree():
    # fast (shared base traces), generic (explicit twisted model) and
    # full (no functional-equation completion) must agree exactly
    E = _legendre()
    rng = random.Random(1)
    us = enumerate_twists(E, 2)
    assert len(us) == 52
    for u in rng.sample(us, 8):
        fast = l_function(E, u)
        generic = l_function(quadratic_twist(E, u))
        full = l_function(E, u, full=True)
        assert fast.coeffs == generic.coeffs == full.coeffs
        assert fast.epsilon == generic.epsilon == full.epsilon
        assert fast.N_d == 4
        assert fast.inverse_root_abs_error() < 1e-7
        # inverse roots have absolute value Q, so |b_N| = Q^N
        assert abs(fast.coeffs[-1]) == 5 ** 4
    with pytest.raises(ValueError):
        l_function(E, n=0)


def test_l_function_extension_base():
    # base change to F_25: the degree-one twists still satisfy the
    # functional equation with Q = 25
    E = _legendre()
    us = enumerate_twists(E, 1, n=2)
    assert len(us) == 23 * 24        # 23 squarefree coprime monics, 24 leads
    L = l_function(E, us[0], n=2)
    assert L.Q == 25 and L.N_d == 1
    assert L.functional_equation_holds()
    assert abs(L.coeffs[1]) == 25


def test_l_function_budget():
    E = _legendre()
    with pytest.raises(BudgetExceededError):
        l_function(E, enumerate_twists(E, 2)[0], budget=10)


# ---------------------------------------------------------------------------
# Twist families
# ---------------------------------------------------------------------------


def test_enumerate_twists_matches_filter():
    E = _legendre()
    F = E.field
    bad = bad_modulus(E)
    got = {tuple(u.coeffs) for u in enumerate_twists(E, 1)}
    want = set()
    for c0 in range(5):
        for c1 in range(1, 5):
            u = Poly([c0, c1], F)
            if u.is_squarefree() and u.gcd(bad).degree == 0:
                want.add(tuple(u.coeffs))
    assert got == want


def test_twist_target_group():
    assert twist_target_group(5, 1, 1) == WGroup(2, False)
    assert twist_target_group(5, -1, 1) == WGroup(2, False)
    assert twist_target_group(6, -1, 1) == WGroup(2, False)
    assert twist_target_group(4, 1, 1) == WGroup(2, True)   # (-1)^2 * 1
    assert twist_target_group(4, 1, 3) == WGroup(2, False)
    assert twist_target_group(4, 1, 9) == WGroup(2, True)
    assert twist_target_group(6, 1, 1) == WGroup(3, False)  # -1 nonsquare
    assert twist_target_group(6, 1, -4) == WGroup(3, True)


def test_embedding_table_is_a_field_homomorphism():
    for (pa, ea, eb) in [(5, 1, 2), (3, 2, 4), (5, 2, 4)]:
        Fs = get_field(pa, ea)
        Fb = get_field(pa, eb)
        emb = _embedding_table(Fs, Fb)
        assert len(set(int(v) for v in emb)) == Fs.q   # injective
        assert emb[0] == 0 and emb[1] == 1
        for a in range(Fs.q):
            for b in range(0, Fs.q, max(1, Fs.q // 7)):
                assert emb[Fs.add(a, b)] == Fb.add(int(emb[a]), int(emb[b]))
                assert emb[Fs.mul(a, b)] == Fb.mul(int(emb[a]), int(emb[b]))
