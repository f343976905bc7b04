"""Elliptic curves over F_q(t): reduction typing, trace oracles by naive
point counts, exact L-polynomials with their functional equations, and
the twist-family machinery on a fully pinned degree-one family."""

import random
from dataclasses import replace

import numpy as np
import pytest

from orthogal import ffield, lfunc
from orthogal.errors import BudgetExceededError, NotSeparableError
from orthogal.ffield import get_field
from orthogal.poly import Poly, resultant
from orthogal.signedperm import WGroup
from orthogal.lfunc import (FqTCurve, quadratic_twist, INFINITY,
                            kodaira_table_row, kodaira_at,
                            finite_bad_places, bad_modulus,
                            invariants_Nd_Dd_B, l_function, LPolynomial,
                            enumerate_twists, twist_target_group,
                            survey_delta, _embed_poly, _embedding_table,
                            _symbol_from_valuations, _twist_family)


def _legendre(q=5, e=1):
    """y^2 = x(x - 1)(x - t) in short form, over F_{q^e}."""
    F = get_field(q, e)
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


# (A, B) with each additive Kodaira symbol at the place t = 0; I_n* needs
# 4A^3 + 27B^2 = 108 t^(6+n) + 27 t^(6+2n)
ADDITIVE = {"II": ([0, 1], [0, 1]), "III": ([0, 1], [0, 0, 1]),
            "IV": ([0, 0, 1], [0, 0, 1]), "I0*": ([0, 0, 1], [0, 0, 0, 1]),
            "I1*": ([0, 0, -3], [0, 0, 0, 2, 1]),
            "I2*": ([0, 0, -3], [0, 0, 0, 2, 0, 1]),
            "IV*": ([0, 0, 0, 1], [0, 0, 0, 0, 1]),
            "III*": ([0, 0, 0, 1], [0, 0, 0, 0, 0, 1]),
            "II*": ([0, 0, 0, 0, 1], [0, 0, 0, 0, 0, 1])}


@pytest.mark.parametrize("q", [5, 7])
@pytest.mark.parametrize("symbol", sorted(ADDITIVE))
def test_additive_places_have_zero_trace(symbol, q):
    F = get_field(q)
    A, B = ADDITIVE[symbol]
    finite = kodaira_at(FqTCurve.from_coeff_lists(F, A, B), Poly.x(F))

    def reverse(c, width):
        return (c + [0] * width)[:width][::-1]

    # t^8 A(1/t), t^12 B(1/t) carry the same model to the place at infinity
    at_inf = kodaira_at(FqTCurve.from_coeff_lists(F, reverse(A, 9),
                                                  reverse(B, 13)), INFINITY)
    for pd in (finite, at_inf):
        assert pd.kodaira == symbol
        assert pd.a_v == 0


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


def test_cubic_place_keeps_the_add_tables_small():
    """y^2 = x(x - 1)(x - g) over F_101 with g = 1 + t^2 + t^3: the place
    g is cubic and multiplicative.  Its sign is read in F_101[t]/(g), so
    no table of the residue field F_{101^3} (about 10^6 codes) is built;
    when vadd builds that field's tables, no digit-block add table may
    exceed ADD_TABLE_MAX entries (a two-digit block would make a table
    of 101^4 entries, 832 MB)."""
    F = get_field(101)
    E = FqTCurve.from_a_invariants(F, [0], [-2, 0, -1, -1], [0],
                                   [1, 0, 1, 1], [0])
    fps = {tuple(pd.place.coeffs): pd for pd in finite_bad_places(E)}
    assert fps[(1, 0, 1, 1)].kodaira == "I2"
    assert fps[(1, 0, 1, 1)].a_v == 1
    assert fps[(0, 1)].kodaira == "I4" and fps[(1, 1)].kodaira == "I2"
    K = get_field(101, 3)
    assert K.vadd(np.array([1, K.q - 1]), np.array([K.q - 1, 2])).shape == (2,)
    tables = K._adds
    assert len(tables) == 3
    assert all(t.size <= ffield.ADD_TABLE_MAX for _, t in tables)


def _refuse(*args, **kwargs):
    raise AssertionError("a refused function was called")


def test_degree_nine_place_reads_no_residue_field(monkeypatch):
    """y^2 = x^3 + (t^3 + t + 1) x + (2t + 6) over F_7: Delta is
    irreducible of degree 9, so the curve has one I1 place, whose
    residue field F_{7^9} has 4 * 10^7 codes.  Its sign is chi(-c6) by
    Euler's criterion in F_7[t]/(pi), with no table of that field; it
    equals chi_7 of the norm Res(pi, -c6) = 6, since chi of F_{7^9}
    is chi_7 of the norm."""
    monkeypatch.setattr(lfunc, "_residue_field_and_root", _refuse)
    F = get_field(7)
    E = FqTCurve.from_coeff_lists(F, [1, 1, 0, 1], [6, 2])
    (pd,) = finite_bad_places(E)
    assert (pd.kodaira, pd.degree, pd.a_v) == ("I1", 9, -1)
    norm = resultant(pd.place, -E.c6())
    assert norm == 6 and F.square_class(norm).sign == -1


def _residue_root_chi(g, pi):
    """chi(g(t0)) at the canonical root t0 of pi in its residue field,
    found by evaluating pi at every code: the reference for the sign by
    Euler's criterion."""
    kv, t0 = lfunc._residue_field_and_root(pi.field, pi)
    val = _embed_poly(g, kv)(t0)
    return kv.square_class(val).sign if val else 0


@pytest.mark.parametrize("p,e", [(5, 1), (7, 1), (11, 1), (13, 1), (5, 2),
                                 (7, 2)])
def test_multiplicative_sign_matches_the_residue_root(p, e):
    # seeded curves with deg A <= 2 and deg B <= 3 over F_{p^e}; each
    # multiplicative place of degree <= 3 checks a_v = chi(-c6) and the
    # twist sign chi(u mod pi) against the residue-root path
    F = get_field(p, e)
    rng = random.Random(100 * p + e)
    seen = set()
    for _ in range(40):
        A = Poly([rng.randrange(F.q) for _ in range(3)], F)
        B = Poly([rng.randrange(F.q) for _ in range(4)], F)
        try:
            FqTCurve(F, A, B)
        except ValueError:      # singular model
            continue
        Am, Bm, _, places = lfunc._minimal_model(A, B)
        c6 = lfunc._c4_c6_delta(Am, Bm)[1]
        for pd in places:
            if pd.degree > 3 or not lfunc._is_multiplicative(pd.kodaira):
                continue
            assert pd.a_v == _residue_root_chi(-c6, pd.place)
            u = Poly([rng.randrange(F.q) for _ in range(4)], F)
            assert lfunc._residue_chi(u, pd.place) == \
                _residue_root_chi(u, pd.place)
            seen.add(pd.degree)
    assert seen == {1, 2, 3}


def test_legendre_invariants_pinned():
    E = _legendre()
    assert invariants_Nd_Dd_B(E, 1) == (1, 1, 0)
    assert invariants_Nd_Dd_B(E, 2) == (4, 1, 0)
    assert invariants_Nd_Dd_B(E, 3) == (5, 1, 0)
    assert invariants_Nd_Dd_B(E, 4) == (8, 1, 0)
    with pytest.raises(ValueError):
        invariants_Nd_Dd_B(E, 0)


def test_functional_equation_check_is_exact():
    # coefficients past the middle need Q^(N - 2j) with N - 2j < 0
    L = LPolynomial(coeffs=(1, -8, 42, -392, 2401), N_d=4, epsilon=1, Q=7)
    assert L.functional_equation_holds()
    assert not LPolynomial(L.coeffs, 4, -1, 7).functional_equation_holds()
    assert not LPolynomial((1, -8, 42, -391, 2401), 4, 1,
                           7).functional_equation_holds()
    assert LPolynomial((1, 5), 1, 1, 5).functional_equation_holds()


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


def _grouped_traces_by_j(F, Av, Bv):
    """The reference for lfunc._grouped_traces: one representative per
    j-invariant, found by three branches (j = 0 by the sextic class of
    b, j = 1728 by the quartic class of a, generic j by sorting
    a^3 / (4a^3 + 27b^2)), each member's trace the representative's
    times chi(c) for its twist scalar c."""
    m = F.q - 1
    Av = np.asarray(Av, dtype=np.int64)
    Bv = np.asarray(Bv, dtype=np.int64)
    la = F.vlog(Av)
    lb = F.vlog(Bv)
    out = np.zeros(len(Av), dtype=np.int64)
    rep_a, rep_b, groups = [], [], []    # groups: (members, signs)
    sel = la < 0
    if sel.any():
        idxs = np.nonzero(sel)[0]
        cls = lb[idxs] % 6
        for c in np.unique(cls):
            members = idxs[cls == c]
            rep_a.append(0)
            rep_b.append(int(Bv[members[0]]))
            groups.append((members, np.ones(len(members), dtype=np.int64)))
    sel = (lb < 0) & (la >= 0)
    if sel.any():
        idxs = np.nonzero(sel)[0]
        cls = la[idxs] % 4
        for c in np.unique(cls):
            members = idxs[cls == c]
            rep_a.append(int(Av[members[0]]))
            rep_b.append(0)
            groups.append((members, np.ones(len(members), dtype=np.int64)))
    gen = (la >= 0) & (lb >= 0)
    if gen.any():
        idxs = np.nonzero(gen)[0]
        lag, lbg = la[idxs], lb[idxs]
        a3 = F.vexp((3 * lag) % m)
        w = F.vadd(F.vmul(int(F.from_int(4)), a3),
                   F.vmul(int(F.from_int(27)), F.vexp((2 * lbg) % m)))
        jcode = F.vexp((F.vlog(a3) + (m - F.vlog(w))) % m)
        order = np.argsort(jcode, kind="stable")
        jo = jcode[order]
        starts = np.nonzero(np.concatenate(([True], jo[1:] != jo[:-1])))[0]
        ends = np.concatenate((starts[1:], [len(jo)]))
        for s, e in zip(starts, ends):
            grp = order[s:e]
            r = grp[0]
            # twist scalar c = (b/b0) * (a0/a); chi(c) from log parity
            lc = (lbg[grp] - lbg[r] + lag[r] - lag[grp]) % m
            signs = np.where(lc % 2 == 0, 1, -1).astype(np.int64)
            rep_a.append(int(Av[idxs[r]]))
            rep_b.append(int(Bv[idxs[r]]))
            groups.append((idxs[grp], signs))
    traces = lfunc._fiber_traces(F, rep_a, rep_b)
    for tr, (members, signs) in zip(traces, groups):
        out[members] = int(tr) * signs
    return out


def _nonsingular(F, Av, Bv):
    """The pairs (a, b) with 4 a^3 + 27 b^2 != 0."""
    a3 = F.vmul(F.vmul(Av, Av), Av)
    w = F.vadd(F.vmul(int(F.from_int(4)), a3),
               F.vmul(int(F.from_int(27)), F.vmul(Bv, Bv)))
    return Av[w != 0], Bv[w != 0]


# (p, e, sampled pairs or None for every pair)
GROUPED_CASES = [(5, 1, None), (7, 1, None), (11, 1, None), (13, 1, None),
                 (5, 2, None), (7, 2, None), (5, 3, None), (7, 4, 5000),
                 (11, 3, 5000)]


@pytest.mark.parametrize("p,e,sample", GROUPED_CASES)
def test_grouped_traces_match_the_j_class_oracle(p, e, sample):
    # one trace per twist class by discrete logs, against one per
    # j-invariant and against a direct count of every fiber
    F = get_field(p, e)
    if sample is None:
        Av, Bv = np.divmod(np.arange(F.q * F.q, dtype=np.int64), F.q)
    else:
        rng = np.random.default_rng(F.q)
        Av = rng.integers(0, F.q, sample)
        Bv = rng.integers(0, F.q, sample)
        # j = 0 and j = 1728 rows
        Av[:50], Bv[50:100] = 0, 0
    Av, Bv = _nonsingular(F, Av, Bv)
    got = lfunc._grouped_traces(F, Av, Bv)
    assert np.array_equal(got, _grouped_traces_by_j(F, Av, Bv))
    assert np.array_equal(got, lfunc._fiber_traces(F, Av, Bv))


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


# y^2 = x^3 + a x + b0 + b1 t: Delta is an irreducible quadratic, one I1
# place of degree 2, and the t^d twists for d = 1, 2, 3 are additive at
# infinity
_GENERAL = {5: ([4], [0, 4]), 7: ([5], [6, 5]), 11: ([4], [10, 3])}


def _paths_curve(family, q):
    if q == 25:
        return _legendre(5, 2)
    if family == "legendre":
        return _legendre(q)
    if family == "seeded":      # I0 at infinity for odd d
        return _seeded_curve("legendre", q, 73)
    return FqTCurve.from_coeff_lists(get_field(q), *_GENERAL[q])


def _shared_twist(E, d, rng):
    """A squarefree u of degree d divisible by a bad place of degree at
    most d, or None when there is no such u."""
    F = E.field
    for pd in finite_bad_places(E):
        if pd.degree > d:
            continue
        for _ in range(50):
            rest = Poly([rng.randrange(F.q) for _ in range(d - pd.degree)]
                        + [rng.randrange(1, F.q)], F)
            u = pd.place * rest
            if u.is_squarefree():
                return u
    return None


#: the full count is run while its top level costs Q^(2 N) <= 5^10
PATHS_FULL_MAX = 5 ** 10
# the general curve at q = 11, d = 3 is left out: its twists often need
# level 4 to fix the root number, about 20 s over F_{11^4}
PATHS_CASES = [(family, q, d) for family in ("legendre", "general")
               for q in (5, 7, 11) for d in (1, 2, 3)
               if (family, q, d) != ("general", 11, 3)]
PATHS_CASES += [("seeded", 7, 1), ("seeded", 7, 3), ("legendre", 25, 1)]


@pytest.mark.parametrize("family,q,d", PATHS_CASES)
def test_l_function_paths_agree(family, q, d):
    # fast (shared base traces), generic (explicit twisted model) and
    # full (no functional-equation completion) must agree exactly, for
    # twists with a square and a non-square leading coefficient and one
    # sharing a bad place (which takes the generic path inside l_function)
    E = _paths_curve(family, q)
    F = E.field
    rng = random.Random(100 * q + d)
    FQ, rows = _twist_family(E, d)
    by_sign = {1: [], -1: []}
    for r in rows.tolist():
        by_sign[F.square_class(r[-1]).sign].append(r)
    us = [Poly(rng.choice(by_sign[s]), FQ) for s in (1, -1)]
    shared = _shared_twist(E, d, rng)
    if shared is not None:
        us.append(shared)
    for u in us:
        Eu = quadratic_twist(E, u)
        fast = l_function(E, u)
        generic = l_function(Eu)
        assert fast.coeffs == generic.coeffs
        assert fast.epsilon == generic.epsilon
        N, Q = fast.N_d, fast.Q
        if Q ** (2 * N) <= PATHS_FULL_MAX:
            full = l_function(E, u, full=True)
            assert (full.coeffs, full.epsilon) == (fast.coeffs, fast.epsilon)
        assert fast.inverse_root_abs_error() < 1e-7
        # inverse roots have absolute value Q, so |b_N| = Q^N
        assert abs(fast.coeffs[-1]) == Q ** N
        # infinity data of the t^d twist, its a_v flipped by chi(lc(u)),
        # is the twisted curve's own
        pd = lfunc._infinity_data(E.A, E.B, u.degree)
        assert replace(pd, a_v=F.square_class(u.lc).sign * pd.a_v) == \
            kodaira_at(Eu, INFINITY)
    with pytest.raises(ValueError):
        l_function(E, n=0)


def test_paths_cases_cover_every_infinity_type():
    kinds = set()
    for family, q, d in PATHS_CASES:
        E = _paths_curve(family, q)
        sym = lfunc._infinity_data(E.A, E.B, d).kodaira
        kinds.add("I0" if sym == "I0" else
                  "multiplicative" if lfunc._is_multiplicative(sym)
                  else "additive")
    assert kinds == {"I0", "multiplicative", "additive"}


def test_infinity_recurrence_matches_a_direct_count(monkeypatch):
    # a good fiber at infinity enters S_k by the recurrence on its a_v:
    # against a count of that fiber over F_{q^k}, k = 1..4, for the t^d
    # twist and for its twist by a non-square constant c.  An empty base
    # model leaves only the fiber at infinity in S_k.
    monkeypatch.setattr(lfunc, "_base_fiber_traces", lambda FQ, k, *model:
                        np.zeros(lfunc._extension_field(FQ, k).q, dtype=int))
    checked = 0
    for family, q, d in PATHS_CASES:
        E = _paths_curve(family, q)
        F = E.field
        pd = lfunc._infinity_data(E.A, E.B, d)
        if pd.kodaira != "I0":
            continue
        td = Poly([0] * d + [1], F)
        As, Bs = lfunc._minimalize_at(*lfunc._infinity_model(
            E.A * td * td, E.B * td * td * td), Poly.x(F))
        a0, b0 = As(0), Bs(0)
        c = next(c for c in range(1, F.q) if F.square_class(c).sign < 0)
        twisted = (F.mul(F.mul(c, c), a0), F.mul(F.pow(c, 3), b0),
                   replace(pd, a_v=-pd.a_v))
        for a, b, pdc in ((a0, b0, pd), twisted):
            for k in range(1, 5):
                Fk = lfunc._extension_field(F, k)
                emb = _embedding_table(F, Fk)
                direct = lfunc._fiber_traces(Fk, [emb[a]], [emb[b]])[0]
                assert lfunc._power_sum(F, k, None, None, None, [],
                                        pdc) == direct
        checked += 1
    assert checked >= 2


# (curve, d, first twist, {twist row: pinned (coeffs, epsilon)}): the
# Legendre curve is I2 at infinity for odd d, the seeded one I0, and the
# general curve has a place of degree 2 and is II* at infinity for d = 2
_WARM_CASES = [
    (lambda: _legendre(7), 3, [1, 0, 0, 1], {
        (1, 0, 0, 2): ((1, -3, -7, 49, 1029, -16807), -1),
        (1, 0, 0, 3): ((1, 1, -35, 245, -343, -16807), -1),
        (4, 3, 3, 5): ((1, 5, 14, -98, -1715, -16807), -1),
        (6, 6, 6, 6): ((1, 9, 14, -98, -3087, -16807), -1)}),
    (lambda: _seeded_curve("legendre", 7, 73), 3, [1, 0, 0, 2], {
        (1, 0, 0, 3): ((1, -9, 21, 147, -3087, 16807), 1),
        (5, 3, 3, 1): ((1, 11, 49, 343, 3773, 16807), 1),
        (6, 6, 6, 6): ((1, 3, 42, 294, 1029, 16807), 1)}),
    (lambda: _paths_curve("general", 7), 2, [1, 0, 1], {
        (1, 0, 3): ((1, -3, -28, -147, 2401), 1),
        (1, 0, 4): ((1, 10, 0, -490, -2401), -1),
        (6, 6, 6): ((1, 0, -35, 0, 2401), 1)}),
]


@pytest.mark.parametrize("case", range(len(_WARM_CASES)))
def test_warm_twist_does_no_base_model_work(case, monkeypatch):
    # once one twist of a degree has run, a fast-path twist of that
    # degree reads its model, places and infinity data from the caches:
    # it factors nothing, builds no twisted curve and no residue field
    make, d, first, pinned = _WARM_CASES[case]
    E = make()
    F = E.field
    l_function(E, Poly(first, F))
    for name in ("factor", "kodaira_at", "quadratic_twist",
                 "_residue_field_and_root"):
        monkeypatch.setattr(lfunc, name, _refuse)
    for row, want in pinned.items():
        L = l_function(E, Poly(list(row), F))
        assert (L.coeffs, L.epsilon) == want
    assert {F.square_class(row[-1]).sign for row in pinned} == {1, -1}


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


def _seeded_curve(family, q, seed):
    """A Legendre-type curve y^2 = x(x - a)(x - b) with deg a = deg b = 1,
    or y^2 = x^3 + A x + B with t | A and t || B, so t = 0 is additive
    of type II; coefficients from a seeded generator."""
    F = get_field(q)
    rng = random.Random(seed)
    while True:
        c0, c1 = rng.randrange(q), rng.randrange(q)
        u0, u1 = rng.randrange(1, q), rng.randrange(1, q)
        try:
            if family == "general":
                return FqTCurve.from_coeff_lists(F, [0, c0, u0], [0, u1, c1])
            a, b = Poly([c0, u0], F), Poly([c1, u1], F)
            zero = Poly([0], F)
            return FqTCurve.from_a_invariants(F, zero, -(a + b), zero, a * b,
                                              zero)
        except ValueError as exc:
            if not str(exc).startswith("singular model"):
                raise


def test_seeded_curve_refuses_a_small_characteristic_at_once():
    # only a singular model is redrawn; any other error ends the draw
    with pytest.raises(ValueError, match="characteristic"):
        _seeded_curve("general", 3, seed=1)


def _scalar_twist_rows(E, d, n=1):
    """The twist family by the per-candidate Poly filter, in enumeration
    order: the reference for the batched filter."""
    FQ = E.field if n == 1 else get_field(E.field.p, E.field.e * n)
    Q = FQ.q
    m = _embed_poly(bad_modulus(E), FQ)
    rows = []
    for code in range(Q ** d):
        low = [code // Q ** i % Q for i in range(d)]
        for lead in range(1, Q):
            u = Poly(low + [lead], FQ)
            if u.is_squarefree() and u.gcd(m).degree == 0:
                rows.append(low + [lead])
    return rows


# the general curve at q = 11, d = 4 is left out: its 146,410 scalar
# candidates take about 9 s, and the Legendre curve runs that size; at
# d = q = 5 the candidates c0 + c5 t^5 have u' = 0
TWIST_FAMILY_CASES = [(q, d, family) for q in (5, 7, 11) for d in (1, 2, 3, 4)
                      for family in ("legendre", "general")
                      if (q, d, family) != (11, 4, "general")]
TWIST_FAMILY_CASES.append((5, 5, "legendre"))


@pytest.mark.parametrize("q,d,family", TWIST_FAMILY_CASES)
def test_twist_family_matches_scalar_filter(q, d, family):
    E = _seeded_curve(family, q, seed=10 * q + d)
    FQ, rows = _twist_family(E, d)
    assert FQ == E.field and rows.shape[1] == d + 1
    assert rows.tolist() == _scalar_twist_rows(E, d)
    assert [u.coeffs for u in enumerate_twists(E, d)] == \
        [tuple(r) for r in rows.tolist()]


def test_twist_family_over_extension_field():
    E = _seeded_curve("general", 5, seed=25)
    FQ, rows = _twist_family(E, 2, n=2)
    assert FQ.q == 25
    assert rows.tolist() == _scalar_twist_rows(E, 2, n=2)


def _closed_form_family_size(q, d, place_degrees):
    """(q - 1) [x^d] ((1 - q x^2)/(1 - q x)) / prod (1 + x^deg pi)."""
    series = [1] + [q ** k - (q ** (k - 1) if k >= 2 else 0)
                    for k in range(1, d + 1)]
    for r in place_degrees:
        for k in range(r, d + 1):      # divide by 1 + x^r
            series[k] -= series[k - r]
    return (q - 1) * series[d]


@pytest.mark.parametrize("q", [5, 7, 11])
def test_twist_family_size_closed_form(q):
    for family in ("legendre", "general"):
        for d in (1, 2, 3, 4):
            E = _seeded_curve(family, q, seed=10 * q + d)
            degs = [pd.degree for pd in finite_bad_places(E)]
            assert len(_twist_family(E, d)[1]) == \
                _closed_form_family_size(q, d, degs)
    E = _legendre(q)
    rep = survey_delta(E, 2, sample=1)
    assert rep.family_size == _closed_form_family_size(q, 2, [1, 1])


def test_squarefree_part():
    sf = lfunc._squarefree_part
    assert sf(1) == (1, True)
    assert sf(12) == (3, True)
    assert sf(-18) == (-2, True)
    assert sf(49) == (1, True)
    big_prime = 1000003
    assert sf(4 * big_prime) == (big_prime, True)
    # two primes above the trial bound: the cofactor is left unfactored
    assert lfunc._TRIAL_BOUND < big_prime
    assert sf(big_prime * 1000033) == (big_prime * 1000033, False)


def test_survey_samples_the_enumerated_family():
    E = _legendre()
    rep = survey_delta(E, 2, sample=3, seed=11)
    want = random.Random(11).sample(enumerate_twists(E, 2), 3)
    assert [r.u_coeffs for r in rep.records] == [u.coeffs for u in want]
    assert rep.family_size == 52 and rep.sampled == 3


def test_sampled_survey_builds_only_the_drawn_twists(monkeypatch):
    calls = []
    is_squarefree = Poly.is_squarefree

    def counting(self):
        calls.append(self)
        return is_squarefree(self)

    def no_listing(*args, **kwargs):
        raise AssertionError("the survey listed the whole family")

    monkeypatch.setattr(Poly, "is_squarefree", counting)
    monkeypatch.setattr(lfunc, "enumerate_twists", no_listing)
    rep = survey_delta(_legendre(7), 3, sample=2, seed=3)
    assert rep.sampled == 2 and rep.family_size > 1000
    assert len(calls) <= 2


def test_survey_records_a_non_separable_twist(monkeypatch):
    classify = lfunc.classify
    seen = []

    def patched(P, prime_budget):
        seen.append(P)
        if len(seen) == 2:
            raise NotSeparableError("stripped core has a repeated factor")
        return classify(P, prime_budget=prime_budget)

    monkeypatch.setattr(lfunc, "classify", patched)
    rep = survey_delta(_legendre(), 2, sample=4, seed=0)
    assert len(seen) == rep.sampled == 4
    bad = rep.records[1]
    assert (bad.status, bad.claimed, bad.match) == ("NotSeparable", None,
                                                    False)
    assert rep.confusion[(str(bad.target), "NotSeparable")] == 1
    assert sum(rep.confusion.values()) == 4
    assert all(r.status == "Certified" for i, r in enumerate(rep.records)
               if i != 1)


def test_survey_refuses_the_budget_before_building_the_family(monkeypatch):
    def no_family(*args, **kwargs):
        raise AssertionError("the survey built the twist family")

    monkeypatch.setattr(lfunc, "_twist_family", no_family)
    E = _legendre(7)
    assert invariants_Nd_Dd_B(E, 5)[0] == 9
    # levels 1..5 are needed and 7^10 > 10^8 >= 7^8: the same refusal
    # l_function would give at level 5 of the first twist
    with pytest.raises(BudgetExceededError, match="level 5 fiber count"):
        survey_delta(E, 5, sample=4, budget=10 ** 8)


def test_survey_finds_the_bad_places_once(monkeypatch):
    calls = []
    find = lfunc.finite_bad_places

    def counting(E):
        calls.append(E)
        return find(E)

    monkeypatch.setattr(lfunc, "finite_bad_places", counting)
    rep = survey_delta(_legendre(7), 3, sample=2, seed=3)
    assert rep.sampled == 2 and len(calls) == 1


@pytest.mark.parametrize("q", [5, 7])
def test_completed_l_function_matches_full_count(q):
    # completion by the functional equation against counting every level
    seen = set()
    for seed, E in enumerate([_legendre(q), _seeded_curve("legendre", q, q)]):
        for d in (2, 3):
            FQ, rows = _twist_family(E, d)
            for i in random.Random(10 * seed + d).sample(range(len(rows)), 4):
                u = Poly(rows[i].tolist(), FQ)
                L = l_function(E, u)
                full = l_function(E, u, full=True)
                assert (L.coeffs, L.epsilon) == (full.coeffs, full.epsilon)
                seen.add((L.N_d % 2, L.epsilon))
    assert len(seen) == 4
