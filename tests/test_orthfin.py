"""Orthogonal groups over F_q: order formulas vs enumeration, spinor
norms against the reflection-factorization oracle, batched group tables
vs per-element computation, and class densities against a full
brute-force census of the group."""

import functools
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice, product as iter_product

import numpy as np
import pytest

from orthogal.errors import BudgetExceededError, NotReciprocalError, \
    NotSeparableError
from orthogal.ffield import get_field, SQUARE, NONSQUARE
from orthogal import galclass, orthfin
from orthogal.poly import Poly, factor, factor_degrees
from orthogal.recpoly import (strip, to_trace_form, classify_H, trace_lift,
                              in_P_n, classes_from_degrees)
from orthogal.orthfin import (OrthSpace, OrthElem, CosetLabel, ALL_COSETS,
                              enumerate_O, reflection, spinor_norm,
                              coset_label, identity_elem, class_proportion,
                              c_i_density, random_element)


def _reflection_factorization_spin(A: OrthElem):
    """Spinor norm and determinant via an explicit reflection
    factorization: the oracle for the Zassenhaus formula in the package.

    Processes the orthogonal basis vectors in order; each step composes
    with one or two reflections that move A e_k to e_k while fixing the
    previously handled basis vectors.  The product of the <v,v> of the
    used reflection vectors represents the spinor norm; the parity of
    their number is the determinant.
    """
    V = A.space
    F = V.field
    N = V.N
    cur = A
    spin_rep = 1
    count = 0
    for k in range(N):
        e_k = tuple(1 if i == k else 0 for i in range(N))
        y = cur.apply(e_k)
        if y == e_k:
            continue
        w = tuple(F.sub(yi, xi) for yi, xi in zip(y, e_k))
        ww = V.inner(w, w)
        if ww != 0:
            r = reflection(V, w)
            cur = r * cur
            spin_rep = F.mul(spin_rep, ww)
            count += 1
        else:
            u = tuple(F.add(yi, xi) for yi, xi in zip(y, e_k))
            uu = V.inner(u, u)
            r_u = reflection(V, u)
            r_x = reflection(V, e_k)
            cur = r_x * (r_u * cur)
            spin_rep = F.mul(spin_rep, F.mul(uu, V.inner(e_k, e_k)))
            count += 2
    if cur != identity_elem(V):
        raise RuntimeError("reflection factorization failed")
    return F.square_class(spin_rep) if spin_rep else SQUARE, (-1) ** count


@lru_cache(maxsize=None)
def _table(q, N, disc):
    """enumerate_O of the canonical space, once per (q, N, disc)."""
    return enumerate_O(OrthSpace.canonical(get_field(q), N, disc))


def _restarting_closure(V):
    """O(V) as the enumeration computed it before the layered closure:
    a closure from the identity over the first 2N + 2 candidate
    reflections, restarted from scratch with 4 more reflections until
    it reaches the order formula, with one bytes key per matrix.  The
    oracle for enumerate_O."""
    p, N = V.q, V.N
    if N == 1:
        return np.array([[[1]], [[p - 1]]], dtype=np.int64)
    target = V.order_O()
    stream = orthfin._candidate_reflection_vectors(V)
    gens = [np.array(reflection(V, v).matrix, dtype=np.int64)
            for v in islice(stream, 2 * N + 2)]

    def closure(generators):
        eye = np.eye(N, dtype=np.int64)
        seen = {eye.tobytes()}
        mats = [eye]
        frontier = eye[None, :, :]
        gstack = np.stack(generators)
        while len(frontier):
            prod = np.einsum("fij,gjk->fgik", frontier, gstack) % p
            new = []
            for m in prod.reshape(-1, N, N):
                if m.tobytes() not in seen:
                    seen.add(m.tobytes())
                    new.append(m)
            if not new:
                break
            frontier = np.stack(new)
            mats.extend(new)
        return mats

    while True:
        mats = closure(gens)
        if len(mats) == target:
            return np.stack(mats)
        gens += [np.array(reflection(V, next(stream)).matrix, dtype=np.int64)
                 for _ in range(4)]


def _check_orthogonal(mats, V):
    """A^T G A = G (mod p) for every matrix A of the stack at once."""
    g = np.array(V.gram, dtype=np.int64)
    forms = np.einsum("aji,j,ajk->aik", mats, g, mats) % V.q
    assert (forms == np.diag(g)).all()


# ---------------------------------------------------------------------------
# Spaces
# ---------------------------------------------------------------------------


def test_canonical_space_and_disc():
    F = get_field(5)
    V = OrthSpace.canonical(F, 3, SQUARE)
    assert V.gram == (1, 1, 1) and V.disc() == SQUARE
    W = OrthSpace.canonical(F, 3, NONSQUARE)
    assert W.disc() == NONSQUARE
    assert W.gram[-1] == 2          # least nonsquare mod 5
    with pytest.raises(ValueError):
        OrthSpace(F, (1, 0, 1))


@pytest.mark.parametrize("N", [0, -1, -4])
def test_non_positive_dimension_is_rejected(N):
    F = get_field(5)
    with pytest.raises(ValueError):
        OrthSpace.canonical(F, N, SQUARE)
    with pytest.raises(ValueError):
        OrthSpace.canonical(F, N, NONSQUARE)
    with pytest.raises(ValueError):
        OrthSpace(F, ())


def test_is_split():
    F = get_field(5)
    # (-1)^(N/2) for N = 2 is -1, a square mod 5
    assert OrthSpace.canonical(F, 2, SQUARE).is_split()
    assert not OrthSpace.canonical(F, 2, NONSQUARE).is_split()
    F3 = get_field(3)
    # -1 is a nonsquare mod 3
    assert not OrthSpace.canonical(F3, 2, SQUARE).is_split()
    assert OrthSpace.canonical(F3, 2, NONSQUARE).is_split()
    with pytest.raises(ValueError):
        OrthSpace.canonical(F, 3, SQUARE).is_split()


@pytest.mark.parametrize("q", [3, 5, 7])
@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("disc", [SQUARE, NONSQUARE])
def test_order_formula_matches_enumeration(q, N, disc):
    V = OrthSpace.canonical(get_field(q), N, disc)
    if V.order_O() > 2 * 10 ** 5:
        pytest.skip("kept small here; the acceptance suite goes further")
    table = enumerate_O(V)
    assert len(table) == V.order_O()
    _check_orthogonal(table.mats, V)


def test_enumerate_budget_and_prime_restriction():
    F = get_field(7)
    with pytest.raises(BudgetExceededError):
        enumerate_O(OrthSpace.canonical(F, 5, SQUARE), budget=1000)
    F9 = get_field(3, 2)
    with pytest.raises(ValueError):
        enumerate_O(OrthSpace.canonical(F9, 2, SQUARE))


_SMALL_SPACES = [(q, N, disc) for q in (3, 5, 7) for N in (1, 2, 3, 4)
                 for disc in (SQUARE, NONSQUARE)
                 if OrthSpace.canonical(get_field(q), N, disc).order_O()
                 <= 40000]


@pytest.mark.parametrize("q,N,disc", _SMALL_SPACES + [
    (101, 2, SQUARE), (101, 2, NONSQUARE), (1009, 2, SQUARE),
    (1009, 2, NONSQUARE), (13, 3, SQUARE),
    (55109, 2, SQUARE)])         # p^4 > 2^63: keys of two int64 words
def test_enumeration_matches_the_restarting_closure(q, N, disc):
    V = OrthSpace.canonical(get_field(q), N, disc)
    mats = enumerate_O(V).mats
    assert (mats[0] == np.eye(N, dtype=np.int64)).all()
    rows = mats.reshape(len(mats), -1)
    rows = rows[np.lexsort(rows.T[::-1])]
    assert (rows[1:] != rows[:-1]).any(axis=1).all()
    want = _restarting_closure(V).reshape(len(mats), -1)
    assert (rows == want[np.lexsort(want.T[::-1])]).all()
    _check_orthogonal(mats, V)


def _non_involution(V, v):
    """r_{e_1} r_v: orthogonal, but not an involution unless r_v
    commutes with r_{e_1}."""
    e1 = (1,) + (0,) * (V.N - 1)
    return reflection(V, e1) * reflection(V, v)


@pytest.mark.parametrize("q,N", [(3, 2), (5, 2), (3, 3), (5, 3), (3, 4)])
def test_enumeration_rejects_generators_that_are_not_involutions(
        monkeypatch, q, N):
    # the two-layer dedup is sound only for involutions; with other
    # generators the closure repeats or misses elements, and it must
    # raise instead of returning a table
    monkeypatch.setattr(orthfin, "reflection", _non_involution)
    with pytest.raises(RuntimeError):
        enumerate_O(OrthSpace.canonical(get_field(q), N, SQUARE))


@pytest.mark.parametrize("q,N,disc", [(5, 4, SQUARE), (3, 4, NONSQUARE),
                                      (7, 3, SQUARE)])
def test_every_generator_enlarges_the_subgroup(monkeypatch, q, N, disc):
    # a reflection already in the subgroup is skipped, not added as a
    # generator, so every closure step grows the group
    close = orthfin._extend_closure
    sizes = []

    def record(H, H_keys, gens, p, target):
        mats = close(H, H_keys, gens, p, target)
        sizes.append((len(H), len(mats)))
        return mats
    monkeypatch.setattr(orthfin, "_extend_closure", record)
    V = OrthSpace.canonical(get_field(q), N, disc)
    assert len(enumerate_O(V)) == V.order_O()
    assert all(before < after for before, after in sizes), sizes


def test_enumeration_rejects_a_repeated_element(monkeypatch):
    # a closure step whose stack holds one element twice is caught by
    # the distinct-keys guard
    close = orthfin._extend_closure

    def repeat_last(H, H_keys, gens, p, target):
        mats = close(H, H_keys, gens, p, target)
        mats[-1] = mats[-2]
        return mats
    monkeypatch.setattr(orthfin, "_extend_closure", repeat_last)
    with pytest.raises(RuntimeError, match="repeated"):
        enumerate_O(OrthSpace.canonical(get_field(3), 3, SQUARE))


# ---------------------------------------------------------------------------
# Reflections and spinor norms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q,N", [(3, 2), (3, 3), (5, 2), (5, 3), (9, 2),
                                 (9, 3)])
def test_reflection_properties(q, N):
    from itertools import product
    F = get_field(3, 2) if q == 9 else get_field(q)
    for disc in (SQUARE, NONSQUARE):
        V = OrthSpace.canonical(F, N, disc)
        for v in product(range(q), repeat=N):
            if not any(v) or V.inner(v, v) == 0:
                continue
            r = reflection(V, v)
            assert r * r == identity_elem(V)
            assert r.det() == -1
            assert r.apply(v) == tuple(F.neg(c) for c in v)
            assert spinor_norm(r) == F.square_class(V.inner(v, v))


@pytest.mark.parametrize("q,N,disc", [(3, 3, SQUARE), (5, 3, NONSQUARE),
                                      (3, 4, SQUARE)])
def test_spinor_norm_fast_path_equals_factorization(q, N, disc):
    V = OrthSpace.canonical(get_field(q), N, disc)
    table = enumerate_O(V)
    for m in table.mats:
        A = OrthElem(m.tolist(), V, check=False)
        spin, det_sign = _reflection_factorization_spin(A)
        assert spinor_norm(A) == spin
        assert A.det() == det_sign


@pytest.mark.parametrize("p,e", [(3, 2), (5, 2)])
@pytest.mark.parametrize("N", [2, 3, 4])
def test_spinor_norm_over_extension_fields_matches_oracle(p, e, N):
    # steered random elements cover all four cosets; short products of
    # random reflections cover the low ranks of I - A, which
    # random_element alone rarely reaches
    F = get_field(p, e)
    for disc in (SQUARE, NONSQUARE):
        V = OrthSpace.canonical(F, N, disc)
        rng = random.Random(100 * N + p)
        for seed in range(30):
            A = random_element(V, 1000 * N + seed, ALL_COSETS[seed % 4])
            B = I = identity_elem(V)
            while B == I or rng.random() < 0.5:
                v = tuple(rng.randrange(F.q) for _ in range(N))
                if any(v) and V.inner(v, v) != 0:
                    B = B * reflection(V, v)
            for X in (A, B):
                spin, det_sign = _reflection_factorization_spin(X)
                assert spinor_norm(X) == spin
                assert X.det() == det_sign


def test_spinor_norm_is_a_homomorphism():
    V = OrthSpace.canonical(get_field(5), 3, SQUARE)
    rng = random.Random(4)
    for _ in range(60):
        A = random_element(V, rng.randrange(10 ** 6))
        B = random_element(V, rng.randrange(10 ** 6))
        assert spinor_norm(A * B) == spinor_norm(A) * spinor_norm(B)
        assert (A * B).det() == A.det() * B.det()


# ---------------------------------------------------------------------------
# Batched group tables
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q,N,disc", [(3, 3, SQUARE), (3, 4, NONSQUARE),
                                      (5, 3, SQUARE)])
def test_group_table_batches_match_per_element(q, N, disc):
    V = OrthSpace.canonical(get_field(q), N, disc)
    table = enumerate_O(V)
    dets = table.dets()
    spins = table.spins()
    cps = table.charpolys()
    for i, A in enumerate(table.elements()):
        assert dets[i] == A.det()
        assert spins[i] == spinor_norm(A).sign
        P = A.char_reciprocal()
        want = list(P.coeffs) + [0] * (N + 1 - len(P.coeffs))
        assert list(cps[i]) == want
        assert P.coeffs[0] == 1
        # T^N P(1/T) = (-1)^N det(A) P(T) for orthogonal A
        F = V.field
        sign = dets[i] if N % 2 == 0 else -dets[i]
        rev = [F.mul(sign % q, c) for c in want[::-1]]
        assert rev == want


SPIN_TABLE_CASES = [(q, N) for q in (3, 5, 7) for N in (1, 2, 3)] + [(3, 4)]


@pytest.mark.parametrize("q,N", SPIN_TABLE_CASES)
@pytest.mark.parametrize("disc", [SQUARE, NONSQUARE])
def test_group_table_spins_match_oracle(q, N, disc):
    table = _table(q, N, disc)
    spins = table.spins()
    for i, A in enumerate(table.elements()):
        assert spins[i] == _reflection_factorization_spin(A)[0].sign


@pytest.mark.parametrize("disc", [SQUARE, NONSQUARE])
def test_group_table_spins_match_oracle_on_o45_sample(disc):
    table = _table(5, 4, disc)
    spins = table.spins()
    V = table.V
    for i in random.Random(45).sample(range(len(table)), 500):
        A = OrthElem(table.mats[i].tolist(), V, check=False)
        assert spins[i] == _reflection_factorization_spin(A)[0].sign


def test_cosets_have_equal_size():
    for q, N in [(3, 3), (5, 3), (3, 4)]:
        for disc in (SQUARE, NONSQUARE):
            V = OrthSpace.canonical(get_field(q), N, disc)
            table = enumerate_O(V)
            dets, spins = table.dets(), table.spins()
            for kappa in ALL_COSETS:
                size = int(((dets == kappa.det)
                            & (spins == kappa.spin.sign)).sum())
                assert size == len(table) // 4


# ---------------------------------------------------------------------------
# Class proportions and densities vs brute force
# ---------------------------------------------------------------------------


def test_class_proportion_validation():
    F = get_field(5)
    V = OrthSpace.canonical(F, 4, SQUARE)
    f = trace_lift(Poly([1, 1], F)) * trace_lift(Poly([0, 1], F))
    with pytest.raises(ValueError):
        class_proportion(V, Poly([1, 3, 1], F), "even")   # dim mismatch
    with pytest.raises(ValueError):
        class_proportion(V, f, "unknown-case")
    with pytest.raises(NotSeparableError):
        bad = trace_lift(Poly([1, 1], F)) ** 2
        class_proportion(V, bad, "even")
    with pytest.raises(ValueError):
        # f(1) = 0
        class_proportion(V, Poly([1, 2, 2, 2, 1], F), "even")
    V3 = OrthSpace.canonical(F, 3, SQUARE)
    g = Poly([1, 3, 1], F)
    with pytest.raises(ValueError):
        class_proportion(V3, g, "odd", eps=0)


def _brute_density(V, kappa, i):
    """|C_i(kappa)| / |kappa| by direct census of the enumerated group."""
    table = _table(V.q, V.N, V.disc())
    dets, spins = table.dets(), table.spins()
    mask = (dets == kappa.det) & (spins == kappa.spin.sign)
    denom = int(mask.sum())
    counts = Counter(map(tuple, table.charpolys()[mask]))
    hits = 0
    for coeffs, c in counts.items():
        P = Poly(list(coeffs), V.field)
        try:
            sp = strip(P)
        except NotReciprocalError:
            continue
        f = sp.f.monic()
        if f.degree < 2:
            continue
        try:
            h = to_trace_form(f).h
        except NotReciprocalError:
            continue
        if i in classify_H(h) and len(factor_degrees(f)) <= 8:
            hits += c
    return Fraction(hits, denom)


@pytest.mark.parametrize("N", [3, 4])
@pytest.mark.parametrize("disc", [SQUARE, NONSQUARE])
def test_c_i_density_matches_brute_force(N, disc):
    V = OrthSpace.canonical(get_field(5), N, disc)
    for kappa in ALL_COSETS:
        for i in range(1, 7):
            if N % 2 == 0 and kappa.det == 1 and i == 6:
                # declared convention: the sixth set is the whole coset
                assert c_i_density(V, kappa, i) == 1
                continue
            assert c_i_density(V, kappa, i) == _brute_density(V, kappa, i), \
                (N, disc, kappa, i)


def test_c_i_density_input_validation():
    F = get_field(5)
    with pytest.raises(ValueError):
        c_i_density(OrthSpace.canonical(F, 2, SQUARE), ALL_COSETS[0], 1)
    with pytest.raises(ValueError):
        c_i_density(OrthSpace.canonical(get_field(3), 4, SQUARE),
                    ALL_COSETS[0], 1)
    with pytest.raises(ValueError):
        c_i_density(OrthSpace.canonical(F, 4, SQUARE), ALL_COSETS[0], 7)
    with pytest.raises(BudgetExceededError):
        c_i_density(OrthSpace.canonical(F, 12, SQUARE), ALL_COSETS[0], 1,
                    budget=10)


def _monic_rows(q, n):
    """Every monic degree-n h over F_q as ascending coefficient codes."""
    return [list(cs) + [1] for cs in iter_product(range(q), repeat=n)]


def _factored_sign_pairs(h):
    """The factoring route: sorted (deg h_i, e_i) with e_i = +1 iff
    h_i(2) h_i(-2) is a square, over the irreducible factors h_i."""
    F = h.field
    _, factors = factor(h)
    assert all(mult == 1 for _, mult in factors)
    return tuple(sorted(
        (hi.degree,
         F.square_class(F.mul(hi.eval_int(2), hi.eval_int(-2))).sign)
        for hi, _ in factors))


@pytest.mark.parametrize("p,e,max_n", [(5, 1, 3), (7, 1, 3), (3, 2, 2)])
def test_sign_pairs_match_factoring(p, e, max_n):
    F = get_field(p, e)
    checked = 0
    for n in range(1, max_n + 1):
        for row in _monic_rows(F.q, n):
            h = Poly(row, F)
            if not in_P_n(h):
                continue
            pairs = orthfin._sign_pairs(factor_degrees(h),
                                        factor_degrees(trace_lift(h)))
            assert pairs == _factored_sign_pairs(h), row
            checked += 1
    assert checked > 0


def test_sign_pairs_reject_degrees_that_do_not_lift():
    for hdeg, fdeg in [((1,), (1,)), ((1,), (1, 1, 1)), ((2,), (1, 3)),
                       ((1, 1), (2, 1))]:
        with pytest.raises(ArithmeticError):
            orthfin._sign_pairs(hdeg, fdeg)


@lru_cache(maxsize=None)
def _qualifying_f(F, n):
    """(classes of h, f) for every f = T^n h(T+1/T) with h in P_n and at
    most eight irreducible factors in f, one h at a time."""
    return _qualifying(F, _monic_rows(F.q, n))


def _qualifying(F, rows):
    """_qualifying_f over the monic h of the given coefficient rows."""
    out = []
    for row in rows:
        h = Poly(row, F)
        classes = classify_H(h)
        if not classes:
            continue
        f = trace_lift(h)
        if len(factor_degrees(f)) <= 8:
            out.append((classes, f))
    return out


def _per_h_densities(V, kappa, qualifying=None):
    """{i: density} for i = 1..6 by the per-h loop over class_proportion:
    the oracle for the census-backed c_i_density.  qualifying: the
    (classes, f) pairs to sum over, by default every h (_qualifying_f)."""
    N = V.N
    eps, delta = kappa.det, kappa.spin
    n = (N - 1) // 2 if N % 2 else (N - 2) // 2 if eps == -1 else N // 2
    out = {i: Fraction(0) for i in range(1, 7)}
    if qualifying is None:
        qualifying = _qualifying_f(V.field, n)
    for classes, f in qualifying:
        if N % 2 == 1:
            cd = class_proportion(V, f, "odd", eps=eps)
            hit = cd.spin == delta
        elif eps == -1:
            cd = class_proportion(V, f, "even2", beta=delta)
            hit = True
        else:
            cd = class_proportion(V, f, "even")
            hit = cd.spin == delta and cd.proportion
        if hit:
            for i in classes:
                out[i] += 4 * cd.proportion
    if N % 2 == 0 and eps == 1:
        out[6] = Fraction(1)
    return out


@pytest.mark.parametrize("p,e,Ns", [(5, 1, (3, 4, 5, 6)), (7, 1, (3, 4, 5, 6)),
                                    (3, 2, (3, 4))])
def test_c_i_density_matches_the_per_h_loop(p, e, Ns):
    F = get_field(p, e)
    for N in Ns:
        for disc in (SQUARE, NONSQUARE):
            V = OrthSpace.canonical(F, N, disc)
            for kappa in ALL_COSETS:
                want = _per_h_densities(V, kappa)
                for i in range(1, 7):
                    assert c_i_density(V, kappa, i) == want[i], \
                        (F.q, N, disc, kappa, i)


@pytest.mark.parametrize("p,max_n", [(5, 4), (7, 3)])
def test_census_rows_match_scalar_factoring(p, max_n):
    F = get_field(p)
    for n in range(1, max_n + 1):
        H = np.array(_monic_rows(p, n), dtype=np.int64)
        batched = orthfin._prime_census_rows(H, p)
        scalar = orthfin._scalar_census_rows(F, H)
        assert batched == scalar, (p, n)
        # h = (T - 2) g is outside P_n, so both leave rows out
        assert any(row is None for row in batched)


@pytest.mark.parametrize("p,n", [(5, 5), (7, 4), (3, 6), (11, 3)])
def test_census_rows_match_two_kernel_calls(p, n):
    # the one pass over f gives the degrees of h and f that two row
    # kernel calls, on h and on f, give
    H = np.array(_monic_rows(p, n), dtype=np.int64)
    rows = orthfin._prime_census_rows(H, p)
    good = np.array([row is not None for row in rows])
    m = np.full(int(good.sum()), p, dtype=np.int64)
    F = H[good] @ orthfin._lift_matrix(n, p) % p
    want = list(zip(galclass._factor_degree_rows(H[good], m),
                    galclass._factor_degree_rows(F, m)))
    assert [row[:2] for row in rows if row is not None] == want
    assert len(want) > p ** (n - 1)


def test_c_i_density_matches_the_per_h_loop_at_n5(fresh_census):
    # N = 11 over F_5: f of degree 10, odd n, through the one-pass census
    V = OrthSpace.canonical(get_field(5), 11, SQUARE)
    for kappa in (ALL_COSETS[0], ALL_COSETS[3]):
        want = _per_h_densities(V, kappa)
        for i in range(1, 7):
            assert c_i_density(V, kappa, i) == want[i], (kappa, i)


def test_c_i_density_cuts_lifts_with_more_than_eight_factors(monkeypatch):
    # Over F_11 with n = 5 a product h of five linear factors whose lifts
    # mostly split has nine or ten factors in f, so the eight-factor cut
    # bites (it cannot at n <= 4, nor over F_5 or F_7 at n = 5).  The
    # 161,051 h are too many for the per-h oracle, so both sides sum over
    # the same subset: every h with five distinct roots outside +-2 (all
    # of the h with more than eight factors in f) and some random h.
    F, n, N = get_field(11), 5, 11
    rng = random.Random(5)
    roots = [a for a in range(11) if a not in (2, 9)]
    hs = [functools.reduce(lambda g, a: g * Poly([-a % 11, 1], F),
                           rs, Poly([1], F))
          for rs in combinations(roots, n)]
    hs += [Poly([rng.randrange(11) for _ in range(n)] + [1], F)
           for _ in range(300)]
    H = np.array([list(h.coeffs) for h in hs], dtype=np.int64)
    rows = [row for row in orthfin._prime_census_rows(H, 11) if row]
    assert sum(len(fdeg) > 8 for _, fdeg, _, _ in rows) >= 5
    census = Counter()
    for hdeg, fdeg, f1, fm1 in rows:
        census[(classes_from_degrees(hdeg, fdeg), len(fdeg),
                orthfin._sign_pairs(hdeg, fdeg), f1, fm1)] += 1
    monkeypatch.setattr(orthfin, "_census",
                        lambda field, k: tuple(census.items()))
    qualifying = _qualifying(F, H.tolist())
    for disc in (SQUARE, NONSQUARE):
        V = OrthSpace.canonical(F, N, disc)
        for kappa in ALL_COSETS:
            want = _per_h_densities(V, kappa, qualifying)
            for i in range(1, 7):
                assert c_i_density(V, kappa, i) == want[i], (disc, kappa, i)


def test_census_does_not_depend_on_the_block_size(monkeypatch):
    fields = [(get_field(5), 3), (get_field(7), 2), (get_field(3, 2), 2)]
    default = [orthfin._build_census(F, n) for F, n in fields]
    monkeypatch.setattr(orthfin, "BLOCK_ROWS", 7)
    assert [orthfin._build_census(F, n) for F, n in fields] == default


@pytest.fixture
def fresh_census():
    orthfin._census.cache_clear()
    yield
    orthfin._census.cache_clear()


def test_c_i_density_checks_the_budget_before_the_census(monkeypatch,
                                                         fresh_census):
    def refuse(F, n):
        raise AssertionError("census built despite the budget")

    monkeypatch.setattr(orthfin, "_build_census", refuse)
    V = OrthSpace.canonical(get_field(7), 7, SQUARE)
    with pytest.raises(BudgetExceededError):
        c_i_density(V, ALL_COSETS[0], 1, budget=7 ** 3 - 1)


def test_census_memo_is_bounded_and_immutable(fresh_census):
    assert orthfin._census.cache_info().maxsize is not None
    census = orthfin._census(get_field(5), 3)
    assert isinstance(census, tuple) and census
    for (classes, nf, pairs, f1, fm1), count in census:
        assert isinstance(classes, frozenset) and isinstance(pairs, tuple)
        assert all(isinstance(pair, tuple) for pair in pairs)
        assert isinstance(nf, int) and isinstance(count, int)
        assert f1 in (SQUARE, NONSQUARE) and fm1 in (SQUARE, NONSQUARE)
    # the census counts every h in P_3 over F_5 once
    assert sum(count for _, count in census) == sum(
        in_P_n(Poly(row, get_field(5))) for row in _monic_rows(5, 3))
    assert orthfin._census(get_field(5), 3) is census


def test_c_i_density_builds_each_census_once(monkeypatch, fresh_census):
    built = []
    inner = orthfin._build_census

    def record(F, n):
        built.append((F.q, n))
        return inner(F, n)

    monkeypatch.setattr(orthfin, "_build_census", record)
    V = OrthSpace.canonical(get_field(7), 5, NONSQUARE)
    first = c_i_density(V, ALL_COSETS[1], 2)
    c_i_density(V, ALL_COSETS[3], 4)
    assert c_i_density(V, ALL_COSETS[1], 2) == first
    assert built == [(7, 2)]


# ---------------------------------------------------------------------------
# Seeded random elements
# ---------------------------------------------------------------------------


def test_random_element_deterministic_and_steered():
    for q, N in [(5, 3), (7, 3), (5, 4)]:
        V = OrthSpace.canonical(get_field(q), N, SQUARE)
        for label in ALL_COSETS:
            for seed in range(4):
                A = random_element(V, seed, label)
                B = random_element(V, seed, label)
                assert A == B
                OrthElem(A.matrix, V, check=True)
                assert coset_label(A) == label
        # unsteered draws are still valid group elements
        C = random_element(V, 123)
        OrthElem(C.matrix, V, check=True)
