"""End-to-end acceptance suite.

Each test here freezes one of the headline guarantees of the package:
exact conjugacy-class counts in finite orthogonal groups, the trace-form
calculus, irreducible-class counting bounds, soundness of the generation
criterion, the Galois classifier pipeline with its statistical
validator, the sieve bound, the twist-family L-function laboratory, the
Hodge tables, and the coset-density scan.  Runtime is a few minutes.
"""

import math
import random
from fractions import Fraction
from itertools import product as iter_product

import numpy as np
import pytest

from orthogal.ffield import get_field, SQUARE, NONSQUARE
from orthogal.poly import (Poly, discriminant, factor_degrees,
                           is_irreducible)
from orthogal.recpoly import (trace_lift, to_trace_form, disc_identity,
                              count_irreducible_classes)
from orthogal import orthfin
from orthogal.orthfin import (OrthSpace, CosetLabel, enumerate_O,
                              class_proportion)
from orthogal.signedperm import (invariants, enumerate_W,
                                 subgroup_closure,
                                 check_brauer_criterion)
from orthogal.galclass import classify, chebotarev_validate, \
    is_perfect_square
from orthogal.sieve import (selberg_bound, problem_from_space, FiniteSpace,
                            exact_mu_S, weight_identities,
                            density_experiment, prop15_scan)
from orthogal.lfunc import (FqTCurve, l_function, enumerate_twists,
                            survey_delta)
from orthogal.hodge import (primitive_hodge, signature_congruence,
                            k_field_hypersurface)


def _monic_polys(F, deg):
    for code in range(F.q ** deg):
        c = code
        coeffs = []
        for _ in range(deg):
            coeffs.append(c % F.q)
            c //= F.q
        yield Poly(coeffs + [1], F)


# ---------------------------------------------------------------------------
# 1. Conjugacy-class proportions are exact, element by element
# ---------------------------------------------------------------------------


def _group_census(V):
    """{charpoly row: {(det, spin): count}} over the whole group."""
    table = enumerate_O(V)
    arr = np.column_stack([table.charpolys(), table.dets(), table.spins()])
    uniq, counts = np.unique(arr, axis=0, return_counts=True)
    census = {}
    for row, c in zip(uniq, counts):
        key = tuple(int(x) for x in row[:-2])
        census.setdefault(key, {})[(int(row[-2]), int(row[-1]))] = int(c)
    return census, len(table)


def _qualifying_lifts(F, n):
    """All monic separable reciprocal f of degree 2n with f(+-1) != 0."""
    for h in _monic_polys(F, n):
        f = trace_lift(h)
        if f.eval_int(1) == 0 or f.eval_int(-1) == 0:
            continue
        if not f.is_squarefree():
            continue
        yield f


def _expected_count(prop, order):
    count = prop * order
    assert count.denominator == 1
    return count.numerator


@pytest.mark.parametrize("q", [3, 5, 7])
@pytest.mark.parametrize("N", [2, 3, 4, 5])
@pytest.mark.parametrize("disc", [SQUARE, NONSQUARE])
def test_class_proportions_exact(q, N, disc):
    F = get_field(q)
    V = OrthSpace.canonical(F, N, disc)
    if V.order_O() > 2 * 10 ** 6:
        pytest.skip("group larger than the enumeration budget")
    census, order = _group_census(V)
    accounted = 0
    if N % 2 == 0:
        # full-dimensional classes: char poly f itself, det +1
        for f in _qualifying_lifts(F, N // 2):
            cd = class_proportion(V, f, "even")
            key = tuple(f.coeffs)
            obs = census.get(key, {})
            want = _expected_count(cd.proportion, order)
            assert sum(obs.values()) == want
            if want:
                assert set(obs) == {(cd.det, cd.spin.sign)}
            accounted += want
        # classes with char poly (1 - T^2) f, det -1, both spinor classes
        if N >= 4:
            two = Poly([1, 0, F.from_int(-1)], F)
            for f in _qualifying_lifts(F, (N - 2) // 2):
                key = tuple((f * two).coeffs)
                obs = census.get(key, {})
                for beta in (SQUARE, NONSQUARE):
                    cd = class_proportion(V, f, "even2", beta=beta)
                    want = _expected_count(cd.proportion, order)
                    assert obs.get((-1, beta.sign), 0) == want
                    accounted += want
                both = class_proportion(V, f, "even2")
                assert sum(obs.values()) == \
                    _expected_count(both.proportion, order)
                assert all(det == -1 for det, _ in obs)
    else:
        for f in _qualifying_lifts(F, (N - 1) // 2):
            for eps in (1, -1):
                cd = class_proportion(V, f, "odd", eps=eps)
                key = tuple((f * Poly([1, F.from_int(-eps)], F)).coeffs)
                obs = census.get(key, {})
                want = _expected_count(cd.proportion, order)
                assert obs.get((eps, cd.spin.sign), 0) == want
                assert set(obs) <= {(1, 1), (1, -1), (-1, 1), (-1, -1)}
                assert all(s == cd.spin.sign
                           for d, s in obs if d == eps)
                accounted += want
    # completeness: the elements not reached above are exactly those
    # whose characteristic polynomial, after removing the forced unit
    # factor, has a boundary root or a repeated factor
    covered = 0
    for key, obs in census.items():
        P = Poly(list(key), F)
        if _key_is_qualified(P, N, F):
            covered += sum(obs.values())
    assert covered == accounted


def _key_is_qualified(P, N, F):
    """Whether a characteristic polynomial belongs to one of the classes
    with an exact proportion formula."""
    def good_core(f):
        return (f.eval_int(1) != 0 and f.eval_int(-1) != 0
                and f.is_squarefree())

    lead = P.coeffs[-1]
    det = 1 if lead == 1 else -1           # lead = (-1)^N det(A)
    if N % 2 == 1:
        det = -det
    if N % 2 == 0:
        if det == 1:
            return good_core(P)
        quo, rem = P.divmod(Poly([1, 0, F.from_int(-1)], F))
        return rem.is_zero() and quo.degree >= 2 and good_core(quo)
    eps = det                               # forced unit root at 1/eps
    quo, rem = P.divmod(Poly([1, F.from_int(-eps)], F))
    return rem.is_zero() and good_core(quo)


# ---------------------------------------------------------------------------
# 2. Trace-form calculus: round trip, discriminant identity, dichotomy
# ---------------------------------------------------------------------------


FQS = [get_field(3), get_field(5), get_field(7), get_field(11),
       get_field(13), get_field(3, 2)]


def test_trace_form_round_trip():
    rng = random.Random(20)
    for n in range(1, 21):
        for _ in range(40):
            F = rng.choice(FQS)
            h = Poly([rng.randrange(F.q) for _ in range(n)] + [1], F)
            assert to_trace_form(trace_lift(h)).h == h
        hq = Poly([Fraction(rng.randrange(-9, 10), rng.randrange(1, 4))
                   for _ in range(n)] + [1])
        assert to_trace_form(trace_lift(hq)).h == hq


@pytest.mark.parametrize("n", range(1, 21))
def test_discriminant_identity_random_instances(n):
    rng = random.Random(100 + n)
    for trial in range(1000):
        if trial % 80 == 0:
            h = Poly([rng.randrange(-5, 6) for _ in range(n)] + [1])
        else:
            F = rng.choice(FQS)
            h = Poly([rng.randrange(F.q) for _ in range(n)] + [1], F)
        lhs, rhs, cross = disc_identity(trace_lift(h))
        assert lhs == rhs == cross


def _dichotomy_holds(F, h, degs=None):
    """The lift of an irreducible h is irreducible of degree 2n when
    h(2) h(-2) is a non-square and splits as [n, n] otherwise; degs are
    the factor degrees of the lift, factored here when not given."""
    n = h.degree
    e = F.square_class(F.mul(h.eval_int(2), h.eval_int(-2)))
    if degs is None:
        degs = factor_degrees(trace_lift(h))
    if e == NONSQUARE:
        return list(degs) == [2 * n]
    return list(degs) == [n, n]


def _irreducible_lifts(F, n):
    """(h, factor degrees of its lift) for every irreducible monic h of
    degree n over the prime field F.  The degrees of h and of its lift
    come from orthfin's batched census rows (one kernel pass over every
    h in P_n); a row outside P_n has a root at +-2 or a repeated factor,
    so it is reducible unless n = 1, where h = T -+ 2 is factored by
    Poly arithmetic."""
    H = np.array([list(h.coeffs) for h in _monic_polys(F, n)],
                 dtype=np.int64)
    for row, census in zip(H.tolist(), orthfin._prime_census_rows(H, F.p)):
        if census is not None:
            hdeg, fdeg = census[:2]
            if hdeg == (n,):
                yield Poly(row, F), fdeg
        elif n == 1:
            h = Poly(row, F)
            yield h, factor_degrees(trace_lift(h))


def _irreducible_count(q, n):
    """Number of monic irreducible polynomials of degree n over F_q."""
    def mobius(k):
        out, p = 1, 2
        while p * p <= k:
            if k % p == 0:
                k //= p
                if k % p == 0:
                    return 0
                out = -out
            p += 1
        return -out if k > 1 else out

    return sum(mobius(k) * q ** (n // k) for k in range(1, n + 1)
               if n % k == 0) // n


def test_lift_dichotomy_for_irreducible_trace_forms():
    rng = random.Random(77)
    qs = [(3, 1), (5, 1), (7, 1), (9, 2), (11, 1), (13, 1)]
    for (q, e) in qs:
        F = get_field(q if e == 1 else 3, e)
        for n in range(1, 7):
            if F.q ** n <= 20000:
                # exhaustive over all monic polynomials of degree n; over
                # a prime field by the batched kernel, over F_9 by Poly
                if e == 1:
                    lifts = list(_irreducible_lifts(F, n))
                    assert len(lifts) == _irreducible_count(F.q, n)
                else:
                    lifts = [(h, None) for h in _monic_polys(F, n)
                             if is_irreducible(h)]
                for h, degs in lifts:
                    assert _dichotomy_holds(F, h, degs), (F.q, list(h.coeffs))
            else:
                found = 0
                while found < 30:
                    h = Poly([rng.randrange(F.q) for _ in range(n)] + [1], F)
                    if not is_irreducible(h):
                        continue
                    assert _dichotomy_holds(F, h), (F.q, list(h.coeffs))
                    found += 1


# ---------------------------------------------------------------------------
# 3. Irreducible-class counts stay within the square-root window
# ---------------------------------------------------------------------------


def test_irreducible_class_count_deviations():
    checked = 0
    for q in (3, 5, 7, 9, 11, 13):
        m = 1
        while q ** m <= 10 ** 6:
            table = count_irreducible_classes(q, m)
            assert sum(table.counts.values()) == table.total
            for bucket, dev in table.deviations.items():
                assert dev <= 6 * q ** (m / 2), (q, m, bucket, table.counts)
            m += 1
            checked += 1
    assert checked >= 30


# ---------------------------------------------------------------------------
# 4. Generation criterion soundness on random generator sets
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_generation_criterion_sound_on_random_sets(n):
    rng = random.Random(n)
    full = enumerate_W(n, plus=False)
    full_set = set(full)
    plus_set = set(enumerate_W(n, plus=True))
    kernel = [g for g in full
              if invariants(g).eps1 * invariants(g).eps2 == 1]
    certified = 0
    for _ in range(500):
        gens = rng.sample(full, rng.randrange(2, 5))
        res = check_brauer_criterion(gens=gens)
        closure = set(subgroup_closure(gens))
        if res.status == "BigWithWitnesses":
            certified += 1
            assert res.witnesses.complete()
            assert closure == full_set or closure == plus_set
        # the eps1*eps2 kernel is an adversarial subgroup: generator
        # sets drawn from it must never certify
        kgens = rng.sample(kernel, rng.randrange(2, 5))
        kres = check_brauer_criterion(gens=kgens)
        assert kres.status == "Inconclusive"
        assert kres.witnesses.g5 is None
    assert certified > 100       # the criterion fires often, not never
    assert check_brauer_criterion(sample=kernel).status == "Inconclusive"


# ---------------------------------------------------------------------------
# 5. Classifier end to end with statistical validation
# ---------------------------------------------------------------------------


def _random_admissible_h(rng):
    # sympy serves as an independent irreducibility oracle here; the
    # package never sees it
    import sympy
    x = sympy.Symbol("x")
    while True:
        n = rng.choice((2, 3, 4, 5))
        coeffs = [rng.randrange(-10, 11) for _ in range(n)] + [1]
        h = Poly(coeffs)
        if h(2) == 0 or h(-2) == 0:
            continue
        if discriminant(h) == 0:
            continue
        if not sympy.Poly(coeffs[::-1], x).is_irreducible:
            continue
        return h


def test_classifier_end_to_end():
    rng = random.Random(2024)
    certified = 0
    for _ in range(100):
        h = _random_admissible_h(rng)
        f = trace_lift(h)
        cert = classify(f, prime_budget=10 ** 4)
        if cert.status != "Certified":
            continue
        certified += 1
        # the W vs W+ decision agrees with the exact square test
        disc_square = is_perfect_square(Fraction(discriminant(f)))
        assert cert.disc_is_square == disc_square
        assert cert.claimed_group.plus == disc_square
        # every certificate passes the frequency validator
        report = chebotarev_validate(f, cert.claimed_group,
                                     prime_bound=10 ** 5, tolerance=0.05)
        assert report.passed, (list(h.coeffs), cert.claimed_group,
                               float(report.tv_distance))
    assert certified >= 90, certified


# ---------------------------------------------------------------------------
# 6. Sieve bound dominates the exact measure on random spaces
# ---------------------------------------------------------------------------


def test_sieve_bound_dominates_on_random_spaces():
    rng = random.Random(6)
    done = 0
    while done < 1000:
        npoints = rng.randrange(4, 12)
        weights = [Fraction(rng.randrange(1, 5), rng.choice([1, 2, 3]))
                   for _ in range(npoints)]
        events = {lam: set(rng.sample(range(npoints),
                                      rng.randrange(1, npoints)))
                  for lam in range(rng.randrange(2, 4))}
        space = FiniteSpace(weights=weights, events=events)
        try:
            problem = problem_from_space(space)
        except ValueError:
            continue
        result = selberg_bound(problem)
        assert result.bound >= exact_mu_S(space)
        assert weight_identities(result)
        assert result.lambdas[frozenset()] == 1
        assert all(abs(l) <= 1 for l in result.lambdas.values())
        assert sum(result.xis.values()) == 1
        done += 1


def test_sieve_bound_exact_for_independent_events():
    rng = random.Random(60)
    for _ in range(60):
        k = rng.randrange(1, 4)
        dens = [Fraction(rng.randrange(1, 4), 4) for _ in range(k)]
        pts = list(iter_product((0, 1), repeat=k))
        weights = []
        for pt in pts:
            w = Fraction(1)
            for bit, dj in zip(pt, dens):
                w *= dj if bit else (1 - dj)
            weights.append(w)
        events = {j: {i for i, pt in enumerate(pts) if pt[j]}
                  for j in range(k)}
        space = FiniteSpace(weights=weights, events=events)
        result = selberg_bound(problem_from_space(space))
        assert result.remainder_sum == 0
        assert result.bound == exact_mu_S(space) == \
            math.prod((1 - d) for d in dens)


# ---------------------------------------------------------------------------
# 7. The quadratic-twist L-function laboratory at desk scale
# ---------------------------------------------------------------------------


def _legendre():
    return FqTCurve.from_a_invariants(get_field(5), [0], [-1, -1],
                                      [0], [0, 1], [0])


def test_twist_family_degree_two_exhaustive():
    E = _legendre()
    F = E.field
    us = enumerate_twists(E, 2)
    assert len(us) == 52
    eps_by_value = {}
    for u in us:
        L = l_function(E, u)
        assert L.N_d == 4
        assert len(L.coeffs) == 5
        assert L.functional_equation_holds()
        # the root number is decided by the square class of u(0) u(1)
        cls = F.square_class(F.mul(u(0), u(1)))
        assert L.epsilon == cls.sign, list(u.coeffs)
        eps_by_value.setdefault(L.epsilon, 0)
        eps_by_value[L.epsilon] += 1
    assert set(eps_by_value) == {1, -1}


def test_twist_family_delta_report_and_trend():
    E = _legendre()
    rep1 = survey_delta(E, 2)
    assert rep1.family_size == 52 and rep1.sampled == 52
    assert rep1.delta_hat == Fraction(11, 13)
    assert rep1.hypotheses_hold
    # all eps = +1 twists share one square class, and it is the
    # predicted one
    assert rep1.square_class_constant
    assert len(rep1.square_class_values) == 1
    assert rep1.square_class_values[0] == rep1.expected_square_class
    # the proportion of maximal outcomes grows with the base field
    rep2 = survey_delta(E, 2, n=2, sample=24, seed=0)
    assert rep2.delta_hat == Fraction(23, 24)
    assert rep2.delta_hat > rep1.delta_hat


# ---------------------------------------------------------------------------
# 8. Hodge tables
# ---------------------------------------------------------------------------


def test_hodge_tables_and_congruence():
    t = primitive_hodge(2, 4)
    assert t.h0 == (1, 19, 1) and t.N == 21
    for n in (2, 4):
        for d in (3, 5, 7, 9):
            sig, verdict = signature_congruence(n, d)
            assert verdict is True and (sig - d) % 4 == 0
    assert k_field_hypersurface(9).is_rational
    assert str(k_field_hypersurface(9)) == "Q"


# ---------------------------------------------------------------------------
# 9. Coset-density machinery
# ---------------------------------------------------------------------------


def test_density_scan_positive_floor():
    scan = prop15_scan([5, 7, 11, 13], [3, 4])
    assert scan.positive_c2 > 0
    # one degenerate cell at the smallest prime is a recorded finding;
    # from 7 onward every cell is strictly positive
    assert scan.zero_cells == [(5, 4, "Square", 1, "Square", 4)]
    assert scan.min_prime_all_positive == 7
    for dens in scan.table.values():
        assert 0 <= dens <= 1


def test_density_experiment_geometric_decay():
    kappa = CosetLabel(1, SQUARE)
    primes = [5, 7, 11, 13]
    for N in (3, 4):
        misses = []
        for k in range(1, len(primes) + 1):
            exp = density_experiment(N, primes[:k], kappa, 1)
            misses.append(exp.miss_probability)
            # product structure: each new prime multiplies the miss
            # probability by its own survival factor
            if k > 1:
                assert exp.miss_probability == \
                    misses[-2] * (1 - exp.densities[primes[k - 1]])
        assert all(a > b > 0 for a, b in zip(misses, misses[1:]))
        worst = max(1 - density_experiment(N, [p], kappa, 1).densities[p]
                    for p in primes)
        assert misses[-1] <= worst ** len(primes)
