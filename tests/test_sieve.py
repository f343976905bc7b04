"""Sieve tests: the upper bound against exact unsifted measures on
random explicit spaces, exact equality in the independent case, weight
identities, support constructors, and the density grid scan."""

import random
from fractions import Fraction
from itertools import product as iter_product

import pytest

from orthogal.ffield import SQUARE, NONSQUARE
from orthogal.orthfin import CosetLabel, ALL_COSETS
from orthogal.sieve import (SieveProblem, selberg_bound, weight_identities,
                            zero_remainder, powerset_support, smooth_support,
                            FiniteSpace, exact_mu_S, problem_from_space,
                            remainder_model_bound, density_experiment,
                            prop15_scan)


def test_two_independent_events_closed_form():
    # two events of density 1/2 with zero remainders: H = 4, bound = X/4
    problem = SieveProblem({1: Fraction(1, 2), 2: Fraction(1, 2)},
                           1, zero_remainder, powerset_support([1, 2]))
    result = selberg_bound(problem)
    assert result.H == 4
    assert result.bound == Fraction(1, 4)
    assert result.remainder_sum == 0
    assert weight_identities(result)
    assert result.lambdas[frozenset()] == 1
    assert sum(result.xis.values()) == 1


def test_problem_validation():
    with pytest.raises(ValueError):
        SieveProblem({1: Fraction(3, 2)}, 1, zero_remainder,
                     powerset_support([1]))
    with pytest.raises(ValueError):
        SieveProblem({1: Fraction(1, 2)}, 1, zero_remainder,
                     [frozenset({1})])           # missing empty set
    with pytest.raises(ValueError):
        SieveProblem({1: Fraction(1, 2)}, 1, zero_remainder,
                     [frozenset(), frozenset({2})])   # unknown label
    with pytest.raises(ValueError):
        SieveProblem({1: Fraction(1, 2), 2: Fraction(1, 3)}, 1,
                     zero_remainder,
                     [frozenset(), frozenset({1, 2})])  # not downward closed


def test_support_constructors():
    assert powerset_support([1, 2]) == {frozenset(), frozenset({1}),
                                        frozenset({2}), frozenset({1, 2})}
    sm = smooth_support([2, 3, 5], 6)
    assert sm == {frozenset(), frozenset({2}), frozenset({3}),
                  frozenset({5}), frozenset({2, 3})}
    # downward closure holds by construction
    for D in sm:
        for x in D:
            assert D - {x} in sm


def _random_space(rng, npoints=None, nevents=None):
    npoints = npoints or rng.randrange(4, 12)
    nevents = nevents or rng.randrange(2, 4)
    weights = [Fraction(rng.randrange(1, 5), rng.choice([1, 2, 3]))
               for _ in range(npoints)]
    events = {}
    for lam in range(nevents):
        size = rng.randrange(1, npoints)
        events[lam] = set(rng.sample(range(npoints), size))
    return FiniteSpace(weights=weights, events=events)


def test_bound_dominates_exact_measure_random_spaces():
    rng = random.Random(12)
    done = 0
    while done < 200:
        space = _random_space(rng)
        try:
            problem = problem_from_space(space)
        except ValueError:
            continue            # a trivial event density; resample
        result = selberg_bound(problem)
        assert weight_identities(result)
        assert result.bound >= exact_mu_S(space), space
        # restricted supports still bound correctly
        sub = {D for D in problem.support if len(D) <= 1}
        problem2 = problem_from_space(space, support=sub)
        result2 = selberg_bound(problem2)
        assert result2.bound >= exact_mu_S(space)
        done += 1


def test_independent_product_space_is_tight():
    # points = {0,1}^k with product weights; events are coordinate
    # indicators, so remainders vanish and the bound equals mu(S)
    rng = random.Random(7)
    for _ in range(50):
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
        problem = problem_from_space(space)
        result = selberg_bound(problem)
        assert result.remainder_sum == 0
        mu = exact_mu_S(space)
        assert result.bound == mu
        assert mu == problem.X * __import__("math").prod(
            (1 - d) for d in dens)


def test_remainder_model_bound_formula():
    got = remainder_model_bound([2, 3], N=3, g=1, b=2, q=5)
    want = 6.0 ** (3 * 2 / 4) * 4 * 5 ** 0.5
    assert got == pytest.approx(want)


# ---------------------------------------------------------------------------
# Coset-density experiments
# ---------------------------------------------------------------------------


def test_density_experiment_product_structure():
    kappa = CosetLabel(1, SQUARE)
    one = density_experiment(3, [5], kappa, 1)
    two = density_experiment(3, [5, 7], kappa, 1)
    three = density_experiment(3, [5, 7, 11], kappa, 1)
    # miss probability is the product of per-prime survival factors
    assert two.miss_probability == one.miss_probability * \
        (1 - two.densities[7])
    assert three.miss_probability == two.miss_probability * \
        (1 - three.densities[11])
    # nested monotone decrease (geometric decay under growing D)
    assert one.miss_probability > two.miss_probability \
        > three.miss_probability > 0
    ref = density_experiment(3, [5, 7], kappa, 1, reference_c=Fraction(1, 2))
    assert ref.reference_curve == (1 - Fraction(1, 2) / 9) ** 2


def test_density_experiment_per_prime_labels():
    labels = {5: CosetLabel(1, SQUARE), 7: CosetLabel(-1, NONSQUARE)}
    exp = density_experiment(3, [5, 7], labels, 2)
    assert set(exp.densities) == {5, 7}
    assert exp.miss_probability == (1 - exp.densities[5]) * \
        (1 - exp.densities[7])


def test_density_experiment_rejects_a_repeated_prime():
    kappa = CosetLabel(1, SQUARE)
    with pytest.raises(ValueError, match="repeated prime"):
        density_experiment(3, [5, 5], kappa, 1)
    with pytest.raises(ValueError, match="repeated prime"):
        density_experiment(3, [7, 5, 7], kappa, 1)
    # the order of distinct primes does not change the experiment
    assert density_experiment(3, [5, 7], kappa, 1) == \
        density_experiment(3, [7, 5], kappa, 1)


def test_prop15_scan_small_grid():
    scan = prop15_scan([5, 7], [3], classes=range(1, 7))
    # full grid: 2 primes x 1 dim x 2 discs x 4 cosets x 6 classes
    assert len(scan.table) == 2 * 1 * 2 * 4 * 6
    assert scan.empirical_c2 == min(9 * v for v in scan.table.values())
    assert scan.table[scan.argmin] * 9 == scan.empirical_c2
    for key, dens in scan.table.items():
        assert 0 <= dens <= 1
    if not scan.zero_cells:
        assert scan.positive_c2 == scan.empirical_c2
        assert scan.min_prime_all_positive == 5
