"""
A combinatorial Selberg-type sieve with exact rational arithmetic.

Given events A_lambda of density omega_lambda inside a measure X, and a
downward-closed support family Z of index subsets, the sieve bounds the
measure of the unsifted set S = A - union(A_lambda) by X/H plus a
remainder sum, where H = sum over D in Z of prod omega/(1-omega).  The
optimal quadratic-form weights lambda_D and xi_E are produced in closed
form and their defining identities are asserted exactly.

The second half of the module applies the sieve machinery to the
orthogonal coset densities: the probability that independent uniform
draws from cosets at several primes all miss the i-th class set, and a
grid scan for the empirical constant in the density lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import combinations

from .ffield import get_field, SquareClass
from .orthfin import OrthSpace, CosetLabel, ALL_COSETS, c_i_density


# ---------------------------------------------------------------------------
# Problem and result types
# ---------------------------------------------------------------------------


class SieveProblem:
    """Sieve data: densities, total measure, remainders, and support.

    remainders is a callable mapping a frozenset D to the exact
    remainder r_D = mu(A_D) - X * prod(omega); pass `zero_remainder`
    when the model is exact.
    """

    def __init__(self, omegas: dict, X, remainders, support):
        self.omegas = {lam: Fraction(w) for lam, w in omegas.items()}
        self.X = Fraction(X)
        self.remainders = remainders
        self.support = {frozenset(D) for D in support}
        self._validate()

    def _validate(self):
        for lam, w in self.omegas.items():
            if not 0 < w < 1:
                raise ValueError(f"omega[{lam!r}] = {w} outside (0,1)")
        if self.X < 0:
            raise ValueError("X must be >= 0")
        if frozenset() not in self.support:
            raise ValueError("support must contain the empty set")
        for D in self.support:
            if not D <= set(self.omegas):
                raise ValueError(f"support set {set(D)} has unknown labels")
            for lam in D:
                if D - {lam} not in self.support:
                    raise ValueError("support family is not downward closed")

    @property
    def labels(self):
        return sorted(self.omegas, key=repr)


def zero_remainder(D: frozenset) -> Fraction:
    return Fraction(0)


@dataclass
class SieveResult:
    H: Fraction
    bound: Fraction | None      # None encodes the trivial bound (H = 0)
    lambdas: dict = dc_field(repr=False, default_factory=dict)
    xis: dict = dc_field(repr=False, default_factory=dict)
    remainder_sum: Fraction = Fraction(0)


def _weight(problem: SieveProblem, D) -> Fraction:
    out = Fraction(1)
    for lam in D:
        w = problem.omegas[lam]
        out *= w / (1 - w)
    return out


def selberg_bound(problem: SieveProblem) -> SieveResult:
    """Upper bound X/H + sum over D, D' in Z of |r_{D union D'}|.

    Also returns the optimal weights: for D in Z,
    lambda_D = (1/H) * (-1)^|D| / prod(omega_D) * sum over supersets
    E in Z of prod omega_E/(1-omega_E), and xi_E = weight(E)/H.
    """
    Z = sorted(problem.support, key=lambda D: (len(D), sorted(map(repr, D))))
    weights = {D: _weight(problem, D) for D in Z}
    H = sum(weights.values())
    if H == 0:
        return SieveResult(H=Fraction(0), bound=None)
    lambdas = {}
    xis = {}
    for D in Z:
        sup = sum(weights[E] for E in Z if D <= E)
        prod_om = Fraction(1)
        for lam in D:
            prod_om *= problem.omegas[lam]
        sign = Fraction(-1) ** len(D)
        lambdas[D] = sign / prod_om * sup / H
        xis[D] = weights[D] / H
    rsum = Fraction(0)
    for D in Z:
        for E in Z:
            rsum += abs(Fraction(problem.remainders(D | E)))
    return SieveResult(H=H, bound=problem.X / H + rsum,
                       lambdas=lambdas, xis=xis, remainder_sum=rsum)


def weight_identities(result: SieveResult) -> bool:
    """The exact identities the optimal weights must satisfy."""
    if result.bound is None:
        return True
    lam = result.lambdas
    if lam[frozenset()] != 1:
        return False
    for D, v in lam.items():
        if abs(v) > 1:
            return False
        if (Fraction(-1) ** len(D)) * v < 0:
            return False
    return sum(result.xis.values()) == 1


def powerset_support(labels):
    out = set()
    labels = list(labels)
    for k in range(len(labels) + 1):
        for D in combinations(labels, k):
            out.add(frozenset(D))
    return out


def smooth_support(prime_labels, Q: int):
    """Subsets D of the prime labels with prod(D) <= Q (downward closed)."""
    out = {frozenset()}
    primes = sorted(prime_labels)

    def grow(idx, current, prod):
        for j in range(idx, len(primes)):
            p = primes[j]
            if prod * p > Q:
                continue
            nxt = current | {p}
            out.add(frozenset(nxt))
            grow(j + 1, nxt, prod * p)

    grow(0, set(), 1)
    return out


# ---------------------------------------------------------------------------
# Explicit finite spaces: the oracle side
# ---------------------------------------------------------------------------


@dataclass
class FiniteSpace:
    """An explicit weighted set with named events A_lambda."""

    weights: list                    # Fraction weight per point
    events: dict                     # label -> set of point indices

    def total(self) -> Fraction:
        return sum((Fraction(w) for w in self.weights), Fraction(0))

    def event_measure(self, D) -> Fraction:
        pts = set(range(len(self.weights)))
        for lam in D:
            pts &= self.events[lam]
        return sum((Fraction(self.weights[i]) for i in pts), Fraction(0))


def exact_mu_S(space: FiniteSpace) -> Fraction:
    """Exact measure of the unsifted set S = A - union of the events."""
    hit = set()
    for pts in space.events.values():
        hit |= pts
    return sum((Fraction(space.weights[i]) for i in range(len(space.weights))
                if i not in hit), Fraction(0))


def problem_from_space(space: FiniteSpace, support=None) -> SieveProblem:
    """Sieve problem with exact omegas and exact remainders r_D =
    mu(A_D) - X prod(omega) read off the explicit space."""
    X = space.total()
    if X == 0:
        raise ValueError("empty space")
    omegas = {lam: space.event_measure({lam}) / X for lam in space.events}
    for lam in list(omegas):
        if not 0 < omegas[lam] < 1:
            raise ValueError(f"event {lam!r} has trivial density {omegas[lam]}")
    if support is None:
        support = powerset_support(omegas)

    def remainders(D):
        prod = Fraction(1)
        for lam in D:
            prod *= omegas[lam]
        return space.event_measure(D) - X * prod

    return SieveProblem(omegas, X, remainders, support)


# ---------------------------------------------------------------------------
# Remainder magnitude model (formula only)
# ---------------------------------------------------------------------------


def remainder_model_bound(D, N: int, g: int, b: int, q: int) -> float:
    """Unverified model of the remainder magnitude
    (prod of the primes in D)^(N(N-1)/4) * (2g+b) * sqrt(q).

    This evaluator only restates the modeled bound; nothing in this
    repository verifies it, and it is never used in exact assertions.
    """
    prod = 1
    for ell in D:
        prod *= ell
    return float(prod) ** (N * (N - 1) / 4) * (2 * g + b) * float(q) ** 0.5


# ---------------------------------------------------------------------------
# Coset-density experiments
# ---------------------------------------------------------------------------


@dataclass
class DensityExperiment:
    N: int
    i: int
    primes: tuple
    densities: dict                 # prime -> exact density
    miss_probability: Fraction
    reference_c: Fraction | None = None
    reference_curve: Fraction | None = None   # (1 - c/N^2)^|D|


def density_experiment(N: int, primes, labels, i: int,
                       reference_c=None) -> DensityExperiment:
    """Exact probability that independent uniform draws from the given
    coset at each prime all miss the i-th class set.

    labels maps each prime to a CosetLabel (or supplies one label used
    for every prime).  A repeated prime raises ValueError: the draws at
    one prime are a single draw, so its density enters the miss
    probability once.
    """
    primes = tuple(sorted(primes))
    if len(set(primes)) != len(primes):
        raise ValueError(f"repeated prime in {list(primes)}")
    if isinstance(labels, CosetLabel):
        labels = {ell: labels for ell in primes}
    densities = {}
    miss = Fraction(1)
    for ell in primes:
        V = OrthSpace.canonical(get_field(ell), N, _default_disc(ell, N))
        dens = c_i_density(V, labels[ell], i)
        densities[ell] = dens
        miss *= (1 - dens)
    ref = None
    if reference_c is not None:
        reference_c = Fraction(reference_c)
        ref = (1 - reference_c / N ** 2) ** len(primes)
    return DensityExperiment(N=N, i=i, primes=primes, densities=densities,
                             miss_probability=miss,
                             reference_c=reference_c, reference_curve=ref)


def _default_disc(ell: int, N: int) -> SquareClass:
    """Discriminant class of the reference space at each prime: the
    class containing (-1)^floor(N/2), so odd N behaves uniformly and
    even N uses the split space."""
    F = get_field(ell)
    return F.square_class(F.pow(F.from_int(-1), N // 2))


@dataclass
class DensityScan:
    table: dict        # (ell, N, disc_tag, det, spin_tag, i) -> density
    empirical_c2: Fraction          # min of N^2 * density over the grid
    argmin: tuple
    zero_cells: list                # cells with empty class sets, if any
    positive_c2: Fraction | None    # min over the nonempty cells
    min_prime_all_positive: int | None   # least grid prime with no zeros above it


def prop15_scan(q_list, N_list, classes=range(1, 7),
                budget: int = 10 ** 6) -> DensityScan:
    """min of N^2 * density over the grid of primes, dimensions, both
    discriminants, all four cosets and the requested classes.

    The lower bound c2/N^2 is only promised for primes above an
    unspecified absolute threshold, so empty cells at the smallest
    primes are possible; they are reported in zero_cells, together with
    the minimum over the nonempty cells and the least grid prime above
    which every cell is nonempty.
    """
    from .ffield import SQUARE, NONSQUARE
    table = {}
    best = None
    argmin = None
    zero_cells = []
    positive = None
    for ell in q_list:
        F = get_field(ell)
        for N in N_list:
            for disc in (SQUARE, NONSQUARE):
                V = OrthSpace.canonical(F, N, disc)
                for kappa in ALL_COSETS:
                    for i in classes:
                        dens = c_i_density(V, kappa, i, budget=budget)
                        key = (ell, N, disc.tag, kappa.det, kappa.spin.tag, i)
                        table[key] = dens
                        val = N ** 2 * dens
                        if best is None or val < best:
                            best = val
                            argmin = key
                        if dens == 0:
                            zero_cells.append(key)
                        elif positive is None or val < positive:
                            positive = val
    worst = max((key[0] for key in zero_cells), default=0)
    min_ok = min((ell for ell in q_list if ell > worst), default=None)
    return DensityScan(table=table, empirical_c2=best, argmin=argmin,
                       zero_cells=zero_cells, positive_c2=positive,
                       min_prime_all_positive=min_ok)
