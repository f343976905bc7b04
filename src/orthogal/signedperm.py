"""
Hyperoctahedral groups W_{2n} and their index-two subgroups W_{2n}^+.

A signed permutation of {e_1, ..., e_n, -e_1, ..., -e_n} sends
e_i -> signs[i] * e_{perm[i]}.  The group W_{2n} of all such elements
has order 2^n n!; W_{2n}^+ is the kernel of the signature eps1 of the
action on the 2n symbols.  Besides enumeration and exact cycle-type
statistics the module implements a generation criterion: five kinds of
witness elements that together force a subgroup to be all of W_{2n}^+
or W_{2n}.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product as iter_product
from math import factorial

from .errors import BudgetExceededError
from .ffield import _is_prime


class SignedPerm:
    """Signed permutation: e_i -> signs[i] * e_{perm[i]} (0-based)."""

    __slots__ = ("perm", "signs")

    def __init__(self, perm, signs):
        perm = tuple(perm)
        signs = tuple(signs)
        n = len(perm)
        if sorted(perm) != list(range(n)):
            raise ValueError("perm is not a permutation of range(n)")
        if len(signs) != n or any(s not in (1, -1) for s in signs):
            raise ValueError("signs must be a vector of +-1 of length n")
        self.perm = perm
        self.signs = signs

    @property
    def n(self) -> int:
        return len(self.perm)

    @staticmethod
    def identity(n: int) -> "SignedPerm":
        return SignedPerm(range(n), (1,) * n)

    def __eq__(self, other):
        return (isinstance(other, SignedPerm)
                and self.perm == other.perm and self.signs == other.signs)

    def __hash__(self):
        return hash((self.perm, self.signs))

    def __repr__(self):
        return f"SignedPerm(perm={self.perm}, signs={self.signs})"

    def __mul__(self, other: "SignedPerm") -> "SignedPerm":
        """Composition: (g*h)(x) = g(h(x))."""
        h, g = other, self
        perm = tuple(g.perm[h.perm[i]] for i in range(g.n))
        signs = tuple(h.signs[i] * g.signs[h.perm[i]] for i in range(g.n))
        return SignedPerm(perm, signs)

    def inverse(self) -> "SignedPerm":
        n = self.n
        perm = [0] * n
        signs = [1] * n
        for i in range(n):
            perm[self.perm[i]] = i
            signs[self.perm[i]] = self.signs[i]
        return SignedPerm(perm, signs)

    # -- actions ----------------------------------------------------------

    def image_x(self, sym):
        """Image of the symbol (i, sigma) in X = {+-e_1, ..., +-e_n}."""
        i, sigma = sym
        return (self.perm[i], sigma * self.signs[i])

    def matrix(self):
        """The 2n x 2n permutation-matrix view (rows/cols ordered
        e_1..e_n, -e_1..-e_n)."""
        n = self.n
        m = [[0] * (2 * n) for _ in range(2 * n)]
        for i in range(n):
            for sigma in (1, -1):
                src = i if sigma == 1 else n + i
                j, tau = self.image_x((i, sigma))
                dst = j if tau == 1 else n + j
                m[dst][src] = 1
        return m


def _cycle_type(points, step):
    """Multiset of cycle lengths of the map step on the given points."""
    seen = set()
    out = []
    for start in points:
        if start in seen:
            continue
        length = 0
        cur = start
        while cur not in seen:
            seen.add(cur)
            cur = step(cur)
            length += 1
        out.append(length)
    return tuple(sorted(out))


def cycle_type_x(g: SignedPerm):
    """Cycle type of g on the 2n symbols +-e_i."""
    points = [(i, s) for i in range(g.n) for s in (1, -1)]
    return _cycle_type(points, g.image_x)


def cycle_type_pairs(g: SignedPerm):
    """Cycle type of the induced permutation on the n pairs {e_i, -e_i}."""
    return _cycle_type(range(g.n), lambda i: g.perm[i])


def _signature_from_type(ct, npoints) -> int:
    return -1 if (npoints - len(ct)) % 2 else 1


@dataclass(frozen=True)
class Invariants:
    eps1: int
    eps2: int
    cycle_type_X: tuple
    cycle_type_pairs: tuple


def invariants(g: SignedPerm) -> Invariants:
    """(eps1, eps2, cycle type on X, cycle type on pairs).

    eps1 is the signature of g acting on the 2n symbols; eps2 is the
    signature of the induced permutation of the n pairs.
    """
    ctx = cycle_type_x(g)
    ctp = cycle_type_pairs(g)
    return Invariants(
        eps1=_signature_from_type(ctx, 2 * g.n),
        eps2=_signature_from_type(ctp, g.n),
        cycle_type_X=ctx,
        cycle_type_pairs=ctp,
    )


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def order_W(n: int, plus: bool) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k
    out *= 2 ** n
    return out // 2 if plus else out


@dataclass(frozen=True)
class WGroup:
    """The group W_{2n}, or its index-two subgroup W_{2n}^+ when plus."""
    n: int
    plus: bool

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")

    def __str__(self):
        return f"W{2 * self.n}{'+' if self.plus else ''}"


def enumerate_W(n: int, plus: bool = False, budget: int = 10 ** 7):
    """All elements of W_{2n} (or of its index-two subgroup)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if order_W(n, False) > budget:
        raise BudgetExceededError(f"|W_{2*n}| = {order_W(n, False)} "
                                  f"exceeds budget {budget}")
    out = []
    for perm in permutations(range(n)):
        for signs in iter_product((1, -1), repeat=n):
            g = SignedPerm(perm, signs)
            if plus and invariants(g).eps1 != 1:
                continue
            out.append(g)
    if len(out) != order_W(n, plus):
        raise ArithmeticError(f"enumerated {len(out)} elements, expected "
                              f"{order_W(n, plus)}")
    return out


# ---------------------------------------------------------------------------
# Class statistics from signed cycle types
# ---------------------------------------------------------------------------


def _bipartition_count(n: int, cap: int) -> int:
    """Number of pairs of partitions (alpha, beta) with |alpha| + |beta| = n,
    or the first larger count once it exceeds cap.

    The counts b(m) are the coefficients of prod_k (1 - x^k)^-2, so
    m b(m) = 2 sum_{k=1}^m sigma(k) b(m - k) with sigma the divisor sum.
    b never decreases in m, so stopping at the first b(m) > cap keeps the
    cost bounded by cap rather than by n.
    """
    b = [1]
    sigma = [0]
    for m in range(1, n + 1):
        sigma.append(sum(d for d in range(1, m + 1) if m % d == 0))
        b.append(2 * sum(sigma[k] * b[m - k] for k in range(1, m + 1)) // m)
        if b[m] > cap:
            break
    return b[-1]


def _partitions(n: int, largest: int, parts: int):
    """Partitions of n into at most `parts` parts of size <= largest,
    each as a descending tuple."""
    if n == 0:
        yield ()
        return
    # the largest part is at least n / parts
    for k in range(min(n, largest), -(-n // parts) - 1, -1):
        for rest in _partitions(n - k, k, parts - 1):
            yield (k,) + rest


def _centralizer_factor(parts) -> int:
    """prod_k (2k)^{m_k} m_k! over the multiplicities m_k of parts."""
    out = 1
    for k, mult in Counter(parts).items():
        out *= (2 * k) ** mult * factorial(mult)
    return out


def class_statistics(n: int, plus: bool, budget: int = 10 ** 5):
    """Exact frequencies of (cycle type on X, cycle type on pairs, eps1)
    over W_{2n} or W_{2n}^+, as Fractions summing to 1.

    The conjugacy classes of W_{2n} are its signed cycle types: pairs
    (alpha, beta) of partitions with |alpha| + |beta| = n, alpha holding
    the positive and beta the negative cycles on the n pairs (Young's
    bipartition classification; R. W. Carter, Conjugacy classes in the
    Weyl group, Compositio Math. 25 (1972)).  With a_k, b_k the numbers
    of k-cycles in alpha and beta, the class has

        2^n n! / prod_k (2k)^{a_k} a_k! (2k)^{b_k} b_k!

    elements.  A positive k-cycle is two k-cycles on the 2n symbols and a
    negative k-cycle one 2k-cycle, so the type on the pairs is
    alpha + beta and eps1 = (-1)^(2n - #cycles on X) = (-1)^len(beta).
    W_{2n}^+ keeps the classes with eps1 = 1.

    budget bounds the number of classes, which is counted before any
    class is listed; the default allows n <= 24.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    classes = _bipartition_count(n, budget)
    if classes > budget:
        raise BudgetExceededError(f"W_{2*n} has more than {budget} "
                                  f"conjugacy classes")
    order = order_W(n, False)
    # types[m]: each partition of m with its cycle types on X as positive
    # and as negative cycles, and its factor of the centralizer order
    types = [[(lam, tuple(sorted(lam + lam)), tuple(2 * k for k in lam),
               _centralizer_factor(lam)) for lam in _partitions(m, m, m)]
             for m in range(n + 1)]
    sizes = Counter()
    for m in range(n + 1):
        for pos, x_pos, _, z_pos in types[m]:
            for neg, _, x_neg, z_neg in types[n - m]:
                eps1 = -1 if len(neg) % 2 else 1
                if plus and eps1 != 1:
                    continue
                key = (tuple(sorted(x_pos + x_neg)),
                       tuple(sorted(pos + neg)), eps1)
                sizes[key] += order // (z_pos * z_neg)
    total = order_W(n, plus)
    if sum(sizes.values()) != total:
        raise ArithmeticError(f"class sizes sum to {sum(sizes.values())}, "
                              f"expected {total}")
    return {key: Fraction(c, total) for key, c in sizes.items()}


# ---------------------------------------------------------------------------
# Generation criterion
# ---------------------------------------------------------------------------


@dataclass
class WitnessSet:
    g1: SignedPerm | None = None   # full cycle on the pairs
    g2: SignedPerm | None = None   # prime cycle of length > n/2 on the pairs
    g3: SignedPerm | None = None   # transposition on the pairs
    g4: SignedPerm | None = None   # pairwise sign flips fixing all pairs
    g5: SignedPerm | None = None   # eps1 * eps2 = -1

    def complete(self) -> bool:
        return all(g is not None for g in
                   (self.g1, self.g2, self.g3, self.g4, self.g5))


@dataclass
class CriterionResult:
    status: str                 # "BigWithWitnesses" or "Inconclusive"
    witnesses: WitnessSet
    elements_scanned: int


def _witness_roles(g: SignedPerm, n: int):
    """Which of the five witness roles the element g can fill."""
    inv = invariants(g)
    roles = []
    ctp = inv.cycle_type_pairs
    if ctp == (n,):
        roles.append(1)
    if any(_is_prime(c) and 2 * c > n for c in ctp):
        roles.append(2)
    if sorted(ctp) == [1] * (n - 2) + [2]:
        roles.append(3)
    if g.perm == tuple(range(n)):
        flips = sum(1 for s in g.signs if s == -1)
        if flips in (1, 2):
            roles.append(4)
    if inv.eps1 * inv.eps2 == -1:
        roles.append(5)
    return roles


def subgroup_closure(gens, budget: int = 10 ** 7):
    """The subgroup generated by gens, by breadth-first closure."""
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].n
    seen = {SignedPerm.identity(n)}
    frontier = [SignedPerm.identity(n)]
    while frontier:
        new = []
        for g in frontier:
            for h in gens:
                gh = g * h
                if gh not in seen:
                    seen.add(gh)
                    new.append(gh)
                    if len(seen) > budget:
                        raise BudgetExceededError("closure exceeded budget")
        frontier = new
    return seen


def check_brauer_criterion(gens=None, sample=None,
                           budget: int = 10 ** 7) -> CriterionResult:
    """Search for the five witness elements that force a subgroup of
    W_{2n} to be W_{2n}^+ or W_{2n}.

    Closure mode (gens given): enumerate the generated subgroup and
    scan it, so the verdict is exact for that subgroup.  Streaming mode
    (sample given): scan the supplied elements only; finding all five
    witnesses is conclusive, not finding them is not.
    """
    if (gens is None) == (sample is None):
        raise ValueError("pass exactly one of gens or sample")
    pool = subgroup_closure(gens, budget) if gens is not None else sample
    witnesses = WitnessSet()
    scanned = 0
    for g in pool:
        if g.n < 2:
            raise ValueError("criterion needs n >= 2")
        scanned += 1
        for role in _witness_roles(g, g.n):
            slot = f"g{role}"
            if getattr(witnesses, slot) is None:
                setattr(witnesses, slot, g)
        if witnesses.complete():
            break
    status = "BigWithWitnesses" if witnesses.complete() else "Inconclusive"
    return CriterionResult(status, witnesses, scanned)


def witness_roles(g: SignedPerm):
    """Public view of the roles an element can fill (subset of 1..5)."""
    return _witness_roles(g, g.n)
