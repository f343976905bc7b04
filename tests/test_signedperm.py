"""Hyperoctahedral groups: axioms, invariants against independent
permutation-matrix computations, exact class statistics, and the
five-witness generation criterion including its known blind spot."""

import random
from fractions import Fraction
from itertools import product as iter_product

import pytest

from orthogal import signedperm
from orthogal.errors import BudgetExceededError
from orthogal.signedperm import (SignedPerm, invariants, order_W,
                                 enumerate_W, class_statistics,
                                 subgroup_closure, check_brauer_criterion,
                                 witness_roles, cycle_type_x,
                                 cycle_type_pairs)


def _rand_elem(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return SignedPerm(perm, [rng.choice((1, -1)) for _ in range(n)])


def test_group_axioms():
    rng = random.Random(2)
    for n in (2, 3, 4):
        e = SignedPerm.identity(n)
        for _ in range(30):
            g, h, k = (_rand_elem(rng, n) for _ in range(3))
            assert (g * h) * k == g * (h * k)
            assert g * e == g and e * g == g
            assert g * g.inverse() == e
            assert g.inverse() * g == e


def test_action_composition():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randrange(2, 5)
        g, h = _rand_elem(rng, n), _rand_elem(rng, n)
        for i in range(n):
            for s in (1, -1):
                assert (g * h).image_x((i, s)) == g.image_x(h.image_x((i, s)))


def _matrix_signature(m):
    """Signature of a permutation matrix by explicit cycle counting."""
    size = len(m)
    nxt = [row.index(1) for row in zip(*m)]   # column i maps to row nxt[i]
    seen = [False] * size
    sign = 1
    for start in range(size):
        if seen[start]:
            continue
        length, cur = 0, start
        while not seen[cur]:
            seen[cur] = True
            cur = nxt[cur]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def test_invariants_against_matrix_view():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randrange(2, 6)
        g = _rand_elem(rng, n)
        inv = invariants(g)
        m = g.matrix()
        # the matrix must be a (2n x 2n) permutation matrix
        assert all(sum(row) == 1 for row in m)
        assert all(sum(col) == 1 for col in zip(*m))
        assert inv.eps1 == _matrix_signature(m)
        assert sum(inv.cycle_type_X) == 2 * n
        assert sum(inv.cycle_type_pairs) == n
        assert inv.cycle_type_X == cycle_type_x(g)
        assert inv.cycle_type_pairs == cycle_type_pairs(g)
        # eps1 and eps2 are homomorphisms
        h = _rand_elem(rng, n)
        assert invariants(g * h).eps1 == inv.eps1 * invariants(h).eps1
        assert invariants(g * h).eps2 == inv.eps2 * invariants(h).eps2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_and_order(n):
    full = enumerate_W(n, plus=False)
    plus = enumerate_W(n, plus=True)
    assert len(full) == order_W(n, False) == 2 ** n * \
        __import__("math").factorial(n)
    assert len(set(full)) == len(full)
    assert len(plus) == order_W(n, plus=True)
    if n >= 2:
        assert len(plus) * 2 == len(full)
    assert all(invariants(g).eps1 == 1 for g in plus)


def test_enumeration_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_W(12, budget=10 ** 4)


@pytest.mark.parametrize("n,plus", [(1, False), (2, False), (2, True),
                                    (3, False), (3, True), (4, False),
                                    (4, True), (5, False), (5, True)])
def test_class_statistics_exact(n, plus):
    stats = class_statistics(n, plus)
    assert sum(stats.values()) == 1
    # recount independently from the raw enumeration
    from collections import Counter
    raw = Counter()
    for g in enumerate_W(n, plus):
        inv = invariants(g)
        raw[(inv.cycle_type_X, inv.cycle_type_pairs, inv.eps1)] += 1
    total = order_W(n, plus)
    assert stats == {k: Fraction(c, total) for k, c in raw.items()}


def test_class_statistics_w2_pinned():
    # W_2 = {id, sign flip}: cycle types (1,1) and (2,) on the symbols
    stats = class_statistics(1, plus=False)
    assert stats == {
        ((1, 1), (1,), 1): Fraction(1, 2),
        ((2,), (1,), -1): Fraction(1, 2),
    }


@pytest.mark.parametrize("n,classes", [(8, 185), (12, 1165)])
def test_class_statistics_closed_form_beyond_enumeration(n, classes):
    full = class_statistics(n, plus=False, budget=classes)
    assert len(full) == classes == signedperm._bipartition_count(n, 10 ** 5)
    # the negative n-cycle: one 2n-cycle on X, centralizer of order 2n
    assert full[((2 * n,), (n,), -1)] == Fraction(1, 2 * n)
    plus = class_statistics(n, plus=True)
    assert all(e1 == 1 for _, _, e1 in plus)
    assert plus == {k: 2 * v for k, v in full.items() if k[2] == 1}
    for stats, is_plus in ((full, False), (plus, True)):
        assert sum(stats.values()) == 1
        order = order_W(n, is_plus)
        assert all((v * order).denominator == 1 for v in stats.values())


def test_class_statistics_budget_counts_classes(monkeypatch):
    def no_listing(*args):
        raise AssertionError("classes listed before the budget check")

    monkeypatch.setattr(signedperm, "_partitions", no_listing)
    with pytest.raises(BudgetExceededError):
        class_statistics(60, False)
    with pytest.raises(BudgetExceededError):
        class_statistics(8, False, budget=184)


# ---------------------------------------------------------------------------
# Generation criterion
# ---------------------------------------------------------------------------


def test_witness_roles_examples():
    # n = 4: an 8-cycle on the symbols given by a pair 4-cycle with one flip
    g1 = SignedPerm((1, 2, 3, 0), (1, 1, 1, -1))
    assert 1 in witness_roles(g1)
    # 3-cycle on pairs with 3 > 4/2 and 3 prime
    g2 = SignedPerm((1, 2, 0, 3), (1, 1, 1, 1))
    assert 2 in witness_roles(g2)
    # pair transposition
    g3 = SignedPerm((1, 0, 2, 3), (1, 1, 1, 1))
    assert 3 in witness_roles(g3)
    # one sign flip fixing all pairs
    g4 = SignedPerm((0, 1, 2, 3), (-1, 1, 1, 1))
    assert 4 in witness_roles(g4)
    assert invariants(g4).eps1 * invariants(g4).eps2 == -1
    assert 5 in witness_roles(g4)


def test_subgroup_closure_small():
    n = 3
    flip = SignedPerm((0, 1, 2), (-1, 1, 1))
    cyc = SignedPerm((1, 2, 0), (1, 1, 1))
    swap = SignedPerm((1, 0, 2), (1, 1, 1))
    closure = subgroup_closure([flip, cyc, swap])
    assert len(closure) == order_W(3, False)
    # sign flips alone generate the (Z/2)^n subgroup
    closure2 = subgroup_closure([SignedPerm((0, 1, 2), (-1, 1, 1)),
                                 SignedPerm((0, 1, 2), (1, -1, 1)),
                                 SignedPerm((0, 1, 2), (1, 1, -1))])
    assert len(closure2) == 8


@pytest.mark.parametrize("n", [2, 3, 4])
def test_criterion_certifies_full_group(n):
    flip = SignedPerm(range(n), [-1] + [1] * (n - 1))
    cyc = SignedPerm([(i + 1) % n for i in range(n)], [1] * n)
    swap = SignedPerm([1, 0] + list(range(2, n)), [1] * n)
    res = check_brauer_criterion(gens=[flip, cyc, swap])
    assert res.status == "BigWithWitnesses"
    assert res.witnesses.complete()
    for slot in ("g1", "g2", "g3", "g4", "g5"):
        g = getattr(res.witnesses, slot)
        assert int(slot[1]) in witness_roles(g)


@pytest.mark.parametrize("n", [2, 3])
def test_criterion_never_certifies_eps_kernel(n):
    # ker(eps1 * eps2) contains witnesses of kinds 1-4 but never kind 5,
    # so the criterion must stay Inconclusive on all of it
    kernel = [g for g in enumerate_W(n, plus=False)
              if invariants(g).eps1 * invariants(g).eps2 == 1]
    assert len(kernel) == order_W(n, False) // 2
    res = check_brauer_criterion(sample=kernel)
    assert res.status == "Inconclusive"
    assert res.witnesses.g5 is None
    # closure mode over generators of the kernel agrees
    res2 = check_brauer_criterion(gens=kernel[:6])
    assert res2.status == "Inconclusive"


def test_criterion_argument_validation():
    with pytest.raises(ValueError):
        check_brauer_criterion()
    with pytest.raises(ValueError):
        check_brauer_criterion(gens=[SignedPerm((0, 1), (1, 1))],
                               sample=[SignedPerm((0, 1), (1, 1))])
    with pytest.raises(ValueError):
        check_brauer_criterion(sample=[SignedPerm((0,), (1,))])
