"""Field arithmetic tests: axioms on random samples, brute-force square
class oracles, and canonical modulus checks."""

import random

import pytest

from orthogal.ffield import (Fq, get_field, conway_like_modulus, SquareClass,
                             SQUARE, NONSQUARE, ZERO_CLASS)
from orthogal.poly import Poly, is_irreducible


FIELDS = [(3, 1), (5, 1), (7, 1), (13, 1), (3, 2), (3, 3), (5, 2), (7, 2)]


@pytest.mark.parametrize("p,e", FIELDS)
def test_field_axioms(p, e):
    F = get_field(p, e)
    rng = random.Random(1000 * p + e)
    elems = [rng.randrange(F.q) for _ in range(40)]
    for a, b, c in zip(elems, elems[1:], elems[2:]):
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, F.neg(a)) == 0
        assert F.sub(a, b) == F.add(a, F.neg(b))
        if a:
            assert F.mul(a, F.inv(a)) == 1
            assert F.div(b, a) == F.mul(b, F.inv(a))
    assert F.add(0, 7 % F.q) == 7 % F.q
    assert F.mul(1, elems[0]) == elems[0]


@pytest.mark.parametrize("p,e", FIELDS)
def test_pow_matches_repeated_multiplication(p, e):
    F = get_field(p, e)
    rng = random.Random(p * e)
    for _ in range(20):
        a = rng.randrange(1, F.q)
        n = rng.randrange(0, 3 * F.q)
        acc = 1
        for _ in range(n):
            acc = F.mul(acc, a)
        assert F.pow(a, n) == acc
    assert F.pow(0, 0) == 1
    assert F.pow(0, 5) == 0


@pytest.mark.parametrize("p,e", FIELDS)
def test_vector_roundtrip_and_from_int(p, e):
    F = get_field(p, e)
    for a in range(F.q):
        assert F.from_vector(F.to_vector(a)) == a
    for n in range(-2 * p, 2 * p):
        assert F.from_int(n) == n % p
    # integers embed through the prime subfield: addition is compatible
    for m in range(5):
        for n in range(5):
            assert F.add(F.from_int(m), F.from_int(n)) == F.from_int(m + n)
            assert F.mul(F.from_int(m), F.from_int(n)) == F.from_int(m * n)


@pytest.mark.parametrize("p,e", FIELDS)
def test_square_class_against_explicit_squares(p, e):
    F = get_field(p, e)
    squares = F.squares()
    assert len(squares) == (F.q - 1) // 2
    assert F.square_class(0) == ZERO_CLASS
    for a in range(1, F.q):
        want = SQUARE if a in squares else NONSQUARE
        assert F.square_class(a) == want
    # the same answers with log tables built
    F2 = Fq(p, e)
    F2.build_logs()
    for a in range(1, F2.q):
        assert F2.square_class(a) == F.square_class(a)


def test_square_class_group_law():
    assert SQUARE * SQUARE == SQUARE
    assert SQUARE * NONSQUARE == NONSQUARE
    assert NONSQUARE * NONSQUARE == SQUARE
    assert ZERO_CLASS * SQUARE == ZERO_CLASS
    assert NONSQUARE * ZERO_CLASS == ZERO_CLASS
    assert SQUARE.sign == 1 and NONSQUARE.sign == -1
    with pytest.raises(ValueError):
        ZERO_CLASS.sign
    # multiplicativity on actual field elements
    F = get_field(7, 2)
    for a in range(F.q):
        for b in range(0, F.q, 5):
            assert (F.square_class(F.mul(a, b))
                    == F.square_class(a) * F.square_class(b))


@pytest.mark.parametrize("p,e", [(3, 2), (3, 3), (5, 2), (7, 2), (11, 2)])
def test_conway_like_modulus_is_least_irreducible(p, e):
    m = conway_like_modulus(p, e)
    assert len(m) == e + 1 and m[-1] == 1
    assert is_irreducible(Poly(m, get_field(p)))
    # nothing lexicographically smaller is irreducible
    code_m = sum(c * p ** i for i, c in enumerate(m[:-1]))
    for code in range(code_m):
        coeffs = []
        c = code
        for _ in range(e):
            coeffs.append(c % p)
            c //= p
        cand = coeffs + [1]
        if cand[0] == 0:
            continue
        assert not is_irreducible(Poly(cand, get_field(p))), (p, e, cand)


@pytest.mark.parametrize("p,e", FIELDS)
def test_generator_has_full_order(p, e):
    F = get_field(p, e)
    g = F.generator()
    seen = set()
    acc = 1
    for _ in range(F.q - 1):
        seen.add(acc)
        acc = F.mul(acc, g)
    assert acc == 1
    assert len(seen) == F.q - 1


def test_build_tables_consistency():
    F = Fq(3, 3)
    direct = [(a, b, F.mul(a, b)) for a in range(F.q) for b in range(F.q)]
    inv_direct = [F.inv(a) for a in range(1, F.q)]
    F.build_tables()
    for a, b, v in direct:
        assert F.mul(a, b) == v
    for a, v in zip(range(1, F.q), inv_direct):
        assert F.inv(a) == v


def test_build_logs_consistency():
    F = Fq(5, 2)
    F.build_logs()
    g = F.generator()
    for i, v in enumerate(F._exp):
        assert v == F.pow(g, i)
        assert F._log[v] == i


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        Fq(4)
    with pytest.raises(ValueError):
        Fq(2)
    with pytest.raises(ValueError):
        Fq(5, 0)
    with pytest.raises(ValueError):
        conway_like_modulus(5, 1)
    F = get_field(5)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_get_field_is_shared():
    assert get_field(7, 2) is get_field(7, 2)
    assert get_field(7, 2) == Fq(7, 2)
