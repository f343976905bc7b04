"""Field arithmetic tests: axioms on random samples, brute-force square
class oracles, canonical modulus checks, and the exp/log tables with the
table-driven scalar and vectorized ops against the polynomial path."""

import random

import numpy as np
import pytest

from orthogal import ffield
from orthogal.ffield import (Fq, get_field, conway_like_modulus, SquareClass,
                             SQUARE, NONSQUARE, ZERO_CLASS, _poly_mul_mod_p,
                             _poly_rem_mod_p)
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


def test_build_logs_consistency():
    F = Fq(5, 2)
    F.build_logs()
    g = F.generator()
    for i, v in enumerate(F.vexp(np.arange(F.q - 1)).tolist()):
        assert v == F.pow(g, i)
        assert F.vlog(v) == i


# -- the tables against the polynomial path ----------------------------------


def _oracle_mul(F, a, b):
    """a * b in F by residue-polynomial multiplication, no tables."""
    if F.e == 1:
        return a * b % F.p
    prod = _poly_mul_mod_p(F.to_vector(a), F.to_vector(b), F.p)
    return F.from_vector(_poly_rem_mod_p(prod, F.modulus, F.p))


def _oracle_pow(F, a, n):
    acc = 1
    for _ in range(n):
        acc = _oracle_mul(F, acc, a)
    return acc


def _loop_logs(F):
    """The former Python-loop builder: (exp, log) lists with log[0]
    unused, stepping through the powers of the fixed generator."""
    g = F.generator()
    exp = [0] * (F.q - 1)
    log = [0] * F.q
    acc = 1
    for i in range(F.q - 1):
        exp[i] = acc
        log[acc] = i
        acc = _oracle_mul(F, acc, g)
    return exp, log


@pytest.mark.parametrize("p,e", [(5, k) for k in range(2, 7)]
                         + [(7, k) for k in range(2, 6)] + [(3, 1), (13, 1)])
def test_exp_log_tables_match_the_loop_builder(p, e):
    F = Fq(p, e)
    exp, log = _loop_logs(F)
    F.build_logs()
    assert F.vexp(np.arange(F.q - 1)).tolist() == exp
    # the exponent range is doubled, so a sum of two logs indexes directly
    assert F.vexp(np.arange(F.q - 1, 2 * F.q - 2)).tolist() == exp
    assert F.vlog(np.arange(1, F.q)).tolist() == log[1:]
    assert F.vlog(0) == -1
    chi = F.vchi(np.arange(F.q)).tolist()
    assert chi == [0] + [1 if log[a] % 2 == 0 else -1 for a in range(1, F.q)]


@pytest.mark.parametrize("p,e", [(3, 2), (5, 2), (3, 3)])
def test_table_ops_match_the_polynomial_path(p, e):
    F = Fq(p, e)
    q = F.q
    for a in range(q):
        for b in range(q):
            assert F.mul(a, b) == _oracle_mul(F, a, b)
    for a in range(1, q):
        assert _oracle_mul(F, a, F.inv(a)) == 1
        powers = [1]
        for _ in range(2 * q):
            powers.append(_oracle_mul(F, powers[-1], a))
        assert [F.pow(a, n) for n in range(2 * q + 1)] == powers
        assert F.pow(a, -1) == F.inv(a)
        want = SQUARE if powers[(q - 1) // 2] == 1 else NONSQUARE
        assert F.square_class(a) == want
    assert F.pow(0, 0) == 1 and F.pow(0, 3) == 0


def test_scalar_ops_keep_the_polynomial_path_above_the_bound(monkeypatch):
    monkeypatch.setattr(ffield, "TABLE_MAX_Q", 8)
    F = Fq(3, 2)
    assert F.mul(4, 7) == _oracle_mul(F, 4, 7)
    assert F.inv(5) == _oracle_pow(F, 5, 7)
    assert F.square_class(2) == (SQUARE if _oracle_pow(F, 2, 4) == 1
                                 else NONSQUARE)
    assert F._log is None
    assert F.vlog(np.arange(1, 3)).shape == (2,)      # vectorized: built
    assert F.mul(4, 7) == _oracle_mul(F, 4, 7)        # and now read


@pytest.mark.parametrize("p,e", [(5, 6), (7, 5), (101, 3), (1031, 2)])
def test_vectorized_ops_match_the_scalar_ops(p, e):
    F = Fq(p, e)
    rng = np.random.default_rng(p * e)
    u = rng.integers(0, F.q, 300)
    v = rng.integers(0, F.q, 300)
    u[:3] = 0
    v[3:5] = 0
    want_mul = [_oracle_mul(F, a, b) for a, b in zip(u.tolist(), v.tolist())]
    want_add = [F.add(a, b) for a, b in zip(u.tolist(), v.tolist())]
    assert F.vmul(u, v).tolist() == want_mul
    assert F.vadd(u, v).tolist() == want_add
    assert F.vadd(u[:, None], v[None, :5]).tolist() == [
        [F.add(a, b) for b in v[:5].tolist()] for a in u.tolist()]
    coeffs = rng.integers(0, F.q, 4).tolist()
    want_eval = []
    for t in u.tolist():
        acc = 0
        for c in reversed(coeffs):
            acc = F.add(_oracle_mul(F, acc, t), c)
        want_eval.append(acc)
    assert F.veval(coeffs, u).tolist() == want_eval


def test_add_tables_stay_within_the_bound():
    for p, e in [(5, k) for k in range(2, 7)] + [(7, k) for k in range(2, 6)]:
        blocks = ffield._digit_blocks(p, e)
        assert blocks == [e // 2, e - e // 2], (p, e)
    assert ffield._digit_blocks(101, 3) == [1, 1, 1]
    assert ffield._digit_blocks(11, 12) == [2] * 6
    assert ffield._digit_blocks(1031, 2) == [1, 1]
    assert ffield._block_add_table(1031, 1) is None
    for p, k in [(5, 4), (7, 3), (101, 1), (11, 2)]:
        assert ffield._block_add_table(p, k).size <= ffield.ADD_TABLE_MAX


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
