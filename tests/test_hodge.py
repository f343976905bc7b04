"""Hodge data of smooth even-dimensional hypersurfaces: pinned tables
for small (n, d), a brute-force count of Jacobian-ring monomials, an
independent geometric-genus oracle, symmetry and rank identities, the
signature congruence, and the attached quadratic field."""

from collections import Counter
from itertools import product
from math import comb

import pytest

from orthogal.hodge import (hodge_degree, primitive_hodge,
                            signature_congruence, k_field_hypersurface)


# h0 for n = 2..10 (even) and d = 3..9, computed independently of the
# monomial count: as coefficients of Hirzebruch's bivariate generating
# function, expanded as a truncated power series over the integers
_PINNED_H0 = {
    (2, 3): (0, 6, 0),
    (2, 4): (1, 19, 1),
    (2, 5): (4, 44, 4),
    (2, 6): (10, 85, 10),
    (2, 7): (20, 146, 20),
    (2, 8): (35, 231, 35),
    (2, 9): (56, 344, 56),
    (4, 3): (0, 1, 20, 1, 0),
    (4, 4): (0, 21, 141, 21, 0),
    (4, 5): (0, 120, 580, 120, 0),
    (4, 6): (1, 426, 1751, 426, 1),
    (4, 7): (6, 1161, 4332, 1161, 6),
    (4, 8): (21, 2667, 9331, 2667, 21),
    (4, 9): (56, 5432, 18152, 5432, 56),
    (6, 3): (0, 0, 8, 70, 8, 0, 0),
    (6, 4): (0, 1, 266, 1107, 266, 1, 0),
    (6, 5): (0, 36, 2472, 8092, 2472, 36, 0),
    (6, 6): (0, 330, 13140, 38165, 13140, 330, 0),
    (6, 7): (0, 1708, 50288, 135954, 50288, 1708, 0),
    (6, 8): (1, 6371, 154645, 398567, 154645, 6371, 1),
    (6, 9): (8, 19160, 406568, 1012664, 406568, 19160, 8),
    (8, 3): (0, 0, 0, 45, 252, 45, 0, 0, 0),
    (8, 4): (0, 0, 55, 2850, 8953, 2850, 55, 0, 0),
    (8, 5): (0, 1, 1902, 44803, 116304, 44803, 1902, 1, 0),
    (8, 6): (0, 55, 22110, 363165, 856945, 363165, 22110, 55, 0),
    (8, 7): (0, 715, 147940, 1972630, 4395456, 1972630, 147940, 715, 0),
    (8, 8): (0, 5005, 702835, 8177785, 17538157, 8177785, 702835, 5005, 0),
    (8, 9): (0, 24300, 2638800, 27889620, 58199208, 27889620, 2638800, 24300,
             0),
    (10, 3): (0, 0, 0, 1, 220, 924, 220, 1, 0, 0, 0),
    (10, 4): (0, 0, 1, 1221, 28314, 73789, 28314, 1221, 1, 0, 0),
    (10, 5): (0, 0, 364, 59268, 766272, 1703636, 766272, 59268, 364, 0, 0),
    (10, 6): (0, 1, 12232, 975338, 9551894, 19611175, 9551894, 975338, 12232,
              1, 0),
    (10, 7): (0, 78, 163592, 8895393, 74005152, 144840476, 74005152, 8895393,
              163592, 78, 0),
    (10, 8): (0, 1365, 1299662, 55535403, 414949899, 786588243, 414949899,
              55535403, 1299662, 1365, 0),
    (10, 9): (0, 12376, 7344272, 265759352, 1840026200, 3409213016, 1840026200,
              265759352, 7344272, 12376, 0),
}


def test_pinned_tables():
    # quartic surface
    t = primitive_hodge(2, 4)
    assert t.h0 == (1, 19, 1)
    assert t.N == 21
    assert (t.b_plus, t.b_minus) == (3, 19)
    assert t.full_row() == (1, 20, 1)
    assert t.signature() == -16
    # cubic surface
    c = primitive_hodge(2, 3)
    assert c.h0 == (0, 6, 0)
    assert c.N == 6
    assert (c.b_plus, c.b_minus) == (1, 6)
    assert c.signature() == -5
    assert signature_congruence(2, 3) == (-5, True)
    # cubic fourfold
    f = primitive_hodge(4, 3)
    assert f.h0 == (0, 1, 20, 1, 0)
    assert f.N == 22
    assert f.full_row() == (0, 1, 21, 1, 0)
    for (n, d), h0 in _PINNED_H0.items():
        assert primitive_hodge(n, d).h0 == h0, (n, d)


def test_monomial_count_oracle():
    # h0_{p,n-p} counts the exponent vectors b in [0, d-2]^{n+2} with
    # sum(b) = (n-p+1) d - (n+2), enumerated here one by one
    cases = [(n, d) for n in (2, 4, 6) for d in range(3, 19)
             if (d - 1) ** (n + 2) <= 10 ** 5]
    assert len(cases) == 16 + 5 + 3
    for n, d in cases:
        sums = Counter(map(sum, product(range(d - 1), repeat=n + 2)))
        want = tuple(sums[(n - p + 1) * d - (n + 2)] for p in range(n + 1))
        assert primitive_hodge(n, d).h0 == want, (n, d)


def test_geometric_genus_oracle_for_surfaces():
    # h^{n,0} of a smooth degree-d hypersurface in P^{n+1} is
    # binom(d-1, n+1), the number of degree d-n-2 monomials; checked for
    # surfaces and for n = 4, 6
    for n in (2, 4, 6):
        for d in range(3, 10):
            t = primitive_hodge(n, d)
            assert t.h0[0] == comb(d - 1, n + 1)
            assert t.h0[n] == comb(d - 1, n + 1)    # Hodge symmetry


def test_hodge_symmetry_and_rank():
    for n in (2, 4, 6):
        for d in range(3, 7):
            t = primitive_hodge(n, d)
            assert t.h0 == t.h0[::-1]
            assert all(h >= 0 for h in t.h0)
            assert sum(t.h0) == t.N == hodge_degree(n, d)
            assert t.b_plus + t.b_minus == t.N + 1


def test_signature_congruence_grid():
    for n in (2, 4):
        for d in range(3, 10, 2):
            sig, verdict = signature_congruence(n, d)
            assert verdict is True
            assert (sig - d) % 4 == 0
        for d in (4, 6, 8):
            sig, verdict = signature_congruence(n, d)
            assert verdict is None


def test_hodge_degree_formula_and_errors():
    assert hodge_degree(2, 3) == 6
    assert hodge_degree(2, 4) == 21
    assert hodge_degree(4, 3) == 22
    for n in (2, 4, 6):
        for d in range(2, 8):
            N = hodge_degree(n, d)
            assert N * d == (d - 1) * ((d - 1) ** (n + 1) + 1)
    with pytest.raises(ValueError):
        hodge_degree(3, 4)      # odd dimension
    with pytest.raises(ValueError):
        hodge_degree(2, 1)
    with pytest.raises(ValueError):
        primitive_hodge(3, 4)
    with pytest.raises(ValueError):
        primitive_hodge(2, 2)


def test_k_field():
    k3 = k_field_hypersurface(3)
    assert k3.radicand == -3 and not k3.is_rational
    assert str(k3) == "Q(sqrt(-3))"
    k5 = k_field_hypersurface(5)
    assert k5.radicand == 5 and not k5.is_rational
    k9 = k_field_hypersurface(9)
    assert k9.radicand == 9 and k9.is_rational
    assert str(k9) == "Q"
    assert k_field_hypersurface(7).radicand == -7
    with pytest.raises(ValueError):
        k_field_hypersurface(4)
    with pytest.raises(ValueError):
        k_field_hypersurface(1)
