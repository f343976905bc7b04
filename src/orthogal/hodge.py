"""
Primitive Hodge numbers of smooth degree-d hypersurfaces of even
dimension n, their middle-cohomology signature, and the real quadratic
field attached to the family when the orthogonal rank is even.

The Hodge numbers depend only on (n, d), so they may be read off the
Fermat hypersurface x_0^d + ... + x_{n+1}^d = 0.  Griffiths (On the
periods of certain rational integrals, Ann. of Math. 90, 1969)
identifies h0_{p,n-p} with the dimension of the degree
s_p = (n - p + 1) d - (n + 2) part of the Jacobian ring
C[x_0, ..., x_{n+1}] / (x_i^{d-1}), whose monomial basis is x^b with
0 <= b_i <= d - 2.  Counting those exponent vectors by inclusion-
exclusion over the coordinates that exceed d - 2 gives a sum of
binomials.  Only integers are involved, which is what makes the mod-4
signature congruence checkable exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .galclass import KField


def _jacobian_count(n: int, d: int, p: int) -> int:
    """h0_{p,n-p} = #{b in [0, d-2]^{n+2} : sum(b) = s}, where
    s = (n - p + 1) d - (n + 2).

    Without the upper bounds, C(s + n + 1, n + 1) vectors b >= 0 sum to
    s.  Those with every coordinate of a given j-set >= d - 1 are, after
    subtracting d - 1 from each, the unbounded vectors summing to
    s - j(d-1).  Inclusion-exclusion over the C(n+2, j) j-sets leaves
    the vectors with no coordinate above d - 2.
    """
    s = (n - p + 1) * d - (n + 2)
    return sum((-1) ** j * comb(n + 2, j) * comb(s - j * (d - 1) + n + 1, n + 1)
               for j in range(n + 3) if s - j * (d - 1) >= 0)


def _alternating_check(d: int, n: int) -> int:
    """sum_{p+q=n} (-1)^p h0_{p,q} by an independent route: Hirzebruch's
    generating function for the h0_{p,q} as coefficients of y^p z^q,
    specialized to y = -x, z = x, is the series (alpha/beta - 1)/(1-x^2)
    with alpha = sum C(d,2k+1) x^{2k}, beta = sum C(d,2k) x^{2k}."""
    bound = n + 1
    alpha = [0] * bound
    beta = [0] * bound
    for k in range(0, bound, 2):
        alpha[k] = comb(d, k + 1)
        beta[k] = comb(d, k)
    inv = [0] * bound
    inv[0] = 1
    for i in range(1, bound):
        inv[i] = -sum(beta[j] * inv[i - j] for j in range(1, i + 1))
    ratio = [sum(alpha[j] * inv[i - j] for j in range(i + 1))
             for i in range(bound)]
    ratio[0] -= 1
    # multiply by 1/(1-x^2) = 1 + x^2 + x^4 + ...
    return sum(ratio[i] for i in range(n % 2, n + 1, 2))


# ---------------------------------------------------------------------------
# Public interface
# ---------------------------------------------------------------------------


def hodge_degree(n: int, d: int) -> int:
    """N = (d-1)((d-1)^{n+1}+1)/d: the rank of the middle primitive
    cohomology (an integer whenever n is even)."""
    if n < 0 or n % 2 != 0 or d < 2:
        raise ValueError("need n even >= 0 and d >= 2")
    num = (d - 1) * ((d - 1) ** (n + 1) + 1)
    if num % d != 0:
        raise ArithmeticError(f"N is not an integer for n = {n}, d = {d}")
    return num // d


@dataclass(frozen=True)
class HodgeTable:
    """Middle-dimensional Hodge data of a smooth degree-d hypersurface
    of even dimension n."""
    n: int
    d: int
    h0: tuple              # h0[p] = primitive h_{p, n-p}, p = 0..n
    N: int
    b_plus: int
    b_minus: int

    def full_row(self):
        """The non-primitive middle Hodge numbers h^{p, n-p} (the
        diagonal entry gains the class of the linear section)."""
        return tuple(h + (1 if 2 * p == self.n else 0)
                     for p, h in enumerate(self.h0))

    def signature(self) -> int:
        return self.b_plus - self.b_minus


def primitive_hodge(n: int, d: int) -> HodgeTable:
    """Primitive Hodge numbers h0_{p,q} (p + q = n) of a smooth
    degree-d hypersurface in projective (n+1)-space, n even.

    h0_{p,n-p} is the number of monomials x^b of degree s_p =
    (n - p + 1) d - (n + 2) in the Jacobian ring of the Fermat
    hypersurface, 0 <= b_i <= d - 2 (Griffiths), counted by
    inclusion-exclusion.  Two checks guard the count: the alternating
    sum against Hirzebruch's one-variable specialization, and
    sum(h0) == N."""
    if n < 2 or n % 2 != 0:
        raise ValueError("n must be even and >= 2")
    if d < 3:
        raise ValueError("d must be >= 3")
    h0 = tuple(_jacobian_count(n, d, p) for p in range(n + 1))
    alt = sum((-1) ** p * h0[p] for p in range(n + 1))
    if alt != _alternating_check(d, n):
        raise ArithmeticError("alternating Hodge sum disagrees with the "
                              "y = -x, z = x specialization")
    N = hodge_degree(n, d)
    if sum(h0) != N:
        raise ArithmeticError(f"primitive Hodge numbers sum to {sum(h0)}, "
                              f"expected N = {N}")
    # b+ - b- over the full middle cohomology (Hodge index theorem):
    # the non-middle even rows contribute 1 - (-1)^{n/2}
    sig = alt + (-1) ** (n // 2) + 1 - (-1) ** (n // 2)
    total = N + 1
    if (total + sig) % 2 != 0:
        raise ArithmeticError(f"signature {sig} and rank {total} differ "
                              "in parity")
    b_plus = (total + sig) // 2
    b_minus = (total - sig) // 2
    if b_plus < 0 or b_minus < 0:
        raise ArithmeticError(f"signature {sig} exceeds the rank {total}")
    return HodgeTable(n=n, d=d, h0=h0, N=N, b_plus=b_plus, b_minus=b_minus)


def signature_congruence(n: int, d: int):
    """(b+ - b-, verdict): the middle-cohomology signature and whether
    it is congruent to d mod 4.  The congruence is only claimed for odd
    d; for even d the signature is still returned with verdict None."""
    table = primitive_hodge(n, d)
    sig = table.signature()
    if d % 2 == 0:
        return sig, None
    return sig, (sig - d) % 4 == 0


def k_field_hypersurface(d: int) -> KField:
    """The quadratic field Q(sqrt((-1)^{(d-1)/2} d)) attached to the
    degree-d family of even-dimensional hypersurfaces (d odd, the
    even-rank case); it is Q exactly when d is a perfect square."""
    if d < 3 or d % 2 == 0:
        raise ValueError("d must be odd and >= 3")
    return KField.from_radicand((-1) ** ((d - 1) // 2) * d)
