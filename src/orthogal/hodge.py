"""
Primitive Hodge numbers of smooth degree-d hypersurfaces of even
dimension n, their middle-cohomology signature, and the real quadratic
field attached to the family when the orthogonal rank is even.

The primitive numbers h0_{p,q} (p + q = n) are read off an exact
truncated bivariate integer power series: the two-variable generating
function is rewritten with the common factor (y - z) cancelled so that
both numerator and denominator become series with unit constant term,
and the denominator is inverted by the standard recursion over the
integers.  No floating point is involved anywhere, which is what makes
the mod-4 signature congruence checkable exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .galclass import KField


# ---------------------------------------------------------------------------
# Truncated bivariate integer series (grids of Python ints)
# ---------------------------------------------------------------------------


def _zero(bound: int):
    return [[0] * bound for _ in range(bound)]


def _mul2(a, b, bound: int):
    out = _zero(bound)
    for i in range(bound):
        row = a[i]
        for k in range(bound):
            c = row[k]
            if c == 0:
                continue
            for j in range(bound - i):
                brow = b[j]
                for m in range(bound - k):
                    v = brow[m]
                    if v:
                        out[i + j][k + m] += c * v
    return out


def _inv2(a, bound: int):
    """Inverse of a series with constant term +-1."""
    c0 = a[0][0]
    if c0 not in (1, -1):
        raise ValueError("series is not a unit")
    out = _zero(bound)
    out[0][0] = c0
    # solve a * out = 1 degree by degree (total degree order)
    for deg in range(1, 2 * bound - 1):
        for i in range(min(deg, bound - 1), -1, -1):
            k = deg - i
            if k >= bound:
                continue
            s = 0
            for j in range(i + 1):
                for m in range(k + 1):
                    if j == i and m == k:
                        continue
                    s += a[i - j][k - m] * out[j][m]
            out[i][k] = -c0 * s
    return out


def _binom_power(var: int, d: int, bound: int):
    """(1 + y)^d if var == 0 else (1 + z)^d, as a truncated grid."""
    out = _zero(bound)
    for k in range(min(d, bound - 1) + 1):
        if var == 0:
            out[k][0] = comb(d, k)
        else:
            out[0][k] = comb(d, k)
    return out


def _hirzebruch_series(d: int, bound: int):
    """The grid of primitive Hodge numbers h0_{p,q} as coefficients of
    y^p z^q.

    The defining expression is
        1/((1+y)(1+z)) * ( ((1+y)^d - (1+z)^d)
                           / (y (1+z)^d - z (1+y)^d) - 1 ).
    Numerator and denominator of the inner fraction share the factor
    (y - z); cancelling it leaves
        M = sum_{i=0}^{d-1} (1+y)^i (1+z)^{d-1-i}
        E = (1+z)^d - z M
    with E(0,0) = 1, so everything happens inside Z[[y, z]].
    """
    ypows = [_binom_power(0, i, bound) for i in range(d)]
    zpows = [_binom_power(1, i, bound) for i in range(d + 1)]
    M = _zero(bound)
    for i in range(d):
        term = _mul2(ypows[i], zpows[d - 1 - i], bound)
        for r in range(bound):
            for c in range(bound):
                M[r][c] += term[r][c]
    zM = _zero(bound)
    for r in range(bound):
        for c in range(bound - 1):
            zM[r][c + 1] = M[r][c]
    E = [[zpows[d][r][c] - zM[r][c] for c in range(bound)]
         for r in range(bound)]
    ratio = _mul2(M, _inv2(E, bound), bound)
    ratio[0][0] -= 1
    onep = _mul2(_binom_power(0, 1, bound), _binom_power(1, 1, bound), bound)
    return _mul2(ratio, _inv2(onep, bound), bound)


def _alternating_check(d: int, n: int) -> int:
    """sum_{p+q=n} (-1)^p h0_{p,q} through the one-variable
    specialization y = -x, z = x: the series (alpha/beta - 1)/(1-x^2)
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
    degree-d hypersurface in projective (n+1)-space, n even."""
    if n < 2 or n % 2 != 0:
        raise ValueError("n must be even and >= 2")
    if d < 3:
        raise ValueError("d must be >= 3")
    grid = _hirzebruch_series(d, n + 1)
    h0 = tuple(grid[p][n - p] for p in range(n + 1))
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
