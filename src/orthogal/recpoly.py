"""
Reciprocal polynomials and their trace forms.

A monic polynomial f of even degree 2n is reciprocal when
T^{2n} f(1/T) = f(T); its roots come in pairs a, 1/a and f can be
written uniquely as f(T) = T^n h(T + 1/T) for a monic h of degree n
(the trace form; roots of h are the sums a + 1/a).  This module
implements:

  * strip      - remove the linear factors forced by the functional
                 equation of a degree-N polynomial, leaving a monic-by-
                 construction reciprocal core of even degree;
  * to_trace_form / trace_lift - the exact transform in both directions;
  * disc_identity - disc(f) = h(2) h(-2) disc(h)^2
                  = (-1)^n f(1) f(-1) disc(h)^2, all sides computed
                 independently;
  * classify_H / in_F_class - the six factorization-pattern classes of
                 trace forms used by the Galois classifier;
  * count_irreducible_classes - exact counts of irreducible degree-m
                 polynomials bucketed by the square classes of h(2), h(-2).
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, NotReciprocalError
from .ffield import get_field, SquareClass, _is_prime, _prime_factors
from .poly import Poly, factor_degrees


# ---------------------------------------------------------------------------
# Stripping and trace forms
# ---------------------------------------------------------------------------


@dataclass
class StrippedPoly:
    f: Poly          # reciprocal core, even degree 2n
    removed: str     # "", "1-T", "1+T", or "1-T^2"
    epsilon: int     # sign in T^N P(1/T) = eps P(T)
    original_degree: int

    @property
    def n(self) -> int:
        return self.f.degree // 2


def _negate(c, F):
    return -c if F is None else F.neg(c)


def reciprocal_sign(P: Poly):
    """eps with T^N P(1/T) = eps P(T), or None."""
    rev = list(reversed(P.coeffs))
    fwd = list(P.coeffs)
    if rev == fwd:
        return 1
    F = P.field
    if rev == [_negate(c, F) for c in fwd]:
        return -1
    return None


def strip(P: Poly) -> StrippedPoly:
    """Remove the linear factors forced by the functional equation.

    N odd: divide by (1 + eps*T).  N even and eps = -1: divide by
    (1 - T^2).  N even and eps = 1: unchanged.  Divisions are exact by
    construction; a failure means P was not reciprocal.
    """
    N = P.degree
    if N <= 2:
        raise ValueError("degree must exceed 2")
    eps = reciprocal_sign(P)
    if eps is None:
        raise NotReciprocalError(f"no sign satisfies the functional equation: {P}")
    F = P.field
    if N % 2 == 1:
        # the forced root is -eps; divide by the monic factor T + eps
        # so the core stays monic
        div = Poly([eps, 1], F)
        removed = "1+T" if eps == 1 else "1-T"
    elif eps == -1:
        div = Poly([-1, 0, 1], F)
        removed = "1-T^2"
    else:
        return StrippedPoly(P, "", 1, N)
    q, r = P.divmod(div)
    if not r.is_zero():
        raise NotReciprocalError("forced linear factor does not divide exactly")
    return StrippedPoly(q, removed, eps, N)


@dataclass
class TraceForm:
    h: Poly


def _basis_poly(n: int, k: int, F) -> Poly:
    """T^(n-k) (T^2+1)^k, the expansion of T^n (T+1/T)^k."""
    return Poly([0] * (n - k) + [1], F) * (Poly([1, 0, 1], F) ** k)


def to_trace_form(f: Poly) -> TraceForm:
    """The unique monic h of degree n with f(T) = T^n h(T + 1/T).

    Solved by exact triangular elimination against the basis
    T^(n-k)(T^2+1)^k, top degree first.
    """
    if f.is_zero() or f.degree % 2 != 0 or f.degree < 2:
        raise NotReciprocalError("need even degree >= 2")
    if not f.is_monic():
        raise NotReciprocalError("trace form requires a monic polynomial")
    if reciprocal_sign(f) != 1:
        raise NotReciprocalError("not reciprocal with sign +1")
    F = f.field
    if F is not None and F.p == 2:
        raise ValueError("characteristic 2 unsupported")
    n = f.degree // 2
    residual = f
    hc = [0] * (n + 1)
    for k in range(n, -1, -1):
        coeffs = residual.coeffs
        c = coeffs[n + k] if n + k < len(coeffs) else 0
        hc[k] = c
        if c:
            residual = residual - _basis_poly(n, k, F).scale(c)
    if not residual.is_zero():
        raise NotReciprocalError("no exact trace form (non-reciprocal input)")
    return TraceForm(Poly(hc, F))


def trace_lift(h: Poly) -> Poly:
    """f(T) = T^n h(T + 1/T) expanded exactly."""
    F = h.field
    n = h.degree
    out = Poly([], F)
    for k, c in enumerate(h.coeffs):
        if c:
            out = out + _basis_poly(n, k, F).scale(c)
    return out


def disc_identity(f: Poly):
    """Both printed forms of the discriminant identity.

    Returns (lhs, rhs, cross) where lhs = disc(f),
    rhs = h(2) h(-2) disc(h)^2 and cross = (-1)^n f(1) f(-1) disc(h)^2.
    """
    from .poly import discriminant

    h = to_trace_form(f).h
    F = f.field
    n = h.degree
    lhs = discriminant(f)
    dh = discriminant(h) if h.degree >= 1 else (1 if F is None else 1)
    if F is None:
        rhs = h(2) * h(-2) * dh * dh
        cross = (-1) ** n * f(1) * f(-1) * dh * dh
    else:
        rhs = F.mul(F.mul(h.eval_int(2), h.eval_int(-2)), F.mul(dh, dh))
        cross = F.mul(F.mul(f.eval_int(1), f.eval_int(-1)), F.mul(dh, dh))
        if n % 2 == 1:
            cross = F.neg(cross)
    return lhs, rhs, cross


# ---------------------------------------------------------------------------
# The six factorization classes
# ---------------------------------------------------------------------------


def in_P_n(h: Poly) -> bool:
    """Membership in the base set: monic, separable, h(2) h(-2) != 0."""
    if not h.is_monic() or h.degree < 1:
        return False
    if h.eval_int(2) == 0 or h.eval_int(-2) == 0:
        return False
    return h.is_squarefree()


def classes_from_degrees(hdeg, fdeg) -> frozenset:
    """Class indices from the factor degree multisets of h and its lift.

    Assumes the base-set conditions already hold (h monic separable
    with h(2) h(-2) != 0).  Memoised on the sorted patterns.
    """
    return _pattern_classes(tuple(sorted(hdeg)), tuple(sorted(fdeg)))


@functools.lru_cache(maxsize=4096)
def _pattern_classes(hdeg: tuple, fdeg: tuple) -> frozenset:
    n = sum(hdeg)
    if n == 1:
        return frozenset({1, 2, 3, 4, 5, 6} if fdeg == (2,)
                         else {1, 2, 3, 4, 5})
    out = set()
    if hdeg == (n,):
        out.add(1)
    if any(_is_prime(d) and 2 * d > n for d in hdeg):
        out.add(2)
    if hdeg.count(2) == 1 and all(d % 2 == 1 for d in hdeg if d != 2):
        out.add(3)
    f_quads = fdeg.count(2)
    f_rest_odd = all(d % 2 == 1 for d in fdeg if d != 2)
    if all(d % 2 == 1 for d in hdeg) and f_quads in (1, 2) and f_rest_odd:
        out.add(4)
    evens = sum(1 for d in hdeg + fdeg if d % 2 == 0)
    if evens % 2 == 1:
        out.add(5)
    if f_quads == 1 and f_rest_odd:
        out.add(6)
    return frozenset(out)


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


def _lift_patterns(sizes, spare: int):
    """Factor degrees of the lift of an h with sizes[k] factors of degree
    k, one list per way that at most `spare` of them split."""
    if not sizes:
        yield []
        return
    (k, m), rest = sizes[0], sizes[1:]
    for s in range(min(m, spare) + 1):
        for tail in _lift_patterns(rest, spare - s):
            yield [2 * k] * (m - s) + [k] * (2 * s) + tail


@functools.lru_cache(maxsize=256)
def _reachable_classes(n: int, f_square: bool, h_square: bool,
                       fh_square: bool, parts: tuple = ()) -> frozenset:
    """The classes a good odd prime l can show for a degree-n h whose
    disc(f), disc(h) and disc(f) disc(h) are squares mod l where
    flagged (an unflagged one may be either).

    parts: the sorted pairs (deg h_i, whether T^k h_i(T + 1/T) splits
    over Q) for the factors h_i of h over Q; empty means ((n, False),),
    an h taken as irreducible.  Each h_i mod l is a partition of
    deg h_i, and a part of degree k lifts to [2k] or [k, k], always to
    [k, k] when the lift of h_i splits over Q: its two factors over Q
    take one root of each pair a, 1/a, and stay coprime mod l.

    By Stickelberger a squarefree reduction has (disc/l) =
    (-1)^(number of even-degree factors).  Patterns with more than
    eight f-factors are skipped, as classify skips those primes.  The
    classes of the pairs whose parities fit the flags come from
    classes_from_degrees.
    """
    parts = parts or ((n, False),)
    if sum(d for d, _ in parts) != n:
        raise ValueError(f"factor degrees {parts} do not add up to {n}")
    out: set = set()
    seen = set()
    for patterns in itertools.product(*(_partitions(d, d, 8)
                                        for d, _ in parts)):
        free = tuple(sorted(k for (_, lifts), ks in zip(parts, patterns)
                            if not lifts for k in ks))
        forced = tuple(sorted(k for (_, lifts), ks in zip(parts, patterns)
                              if lifts for k in ks))
        spare = 8 - len(free) - 2 * len(forced)
        if spare < 0 or (free, forced) in seen:
            continue
        seen.add((free, forced))
        hdeg = free + forced
        h_odd = sum(k % 2 == 0 for k in hdeg) % 2
        for fdeg in _lift_patterns(sorted(Counter(free).items()), spare):
            fdeg = fdeg + [k for k in forced for _ in (0, 1)]
            f_odd = sum(k % 2 == 0 for k in fdeg) % 2
            if ((f_square and f_odd) or (h_square and h_odd)
                    or (fh_square and f_odd != h_odd)):
                continue
            out |= classes_from_degrees(hdeg, fdeg)
    return frozenset(out)


def classify_H(h: Poly) -> set:
    """The set of class indices i in {1..6} with h in H_{n,i}.

    Empty when h fails the base-set conditions (separability or a
    boundary zero).  Decided from the factor degree multisets of h and
    of its lift f = T^n h(T+1/T).
    """
    if h.field is None:
        raise ValueError("classify_H works over a finite field")
    if not in_P_n(h):
        return set()
    f = trace_lift(h)
    return set(classes_from_degrees(factor_degrees(h), factor_degrees(f)))


def in_F_class(f: Poly, i: int, alpha: SquareClass, beta: SquareClass) -> bool:
    """Membership of f in the class F_{2n,i}^{alpha,beta}.

    Requires f = T^n h(T+1/T) with h in H_{n,i}, boundary values
    f(1), f(-1) nonzero with the prescribed square classes, and at most
    eight irreducible factors in f.
    """
    F = f.field
    if F is None:
        raise ValueError("in_F_class works over a finite field")
    if f.degree % 2 != 0 or not f.is_monic():
        return False
    try:
        h = to_trace_form(f).h
    except NotReciprocalError:
        return False
    if i not in classify_H(h):
        return False
    if F.square_class(f.eval_int(1)) != alpha:
        return False
    if F.square_class(f.eval_int(-1)) != beta:
        return False
    return len(factor_degrees(f)) <= 8


# ---------------------------------------------------------------------------
# Counting irreducible polynomials by boundary square classes
# ---------------------------------------------------------------------------


@dataclass
class IrreducibleCountTable:
    q: int
    m: int
    counts: dict                 # (alpha.tag, beta.tag) -> exact count
    deviations: dict             # same keys -> |4m*count - q^m|
    modulus: tuple | None        # extension modulus used, if any
    total: int = 0

    def __post_init__(self):
        self.total = sum(self.counts.values())


def _odd_prime_power(q: int) -> tuple[int, int]:
    """(p, e) with q = p^e for an odd prime p; ValueError otherwise."""
    factors = _prime_factors(q)
    if not factors or factors[0] == 2 or len(set(factors)) != 1:
        raise ValueError("q must be an odd prime power")
    return factors[0], len(factors)


def count_irreducible_classes(q: int, m: int, budget: int = 10 ** 6) -> IrreducibleCountTable:
    """Exact bucket counts of monic irreducible degree-m h over F_q with
    h(2) h(-2) != 0, keyed by the square classes of (h(2), h(-2)).

    The enumeration runs over field elements: each irreducible h
    corresponds to an orbit of m primitive elements z of F_{q^m}, and
    h(2) = N(2 - z), h(-2) = N(-2 - z) (norms down to F_q).  The norm of
    an element is a square in F_q exactly when the element is a square
    in the big field, decided by discrete-log parity.
    """
    if q ** m > budget:
        raise BudgetExceededError(f"q^m = {q ** m} exceeds budget {budget}")
    p, e = _odd_prime_power(q)
    B = get_field(p, e * m)
    Q = B.q
    all_codes = np.arange(Q, dtype=np.int64)
    logs = B.vlog(all_codes)
    # z generates F_{q^m} over F_q iff z lies in no proper subfield
    # F_{q^d}; the nonzero part of F_{q^d} is the subgroup of index
    # (Q-1)/(q^d-1), and z = 0 generates only at m = 1
    full = (all_codes != 0) | (m == 1)
    for r in set(_prime_factors(m)):
        d = m // r
        idx = (Q - 1) // (q ** d - 1)
        full &= (logs % idx) != 0
    # boundary values 2 - z and -2 - z
    minus_z = B.vmul(B.from_int(-1), all_codes)
    u = B.vadd(B.from_int(2), minus_z)
    v = B.vadd(B.from_int(-2), minus_z)
    ok = full & (u != 0) & (v != 0)
    usq = (B.vlog(u[ok]) % 2) == 0
    vsq = (B.vlog(v[ok]) % 2) == 0
    raw = {
        ("Square", "Square"): int(np.count_nonzero(usq & vsq)),
        ("Square", "NonSquare"): int(np.count_nonzero(usq & ~vsq)),
        ("NonSquare", "Square"): int(np.count_nonzero(~usq & vsq)),
        ("NonSquare", "NonSquare"): int(np.count_nonzero(~usq & ~vsq)),
    }
    counts = {}
    for k, c in raw.items():
        if c % m:
            raise ArithmeticError(f"orbit count {c} is not divisible by m = {m}")
        counts[k] = c // m
    devs = {k: abs(4 * m * c - q ** m) for k, c in counts.items()}
    return IrreducibleCountTable(q, m, counts, devs, B.modulus)
