"""
Orthogonal groups of diagonal quadratic forms over F_q (q odd).

An OrthSpace is a diagonal Gram matrix over F_q; up to isomorphism a
space is determined by (q, dimension, discriminant square class).  The
module provides spinor norms, brute-force enumeration of O(V) for tiny
spaces, exact conjugacy-class proportions for prescribed characteristic
polynomials, and the per-coset class densities that drive the sieve
experiments.

A class proportion needs, of the trace form h of f, only the degrees d_i
of its irreducible factors h_i and the signs e_i = +-1 of h_i(2)
h_i(-2) as square classes.  The signs follow from degrees alone: the
lift of h_i splits as [d_i, d_i] when e_i = +1 and stays irreducible of
degree 2 d_i otherwise, so the factor degrees of h and of f fix how
many factors of each degree have e_i = +1 (_sign_pairs).  The
densities sum over a census of every monic h of degree n over F_q,
grouped by what the proportions read (classes, number of factors of f,
the (d_i, e_i) and the square classes of f(1), f(-1)).  It is built
once per (F, n) and kept in a bounded cache: over a prime field as
int64 rows, in blocks of at most galclass.BLOCK_ROWS, through the
batched gcd and factor-degree kernels of galclass; over F_{p^e} by
scalar factoring of each h.

Spinor norms follow Zassenhaus (On the spinor norm, Arch. Math. 13,
1962), normalised so that a reflection r_v has spin(r_v) = class(<v,v>).
With M = I - A of rank r and any r-subset J of indices whose principal
minor det M[J,J] is non-zero (one exists, and its columns span
im(1 - A)),

    spin(A) = class(2^r * prod_{j in J} g_j * det M[J,J]),

where g is the diagonal Gram matrix; the identity has spin Square.

Enumeration is restricted to prime q so matrices can live in numpy
arrays; everything else works over any odd prime power.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product as iter_product
from math import comb, prod
import random

import numpy as np

from .errors import BudgetExceededError, NotSeparableError
from .ffield import Fq, get_field, SquareClass, SQUARE, NONSQUARE, ZERO_CLASS
from .galclass import (BLOCK_ROWS, _batch_gcd_degrees, _check_kernel_prime,
                       _factor_degree_rows, _vec_powmod)
from .poly import Poly, factor_degrees
from .recpoly import (to_trace_form, trace_lift, reciprocal_sign, in_P_n,
                      classes_from_degrees)


class OrthSpace:
    """Orthogonal space over F_q with a diagonal Gram matrix."""

    def __init__(self, field: Fq, gram):
        if field.p == 2:
            raise ValueError("characteristic 2 not supported")
        gram = tuple(g if 0 <= g < field.q else field.from_int(g) for g in gram)
        if any(g == 0 for g in gram):
            raise ValueError("Gram diagonal entries must be nonzero")
        self.field = field
        self.gram = gram
        self.N = len(gram)

    @staticmethod
    def canonical(field: Fq, N: int, disc: SquareClass) -> "OrthSpace":
        """Representative space (1, ..., 1, d) of the given discriminant."""
        if disc == ZERO_CLASS:
            raise ValueError("discriminant cannot be zero")
        d = 1 if disc == SQUARE else _least_nonsquare(field)
        return OrthSpace(field, (1,) * (N - 1) + (d,))

    @property
    def q(self) -> int:
        return self.field.q

    def disc(self) -> SquareClass:
        F = self.field
        prod = 1
        for g in self.gram:
            prod = F.mul(prod, g)
        return F.square_class(prod)

    def is_split(self) -> bool:
        """Even-dimensional V is split iff disc = class((-1)^(N/2))."""
        if self.N % 2 != 0:
            raise ValueError("split/non-split applies to even dimension")
        F = self.field
        target = F.square_class(F.pow(F.from_int(-1), self.N // 2))
        return self.disc() == target

    def inner(self, x, y):
        F = self.field
        acc = 0
        for g, xi, yi in zip(self.gram, x, y):
            acc = F.add(acc, F.mul(g, F.mul(xi, yi)))
        return acc

    def order_O(self) -> int:
        """|O(V)| from the classical order formulas."""
        q, N = self.q, self.N
        if N == 1:
            return 2
        if N % 2 == 1:
            n = (N - 1) // 2
            out = 2 * q ** (n * n)
            for i in range(1, n + 1):
                out *= q ** (2 * i) - 1
            return out
        n = N // 2
        sgn = 1 if self.is_split() else -1
        out = 2 * q ** (n * (n - 1)) * (q ** n - sgn)
        for i in range(1, n):
            out *= q ** (2 * i) - 1
        return out

    def __repr__(self):
        return f"OrthSpace(q={self.q}, gram={self.gram})"


def _least_nonsquare(F: Fq) -> int:
    for a in range(2, F.q):
        if F.square_class(a) == NONSQUARE:
            return a
    raise RuntimeError("no nonsquare found")  # unreachable for q > 1


@dataclass(frozen=True)
class CosetLabel:
    det: int                 # +1 or -1
    spin: SquareClass        # Square or NonSquare

    def __post_init__(self):
        if self.det not in (1, -1):
            raise ValueError(f"coset det must be 1 or -1, not {self.det!r}")
        if self.spin not in (SQUARE, NONSQUARE):
            raise ValueError(f"coset spin must be Square or NonSquare, "
                             f"not {self.spin!r}")


ALL_COSETS = [CosetLabel(d, s) for d in (1, -1) for s in (SQUARE, NONSQUARE)]


class OrthElem:
    """An element of O(V), stored as a row-major tuple matrix acting on
    column vectors."""

    __slots__ = ("matrix", "space")

    def __init__(self, matrix, space: OrthSpace, check: bool = True):
        self.matrix = tuple(tuple(row) for row in matrix)
        self.space = space
        if check and not _is_orthogonal(self.matrix, space):
            raise ValueError("matrix does not preserve the form")

    def __eq__(self, other):
        return isinstance(other, OrthElem) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __mul__(self, other):
        F = self.space.field
        N = self.space.N
        a, b = self.matrix, other.matrix
        out = [[0] * N for _ in range(N)]
        for i in range(N):
            for j in range(N):
                acc = 0
                for k in range(N):
                    acc = F.add(acc, F.mul(a[i][k], b[k][j]))
                out[i][j] = acc
        return OrthElem(out, self.space, check=False)

    def apply(self, x):
        F = self.space.field
        return tuple(
            _dot(F, row, x) for row in self.matrix
        )

    def det(self) -> int:
        """Determinant as +1 or -1."""
        F = self.space.field
        d = _rank_det(self.matrix, F)[1]
        if d == 1:
            return 1
        if d == F.from_int(-1):
            return -1
        raise ValueError("orthogonal matrix with det not +-1")

    def char_reciprocal(self) -> Poly:
        """P(T) = det(I - A T)."""
        F = self.space.field
        # coefficient of T^k is (-1)^k * (sum of principal k x k minors)
        coeffs = [1]
        for k in range(1, self.space.N + 1):
            s = 0
            for _, minor in _field_principal_minors(self.matrix, F, k):
                s = F.add(s, minor)
            coeffs.append(F.neg(s) if k % 2 else s)
        return Poly(coeffs, F)


def _dot(F, a, b):
    acc = 0
    for x, y in zip(a, b):
        acc = F.add(acc, F.mul(x, y))
    return acc


def _field_principal_minors(m, F: Fq, k: int):
    """(J, det m[J,J]) over F for every k-subset J, in lexicographic
    order."""
    for J in combinations(range(len(m)), k):
        yield J, _rank_det([[m[i][j] for j in J] for i in J], F)[1]


def _is_orthogonal(m, V: OrthSpace) -> bool:
    F = V.field
    N = V.N
    for i in range(N):
        col_i = [m[r][i] for r in range(N)]
        for j in range(i, N):
            col_j = [m[r][j] for r in range(N)]
            want = V.gram[i] if i == j else 0
            if V.inner(col_i, col_j) != want:
                return False
    return True


def _rank_det(m, F: Fq):
    """(rank, det) of a square matrix over F_q by elimination (small
    matrices); det is 0 below full rank."""
    n = len(m)
    a = [list(row) for row in m]
    rank, det = 0, 1
    for col in range(n):
        piv = next((r for r in range(rank, n) if a[r][col]), None)
        if piv is None:
            det = 0
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            det = F.neg(det)
        det = F.mul(det, a[rank][col])
        inv = F.inv(a[rank][col])
        for r in range(rank + 1, n):
            if a[r][col]:
                c = F.mul(a[r][col], inv)
                for cc in range(col, n):
                    a[r][cc] = F.sub(a[r][cc], F.mul(c, a[rank][cc]))
        rank += 1
    return rank, det


def identity_elem(V: OrthSpace) -> OrthElem:
    N = V.N
    return OrthElem([[1 if i == j else 0 for j in range(N)] for i in range(N)],
                    V, check=False)


def reflection(V: OrthSpace, v) -> OrthElem:
    """The reflection r_v: x -> x - 2 <x,v>/<v,v> v.  Needs <v,v> != 0."""
    F = V.field
    vv = V.inner(v, v)
    if vv == 0:
        raise ValueError("reflection vector must be anisotropic")
    N = V.N
    c = F.mul(F.from_int(2), F.inv(vv))
    out = [[0] * N for _ in range(N)]
    for i in range(N):
        for j in range(N):
            # <e_j, v> = gram[j] v_j
            t = F.mul(c, F.mul(v[i], F.mul(V.gram[j], v[j])))
            out[i][j] = F.sub(1 if i == j else 0, t)
    return OrthElem(out, V, check=False)


# ---------------------------------------------------------------------------
# Spinor norm
# ---------------------------------------------------------------------------


def spinor_norm(A: OrthElem) -> SquareClass:
    """Spinor norm of A as a square class, by Zassenhaus' formula (On
    the spinor norm, Arch. Math. 13, 1962).

    Let M = I - A have rank r.  Some r-subset J of indices has
    det M[J,J] != 0 (a coordinate complement of ker M), and the columns
    M e_j, j in J, are then a basis of im(1 - A).  On it Zassenhaus'
    form (x, y) -> <x, v>, y = M v, has Gram matrix (g_j M[j,i]), so

        spin(A) = class(2^r prod_{j in J} g_j det M[J,J]),

    where the 2^r normalises to spin(r_v) = class(<v,v>).  The identity
    (r = 0, J empty) has spin Square.  J is the first such subset in
    lexicographic order.  Works over any odd q.
    """
    V = A.space
    F = V.field
    N = V.N
    M = [[F.sub(1 if i == j else 0, A.matrix[i][j]) for j in range(N)]
         for i in range(N)]
    r = _rank_det(M, F)[0]
    for J, minor in _field_principal_minors(M, F, r):
        if minor:
            c = F.pow(F.from_int(2), r)
            for j in J:
                c = F.mul(c, V.gram[j])
            return F.square_class(F.mul(c, minor))
    raise ArithmeticError("no non-zero principal minor of I - A of size "
                          "rank(I - A): A is not orthogonal")


def coset_label(A: OrthElem) -> CosetLabel:
    return CosetLabel(A.det(), spinor_norm(A))


# ---------------------------------------------------------------------------
# Brute-force enumeration (prime q)
# ---------------------------------------------------------------------------


class GroupTable:
    """Result of enumerate_O: all elements of O(V) as a numpy stack.

    mats has shape (|O(V)|, N, N) with entries in range(p).  Derived
    per-element arrays (determinants, characteristic polynomials,
    spinor norms) are computed lazily and cached, each by whole-stack
    numpy passes.  Characteristic polynomials and spinor norms share one
    principal-minor helper: the minors of A give det(I - A T), and those
    of I - A give the spinor norm by Zassenhaus' formula (On the spinor
    norm, Arch. Math. 13, 1962), spin(A) = class(2^r prod_{j in J} g_j
    det (I - A)[J,J]) for the first non-zero minor of the largest size
    r = rank(I - A), normalised so that spin(r_v) = class(<v,v>).
    """

    def __init__(self, V: OrthSpace, mats: np.ndarray):
        self.V = V
        self.mats = mats
        self._dets = None
        self._charpolys = None
        self._spins = None

    def __len__(self):
        return len(self.mats)

    def elements(self):
        for m in self.mats:
            yield OrthElem(m.tolist(), self.V, check=False)

    # -- batched derived data -------------------------------------------

    def dets(self) -> np.ndarray:
        """Array of determinants as +1/-1 ints."""
        if self._dets is None:
            p = self.V.q
            d = _batch_det(self.mats, p)
            if not np.all((d == 1) | (d == p - 1)):
                raise ArithmeticError("a determinant is not +-1")
            out = np.where(d == 1, 1, -1)
            self._dets = out
        return self._dets

    def charpolys(self) -> np.ndarray:
        """Array (|G|, N+1) of coefficients of det(I - A T), ascending."""
        if self._charpolys is None:
            p = self.V.q
            N = self.V.N
            out = np.zeros((len(self.mats), N + 1), dtype=np.int64)
            out[:, 0] = 1
            for k in range(1, N + 1):
                s = sum(m for _, m in _principal_minors(self.mats, p, k)) % p
                out[:, k] = (-s) % p if k % 2 else s
            self._charpolys = out
        return self._charpolys

    def spins(self) -> np.ndarray:
        """Array of spinor norms as +1 (square) / -1 (nonsquare).

        spinor_norm's formula on the whole stack: the principal minors
        of M = I - A, largest size first, and the first non-zero minor
        det M[J,J] of each element gives its value 2^|J| prod_{j in J}
        g_j det M[J,J].  A value is 0 only while it is unset, so the
        identity, with no non-zero minor, ends as 1 (Square).
        """
        if self._spins is None:
            V = self.V
            p, N = V.q, V.N
            sign = np.array([0] + [V.field.square_class(a).sign
                                   for a in range(1, p)], dtype=np.int64)
            M = (np.eye(N, dtype=np.int64) - self.mats) % p
            vals = np.zeros(len(M), dtype=np.int64)
            for k in range(N, 0, -1):
                idx = np.flatnonzero(vals == 0)
                if not len(idx):
                    break
                for J, minors in _principal_minors(M[idx], p, k):
                    c = pow(2, k, p) * prod(V.gram[j] for j in J) % p
                    hit = (minors != 0) & (vals[idx] == 0)
                    vals[idx[hit]] = c * minors[hit] % p
            vals[vals == 0] = 1
            self._spins = sign[vals]
        return self._spins


def _principal_minors(mats: np.ndarray, p: int, k: int):
    """(J, det mats[:, J, J] mod p) for every k-subset J, in
    lexicographic order."""
    for J in combinations(range(mats.shape[-1]), k):
        idx = np.array(J)
        yield J, _batch_det(mats[:, idx[:, None], idx[None, :]], p)


def _batch_det(mats: np.ndarray, p: int) -> np.ndarray:
    """Determinants mod p of a stack of small matrices (n <= 5) by
    cofactor expansion."""
    n = mats.shape[-1]
    if n == 1:
        return mats[..., 0, 0] % p
    if n == 2:
        return (mats[..., 0, 0] * mats[..., 1, 1]
                - mats[..., 0, 1] * mats[..., 1, 0]) % p
    acc = np.zeros(mats.shape[:-2], dtype=np.int64)
    cols = list(range(n))
    for j in range(n):
        rest = cols[:j] + cols[j + 1:]
        minor = mats[..., 1:, :][..., :, rest]
        term = (mats[..., 0, j] * _batch_det(minor, p)) % p
        acc = (acc + ((-1) ** j) * term) % p
    return acc % p


def _candidate_reflection_vectors(V: OrthSpace):
    """Deterministic stream of anisotropic vectors used as generators."""
    N = V.N
    q = V.q
    # basis vectors, pair sums/differences, then the full vector space
    basic = []
    for i in range(N):
        v = [0] * N
        v[i] = 1
        basic.append(tuple(v))
    for i in range(N):
        for j in range(i + 1, N):
            for c in range(1, q):
                v = [0] * N
                v[i] = 1
                v[j] = c
                basic.append(tuple(v))
    seen = set(basic)

    def full_stream():
        for vec in iter_product(range(q), repeat=N):
            if vec not in seen and any(vec):
                yield vec

    for v in basic:
        if V.inner(v, v) != 0:
            yield v
    for v in full_stream():
        if V.inner(v, v) != 0:
            yield v


def enumerate_O(V: OrthSpace, budget: int = 2 * 10 ** 6) -> GroupTable:
    """All of O(V) by breadth-first closure over reflections.

    Reflections generate O(V); the closure starts from a deterministic
    prefix of the reflection list and keeps adding further reflections
    until the classical order formula is met, so the result is provably
    complete.  Prime q only (matrices are numpy arrays mod p).
    """
    if V.field.e != 1:
        raise ValueError("enumeration requires prime q")
    if V.N < 1:
        raise ValueError("dimension must be >= 1")
    target = V.order_O()
    if target > budget:
        raise BudgetExceededError(f"|O(V)| = {target} exceeds budget {budget}")
    p = V.q
    N = V.N
    if V.N == 1:
        mats = np.array([[[1]], [[p - 1]]], dtype=np.int64)
        return GroupTable(V, mats)

    gen_stream = _candidate_reflection_vectors(V)
    gens = []
    for _ in range(2 * N + 2):
        try:
            gens.append(np.array(reflection(V, next(gen_stream)).matrix,
                                 dtype=np.int64))
        except StopIteration:
            break

    def closure(generators):
        eye = np.eye(N, dtype=np.int64)
        seen = {eye.tobytes()}
        mats = [eye]
        frontier = eye[None, :, :]
        gstack = np.stack(generators)
        while len(frontier):
            # frontier x generators in one shot
            prod = np.einsum("fij,gjk->fgik", frontier, gstack) % p
            prod = prod.reshape(-1, N, N)
            new = []
            for m in prod:
                key = m.tobytes()
                if key not in seen:
                    seen.add(key)
                    new.append(m)
            if not new:
                break
            frontier = np.stack(new)
            mats.extend(new)
            if len(mats) > target:
                raise RuntimeError("closure exceeded the group order")
        return mats

    while True:
        mats = closure(gens)
        if len(mats) == target:
            break
        # generated a proper subgroup: add more reflections
        added = 0
        while added < 4:
            try:
                v = next(gen_stream)
            except StopIteration:
                raise RuntimeError("ran out of reflections before closing")
            gens.append(np.array(reflection(V, v).matrix, dtype=np.int64))
            added += 1
    return GroupTable(V, np.stack(mats))


# ---------------------------------------------------------------------------
# Exact conjugacy-class proportions
# ---------------------------------------------------------------------------


def _sign_pairs(hdeg, fdeg) -> tuple:
    """Sorted (deg h_i, e_i) over the irreducible factors h_i of a trace
    form h in P_n, from the factor degrees of h and of its lift f alone.

    e_i = +1 iff h_i(2) h_i(-2) is a square.  That product is the norm
    of b^2 - 4 for a root b of h_i, so e_i = +1 exactly when the roots a
    of a^2 - b a + 1 lie in F_q(b): the lift of h_i then splits as
    [d, d], and otherwise stays irreducible of degree 2d.  With a_k, b_k
    the numbers of degree-k factors of h and of f, the number s_k of
    e = +1 factors of degree k solves b_k = 2 s_k + a_{k/2} - s_{k/2},
    in increasing k.  Raises ArithmeticError when the degrees admit no
    such solution (h not in P_n, or f not its lift).
    """
    a, b = Counter(hdeg), Counter(fdeg)
    s: dict = {}
    pairs = []
    for k in sorted(a):
        unsplit = a[k // 2] - s.get(k // 2, 0) if k % 2 == 0 else 0
        s[k], odd = divmod(b[k] - unsplit, 2)
        if odd or not 0 <= s[k] <= a[k]:
            break
        pairs += [(k, -1)] * (a[k] - s[k]) + [(k, 1)] * s[k]
    else:
        lifted = Counter()
        for k, e in pairs:
            lifted.update([k, k] if e == 1 else [2 * k])
        if lifted == b:
            return tuple(pairs)
    raise ArithmeticError(f"factor degrees {hdeg} of h do not lift to {fdeg}")


def _base_product(q: int, pairs) -> Fraction:
    """q^(-n) prod (1 - e_i / q^(d_i))^(-1), exactly."""
    n = sum(d for d, _ in pairs)
    val = Fraction(1, q ** n)
    for d, e in pairs:
        val *= Fraction(q ** d, q ** d - e)
    return val


@dataclass
class ClassData:
    proportion: Fraction     # |C| / |O(V)|
    det: int
    spin: SquareClass | None  # None only for the summed two-beta case


def _check_f(f: Poly):
    if not f.is_monic() or f.degree % 2 != 0 or f.degree < 2:
        raise ValueError("need a monic reciprocal polynomial of even degree")
    if reciprocal_sign(f) != 1:
        raise ValueError("polynomial is not reciprocal")
    if not f.is_squarefree():
        raise NotSeparableError("f must be separable")
    if f.eval_int(1) == 0 or f.eval_int(-1) == 0:
        raise ValueError("f(1) and f(-1) must be nonzero")


def class_proportion(V: OrthSpace, f: Poly, case: str,
                     beta: SquareClass | None = None,
                     eps: int | None = None) -> ClassData:
    """Exact |C| / |O(V)| for the conjugacy class with the prescribed
    characteristic polynomial, together with the forced (det, spin).

    case "even":  N = 2n, char poly f; zero proportion when
                  disc(V) != class(f(1) f(-1)).
    case "even2": N = 2n+2, char poly (1-T^2) f, spinor class beta
                  (beta=None sums over both choices).
    case "odd":   N = 2n+1, char poly (1 - eps T) f.

    The signs e_i of the factors of the trace form come from the factor
    degrees of h and f (_sign_pairs).
    """
    F = V.field
    if f.field != F:
        raise ValueError("field mismatch")
    _check_f(f)
    h = to_trace_form(f).h
    return _class_data(V, f.degree // 2,
                       _sign_pairs(factor_degrees(h), factor_degrees(f)),
                       F.square_class(f.eval_int(1)),
                       F.square_class(f.eval_int(-1)), case, beta, eps)


def _class_data(V: OrthSpace, n: int, pairs, f1: SquareClass,
                fm1: SquareClass, case: str, beta: SquareClass | None,
                eps: int | None) -> ClassData:
    """class_proportion from the (deg, e) pairs of the trace form and the
    square classes f1, fm1 of f(1), f(-1)."""
    base = _base_product(V.q, pairs)
    if case == "even":
        if V.N != 2 * n:
            raise ValueError("dimension mismatch")
        if V.disc() != f1 * fm1:
            return ClassData(Fraction(0), 1, fm1)
        return ClassData(base, 1, fm1)
    if case == "even2":
        if V.N != 2 * n + 2:
            raise ValueError("dimension mismatch")
        if beta is None:
            return ClassData(base / 2, -1, None)
        return ClassData(base / 4, -1, beta)
    if case == "odd":
        if V.N != 2 * n + 1:
            raise ValueError("dimension mismatch")
        if eps not in (1, -1):
            raise ValueError("eps must be +-1")
        spin = fm1 if eps == 1 else f1 * V.disc()
        return ClassData(base / 2, eps, spin)
    raise ValueError(f"unknown case {case!r}")


# ---------------------------------------------------------------------------
# Trace-form censuses and per-coset class densities
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=32)
def _census(F: Fq, n: int) -> tuple:
    """The census of the monic degree-n h over F, built once per (F, n)."""
    return _build_census(F, n)


def _build_census(F: Fq, n: int) -> tuple:
    """((classes, #factors of f, (deg, e) pairs, class f(1), class
    f(-1)), count) over every h in P_n, f = T^n h(T + 1/T).

    The q^n monic h are int64 rows (ascending coefficients, code c has
    coefficients the base-q digits of c), at most BLOCK_ROWS at a time.
    """
    q = F.q
    total = q ** n
    rows = Counter()
    for start in range(0, total, BLOCK_ROWS):
        codes = np.arange(start, min(start + BLOCK_ROWS, total),
                          dtype=np.int64)
        H = np.ones((len(codes), n + 1), dtype=np.int64)
        for k in range(n):
            H[:, k] = codes // q ** k % q
        block = (_prime_census_rows(H, q) if F.e == 1
                 else _scalar_census_rows(F, H))
        rows.update(row for row in block if row is not None)
    census = Counter()
    for (hdeg, fdeg, f1, fm1), count in rows.items():
        census[(classes_from_degrees(hdeg, fdeg), len(fdeg),
                _sign_pairs(hdeg, fdeg), f1, fm1)] += count
    return tuple(census.items())


def _prime_census_rows(H: np.ndarray, p: int) -> list:
    """Per row h of H over F_p: None when h is not in P_n, else (degrees
    of h, degrees of f, class of f(1), class of f(-1)).

    Squarefree means gcd(h, h') = 1, by the batched Euclid; f(1) = h(2)
    and f(-1) = (-1)^n h(-2) come by Horner's rule, their square
    classes by Euler's criterion, and f = H B mod p for the binomial
    matrix B of T^(n-k) (T^2 + 1)^k.  h and f go through the row kernel.
    """
    n = H.shape[1] - 1
    _check_kernel_prime(2 * n, p)
    m = np.full(len(H), p, dtype=np.int64)
    h2, hm2 = _horner(H, 2, p), _horner(H, -2 % p, p)
    good = ((_batch_gcd_degrees(H, H[:, 1:] * np.arange(1, n + 1) % p, m) == 0)
            & (h2 != 0) & (hm2 != 0))
    H, m = H[good], m[good]
    rows = zip(_factor_degree_rows(H, m),
               _factor_degree_rows(H @ _lift_matrix(n, p) % p, m),
               _euler_classes(h2[good], p),
               _euler_classes((-1) ** n * hm2[good] % p, p))
    return [next(rows) if g else None for g in good.tolist()]


def _euler_classes(x: np.ndarray, p: int) -> list:
    """Square class of each non-zero x mod p, by Euler's criterion."""
    r = _vec_powmod(x, np.full(len(x), (p - 1) // 2, dtype=np.int64), p)
    return [SQUARE if v == 1 else NONSQUARE for v in r.tolist()]


def _horner(H: np.ndarray, x: int, p: int) -> np.ndarray:
    """Each row polynomial of H evaluated at x, mod p."""
    val = np.zeros(len(H), dtype=np.int64)
    for k in range(H.shape[1] - 1, -1, -1):
        val = (val * x + H[:, k]) % p
    return val


def _lift_matrix(n: int, p: int) -> np.ndarray:
    """(n+1, 2n+1) matrix mod p whose row k is T^(n-k) (T^2 + 1)^k, so
    that f = T^n h(T + 1/T) is h's coefficient row times it."""
    B = np.zeros((n + 1, 2 * n + 1), dtype=np.int64)
    for k in range(n + 1):
        for j in range(k + 1):
            B[k, n - k + 2 * j] = comb(k, j) % p
    return B


def _scalar_census_rows(F: Fq, H: np.ndarray) -> list:
    """_prime_census_rows over any F_q, by Poly arithmetic row by row."""
    out: list = []
    for row in H.tolist():
        h = Poly(row, F)
        if not in_P_n(h):
            out.append(None)
            continue
        f = trace_lift(h)
        out.append((tuple(factor_degrees(h)), tuple(factor_degrees(f)),
                    F.square_class(f.eval_int(1)),
                    F.square_class(f.eval_int(-1))))
    return out


def c_i_density(V: OrthSpace, kappa: CosetLabel, i: int,
                budget: int = 10 ** 6) -> Fraction:
    """|C_i(kappa)| / |kappa| exactly, by summing class proportions over
    the qualifying polynomials.

    The coset kappa has det = eps and spinor class delta; membership in
    C_i is decided by the stripped characteristic polynomial lying in
    the i-th class family, with the C_6 = kappa convention when N is
    even and eps = 1.  A qualifying f = T^n h(T + 1/T) has h in H_{n,i}
    and at most eight irreducible factors.

    The sum runs over the census of the trace forms h of degree n over
    F_q (_census): every h in P_n grouped by its classes, the number of
    factors of f, the (deg, e) pairs of its factors (the signs follow
    from the degrees, see _sign_pairs) and the square classes of f(1)
    and f(-1), which is all class_proportion reads.  Over a prime field
    the census is built by the batched row kernel, over F_{p^e} by
    scalar factoring.  It is memoised per (F, n) in a bounded cache, and
    the budget on q^n is checked before it is built.
    """
    N = V.N
    F = V.field
    q = V.q
    if N <= 2 or q < 5:
        raise ValueError("need N > 2 and q >= 5")
    if not 1 <= i <= 6:
        raise ValueError("class index out of range")
    eps, delta = kappa.det, kappa.spin
    if N % 2 == 0 and eps == 1 and i == 6:
        return Fraction(1)
    if N % 2 == 1:
        n, case = (N - 1) // 2, "odd"
    elif eps == -1:
        n, case = (N - 2) // 2, "even2"
    else:
        n, case = N // 2, "even"
    if q ** n > budget:
        raise BudgetExceededError(f"{q}^{n} trace forms exceed budget")
    total = Fraction(0)
    # |kappa| = |O(V)| / 4 for N >= 3, q > 3
    for (classes, nf, pairs, f1, fm1), count in _census(F, n):
        if i not in classes or nf > 8:
            continue
        cd = _class_data(V, n, pairs, f1, fm1, case, beta=delta, eps=eps)
        if cd.proportion and cd.spin == delta:
            total += 4 * count * cd.proportion
    return total


# ---------------------------------------------------------------------------
# Seeded random elements
# ---------------------------------------------------------------------------


def random_element(V: OrthSpace, seed: int,
                   label: CosetLabel | None = None) -> OrthElem:
    """Deterministic pseudorandom element: a product of 4N random
    reflections, optionally steered into a requested coset by a final
    multiplication with fixed reflections."""
    rng = random.Random(seed)
    F = V.field
    N = V.N
    out = identity_elem(V)
    count = 0
    while count < 4 * N:
        v = tuple(rng.randrange(F.q) for _ in range(N))
        if not any(v) or V.inner(v, v) == 0:
            continue
        out = out * reflection(V, v)
        count += 1
    if label is not None:
        sq_vec, ns_vec = _spin_adjusters(V)
        cur_det = out.det()
        cur_spin = spinor_norm(out)
        if cur_det != label.det:
            # one reflection flips det; pick its spin class to make the
            # remaining spin correction possible in pairs
            vec = sq_vec if (cur_spin == label.spin) else ns_vec
            out = out * reflection(V, vec)
            cur_spin = spinor_norm(out)
        if cur_spin != label.spin:
            out = out * reflection(V, sq_vec) * reflection(V, ns_vec)
    return out


def _spin_adjusters(V: OrthSpace):
    """A square-norm and a nonsquare-norm anisotropic vector."""
    sq_vec = ns_vec = None
    for v in _candidate_reflection_vectors(V):
        sc = V.field.square_class(V.inner(v, v))
        if sc == SQUARE and sq_vec is None:
            sq_vec = v
        elif sc == NONSQUARE and ns_vec is None:
            ns_vec = v
        if sq_vec is not None and ns_vec is not None:
            return sq_vec, ns_vec
    raise RuntimeError("could not find both spin classes among reflections")
