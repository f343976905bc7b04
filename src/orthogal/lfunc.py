"""
Elliptic curves over F_q(t): Kodaira fibers, conductor invariants,
quadratic twists, and L-functions by fiber point counting.

A curve is stored in short Weierstrass form y^2 = x^3 + A x + B with
A, B in F_q[t] and p >= 5, so every place (including infinity, via the
substitution t = 1/s) is classified by the valuation of (c4, Delta)
after a quadratic-twist minimality step.  Each Kodaira symbol carries a
table row (f_v, gamma_v, b_v) feeding the degree N_d, the discriminant
factor D_d and the bound term B of the twist family.

The L-function of a twist is assembled from fiber point counts over the
extension fields F_{q^{nk}}: the power sums S_k of the inverse roots
enter log L = sum S_k T^k / k, the series is exponentiated to integer
coefficients, and the polynomial is completed through its functional
equation T^N P(1/T) = eps P(T).  Everything is exact integer
arithmetic; a numeric inverse-root check is offered separately.

One rule gives every fiber trace: the twist by c takes (a, b) to
(c^2 a, c^3 b) and multiplies the trace by chi(c).  The good fibers of
a level are counted once per twist class, found from discrete logs
(_grouped_traces); a twist of the base model by u flips the base
model's traces by chi(u(t0)); and the fiber at infinity, whose a_v a
twist flips by chi(lc u), gives its contribution at every level by the
Frobenius recurrence (_power_sum).

The point counts, the roots of a place in its residue field and the
subfield embeddings run on the vectorized ops of the extension field's
``Fq`` (``vmul``, ``vadd``, ``veval``, ``vlog``, ``vexp``, ``vchi``),
whose exp/log tables that field builds on first use and keeps (see
``ffield`` for the size bounds).  This module caches only the embedding
tables and, per base model, its minimal model, its infinity data and its
fiber traces, which every twist of the model reads.  The sign of a
multiplicative place is computed in F_q[t]/(pi) by Euler's criterion,
so no residue-field table is built for it.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction
from math import gcd, isqrt, prod

import numpy as np

from .errors import BudgetExceededError, NotSeparableError
from .ffield import Fq, get_field, conway_like_modulus
from .galclass import KField, classify, group_constraint, _batch_gcd_degrees
from .poly import Poly, discriminant, factor, _pow_mod
from .signedperm import WGroup

#: Sentinel naming the place at infinity (uniformizer 1/t).
INFINITY = "infinity"


# ---------------------------------------------------------------------------
# Curves
# ---------------------------------------------------------------------------


def _c4_c6_delta(A: Poly, B: Poly):
    """(c4, c6, Delta) of y^2 = x^3 + A x + B: -48 A, -864 B and
    -64 A^3 - 432 B^2."""
    F = A.field
    return (A.scale(F.from_int(-48)), B.scale(F.from_int(-864)),
            (A ** 3).scale(F.from_int(-64)) + (B * B).scale(F.from_int(-432)))


class FqTCurve:
    """y^2 = x^3 + A x + B with A, B in F_q[t], p >= 5, Delta != 0."""

    __slots__ = ("field", "A", "B")

    def __init__(self, field: Fq, A: Poly, B: Poly):
        if field.p < 5:
            raise ValueError("characteristic must be at least 5")
        if A.field != field or B.field != field:
            raise ValueError("coefficients must live over the given field")
        self.field = field
        self.A = A
        self.B = B
        if self.delta().is_zero():
            raise ValueError("singular model: Delta = 0")

    @staticmethod
    def from_coeff_lists(field: Fq, A, B) -> "FqTCurve":
        return FqTCurve(field, Poly.from_int_coeffs(A, field),
                        Poly.from_int_coeffs(B, field))

    @staticmethod
    def from_a_invariants(field: Fq, a1, a2, a3, a4, a6) -> "FqTCurve":
        """Convert long Weierstrass a-invariants (polynomials over F_q)
        to the short model y^2 = x^3 - 27 c4 x - 54 c6 (iso over F_q(t),
        valid since p >= 5)."""
        a1, a2, a3, a4, a6 = (c if isinstance(c, Poly)
                              else Poly.from_int_coeffs(c, field)
                              for c in (a1, a2, a3, a4, a6))
        b2 = a1 * a1 + a2.scale(field.from_int(4))
        b4 = a4.scale(field.from_int(2)) + a1 * a3
        b6 = a3 * a3 + a6.scale(field.from_int(4))
        c4 = b2 * b2 - b4.scale(field.from_int(24))
        c6 = -(b2 * b2 * b2) + (b2 * b4).scale(field.from_int(36)) \
            - b6.scale(field.from_int(216))
        return FqTCurve(field, c4.scale(field.from_int(-27)),
                        c6.scale(field.from_int(-54)))

    def c4(self) -> Poly:
        return _c4_c6_delta(self.A, self.B)[0]

    def c6(self) -> Poly:
        return _c4_c6_delta(self.A, self.B)[1]

    def delta(self) -> Poly:
        return _c4_c6_delta(self.A, self.B)[2]

    def j_is_nonconstant(self) -> bool:
        """Exact test: j = c4^3 / Delta reduces to a nonconstant
        rational function."""
        c4, _, den = _c4_c6_delta(self.A, self.B)
        num = c4 ** 3
        if num.is_zero():
            return False
        g = num.gcd(den)
        return (num.degree - g.degree > 0) or (den.degree - g.degree > 0)

    def __repr__(self):
        return (f"FqTCurve(q={self.field.q}, A={list(self.A.coeffs)}, "
                f"B={list(self.B.coeffs)})")


def _check_twist(u: Poly, check_squarefree: bool = True) -> Poly:
    """u itself, once it is known to be a valid twist parameter."""
    if u.is_zero():
        raise ValueError("twist by zero")
    if check_squarefree and u.degree >= 1 and not u.is_squarefree():
        raise ValueError("twist parameter must be squarefree")
    return u


def quadratic_twist(E: FqTCurve, u: Poly,
                    check_squarefree: bool = True) -> FqTCurve:
    """The twist y^2 = x^3 + A u^2 x + B u^3."""
    if u.field != E.field:
        u = _embed_poly(u, E.field)
    _check_twist(u, check_squarefree)
    return FqTCurve(E.field, E.A * u * u, E.B * u * u * u)


# ---------------------------------------------------------------------------
# Kodaira symbols and the invariant table
# ---------------------------------------------------------------------------


def kodaira_table_row(symbol: str):
    """(f_v, gamma_v, b_v) for a Kodaira symbol such as "I0", "I3",
    "II", "I2*", "IV*"."""
    fixed = {
        "I0": (0, 1, 0),
        "II": (2, 1, 1),
        "III": (2, 1, 1),
        "IV": (2, 3, 1),
        "I0*": (2, 1, 0),
        "IV*": (2, 3, 1),
        "III*": (2, 1, 1),
        "II*": (2, 1, 1),
    }
    if symbol in fixed:
        return fixed[symbol]
    star = symbol.endswith("*")
    core = symbol[:-1] if star else symbol
    if core.startswith("I") and core[1:].isdigit():
        n = int(core[1:])
        if n >= 1:
            if star:
                return (2, 2 // gcd(2, n), 1)
            return (1, n // gcd(2, n), 0)
    raise ValueError(f"unknown Kodaira symbol {symbol!r}")


def _is_multiplicative(symbol: str) -> bool:
    """True for the multiplicative types I_n, n >= 1 (not II, III, IV)."""
    return symbol != "I0" and symbol[:1] == "I" and symbol[1:].isdigit()


def _symbol_from_valuations(vc4: int, vdelta: int) -> str:
    """Kodaira symbol from the valuations of (c4, Delta) at a place
    where the model is minimal (residue characteristic >= 5)."""
    if vdelta == 0:
        return "I0"
    if vc4 == 0:
        return f"I{vdelta}"
    if vdelta == 2:
        return "II"
    if vdelta == 3:
        return "III"
    if vdelta == 4:
        return "IV"
    if vdelta == 6:
        return "I0*"
    if vc4 == 2 and vdelta > 6:
        return f"I{vdelta - 6}*"
    if vdelta == 8:
        return "IV*"
    if vdelta == 9:
        return "III*"
    if vdelta == 10:
        return "II*"
    raise ValueError(f"no symbol for valuations (c4, Delta) = "
                     f"({vc4}, {vdelta}); model not minimal?")


@dataclass(frozen=True)
class PlaceData:
    """Local data of a curve at one place of F_q(t)."""
    place: object              # monic irreducible Poly, or INFINITY
    degree: int
    kodaira: str
    f_v: int
    gamma_v: int
    b_v: int
    a_v: int


_BIG = 10 ** 9   # valuation of the zero polynomial


def _valuation(f: Poly, pi: Poly) -> int:
    if f.is_zero():
        return _BIG
    v = 0
    while True:
        q, r = f.divmod(pi)
        if not r.is_zero():
            return v
        f = q
        v += 1


def _minimalize_at(A: Poly, B: Poly, pi: Poly):
    """Divide out pi^4 | A, pi^6 | B while the model is non-minimal."""
    while _valuation(A, pi) >= 4 and _valuation(B, pi) >= 6:
        A = A.exact_div(pi ** 4)
        B = B.exact_div(pi ** 6)
    return A, B


def _infinity_model(A: Poly, B: Poly):
    """Short model over F_q[s] around s = 0 after the substitution
    t = 1/s: A_s = s^{4M} A(1/s), B_s = s^{6M} B(1/s)."""
    F = A.field
    da = max(A.degree, 0)
    db = max(B.degree, 0)
    M = max(-(-da // 4), -(-db // 6))
    ca = [0] * (4 * M + 1)
    for i, c in enumerate(A.coeffs):
        ca[4 * M - i] = c
    cb = [0] * (6 * M + 1)
    for i, c in enumerate(B.coeffs):
        cb[6 * M - i] = c
    return Poly(ca, F), Poly(cb, F)


@functools.lru_cache(maxsize=32)
def _infinity_data(A: Poly, B: Poly, d: int) -> PlaceData:
    """PlaceData at infinity of the twist of y^2 = x^3 + A x + B by t^d
    (d = 0: the curve itself), from the minimal model at s = 1/t.  This
    is the one implementation of infinity data, cached per model;
    l_function flips its a_v for any twist of degree d."""
    F = A.field
    td = Poly([0] * d + [1], F)
    s = Poly.x(F)
    As, Bs = _minimalize_at(*_infinity_model(A * td * td, B * td * td * td),
                            s)
    return _place_data(F, As, Bs, s, INFINITY)


def _place_data(field: Fq, A: Poly, B: Poly, pi: Poly, label) -> PlaceData:
    """Local classification at the monic irreducible pi, for a model
    already minimal at pi."""
    c4, c6, delta = _c4_c6_delta(A, B)
    vc4 = _valuation(c4, pi)
    vdelta = _valuation(delta, pi)
    symbol = _symbol_from_valuations(vc4, vdelta)
    f_v, gamma_v, b_v = kodaira_table_row(symbol)
    if symbol == "I0":
        kv, t0 = _residue_field_and_root(field, pi)
        a_v = int(_fiber_traces(kv, [_embed_poly(A, kv)(t0)],
                                [_embed_poly(B, kv)(t0)])[0])
    elif _is_multiplicative(symbol):
        a_v = _residue_chi(-c6, pi)
    else:
        a_v = 0
    return PlaceData(place=label, degree=pi.degree, kodaira=symbol,
                     f_v=f_v, gamma_v=gamma_v, b_v=b_v, a_v=a_v)


def kodaira_at(E: FqTCurve, place) -> PlaceData:
    """Local data at a finite place (a monic irreducible polynomial) or
    at INFINITY (handled through t = 1/s and re-minimalization)."""
    F = E.field
    if place == INFINITY:
        return _infinity_data(E.A, E.B, 0)
    pi = place
    if not isinstance(pi, Poly) or pi.field != F:
        raise ValueError("finite place must be a polynomial over the "
                         "curve's field")
    if not pi.is_monic() or pi.degree < 1:
        raise ValueError("finite place must be monic of positive degree")
    A, B = _minimalize_at(E.A, E.B, pi)
    return _place_data(F, A, B, pi, pi)


def _finite_minimal(E: FqTCurve):
    """(A, B) minimal at every finite place, its Delta, and PlaceData
    for each finite bad place of the minimal model."""
    A, B = E.A, E.B
    delta = _c4_c6_delta(A, B)[2]
    _, facs = factor(delta)
    for pi, mult in facs:
        if mult >= 12:
            A, B = _minimalize_at(A, B, pi)
    delta = _c4_c6_delta(A, B)[2]
    places = []
    for pi, _mult in facs:
        if (delta % pi).is_zero():
            places.append(_place_data(E.field, A, B, pi, pi))
    return A, B, delta, places


@functools.lru_cache(maxsize=32)
def _minimal_model(A: Poly, B: Poly):
    """_finite_minimal of y^2 = x^3 + A x + B, computed once per model
    (a Poly hashes by its field and coefficients): every twist in a
    survey starts from the same untwisted model.  The result is shared,
    so the places come back as a tuple of frozen PlaceData."""
    Am, Bm, Dm, places = _finite_minimal(FqTCurve(A.field, A, B))
    return Am, Bm, Dm, tuple(places)


def finite_bad_places(E: FqTCurve):
    """PlaceData for every finite place of bad reduction (of the
    globally minimal finite model)."""
    return list(_minimal_model(E.A, E.B)[3])


def bad_modulus(E: FqTCurve) -> Poly:
    """Monic squarefree m(t) whose irreducible factors are the finite
    bad places."""
    return _places_product(E.field, finite_bad_places(E))


def _places_product(F: Fq, places) -> Poly:
    out = Poly([1], F)
    for pd in places:
        out = out * pd.place
    return out


def invariants_Nd_Dd_B(E: FqTCurve, d: int):
    """(N_d, D_d, B): degree of the twist family's L-polynomials, the
    square-class factor, and the bound term.

    N_d = f_inf(E twisted by t^d) + sum over finite bad v of
    f_v(E) deg v - 4 + 2d; D_d multiplies gamma_inf of the t^d twist by
    the gamma_v^{deg v}; B sums b_v deg v over the finite places.
    """
    return _invariants(E, d, finite_bad_places(E))


def _invariants(E: FqTCurve, d: int, fps):
    """invariants_Nd_Dd_B from the finite bad places fps of E."""
    if d < 1:
        raise ValueError("d must be >= 1")
    inf = _infinity_data(E.A, E.B, d)
    Nd = inf.f_v + sum(pd.f_v * pd.degree for pd in fps) - 4 + 2 * d
    Dd = inf.gamma_v * prod(pd.gamma_v ** pd.degree for pd in fps)
    B = sum(pd.b_v * pd.degree for pd in fps)
    return Nd, Dd, B


# ---------------------------------------------------------------------------
# Field embeddings and fiber counting
# ---------------------------------------------------------------------------


#: (p, e) -> the field F_{p^e} of a fiber count or residue field; the
#: field object holds its own tables, so this only keeps them in view
_VT_CACHE: dict = {}
_EMB_CACHE: dict = {}


def _embedding_table(Fs: Fq, Fb: Fq) -> np.ndarray:
    """Lookup table for the field embedding F_{p^a} -> F_{p^{ab}}
    (deterministic: the subfield generator maps to the least root of
    its minimal polynomial)."""
    key = (Fs.p, Fs.e, Fb.e)
    if key in _EMB_CACHE:
        return _EMB_CACHE[key]
    if Fs.p != Fb.p or Fb.e % Fs.e != 0:
        raise ValueError("no embedding between these fields")
    if Fs.e == 1 or Fs.e == Fb.e:
        emb = np.arange(Fs.q, dtype=np.int64)
    else:
        vals = Fb.veval(conway_like_modulus(Fs.p, Fs.e), np.arange(Fb.q))
        roots = np.nonzero(vals == 0)[0]
        if len(roots) == 0:
            raise RuntimeError("modulus has no root in the big field")
        rho = int(roots[0])
        powers = [1]
        for _ in range(Fs.e - 1):
            powers.append(Fb.mul(powers[-1], rho))
        emb = np.zeros(Fs.q, dtype=np.int64)
        for x in range(Fs.q):
            digits = Fs.to_vector(x)
            acc = 0
            for c, rp in zip(digits, powers):
                acc = Fb.add(acc, Fb.mul(c % Fb.p, rp))
            emb[x] = acc
    _EMB_CACHE[key] = emb
    return emb


def _embed_poly(f: Poly, G: Fq) -> Poly:
    """Map a polynomial into an overfield (or the integers into any
    field)."""
    if f.field is None:
        return Poly.from_int_coeffs(list(f.coeffs), G)
    if f.field == G:
        return f
    emb = _embedding_table(f.field, G)
    return Poly([int(emb[c]) for c in f.coeffs], G)


def _residue_chi(g: Poly, pi: Poly) -> int:
    """chi(g mod pi) in the residue field F_q[t]/(pi) = F_{q^r}: by
    Euler's criterion g^((q^r - 1)/2) mod pi is 1, -1 or 0.  The value
    is chi(g(t0)) at every root t0 of pi, and no table of F_{q^r} is
    built."""
    F = pi.field
    power = _pow_mod(g, (F.q ** pi.degree - 1) // 2, pi).coeffs
    if not power:
        return 0
    if power == (1,):
        return 1
    if power == (F.neg(1),):
        return -1
    raise ValueError("place polynomial is not irreducible")


def _residue_field_and_root(F: Fq, pi: Poly):
    """The residue field of F_q[t]/(pi) as F_{q^r}, together with the
    canonical (least-code) root of pi there; the fiber of a good place
    is counted over it."""
    r = pi.degree
    if r == 1:
        t0 = F.neg(F.mul(pi.coeffs[0], F.inv(pi.coeffs[1])))
        return F, t0
    kv = _extension_field(F, r)
    vals = kv.veval(_embed_poly(pi, kv).coeffs, np.arange(kv.q))
    roots = np.nonzero(vals == 0)[0]
    if len(roots) == 0:
        raise ValueError("place polynomial is not irreducible")
    return kv, int(roots[0])


def _fiber_traces(F: Fq, a_codes, b_codes) -> np.ndarray:
    """Traces -sum_x chi(x^3 + a x + b) over F for paired arrays of
    curve constants (the Frobenius trace of each fiber)."""
    xs = np.arange(F.q)
    x3 = F.vmul(F.vmul(xs, xs), xs)
    a_codes = np.asarray(a_codes, dtype=np.int64)
    b_codes = np.asarray(b_codes, dtype=np.int64)
    out = np.empty(len(a_codes), dtype=np.int64)
    chunk = max(1, 8_000_000 // F.q)
    for s in range(0, len(a_codes), chunk):
        A = a_codes[s:s + chunk, None]
        B = b_codes[s:s + chunk, None]
        rhs = F.vadd(F.vadd(x3[None, :], F.vmul(A, xs[None, :])), B)
        out[s:s + chunk] = -F.vchi(rhs).sum(axis=1)
    return out


# ---------------------------------------------------------------------------
# L-functions
# ---------------------------------------------------------------------------


@dataclass
class LPolynomial:
    """L(T) in Z[T] with its degree, root number and base size Q = q^n."""
    coeffs: tuple              # ascending, length N_d + 1
    N_d: int
    epsilon: int
    Q: int

    def p_u(self):
        """Coefficients of P(T) = L(T/Q) over the rationals."""
        return [Fraction(c, self.Q ** j) for j, c in enumerate(self.coeffs)]

    def functional_equation_holds(self) -> bool:
        """coeffs[N - j] == eps Q^(N - 2j) coeffs[j] for every j, checked
        in integers (a negative power of Q moves to the other side)."""
        N, Q, e = self.N_d, self.Q, self.epsilon
        return all(self.coeffs[N - j] * Q ** max(0, 2 * j - N)
                   == e * self.coeffs[j] * Q ** max(0, N - 2 * j)
                   for j in range(N + 1))

    def inverse_root_abs_error(self) -> float:
        """max | Q*|root| - 1 | over the roots of L (numeric layer)."""
        if self.N_d == 0:
            return 0.0
        roots = np.roots(list(reversed(self.coeffs)))
        return float(np.max(np.abs(self.Q * np.abs(roots) - 1.0)))


def _extension_field(F: Fq, k: int) -> Fq:
    """F_{q^k} for F = F_q: every field whose vectorized ops this module
    runs comes from here."""
    key = (F.p, F.e * k)
    if key not in _VT_CACHE:
        _VT_CACHE[key] = F if k == 1 else get_field(*key)
    return F if k == 1 else _VT_CACHE[key]


def _grouped_traces(F: Fq, Av, Bv) -> np.ndarray:
    """Per-fiber traces of nonsingular fibers (a, b), counting one
    representative (a0, b0) per twist class.

    The twist by c maps (a, b) to (c^2 a, c^3 b) and multiplies the
    trace by chi(c).  With g the generator of F, m = q - 1, la and lb the
    logs of a and b, and c = g^-u, chi(c) = (-1)^u:
      * a != 0: u = la // 2 gives a0 = g^(la mod 2) and b0 = g^(lb - 3u)
        (0 when b = 0); when log b0 >= m/2, c -> -c takes b0 to -b0 and
        u to u + m/2.  So a0 is 1 or g and log b0 < m/2;
      * a = 0: u = lb // 3 gives b0 = g^(lb mod 3).
    """
    m = F.q - 1
    la = F.vlog(np.asarray(Av, dtype=np.int64))
    lb = F.vlog(np.asarray(Bv, dtype=np.int64))
    gen = la >= 0
    u = np.where(gen, la // 2, lb // 3)
    lb0 = np.where(gen, (lb - 3 * u) % m, lb % 3)
    flip = gen & (lb >= 0) & (lb0 >= m // 2)
    lb0 -= flip * (m // 2)
    u += flip * (m // 2)
    a0 = np.where(gen, F.vexp(la % 2), 0)
    b0 = np.where(lb >= 0, F.vexp(lb0), 0)
    keys, inverse = np.unique(a0 * F.q + b0, return_inverse=True)
    traces = _fiber_traces(F, keys // F.q, keys % F.q)
    return traces[inverse] * (1 - 2 * (u & 1))


_BASE_TRACES: dict = {}


def _base_fiber_traces(FQ: Fq, k: int, Am: Poly, Bm: Poly,
                       Dm: Poly) -> np.ndarray:
    """Traces of all fibers t0 in F_{q^{nk}} of a finite-minimal model,
    zero at the singular fibers; cached per (model, level)."""
    key = (FQ.p, FQ.e, tuple(Am.coeffs), tuple(Bm.coeffs), k)
    if key in _BASE_TRACES:
        return _BASE_TRACES[key]
    Fk = _extension_field(FQ, k)
    ts = np.arange(Fk.q)
    Dv = Fk.veval(_embed_poly(Dm, Fk).coeffs, ts)
    good = Dv != 0
    Av = Fk.veval(_embed_poly(Am, Fk).coeffs, ts)[good]
    Bv = Fk.veval(_embed_poly(Bm, Fk).coeffs, ts)[good]
    tr = np.zeros(Fk.q, dtype=np.int64)
    tr[good] = _grouped_traces(Fk, Av, Bv)
    _BASE_TRACES[key] = tr
    return tr


def _power_sum(FQ: Fq, k: int, Am: Poly, Bm: Poly, Dm: Poly,
               finite_places, inf_pd: PlaceData,
               u: Poly | None = None) -> int:
    """S_k: the sum of the k-th Frobenius trace contributions over all
    fibers of P^1(F_{q^{nk}}).

    When u is given, (Am, Bm, Dm) describe the untwisted base model and
    the good-fiber traces are its cached traces flipped by chi(u(t0));
    finite_places must then already carry the twisted local data; only
    its multiplicative places enter S_k, so the I0* places at the roots
    of u need not be listed.

    The fiber at infinity (degree 1, a = inf_pd.a_v) is not counted: it
    contributes s_k = alpha^k + beta^k with alpha + beta = a, and
    alpha beta = Q for a good fiber, 0 for a bad one.  So s_1 = a and
    s_k = a s_{k-1} - alpha beta s_{k-2} from s_0 = 2: a^k at a
    multiplicative fiber and 0 at an additive one, where a = 0.
    """
    Fk = _extension_field(FQ, k)
    tr = _base_fiber_traces(FQ, k, Am, Bm, Dm)
    if u is None:
        S = int(tr.sum())
    else:
        uv = Fk.veval(_embed_poly(u, Fk).coeffs, np.arange(Fk.q))
        # chi(u(t0)) = 0 at roots of u, which are additive for the twist
        S = int((tr * Fk.vchi(uv)).sum())
    for pd in finite_places:
        r = pd.degree
        if k % r == 0 and _is_multiplicative(pd.kodaira):
            S += r * pd.a_v ** (k // r)
    a = inf_pd.a_v
    norm = FQ.q if inf_pd.kodaira == "I0" else 0
    s0, s1 = 2, a
    for _ in range(k - 1):
        s0, s1 = s1, a * s1 - norm * s0
    return S + s1


def _twisted_places(places0, u: Poly):
    """The base curve's bad places, with their local data under the
    twist by u, for u squarefree and coprime to them.

    At such a place u is a unit, so the twist keeps the symbol and
    (f_v, gamma_v, b_v), and a multiplicative a_v = chi(-c6) becomes
    chi(-c6 u^3) = chi(u mod pi) a_v.  The roots of u are the twist's
    other finite bad places, and they are not listed: at a root rho
    (simple, u squarefree) the base model is good, and twisting by a
    uniformizer multiplies (c4, Delta) by rho^2 and rho^6, so the fiber
    is I0* with f_v = 2 and a_v = 0.  Together they add exactly 2 deg u
    to N and nothing to any power sum S_k, with no need to factor u.
    """
    return [replace(pd, a_v=_residue_chi(u, pd.place) * pd.a_v)
            if _is_multiplicative(pd.kodaira) else pd for pd in places0]


def l_function(E: FqTCurve, u: Poly | None = None, n: int = 1,
               budget: int = 10 ** 9, full: bool = False) -> LPolynomial:
    """L(T) of the quadratic twist of E by u over F_{q^n}(t).

    Fiber point counts over F_{q^{nk}} give the power sums S_k; the
    exponential of sum S_k T^k / k yields the first coefficients and
    the functional equation supplies the rest.  With full=True every
    coefficient is counted directly (no completion), which is slower
    but independent of the functional equation.

    Twists coprime to the bad places share one cached set of base-model
    fiber traces, so a whole twist family costs little more than a
    single count per level.  Such a twist does only its own work: the
    sign chi(u mod pi) at each multiplicative place (_twisted_places)
    and the chi(u(t0)) of its power sums; the rest is read from the
    base model.  A twist u sharing a bad place builds its own model.

    Infinity needs no twisted model either.  Let u have degree d and
    leading coefficient c, and put w(s) = s^d u(1/s) = c + ... + u_0 s^d.
    At s = 1/t the twist by u is the twist by t^d with A_s, B_s
    multiplied by w^2, w^3.  w is a unit at s = 0 with w(0) = c, and
    for p odd Hensel's lemma makes w/c a square in F_Q[[s]], so over
    the completion at infinity the twist by u is the twist by t^d
    twisted again by the constant c.  Its minimal model at infinity is
    that of the t^d twist scaled by (c^2, c^3): the symbol, f_v, gamma_v
    and b_v are unchanged and a_v is multiplied by chi(c).  That a_v
    gives the contribution of infinity at every level (_power_sum), so
    the cached _infinity_data of the t^d twist serves every u of degree
    d (u = None is d = 0, c = 1).

    The counted coefficients b_0..b_m fix the root number at the first
    j with b_j != 0 whose partner b_{N-j} is counted, and the rest is
    b_i = eps Q^(2i - N) b_{N-i}.  The result is returned only when
    LPolynomial.functional_equation_holds, so any inconsistency among
    the counted coefficients raises ArithmeticError.
    """
    F = E.field
    if n < 1:
        raise ValueError("n must be >= 1")
    FQ = _extension_field(F, n)
    Q = FQ.q
    A = _embed_poly(E.A, FQ)
    B = _embed_poly(E.B, FQ)
    Am, Bm, Dm, finite_places = _minimal_model(A, B)
    u_count = None
    if u is not None:
        u = _check_twist(_embed_poly(u, FQ))
        if all(u.gcd(pd.place).degree == 0 for pd in finite_places):
            finite_places = _twisted_places(finite_places, u)
            u_count = u
        else:
            Am, Bm, Dm, finite_places = _finite_minimal(
                quadratic_twist(FqTCurve(FQ, A, B), u,
                                check_squarefree=False))
    inf_pd = _infinity_data(A, B, 0 if u is None else u.degree)
    if u is not None and FQ.square_class(u.lc).sign < 0:
        inf_pd = replace(inf_pd, a_v=-inf_pd.a_v)
    N = inf_pd.f_v + sum(pd.f_v * pd.degree for pd in finite_places) - 4
    if u_count is not None:
        N += 2 * u.degree     # its unlisted I0* places (_twisted_places)
    if N < 0:
        raise ValueError("conductor degree below 4; constant j part?")

    S: list[int] = []          # S[k-1] = power sum at level k
    b: list[int] = [1]         # L coefficients so far

    def extend_to(m):
        while len(S) < m:
            k = len(S) + 1
            _check_level_budget(Q, k, budget)
            S.append(_power_sum(FQ, k, Am, Bm, Dm, finite_places,
                                inf_pd, u=u_count))
            j = len(b)
            tot = sum(S[i - 1] * b[j - i] for i in range(1, j + 1))
            if tot % j != 0:
                raise ArithmeticError("non-integer L coefficient")
            b.append(tot // j)

    if N == 0:
        return LPolynomial(coeffs=(1,), N_d=0, epsilon=1, Q=Q)

    extend_to(N if full else -(-N // 2))
    # the root number from the first nonzero b_j whose partner b_{N-j} is
    # counted: one more level while there is none (b_0 = 1 pairs with b_N)
    j = None
    while j is None:
        j = next((i for i in range(len(b)) if b[i] and N - i < len(b)), None)
        if j is None:
            extend_to(len(S) + 1)
    eps = 1 if (b[N - j] * Q ** max(0, 2 * j - N)
                == b[j] * Q ** max(0, N - 2 * j)) else -1
    b += [eps * b[N - i] * Q ** (2 * i - N) for i in range(len(b), N + 1)]
    out = LPolynomial(coeffs=tuple(b), N_d=N, epsilon=eps, Q=Q)
    if not out.functional_equation_holds():
        raise ArithmeticError("functional equation fails on the "
                              "assembled polynomial")
    return out


def _check_level_budget(Q: int, k: int, budget: int):
    """Refuse the level-k fiber count, which costs about Q^(2k)."""
    if Q ** (2 * k) > budget:
        raise BudgetExceededError(
            f"level {k} fiber count needs Q^(2k) = {Q ** (2 * k)} "
            f"> budget {budget}")


# ---------------------------------------------------------------------------
# Twist families and surveys
# ---------------------------------------------------------------------------


def _twist_family(E: FqTCurve, d: int, n: int = 1, places=None):
    """(FQ, rows): the ascending coefficient rows, (d + 1) int64 columns,
    of every squarefree u of degree d over FQ = F_{q^n} coprime to the
    finite bad places of E (computed unless given as places).

    Candidates run in enumeration order: the low coefficients are the
    base-Q digits of a counter, and the leading coefficient 1..Q-1 runs
    fastest.  Only the Q^d monic candidates are tested: for c in F_Q^*,
    gcd(c u, (c u)') = gcd(u, u') and gcd(c u, m) = gcd(u, m) up to a
    unit, so u and c u pass or fail together.  The row (counter, lead)
    takes the verdict of its monic associate u / lead, whose low digits
    are the counter's digits times lead^-1.  Over a prime field one
    call of the divstep gcd kernel (galclass._batch_gcd_degrees) keeps
    the monic rows with deg gcd(u, u') = 0 (a zero u' leaves gcd(u, u')
    = u) and a second one those with deg gcd(u, m) = 0 for the bad
    modulus m of degree D.  The kernel takes its pair as (exact degree,
    lower degree): (m, u) when D > d, (u, m) when D < d, and (u, m -
    lc(m) u) when D = d, which has the same gcd.  Extension fields test
    each monic candidate as a Poly.
    """
    if d < 0:
        raise ValueError("d must be >= 0")
    F = E.field
    FQ = _extension_field(F, n)
    Q = FQ.q
    if places is None:
        places = finite_bad_places(E)
    m = _embed_poly(_places_product(F, places), FQ)
    code = np.arange(Q ** d, dtype=np.int64)
    monic = np.ones((Q ** d, d + 1), dtype=np.int64)
    for i in range(d):
        code, monic[:, i] = np.divmod(code, Q)
    if FQ.e > 1:
        us = (Poly(r, FQ) for r in monic.tolist())
        ok = np.array([u.is_squarefree() and u.gcd(m).degree == 0
                       for u in us], dtype=bool)
    else:
        mod = np.full(len(monic), Q, dtype=np.int64)
        deriv = np.zeros_like(monic)
        deriv[:, :d] = monic[:, 1:] * np.arange(1, d + 1) % Q
        ok = _batch_gcd_degrees(monic, deriv, mod) == 0
        idx = np.nonzero(ok)[0]
        u = monic[idx]
        ms = np.tile(np.array(m.coeffs, dtype=np.int64), (len(idx), 1))
        if m.degree == d:       # gcd(u, m) = gcd(u, m - lc(m) u)
            ms = (ms - ms[:, d:] * u) % Q
        pair = (ms, u) if m.degree > d else (u, ms)
        ok[idx] = _batch_gcd_degrees(*pair, mod[:len(idx)]) == 0
    rows = np.repeat(monic, Q - 1, axis=0)
    lead = np.tile(np.arange(1, Q, dtype=np.int64), Q ** d)
    rows[:, d] = lead
    inv = np.array([0] + [FQ.inv(c) for c in range(1, Q)], dtype=np.int64)
    assoc = FQ.vmul(rows[:, :d], inv[lead][:, None]) \
        @ Q ** np.arange(d, dtype=np.int64)
    return FQ, rows[ok[assoc]]


def enumerate_twists(E: FqTCurve, d: int, n: int = 1):
    """All squarefree u of degree d over F_{q^n} coprime to the finite
    bad places of E (the parameter space of the twist family)."""
    FQ, rows = _twist_family(E, d, n)
    return [Poly(r, FQ) for r in rows.tolist()]


@dataclass
class TwistRecord:
    u_coeffs: tuple
    epsilon: int
    target: WGroup
    status: str                # a classify status, or "NotSeparable"
    claimed: WGroup | None
    match: bool


@dataclass
class SurveyReport:
    q: int
    n: int
    d: int
    N_d: int
    D_d: int
    B: int
    hypotheses_hold: bool
    family_size: int
    sampled: int
    delta_hat: Fraction
    confusion: dict
    epsilon_counts: dict
    square_class_constant: bool | None
    square_class_values: tuple
    expected_square_class: int | None
    records: list = dc_field(repr=False, default_factory=list)


def twist_target_group(N_d: int, epsilon: int, D_d: int) -> WGroup:
    """The predicted Galois group of one twist's P_u."""
    K = KField.from_radicand((-1) ** (N_d // 2) * D_d)
    return group_constraint(N_d, epsilon, k_rational=K.is_rational)


#: The largest trial divisor of _squarefree_part: a cofactor left at
#: most its square is prime.
_TRIAL_BOUND = 10 ** 6


def _squarefree_part(n: int):
    """(squarefree part, fully_factored) by trial division up to
    _TRIAL_BOUND."""
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = 1
    d = 2
    while d <= _TRIAL_BOUND and d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            if e % 2:
                out *= d
        d += 1
    if n > 1:
        if isqrt(n) ** 2 == n:
            return sign * out, True
        if n <= _TRIAL_BOUND * _TRIAL_BOUND:
            # remaining cofactor is prime
            return sign * out * n, True
        return sign * out * n, False
    return sign * out, True


def survey_delta(E: FqTCurve, d: int, n: int = 1, sample: int | None = None,
                 seed: int = 0, prime_budget: int = 10 ** 4,
                 budget: int = 10 ** 9) -> SurveyReport:
    """Classify the L-polynomials of a twist family and report the
    fraction matching the predicted group.

    For each u (all of the family, or a seeded sample): compute L and
    its root number, classify P_u(T) = L(T/q^n), and compare with the
    four-case target.  Also checks that the square class of
    (-1)^{N/2} disc(P_u) is constant over the eps=+1 twists and equal
    to the square class of (-1)^{N/2} D_d.
    """
    fps = finite_bad_places(E)
    Nd, Dd, Bsum = _invariants(E, d, fps)
    if Nd < 3:
        raise ValueError("family degree N_d below 3")
    # every twist's l_function counts levels 1..ceil(N_d/2): refuse an
    # unaffordable level before the family is built
    for k in range(1, -(-Nd // 2) + 1):
        _check_level_budget(E.field.q ** n, k, budget)
    has_star = any(pd.kodaira == "I0*" for pd in fps)
    hypotheses = (Nd >= max(6 * Bsum, 3)) and (d >= 2 or has_star)
    FQ, rows = _twist_family(E, d, n, fps)
    family_size = len(rows)
    if not family_size:
        raise ValueError("empty twist family")
    # sample() draws the same indices from any population of this length
    picks = range(family_size)
    if sample is not None and sample < family_size:
        picks = random.Random(seed).sample(picks, sample)
    us = [Poly(rows[i].tolist(), FQ) for i in picks]
    records = []
    confusion: dict = {}
    eps_counts = {1: 0, -1: 0}
    sq_values = set()
    expected_sf = None
    if Nd % 2 == 0:
        expected_sf = _squarefree_part((-1) ** (Nd // 2) * Dd)[0]
    matches = 0
    for u in us:
        L = l_function(E, u, n=n, budget=budget)
        if L.N_d != Nd:
            raise ArithmeticError(f"degree {L.N_d} != N_d = {Nd} "
                                  f"for u = {list(u.coeffs)}")
        eps_counts[L.epsilon] += 1
        target = twist_target_group(Nd, L.epsilon, Dd)
        try:
            cert = classify(Poly(L.p_u()), prime_budget=prime_budget)
        except NotSeparableError:
            # a repeated factor of P_u is an outcome of this twist alone
            status, claimed = "NotSeparable", None
        else:
            status, claimed = cert.status, cert.claimed_group
        match = (status == "Certified" and claimed == target)
        matches += match
        # keyed by the printed names: an outcome is a group or a status
        key = (str(target), str(claimed) if status == "Certified" else status)
        confusion[key] = confusion.get(key, 0) + 1
        records.append(TwistRecord(
            u_coeffs=tuple(int(c) for c in u.coeffs), epsilon=L.epsilon,
            target=target, status=status, claimed=claimed, match=match))
        if Nd % 2 == 0 and L.epsilon == 1:
            disc = discriminant(Poly(L.p_u()))
            disc = Fraction(disc)
            if disc != 0:
                val = Fraction((-1) ** (Nd // 2)) * disc
                sq_values.add(
                    _squarefree_part(val.numerator * val.denominator)[0])
    sq_constant = None
    if Nd % 2 == 0:
        sq_constant = len(sq_values) <= 1 and (
            not sq_values or sq_values == {expected_sf})
    return SurveyReport(
        q=E.field.q, n=n, d=d, N_d=Nd, D_d=Dd, B=Bsum,
        hypotheses_hold=hypotheses, family_size=family_size,
        sampled=len(us), delta_hat=Fraction(matches, len(us)),
        confusion=confusion, epsilon_counts=eps_counts,
        square_class_constant=sq_constant,
        square_class_values=tuple(sorted(sq_values)),
        expected_square_class=expected_sf, records=records)
