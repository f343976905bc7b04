"""Seeded inputs, jobs and output checks of the three benchmark workloads.

Each workload is a class with four parts:

* ``make_inputs(rng)`` draws the whole input list from the seeded RNG
  before any timing starts; the program only ever sees these inputs.
* ``warm_up()`` is a fixed job (independent of the seed) that imports
  and fills the lazy tables a first job would otherwise pay for; it is
  what ``setup_s`` measures.
* ``run(job)`` is one closed-loop job: one in-process call of
  ``orthogal.cli.dispatch(argv)``.  It returns a JSON-able report, or
  raises ``JobFailed`` for a typed error.
* ``check(job, report)`` re-derives what it can about the answer and
  returns a reason string when the report is wrong, else ``None``.

Inputs follow a fixed round of strata (input kinds and sizes, ``ROUND``)
after ``LEAD`` opening jobs, and the seed fills in the coefficients.  A
run goes through the rounds in order and ends on a round boundary, so
every run holds the same mix of kinds and sizes whatever the seed.
That is what keeps the per-run medians steady.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial, prod

from orthogal import cli, galclass, lfunc
from orthogal.ffield import get_field
from orthogal.poly import Poly, discriminant, factor_degrees
from orthogal.recpoly import trace_lift

SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


class JobFailed(Exception):
    """A job ended in a typed error (exception or CLI exit code 1)."""

    def __init__(self, kind: str):
        super().__init__(kind)
        self.kind = kind


def _dispatch(argv, ok_codes=(0,)):
    code, report = cli.dispatch(argv)
    if report is None:
        raise JobFailed(f"exit {code}: no report")
    if code not in ok_codes:
        error = report["payload"].get("error", f"exit code {code}")
        raise JobFailed(error[:90])
    return report


def _int_list(text):
    return [int(c) for c in text.split(",")]


# ---------------------------------------------------------------------------
# Reciprocal polynomials over Q (certify)
# ---------------------------------------------------------------------------


def primes_below(bound):
    """Odd primes below bound (a plain sieve, independent of galclass)."""
    mask = bytearray([1]) * bound
    mask[:2] = b"\0\0"
    for p in range(2, int(bound ** 0.5) + 1):
        if mask[p]:
            mask[p * p::p] = bytearray(len(range(p * p, bound, p)))
    return [p for p in range(3, bound) if mask[p]]


def differential_mismatch(core, primes):
    """Compare batch_factor_degrees with the scalar Poly.factor_degrees
    over F_l on each row (core, l); return the first disagreeing l."""
    batch = galclass.batch_factor_degrees(core, primes)
    for ell, got in zip(primes, batch):
        f = Poly.from_int_coeffs(core, get_field(ell))
        if f.degree != len(core) - 1 or not f.is_squarefree():
            want = None
        else:
            want = tuple(factor_degrees(f))
        if got != want:
            return ell
    return None


def _random_monic(rng, deg, bound=5):
    """Monic integer polynomial (ascending) with nonzero constant term."""
    while True:
        cs = [rng.randint(-bound, bound) for _ in range(deg)] + [1]
        if cs[0] != 0:
            return cs


def _irreducible_mod_some_prime(cs) -> bool:
    """Sufficient test for irreducibility over Q of a monic integer
    polynomial: it stays irreducible modulo some small prime."""
    deg = len(cs) - 1
    for p in SMALL_PRIMES:
        if factor_degrees(Poly.from_int_coeffs(cs, get_field(p))) == [deg]:
            return True
    return False


def _irreducible_h(rng, deg):
    while True:
        cs = _random_monic(rng, deg)
        if _irreducible_mod_some_prime(cs):
            return cs


def _lift(h):
    """Coefficients of T^n h(T + 1/T), ascending integers."""
    return [int(c) for c in trace_lift(Poly(h)).coeffs]


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _disc_is_square(core) -> bool:
    return galclass.is_perfect_square(Fraction(discriminant(Poly(core))))


FORCED = {"1+T": ([1, 1], 1), "1-T": ([1, -1], -1), "1-T^2": ([1, 0, -1], -1)}


class Certify:
    """``classify --poly`` on seeded reciprocal polynomials of degree 4-12.

    A round of eleven jobs: eight trace lifts of random irreducible h of
    degree 2, 3, 4, 4, 4, 4, 5, 6; one degree-8 lift times a forced
    factor (1+T), (1-T) or (1-T^2) (odd degree or sign -1); two lifts
    of a reducible h = h1 h2 (degree 8; no class-1 witness exists, so
    the scan runs through the whole prime budget and ends Inconclusive
    or Rejected).
    """

    name = "certify"
    LEAD = 0
    # four degree-8 lifts hold the median and the two reducible jobs the
    # p90, each inside a group of equal-size jobs
    ROUND = (("lift", 2), ("lift", 3), ("lift", 4), ("lift", 4), ("lift", 4),
             ("lift", 4), ("lift", 5), ("lift", 6), ("forced", 4),
             ("reducible", None), ("reducible", None))
    ROUNDS = 60

    def make_inputs(self, rng):
        jobs = []
        for _ in range(self.ROUNDS):
            for kind, deg in self.ROUND:
                jobs.append(self._draw(rng, kind, deg))
        return jobs

    @staticmethod
    def _draw(rng, kind, deg):
        if kind == "reducible":
            # two distinct irreducible quadratics: h is squarefree and,
            # with no rational roots, h(2) h(-2) != 0
            h1, h2 = _irreducible_h(rng, 2), _irreducible_h(rng, 2)
            while h2 == h1:
                h2 = _irreducible_h(rng, 2)
            core = _lift(_poly_mul(h1, h2))
        else:
            core = _lift(_irreducible_h(rng, deg))
        job = {"kind": kind, "core": core, "poly": core, "eps": 1}
        if kind == "forced":
            factor, job["eps"] = FORCED[rng.choice(sorted(FORCED))]
            job["poly"] = _poly_mul(core, factor)
        return job

    def warm_up(self):
        self.run(self._draw(random.Random(0), "lift", 4))

    @staticmethod
    def run(job):
        argv = ["classify", "--poly", ",".join(map(str, job["poly"]))]
        return _dispatch(argv, ok_codes=(0, 2))

    @staticmethod
    def check(job, report):
        p = report["payload"]
        core = job["core"]
        n = (len(core) - 1) // 2
        if p["status"] not in ("Certified", "Inconclusive", "Rejected"):
            return f"unknown status {p['status']!r}"
        if p["n"] != n or p["epsilon"] != job["eps"]:
            return "wrong n or epsilon"
        if p["stripped"] != [str(c) for c in core]:
            return "stripped core differs from the generated core"
        if p["status"] != "Certified":
            return None
        if job["kind"] == "reducible":
            return "certified a reducible core"
        if not {"1", "2", "3", "4", "5"} <= set(p["witnesses"]):
            return "certified without witnesses 1-5"
        square = _disc_is_square(core)
        if p["disc_is_square"] != square:
            return "disc_is_square disagrees with disc(f)"
        even_plus = (len(job["poly"]) - 1) % 2 == 0 and job["eps"] == 1
        want = f"W{2 * n}+" if (even_plus and square) else f"W{2 * n}"
        if p["claimed_group"] != want:
            return f"claimed {p['claimed_group']}, disc(f) says {want}"
        return None

    @staticmethod
    def spot_rows(job, rng):
        """(integer core, primes) rows for the differential spot-check:
        three primes from the range classify scans (below 10^4) and three
        from the range chebotarev_validate scans (below 10^5)."""
        return job["core"], (rng.sample(primes_below(10 ** 4), 3)
                             + rng.sample(primes_below(10 ** 5), 3))


# ---------------------------------------------------------------------------
# Twist families of elliptic curves over F_q(t) (twist-survey)
# ---------------------------------------------------------------------------


def _functional_equation_holds(coeffs, N, eps, Q) -> bool:
    return len(coeffs) == N + 1 and all(
        coeffs[N - j] == eps * Q ** (N - 2 * j) * coeffs[j]
        for j in range(N + 1))


class TwistSurvey:
    """``lfunc-survey`` on fresh seeded Legendre-type curves
    y^2 = x(x - a(t))(x - b(t)).

    Rounds of seven jobs: two with d = 2 over F_5 and deg a = deg b = 1,
    five with d = 3 (deg a = deg b = 1 over F_5 and F_7, and a constant
    a with deg b = 1 over F_7).  Degrees are exact, so each stratum has
    a narrow range of N_d and of cost.  Curves are redrawn only when the
    API calls them out of domain: singular, constant j, or N_d < 3.

    These are the strata on which the program answers every job.  The
    strata where known defects make jobs fail (general short-Weierstrass
    curves, Legendre-type curves over F_7 with d = 2, with deg b = 2, or
    surveyed over F_25) are run, untimed, by ``defects.py``.
    """

    name = "twist-survey"
    LEAD = 0
    SAMPLE = 4
    # (family, q, n, exact degrees of (a, b) or (A, B), d)
    ROUND = (("legendre", 5, 1, (1, 1), 2), ("legendre", 5, 1, (1, 1), 2),
             ("legendre", 5, 1, (1, 1), 3), ("legendre", 5, 1, (1, 1), 3),
             ("legendre", 7, 1, (1, 1), 3), ("legendre", 7, 1, (1, 1), 3),
             ("legendre", 7, 1, (0, 1), 3))
    ROUNDS = 40

    def __init__(self):
        self.captured = []

    def make_inputs(self, rng):
        return [self._draw(rng, *spec)
                for _ in range(self.ROUNDS) for spec in self.ROUND]

    @staticmethod
    def _curve(rng, family, q, degs):
        F = get_field(q)

        def rand(deg):
            return Poly.from_int_coeffs(
                [rng.randrange(q) for _ in range(deg)] + [rng.randrange(1, q)],
                F)

        if family == "general":
            return lfunc.FqTCurve(F, rand(degs[0]), rand(degs[1]))
        a, b = rand(degs[0]), rand(degs[1])
        zero = Poly([0], F)
        return lfunc.FqTCurve.from_a_invariants(F, zero, -(a + b), zero,
                                                a * b, zero)

    def _draw(self, rng, family, q, n, degs, d):
        while True:
            try:
                E = self._curve(rng, family, q, degs)
            except ValueError:          # singular model
                continue
            if not E.j_is_nonconstant():
                continue
            try:
                if lfunc.invariants_Nd_Dd_B(E, d)[0] < 3:
                    continue
            except (ValueError, ArithmeticError):
                pass                    # not out of domain: the job shows it
            return {"family": family, "q": q, "n": n, "d": d,
                    "A": [int(c) for c in E.A.coeffs],
                    "B": [int(c) for c in E.B.coeffs],
                    "seed": rng.randrange(1000)}

    def install_capture(self):
        """Record every L-polynomial the survey computes, so the check
        can test its functional equation.  survey_delta looks the name
        up in its module at call time."""
        inner = lfunc.l_function
        captured = self.captured

        def l_function(*args, **kwargs):
            L = inner(*args, **kwargs)
            captured.append((list(L.coeffs), L.N_d, L.epsilon, L.Q))
            return L

        lfunc.l_function = l_function

    def warm_up(self):
        # one fixed d = 3 survey over each field builds the tables of the
        # field and of the extensions its fiber counts use
        rng = random.Random(0)
        for spec in (self.ROUND[2], self.ROUND[4]):
            self.run(self._draw(rng, *spec))

    def run(self, job):
        self.captured.clear()
        report = _dispatch([
            "lfunc-survey", "--q", str(job["q"]), "--n", str(job["n"]),
            "--A", ",".join(map(str, job["A"])),
            "--B", ",".join(map(str, job["B"])), "--d", str(job["d"]),
            "--sample", str(self.SAMPLE), "--seed", str(job["seed"])])
        return {"report": report, "L": list(self.captured)}

    def check(self, job, result):
        p = result["report"]["payload"]
        sampled = p["sampled"]
        if sampled != min(self.SAMPLE, p["family_size"]):
            return "sample size differs from the request"
        if sum(c["count"] for c in p["confusion"]) != sampled:
            return "confusion counts do not sum to the sample size"
        if sum(p["epsilon_counts"].values()) != sampled:
            return "epsilon counts do not sum to the sample size"
        if len(result["L"]) != sampled:
            return "one L-polynomial per sampled twist expected"
        Q = job["q"] ** job["n"]
        for coeffs, N, eps, LQ in result["L"]:
            if N != p["N_d"] or LQ != Q or coeffs[0] != 1:
                return "L-polynomial of the wrong degree or base"
            if not _functional_equation_holds(coeffs, N, eps, Q):
                return "L-polynomial breaks its functional equation"
        return None


# ---------------------------------------------------------------------------
# Finite groups (group-census)
# ---------------------------------------------------------------------------


def _order_O(q, N, eps):
    """|O(N, q)|; eps = +1 / -1 picks the split / non-split even form."""
    m = N // 2
    if N % 2:
        return 2 * q ** (m * m) * prod(q ** (2 * i) - 1 for i in range(1, m + 1))
    return (2 * q ** (m * (m - 1)) * (q ** m - eps)
            * prod(q ** (2 * i) - 1 for i in range(1, m)))


class GroupCensus:
    """``orth-stats``, ``wstats`` and ``density`` over a seeded grid.

    The first job enumerates O(4, 5) with square discriminant (28800
    elements, the largest group of the workload, so every run holds it
    in memory once; the non-split form needs half the memory).  After it,
    rounds of twenty-two jobs, each round a seeded shuffle of one fixed
    grid: ``wstats`` for n = 3, 4, 6 with and without ``--plus``;
    ``orth-stats`` for (q, N) = (3, 3), (5, 3), (7, 3) with a seeded
    discriminant, and five times for the non-split O(4, 3); ``density``
    for N = 3 (four times), 4 (twice) and 6 with a seeded spinor class.  Every run therefore
    sees the same sizes; the seed picks the order and the parameters
    that do not change the cost.
    """

    name = "group-census"
    LEAD = 1
    # density rows: (N, det of the coset or None, i or None, primes); the
    # seed fills a None, which it does only where the cost does not
    # depend on the value.  Sorted by cost, a round has fourteen jobs of
    # 8-25 ms, where the median falls inside the four N = 3 densities
    # (~17 ms; below them ~16 ms, above them the ~20 ms O(3, 7) jobs), five
    # identical O(4, 3) enumerations (the p75 falls in their middle) and
    # three of 0.4-1.1 s.
    ROUND = (("wstats", 3, False), ("wstats", 3, True), ("wstats", 4, False),
             ("wstats", 4, True), ("orth-stats", 3, 3), ("orth-stats", 5, 3),
             ("orth-stats", 7, 3), ("orth-stats", 7, 3),
             ("density", 4, -1, None, "7,11"), ("density", 4, -1, None, "7,11"))
    ROUND += (("density", 3, None, None, "5,7,11"),) * 4
    ROUND += (("orth-stats", 3, 4, "nonsquare"),) * 5
    ROUND += (("density", 6, 1, 3, "5,7"), ("wstats", 6, False),
              ("wstats", 6, True))
    ROUNDS = 40

    def make_inputs(self, rng):
        jobs = [["orth-stats", "--q", "5", "--N", "4", "--disc", "square"]]
        for _ in range(self.ROUNDS):
            grid = [self._draw(rng, *spec) for spec in self.ROUND]
            rng.shuffle(grid)
            jobs.extend(grid)
        return jobs

    @staticmethod
    def _draw(rng, cmd, *spec):
        if cmd == "wstats":
            n, plus = spec
            return ["wstats", "--n", str(n)] + (["--plus"] if plus else [])
        if cmd == "orth-stats":
            q, N, *disc = spec
            disc = disc[0] if disc else rng.choice(("square", "nonsquare"))
            return ["orth-stats", "--q", str(q), "--N", str(N), "--disc", disc]
        N, det, i, primes = spec
        det = det or rng.choice((1, -1))
        spin = rng.choice(("square", "nonsquare"))
        return ["density", "--N", str(N), "--i", str(i or rng.randint(1, 5)),
                "--primes", primes, f"--coset={det},{spin}"]

    def warm_up(self):
        for argv in (["orth-stats", "--q", "5", "--N", "3"],
                     ["wstats", "--n", "3"],
                     ["density", "--N", "4", "--i", "1", "--primes", "5"]):
            _dispatch(argv)

    @staticmethod
    def run(job):
        return _dispatch(job)

    @staticmethod
    def check(job, report):
        p = report["payload"]
        cmd = job[0]
        if cmd == "orth-stats":
            q, N = p["q"], p["N"]
            if p["order"] != p["order_formula"]:
                return "enumerated order differs from order_formula"
            if p["order"] not in (_order_O(q, N, 1), _order_O(q, N, -1)):
                return "order is not |O(N, q)|"
            sizes = p["coset_sizes"].values()
            if sum(sizes) != p["order"]:
                return "coset sizes do not sum to the order"
            if N >= 3 and q >= 5 and set(sizes) != {p["order"] // 4}:
                return "cosets of unequal size"
            return None
        if cmd == "wstats":
            n, plus = p["n"], p["plus"]
            if p["order"] != 2 ** n * factorial(n) // (2 if plus else 1):
                return "order is not |W_2n|"
            freqs = [Fraction(r["frequency"]) for r in p["classes"]]
            if sum(freqs) != 1:
                return "class frequencies do not sum to 1"
            if any((f * p["order"]).denominator != 1 for f in freqs):
                return "a class size is not an integer"
            if plus and any(r["eps1"] != 1 for r in p["classes"]):
                return "W+ statistics contain an eps1 = -1 class"
            return None
        primes = _int_list(job[job.index("--primes") + 1])
        dens = {int(k): Fraction(v) for k, v in p["densities"].items()}
        if sorted(dens) != primes or p["primes"] != primes:
            return "densities do not cover the requested primes"
        if any(not 0 <= v <= 1 for v in dens.values()):
            return "density outside [0, 1]"
        if Fraction(p["miss_probability"]) != prod(1 - v for v in dens.values()):
            return "miss probability is not the product of 1 - density"
        return None


WORKLOADS = {w.name: w for w in (Certify, TwistSurvey, GroupCensus)}
