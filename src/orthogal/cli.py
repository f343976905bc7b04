"""
Command-line front end producing machine-readable JSON reports.

Every subcommand emits one JSON document with a fixed envelope
(schema_version, command, argv echo, seed, payload) validated by the
schemas shipped in orthogal/schemas/.  All numeric values in payloads
are exact integers or rational strings "a/b"; the only floats are
explicitly labeled float-sanity checks.  Reports are byte-identical for
identical (argv, seed) unless --timing is requested.

Exit codes: 0 success, 2 Inconclusive verdict, 1 error, 64 usage.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from fractions import Fraction
from functools import cache
from importlib import resources

import jsonschema

from . import __version__
from .errors import BudgetExceededError
from .ffield import get_field, SQUARE, NONSQUARE, SquareClass
from .poly import Poly
from .recpoly import classify_H, in_P_n, count_irreducible_classes
from .orthfin import OrthSpace, CosetLabel, ALL_COSETS, enumerate_O
from .signedperm import class_statistics, order_W
from .galclass import classify
from .sieve import (SieveProblem, selberg_bound, weight_identities,
                    powerset_support, smooth_support, zero_remainder,
                    density_experiment)
from .lfunc import FqTCurve, l_function, survey_delta
from .hodge import primitive_hodge, signature_congruence, k_field_hypersurface

SCHEMA_VERSION = "1"


# ---------------------------------------------------------------------------
# Exact JSON encoding
# ---------------------------------------------------------------------------


def jsonable(x):
    """Exact JSON form: Fractions as "a/b" strings, tuples as lists,
    non-string dict keys stringified."""
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else str(x)
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, int):
        return x
    if isinstance(x, float):
        return x
    if isinstance(x, str):
        return x
    if isinstance(x, SquareClass):
        return x.tag
    if isinstance(x, dict):
        return {k if isinstance(k, str) else repr(k): jsonable(v)
                for k, v in x.items()}
    if isinstance(x, (list, tuple, set, frozenset)):
        items = list(x)
        if isinstance(x, (set, frozenset)):
            items = sorted(items, key=repr)
        return [jsonable(v) for v in items]
    return repr(x)


def _parse_rationals(text: str):
    out = []
    for part in text.split(","):
        part = part.strip()
        out.append(Fraction(part))
    return out


def _parse_ints(text: str):
    return [int(p) for p in text.split(",")]


def _disc_class(tag: str) -> SquareClass:
    if tag.lower() in ("square", "s", "1"):
        return SQUARE
    if tag.lower() in ("nonsquare", "ns", "-1"):
        return NONSQUARE
    raise ValueError(f"unknown discriminant class {tag!r}")


# ---------------------------------------------------------------------------
# Report envelope and schema validation
# ---------------------------------------------------------------------------


def make_report(command: str, argv, seed, payload, elapsed_ms=None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": command,
        "argv": list(argv),
        "seed": seed,
        "payload": payload,
    }
    if elapsed_ms is not None:
        doc["elapsed_ms"] = elapsed_ms
    return doc


@cache
def _report_validator():
    """Validator for the shipped envelope schema, built and checked
    against its metaschema once per process."""
    ref = resources.files("orthogal").joinpath("schemas", "report-v1.json")
    schema = json.loads(ref.read_text())
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def report_schema_validate(doc) -> bool:
    """Validate a report against the shipped envelope schema.  Legacy
    documents using the old "version" key are migrated with a warning."""
    if not isinstance(doc, dict):
        return False
    if "schema_version" not in doc and "version" in doc:
        doc = dict(doc)
        doc["schema_version"] = doc.pop("version")
        warnings.warn("migrated legacy report envelope (version -> "
                      "schema_version)")
    return _report_validator().is_valid(doc)


# ---------------------------------------------------------------------------
# Subcommand payloads
# ---------------------------------------------------------------------------


def _shared_strings(values) -> list:
    """The rationals as strings, one interned object per distinct
    string, so a caller that keeps many reports holds each coefficient
    string once."""
    return [sys.intern(str(Fraction(v))) for v in values]


def _cmd_classify(args):
    coeffs = _parse_rationals(args.poly)
    cert = classify(Poly(coeffs), prime_budget=args.prime_budget)
    payload = {
        "input": _shared_strings(coeffs),
        "N": cert.N,
        "epsilon": cert.epsilon,
        "stripped": _shared_strings(cert.stripped_coeffs),
        "n": cert.n,
        "status": cert.status,
        "claimed_group": None if cert.claimed_group is None
        else str(cert.claimed_group),
        "witnesses": {str(k): v for k, v in sorted(cert.witnesses.items())},
        "disc_is_square": cert.disc_is_square,
        "K": None if cert.K is None else {
            "radicand": cert.K.radicand, "is_rational": cert.K.is_rational},
        "reason": cert.reason,
        "prime_budget": cert.prime_budget,
    }
    return payload, (2 if cert.status == "Inconclusive" else 0)


def _cmd_orth_stats(args):
    F = get_field(args.q)
    V = OrthSpace.canonical(F, args.N, _disc_class(args.disc))
    table = enumerate_O(V, budget=args.budget)
    dets = table.dets()
    spins = table.spins()
    coset_sizes = {}
    for kappa in ALL_COSETS:
        size = int(((dets == kappa.det)
                    & (spins == kappa.spin.sign)).sum())
        coset_sizes[f"det={kappa.det},spin={kappa.spin.tag}"] = size
    return {
        "q": args.q, "N": args.N, "disc": _disc_class(args.disc).tag,
        "order": len(table), "order_formula": V.order_O(),
        "coset_sizes": coset_sizes,
    }, 0


def _cmd_orth_enum(args):
    F = get_field(args.q)
    V = OrthSpace.canonical(F, args.N, _disc_class(args.disc))
    table = enumerate_O(V, budget=args.budget)
    return {
        "q": args.q, "N": args.N, "disc": _disc_class(args.disc).tag,
        "count": len(table), "order_formula": V.order_O(),
        "order_matches": len(table) == V.order_O(),
    }, 0


def _cmd_wstats(args):
    stats = class_statistics(args.n, args.plus, budget=args.budget)
    rows = [{"cycle_type_X": list(ctx), "cycle_type_pairs": list(ctp),
             "eps1": e1, "frequency": jsonable(v)}
            for (ctx, ctp, e1), v in sorted(stats.items())]
    return {"n": args.n, "plus": args.plus,
            "order": order_W(args.n, args.plus), "classes": rows}, 0


def _cmd_count_irred(args):
    table = count_irreducible_classes(args.q, args.m, budget=args.budget)
    return {
        "q": table.q, "m": table.m,
        "counts": {f"{a},{b}": c for (a, b), c in sorted(table.counts.items())},
        "deviations": {f"{a},{b}": c
                       for (a, b), c in sorted(table.deviations.items())},
        "total": table.total,
    }, 0


def _cmd_classify_h(args):
    q = args.q
    F = get_field(q)
    h = Poly.from_int_coeffs(_parse_ints(args.poly), F)
    classes = classify_H(h)
    return {"q": q, "h": [int(c) for c in h.coeffs],
            "in_P_n": in_P_n(h), "classes": sorted(classes)}, 0


def _cmd_sieve_bound(args):
    with open(args.problem) as fh:
        spec = json.load(fh)
    omegas = {k: Fraction(v) for k, v in spec["omegas"].items()}
    X = Fraction(spec.get("X", 1))
    support = spec.get("support", "powerset")
    if support == "powerset":
        support = powerset_support(omegas)
    elif isinstance(support, dict) and "smooth" in support:
        support = smooth_support([int(k) for k in omegas], support["smooth"])
    else:
        support = {frozenset(D) for D in support}
    problem = SieveProblem(omegas, X, zero_remainder, support)
    result = selberg_bound(problem)
    return {
        "labels": sorted(omegas),
        "H": jsonable(result.H),
        "bound": None if result.bound is None else jsonable(result.bound),
        "remainder_sum": jsonable(result.remainder_sum),
        "weight_identities": weight_identities(result),
    }, 0


def _cmd_density(args):
    primes = _parse_ints(args.primes)
    det, spin = args.coset.split(",")
    kappa = CosetLabel(int(det), _disc_class(spin))
    exp = density_experiment(args.N, primes, kappa, args.i,
                             reference_c=args.reference_c)
    return {
        "N": exp.N, "i": exp.i, "primes": list(exp.primes),
        "densities": {str(p): jsonable(v) for p, v in exp.densities.items()},
        "miss_probability": jsonable(exp.miss_probability),
        "reference_c": jsonable(exp.reference_c),
        "reference_curve": jsonable(exp.reference_curve),
    }, 0


def _parse_curve(args) -> FqTCurve:
    F = get_field(args.q)
    return FqTCurve.from_coeff_lists(F, _parse_ints(args.A),
                                     _parse_ints(args.B))


def _cmd_lfunc(args):
    E = _parse_curve(args)
    u = None
    if args.u:
        u = Poly.from_int_coeffs(_parse_ints(args.u), E.field)
    L = l_function(E, u=u, n=args.n, budget=args.budget)
    return {
        "q": args.q, "n": args.n, "Q": L.Q,
        "u": None if u is None else [int(c) for c in u.coeffs],
        "coeffs": [int(c) for c in L.coeffs],
        "N_d": L.N_d, "epsilon": L.epsilon,
        "functional_equation": L.functional_equation_holds(),
        "inverse_root_abs_error_float_sanity": L.inverse_root_abs_error(),
    }, 0


def _cmd_lfunc_survey(args):
    E = _parse_curve(args)
    rep = survey_delta(E, args.d, n=args.n, sample=args.sample,
                       seed=args.seed, prime_budget=args.prime_budget,
                       budget=args.budget)
    Nd, Dd, Bsum = rep.N_d, rep.D_d, rep.B
    return {
        "q": rep.q, "n": rep.n, "d": rep.d,
        "N_d": Nd, "D_d": Dd, "B": Bsum,
        "hypotheses_hold": rep.hypotheses_hold,
        "family_size": rep.family_size, "sampled": rep.sampled,
        "delta_hat": jsonable(rep.delta_hat),
        "epsilon_counts": {str(k): v for k, v in rep.epsilon_counts.items()},
        "confusion": [{"target": t, "outcome": o, "count": c}
                      for (t, o), c in sorted(rep.confusion.items())],
        "square_class_constant": rep.square_class_constant,
        "square_class_values": list(rep.square_class_values),
        "expected_square_class": rep.expected_square_class,
    }, 0


def _cmd_hodge(args):
    table = primitive_hodge(args.n, args.d)
    sig, ok = signature_congruence(args.n, args.d)
    kf = None
    if args.d % 2 == 1:
        k = k_field_hypersurface(args.d)
        kf = {"radicand": k.radicand, "is_rational": k.is_rational,
              "display": str(k)}
    return {
        "n": args.n, "d": args.d,
        "hodge": list(table.h0), "N": table.N,
        "b_plus": table.b_plus, "b_minus": table.b_minus,
        "signature": sig, "congruence_pass": ok, "K": kf,
    }, 0


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="orthogal")
    p.add_argument("--timing", action="store_true",
                   help="include elapsed_ms in the report (breaks "
                        "byte-identical reproducibility)")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="Galois certificate of a "
                                        "reciprocal polynomial over Q")
    c.add_argument("--poly", required=True,
                   help="comma-separated rational coefficients, ascending")
    c.add_argument("--prime-budget", type=int, default=10 ** 4)

    for name in ("orth-stats", "orth-enum"):
        c = sub.add_parser(name)
        c.add_argument("--q", type=int, required=True)
        c.add_argument("--N", type=int, required=True)
        c.add_argument("--disc", default="square")
        c.add_argument("--budget", type=int, default=2 * 10 ** 6)

    c = sub.add_parser("wstats", help="exact class statistics of W_{2n}")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--plus", action="store_true")
    c.add_argument("--budget", type=int, default=10 ** 5,
                   help="largest number of conjugacy classes to list")

    c = sub.add_parser("count-irred")
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--budget", type=int, default=10 ** 6)

    c = sub.add_parser("classify-h")
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--poly", required=True,
                   help="comma-separated integer coefficients, ascending")

    c = sub.add_parser("sieve-bound")
    c.add_argument("--problem", required=True, help="JSON problem file")

    c = sub.add_parser("density")
    c.add_argument("--N", type=int, required=True)
    c.add_argument("--i", type=int, required=True)
    c.add_argument("--primes", required=True)
    c.add_argument("--coset", default="1,square",
                   help="det,spin e.g. 1,square or -1,nonsquare")
    c.add_argument("--reference-c", type=Fraction, default=None)

    for name in ("lfunc", "lfunc-survey"):
        c = sub.add_parser(name)
        c.add_argument("--q", type=int, required=True)
        c.add_argument("--A", required=True,
                       help="coefficients of A(t), ascending")
        c.add_argument("--B", required=True,
                       help="coefficients of B(t), ascending")
        c.add_argument("--n", type=int, default=1)
        c.add_argument("--budget", type=int, default=10 ** 9)
        if name == "lfunc":
            c.add_argument("--u", default=None,
                           help="twist coefficients, ascending")
        else:
            c.add_argument("--d", type=int, required=True)
            c.add_argument("--sample", type=int, default=None)
            c.add_argument("--seed", type=int, default=0)
            c.add_argument("--prime-budget", type=int, default=10 ** 4)

    c = sub.add_parser("hodge")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--d", type=int, required=True)
    return p


_HANDLERS = {
    "classify": _cmd_classify,
    "orth-stats": _cmd_orth_stats,
    "orth-enum": _cmd_orth_enum,
    "wstats": _cmd_wstats,
    "count-irred": _cmd_count_irred,
    "classify-h": _cmd_classify_h,
    "sieve-bound": _cmd_sieve_bound,
    "density": _cmd_density,
    "lfunc": _cmd_lfunc,
    "lfunc-survey": _cmd_lfunc_survey,
    "hodge": _cmd_hodge,
}


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it
    unchanged."""
    return build_parser()


def dispatch(argv) -> tuple[int, dict | None]:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return (64 if exc.code not in (0, None) else 0), None
    start = time.monotonic()
    try:
        payload, code = _HANDLERS[args.command](args)
    except (ValueError, ArithmeticError, BudgetExceededError,
            OSError, json.JSONDecodeError) as exc:
        report = make_report(args.command, argv, getattr(args, "seed", None),
                             {"error": f"{type(exc).__name__}: {exc}"})
        return 1, report
    elapsed = round(1000 * (time.monotonic() - start), 3)
    report = make_report(args.command, argv, getattr(args, "seed", None),
                         payload, elapsed_ms=elapsed if args.timing else None)
    if not report_schema_validate(report):
        raise RuntimeError("report does not match the v1 schema")
    return code, report


def main(argv=None) -> int:
    code, report = dispatch(sys.argv[1:] if argv is None else argv)
    if report is not None:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
