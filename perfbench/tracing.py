"""Per-layer tracing of orthogal from outside the package.

The layers are the package's modules.  ``Tracer.install()`` wraps the
functions listed in ``SPANS`` in place: the wrapper replaces the name in
every ``orthogal.*`` module namespace that holds the same object (so
``galclass.classify`` and ``lfunc.classify`` are both traced), and
methods are wrapped on their class.  A wrapper records a span: its
duration, and its self time, which is the duration minus the time of the
spans nested directly inside it.  Spans and counts stay in memory; the
module caches are read at the end and never written.

Scalar ``Fq.add``/``Fq.mul`` are deliberately not wrapped: they run
~10^7 times per job, so a wrapper would measure itself.  Their time is
self time of whichever traced function calls them.

A name that no longer exists (the private ``_batch_frobenius_chains``,
``_fiber_traces``, ``_base_fiber_traces`` and ``_BASE_TRACES`` are
expected to be renamed) is skipped, and every metric that depends on it
is reported as absent (``None``) instead of failing the run.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from time import perf_counter

# span name -> (module, attribute path)
SPANS = {
    "cli.dispatch": ("orthogal.cli", "dispatch"),
    "cli.schema_validate": ("orthogal.cli", "report_schema_validate"),
    "galclass.classify": ("orthogal.galclass", "classify"),
    "galclass.bfd": ("orthogal.galclass", "batch_factor_degrees"),
    "galclass.frobenius": ("orthogal.galclass", "_batch_frobenius_chains"),
    "galclass.primes_up_to": ("orthogal.galclass", "primes_up_to"),
    "poly.discriminant": ("orthogal.poly", "discriminant"),
    "poly.factor_degrees": ("orthogal.poly", "factor_degrees"),
    "poly.factor": ("orthogal.poly", "factor"),
    "recpoly.classify_H": ("orthogal.recpoly", "classify_H"),
    "recpoly.to_trace_form": ("orthogal.recpoly", "to_trace_form"),
    "signedperm.class_statistics": ("orthogal.signedperm", "class_statistics"),
    "orthfin.enumerate_O": ("orthogal.orthfin", "enumerate_O"),
    "orthfin.dets": ("orthogal.orthfin", "GroupTable.dets"),
    "orthfin.spins": ("orthogal.orthfin", "GroupTable.spins"),
    "orthfin.charpolys": ("orthogal.orthfin", "GroupTable.charpolys"),
    "orthfin.c_i_density": ("orthogal.orthfin", "c_i_density"),
    "orthfin.class_proportion": ("orthogal.orthfin", "class_proportion"),
    "sieve.density_experiment": ("orthogal.sieve", "density_experiment"),
    "lfunc.l_function": ("orthogal.lfunc", "l_function"),
    "lfunc.enumerate_twists": ("orthogal.lfunc", "enumerate_twists"),
    "lfunc.fiber_traces": ("orthogal.lfunc", "_fiber_traces"),
    "lfunc.base_traces": ("orthogal.lfunc", "_base_fiber_traces"),
    "ffield.get_field": ("orthogal.ffield", "get_field"),
    "ffield.build_tables": ("orthogal.ffield", "Fq.build_tables"),
    "ffield.build_logs": ("orthogal.ffield", "Fq.build_logs"),
}

CACHES = ("_BASE_TRACES", "_VT_CACHE", "_EMB_CACHE")

# per-layer metric -> (unit, better, spans it needs)
METRICS = {
    "cli.dispatch.self_s": ("s", "lower", ["cli.dispatch"]),
    "cli.schema_validate.calls": ("count", "lower", ["cli.schema_validate"]),
    "cli.schema_validate.busy_s": ("s", "lower", ["cli.schema_validate"]),
    "galclass.classify.calls": ("count", "higher", ["galclass.classify"]),
    "galclass.classify.busy_s": ("s", "lower", ["galclass.classify"]),
    "galclass.classify.primes_factored": ("count", "lower",
                                          ["galclass.classify", "galclass.bfd"]),
    "galclass.classify.primes_needed": ("count", "lower",
                                        ["galclass.classify", "galclass.bfd"]),
    "galclass.classify.useful_ratio": ("ratio", "higher",
                                       ["galclass.classify", "galclass.bfd"]),
    "galclass.bfd.calls": ("count", "lower", ["galclass.bfd"]),
    "galclass.bfd.rows": ("count", "higher", ["galclass.bfd"]),
    "galclass.bfd.degenerate_rows": ("count", "lower", ["galclass.bfd"]),
    "galclass.bfd.rows_per_s": ("1/s", "higher", ["galclass.bfd"]),
    "galclass.frobenius.busy_s": ("s", "lower", ["galclass.frobenius"]),
    "galclass.gcd_chain.busy_s": ("s", "lower",
                                  ["galclass.bfd", "galclass.frobenius",
                                   "poly.discriminant"]),
    "galclass.primes_up_to.busy_s": ("s", "lower", ["galclass.primes_up_to"]),
    "poly.discriminant.busy_s": ("s", "lower", ["poly.discriminant"]),
    "poly.factor_degrees.calls": ("count", "lower", ["poly.factor_degrees"]),
    "poly.factor_degrees.busy_s": ("s", "lower", ["poly.factor_degrees"]),
    "poly.factor.busy_s": ("s", "lower", ["poly.factor"]),
    "recpoly.classify_H.calls": ("count", "lower", ["recpoly.classify_H"]),
    "recpoly.classify_H.busy_s": ("s", "lower", ["recpoly.classify_H"]),
    "recpoly.to_trace_form.busy_s": ("s", "lower", ["recpoly.to_trace_form"]),
    "signedperm.class_statistics.calls": ("count", "lower",
                                          ["signedperm.class_statistics"]),
    "signedperm.class_statistics.busy_s": ("s", "lower",
                                           ["signedperm.class_statistics"]),
    "signedperm.class_statistics.elements": ("count", "lower",
                                             ["signedperm.class_statistics"]),
    "orthfin.enumerate_O.calls": ("count", "higher", ["orthfin.enumerate_O"]),
    "orthfin.enumerate_O.busy_s": ("s", "lower", ["orthfin.enumerate_O"]),
    "orthfin.enumerate_O.elements": ("count", "higher", ["orthfin.enumerate_O"]),
    "orthfin.enumerate_O.elements_per_s": ("1/s", "higher",
                                           ["orthfin.enumerate_O"]),
    "orthfin.dets.busy_s": ("s", "lower", ["orthfin.dets"]),
    "orthfin.spins.busy_s": ("s", "lower", ["orthfin.spins"]),
    "orthfin.charpolys.busy_s": ("s", "lower", ["orthfin.charpolys"]),
    "orthfin.c_i_density.calls": ("count", "higher", ["orthfin.c_i_density"]),
    "orthfin.c_i_density.busy_s": ("s", "lower", ["orthfin.c_i_density"]),
    "orthfin.class_proportion.calls": ("count", "lower",
                                       ["orthfin.class_proportion"]),
    "sieve.density_experiment.busy_s": ("s", "lower",
                                        ["sieve.density_experiment"]),
    "lfunc.l_function.calls": ("count", "higher", ["lfunc.l_function"]),
    "lfunc.l_function.busy_s": ("s", "lower", ["lfunc.l_function"]),
    "lfunc.enumerate_twists.busy_s": ("s", "lower", ["lfunc.enumerate_twists"]),
    "lfunc.enumerate_twists.candidates": ("count", "lower",
                                          ["lfunc.enumerate_twists"]),
    "lfunc.enumerate_twists.kept": ("count", "lower", ["lfunc.enumerate_twists"]),
    "lfunc.enumerate_twists.sampled_ratio": ("ratio", "higher",
                                             ["lfunc.enumerate_twists",
                                              "lfunc.l_function"]),
    "lfunc.fiber_traces.calls": ("count", "lower", ["lfunc.fiber_traces"]),
    "lfunc.fiber_traces.busy_s": ("s", "lower", ["lfunc.fiber_traces"]),
    "lfunc.fiber_traces.point_evals": ("count", "lower", ["lfunc.fiber_traces"]),
    "lfunc.base_traces.hits": ("count", "higher",
                               ["lfunc.base_traces", "cache:_BASE_TRACES"]),
    "lfunc.base_traces.misses": ("count", "lower",
                                 ["lfunc.base_traces", "cache:_BASE_TRACES"]),
    "lfunc.base_traces.hit_ratio": ("ratio", "higher",
                                    ["lfunc.base_traces", "cache:_BASE_TRACES"]),
    "lfunc.cache.entries": ("count", "lower", ["cache:" + c for c in CACHES]),
    "lfunc.cache.bytes": ("bytes", "lower", ["cache:" + c for c in CACHES]),
    "ffield.get_field.calls": ("count", "lower", ["ffield.get_field"]),
    "ffield.build_tables.busy_s": ("s", "lower", ["ffield.build_tables"]),
    "ffield.build_logs.busy_s": ("s", "lower", ["ffield.build_logs"]),
}


def _resolve(module_name, path):
    """(owner, attribute, object) for a dotted attribute, or None."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = getattr(owner, attr, None)
    return None if obj is None else (owner, attr, obj)


def _nbytes(value) -> int:
    """numpy bytes held by a cache value: an array, or an object whose
    attributes are arrays."""
    if hasattr(value, "nbytes"):
        return int(value.nbytes)
    return sum(int(v.nbytes) for v in vars(value).values()
               if hasattr(v, "nbytes"))


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.busy = Counter()
        self.self_time = Counter()
        self.counts = Counter()
        self.present = set()
        self._stack = []            # child-time accumulator per open span
        self._classify_primes = []  # primes factored per open classify span
        self._patched = []          # (namespace, attribute, original)

    # -- installing --------------------------------------------------------

    def install(self):
        lfunc = sys.modules["orthogal.lfunc"]
        for cache in CACHES:
            if isinstance(getattr(lfunc, cache, None), dict):
                self.present.add("cache:" + cache)
        for name, (module_name, path) in SPANS.items():
            found = _resolve(module_name, path)
            if found is None:
                continue
            owner, attr, orig = found
            wrapper = self._wrap(name, orig)
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
            else:
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.split(".")[0] != "orthogal":
                        continue
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._set(mod, key, wrapper)
            self.present.add(name)

    def _set(self, namespace, attr, value):
        self._patched.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def uninstall(self):
        for namespace, attr, orig in reversed(self._patched):
            setattr(namespace, attr, orig)
        self._patched.clear()

    def _wrap(self, name, fn):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        stack = self._stack

        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            frame = [0.0]
            stack.append(frame)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                self.calls[name] += 1
                self.busy[name] += dt
                self.self_time[name] += dt - frame[0]
                if after:
                    after(state, args, kwargs, result)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters at layer boundaries ----------------------------------------

    def _before_galclass_classify(self, args, kwargs):
        self._classify_primes.append(set())

    def _after_galclass_classify(self, state, args, kwargs, cert):
        primes = self._classify_primes.pop()
        if cert is None:
            return
        self.counts["classify.primes_factored"] += len(primes)
        last = max(cert.witnesses.values(), default=0)
        self.counts["classify.primes_needed"] += sum(p <= last for p in primes)

    def _after_galclass_bfd(self, state, args, kwargs, result):
        primes = args[1] if len(args) > 1 else kwargs["primes"]
        self.counts["bfd.rows"] += len(primes)
        if self._classify_primes:
            self._classify_primes[-1].update(int(p) for p in primes)
        if result is not None:
            self.counts["bfd.degenerate_rows"] += sum(r is None for r in result)

    def _after_signedperm_class_statistics(self, state, args, kwargs, stats):
        n = args[0] if args else kwargs["n"]
        plus = args[1] if len(args) > 1 else kwargs.get("plus", False)
        order_W = sys.modules["orthogal.signedperm"].order_W
        self.counts["class_statistics.elements"] += order_W(n, plus)

    def _after_orthfin_enumerate_O(self, state, args, kwargs, table):
        if table is not None:
            self.counts["enumerate_O.elements"] += len(table)

    def _after_lfunc_enumerate_twists(self, state, args, kwargs, twists):
        E = args[0]
        d = args[1] if len(args) > 1 else kwargs["d"]
        n = args[2] if len(args) > 2 else kwargs.get("n", 1)
        Q = E.field.q ** n
        self.counts["enumerate_twists.candidates"] += Q ** d * (Q - 1)
        if twists is not None:
            self.counts["enumerate_twists.kept"] += len(twists)

    def _after_lfunc_fiber_traces(self, state, args, kwargs, result):
        F, a_codes = args[0], args[1]
        self.counts["fiber_traces.point_evals"] += len(a_codes) * F.q

    def _before_lfunc_base_traces(self, args, kwargs):
        cache = getattr(sys.modules["orthogal.lfunc"], "_BASE_TRACES", None)
        return None if cache is None else (cache, len(cache))

    def _after_lfunc_base_traces(self, state, args, kwargs, result):
        if state is None or result is None:
            return
        cache, size = state
        key = "base_traces.misses" if len(cache) > size else "base_traces.hits"
        self.counts[key] += 1

    # -- report --------------------------------------------------------------

    def metrics(self):
        """{metric: value or None when a traced name is absent}."""
        c, b = self.counts, self.busy

        def ratio(num, den):
            return num / den if den else 0.0

        lfunc = sys.modules["orthogal.lfunc"]
        caches = [getattr(lfunc, name, None) for name in CACHES]
        values = {
            "cli.dispatch.self_s": self.self_time["cli.dispatch"],
            "cli.schema_validate.calls": self.calls["cli.schema_validate"],
            "cli.schema_validate.busy_s": b["cli.schema_validate"],
            "galclass.classify.calls": self.calls["galclass.classify"],
            "galclass.classify.busy_s": b["galclass.classify"],
            "galclass.classify.primes_factored": c["classify.primes_factored"],
            "galclass.classify.primes_needed": c["classify.primes_needed"],
            "galclass.classify.useful_ratio": ratio(
                c["classify.primes_needed"], c["classify.primes_factored"]),
            "galclass.bfd.calls": self.calls["galclass.bfd"],
            "galclass.bfd.rows": c["bfd.rows"],
            "galclass.bfd.degenerate_rows": c["bfd.degenerate_rows"],
            "galclass.bfd.rows_per_s": ratio(c["bfd.rows"], b["galclass.bfd"]),
            "galclass.frobenius.busy_s": b["galclass.frobenius"],
            "galclass.gcd_chain.busy_s": self.self_time["galclass.bfd"],
            "galclass.primes_up_to.busy_s": b["galclass.primes_up_to"],
            "poly.discriminant.busy_s": b["poly.discriminant"],
            "poly.factor_degrees.calls": self.calls["poly.factor_degrees"],
            "poly.factor_degrees.busy_s": b["poly.factor_degrees"],
            "poly.factor.busy_s": b["poly.factor"],
            "recpoly.classify_H.calls": self.calls["recpoly.classify_H"],
            "recpoly.classify_H.busy_s": b["recpoly.classify_H"],
            "recpoly.to_trace_form.busy_s": b["recpoly.to_trace_form"],
            "signedperm.class_statistics.calls":
                self.calls["signedperm.class_statistics"],
            "signedperm.class_statistics.busy_s":
                b["signedperm.class_statistics"],
            "signedperm.class_statistics.elements":
                c["class_statistics.elements"],
            "orthfin.enumerate_O.calls": self.calls["orthfin.enumerate_O"],
            "orthfin.enumerate_O.busy_s": b["orthfin.enumerate_O"],
            "orthfin.enumerate_O.elements": c["enumerate_O.elements"],
            "orthfin.enumerate_O.elements_per_s": ratio(
                c["enumerate_O.elements"], b["orthfin.enumerate_O"]),
            "orthfin.dets.busy_s": b["orthfin.dets"],
            "orthfin.spins.busy_s": b["orthfin.spins"],
            "orthfin.charpolys.busy_s": b["orthfin.charpolys"],
            "orthfin.c_i_density.calls": self.calls["orthfin.c_i_density"],
            "orthfin.c_i_density.busy_s": b["orthfin.c_i_density"],
            "orthfin.class_proportion.calls":
                self.calls["orthfin.class_proportion"],
            "sieve.density_experiment.busy_s": b["sieve.density_experiment"],
            "lfunc.l_function.calls": self.calls["lfunc.l_function"],
            "lfunc.l_function.busy_s": b["lfunc.l_function"],
            "lfunc.enumerate_twists.busy_s": b["lfunc.enumerate_twists"],
            "lfunc.enumerate_twists.candidates":
                c["enumerate_twists.candidates"],
            "lfunc.enumerate_twists.kept": c["enumerate_twists.kept"],
            "lfunc.enumerate_twists.sampled_ratio": ratio(
                self.calls["lfunc.l_function"], c["enumerate_twists.kept"]),
            "lfunc.fiber_traces.calls": self.calls["lfunc.fiber_traces"],
            "lfunc.fiber_traces.busy_s": b["lfunc.fiber_traces"],
            "lfunc.fiber_traces.point_evals": c["fiber_traces.point_evals"],
            "lfunc.base_traces.hits": c["base_traces.hits"],
            "lfunc.base_traces.misses": c["base_traces.misses"],
            "lfunc.base_traces.hit_ratio": ratio(
                c["base_traces.hits"],
                c["base_traces.hits"] + c["base_traces.misses"]),
            "lfunc.cache.entries": sum(len(x) for x in caches if x is not None),
            "lfunc.cache.bytes": sum(_nbytes(v) for x in caches if x is not None
                                     for v in x.values()),
            "ffield.get_field.calls": self.calls["ffield.get_field"],
            "ffield.build_tables.busy_s": b["ffield.build_tables"],
            "ffield.build_logs.busy_s": b["ffield.build_logs"],
        }
        return {name: (values[name] if all(n in self.present for n in needs)
                       else None)
                for name, (_unit, _better, needs) in METRICS.items()}
