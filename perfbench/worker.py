"""One benchmark process: a set-up probe or one closed-loop workload run.

    python3 perfbench/worker.py probe WORKLOAD
    python3 perfbench/worker.py run WORKLOAD SEED SECONDS TRACE

``probe`` times, in this fresh process, ``import orthogal`` (with its
CLI module) plus the workload's fixed warm-up job, and prints
``{"setup_s": ..., "reference_s": [...]}``.

``run`` draws the workload's inputs from SEED, runs the warm-up, then
issues jobs one after another (one client, no threads) until SECONDS
have passed and the current round of inputs is complete.  After the
timed loop it checks every report, runs the differential spot-check,
and prints one JSON line with the raw per-job results.  With TRACE=1 the
package is wrapped by the tracer before the warm-up and the per-layer
numbers are added.

Both also time ``reference_work()``, fixed work that never touches
orthogal, so that ``run.py`` can take the host's changing speed out of
the times (see NOTES.md, *Machine scale*): a probe seven times after its
timed part, a run once after the warm-up and then after a job whenever
REFERENCE_EVERY_S have passed since the last sample.

The package is imported from ``src/`` of the checkout that holds this
file; a copy installed elsewhere is refused.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_EVERY_S = 0.25
DIGEST_JOBS = {"certify": 50, "twist-survey": 12,
               "group-census": 24}
SPOT_JOBS = 8


def _import_orthogal():
    sys.path.insert(0, str(ROOT / "src"))
    import orthogal
    import orthogal.cli  # noqa: F401  (the CLI module users load)
    if not Path(orthogal.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"orthogal imported from {orthogal.__file__}, "
                         f"not from this checkout")


_REFERENCE = []


def _gcd_mod(a, b, p):
    """Euclid's algorithm on ascending coefficient lists over F_p."""
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c = a[-1] * inv % p
            off = len(a) - len(b)
            for j in range(len(b) - 1):
                a[off + j] = (a[off + j] - c * b[j]) % p
            a.pop()
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return a


def reference_work() -> float:
    """Time one fixed piece of work that never touches orthogal, in the
    package's mix: polynomial gcds over F_p on Python lists (96 pairs of
    degree 12 and 11, from a fixed linear congruential sequence), then
    numpy arithmetic on a 256 x 8 and a 2^16 int64 array.  Returns the
    duration in seconds (about 10 ms on the reference machine)."""
    if not _REFERENCE:
        import numpy as np
        x = 12345
        for p in (10007, 10009, 10037, 10039, 10061, 10067, 10069,
                  10079) * 12:
            pair = []
            for deg in (12, 11):
                cs = []
                for _ in range(deg + 1):
                    x = (x * 1103515245 + 12345) % 2 ** 31
                    cs.append(x % p)
                cs[-1] = cs[-1] or 1
                pair.append(cs)
            _REFERENCE.append((p, pair))
        _REFERENCE.append((np.arange(2048, dtype=np.int64).reshape(256, 8),
                           np.arange(1 << 16, dtype=np.int64)))
    small, large = _REFERENCE[-1]
    t0 = perf_counter()
    for p, (a, b) in _REFERENCE[:-1]:
        _gcd_mod(list(a), list(b), p)
    x = small
    for _ in range(60):
        x = (x * 7 + 3) % 65521
        x.sum(axis=1)
    y = large
    for _ in range(6):
        y = (y * 7 + 3) % 65521
    return perf_counter() - t0


def probe(name):
    t0 = perf_counter()
    _import_orthogal()
    from workloads import WORKLOADS
    WORKLOADS[name]().warm_up()
    setup = perf_counter() - t0
    return {"setup_s": setup,
            "reference_s": [reference_work() for _ in range(7)]}


def _failure_kind(exc) -> str:
    from workloads import JobFailed
    if isinstance(exc, JobFailed):
        return exc.kind
    return f"{type(exc).__name__}: {exc}"[:90]


def run(name, seed, seconds, trace):
    _import_orthogal()
    from workloads import WORKLOADS, differential_mismatch
    from tracing import Tracer

    wl = WORKLOADS[name]()
    t0 = perf_counter()
    jobs = wl.make_inputs(random.Random(seed))
    draw_s = perf_counter() - t0
    if hasattr(wl, "install_capture"):
        wl.install_capture()
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    wl.warm_up()
    # machine-speed samples (offset from the loop start, duration)
    ref_t, reference = [0.0], [reference_work()]
    job_t = []

    # The loop stops at the first round boundary after the deadline, so a
    # run always holds the opening jobs and whole rounds (at least one):
    # the same mix of input kinds whatever the seed.
    results = []                # (input index, seconds, report, failure)
    start = perf_counter()
    deadline = start + seconds
    next_reference = start + REFERENCE_EVERY_S
    i = 0
    while (i <= wl.LEAD or (i - wl.LEAD) % len(wl.ROUND)
           or perf_counter() < deadline):
        # past the end of the drawn inputs, start again at the first round
        k = i if i < len(jobs) else (
            wl.LEAD + (i - wl.LEAD) % (len(jobs) - wl.LEAD))
        report = failure = None
        t0 = perf_counter()
        job_t.append(t0 - start)
        try:
            report = wl.run(jobs[k])
        except Exception as exc:  # a failed job is counted, not fatal
            failure = _failure_kind(exc)
        results.append([k, perf_counter() - t0, report, failure])
        i += 1
        if perf_counter() >= next_reference:
            ref_t.append(perf_counter() - start)
            reference.append(reference_work())
            next_reference = perf_counter() + REFERENCE_EVERY_S
    # the reference samples taken inside the loop are not job time
    wall = perf_counter() - start - sum(reference[1:])
    layers = None
    if tracer is not None:
        layers = tracer.metrics()
        tracer.uninstall()

    # untimed: output checks, then the differential spot-check
    for row in results:
        if row[3] is None:
            reason = wl.check(jobs[row[0]], row[2])
            if reason is not None:
                row[3] = "check: " + reason
    if hasattr(wl, "spot_rows"):
        spot = random.Random(seed + 1)
        for row in spot.sample(results, min(SPOT_JOBS, len(results))):
            core, primes = wl.spot_rows(jobs[row[0]], spot)
            ell = differential_mismatch(core, primes)
            if ell is not None and not (row[3] or "").startswith("check"):
                row[3] = f"check: batch and scalar factor degrees differ mod {ell}"

    digest_n = min(DIGEST_JOBS[name], len(results))
    digest = hashlib.sha256()
    for _, _, report, failure in results[:digest_n]:
        digest.update(json.dumps([report, failure], sort_keys=True,
                                 default=str).encode())
    return {
        "wall_s": wall,
        "job_t": job_t,
        "reference_t": ref_t,
        "reference_s": reference,
        "latencies_s": [r[1] for r in results],
        "failures": [r[3] for r in results],
        "inputs": len(jobs),
        "draw_s": draw_s,
        "digest": digest.hexdigest()[:16],
        "digest_jobs": digest_n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": layers,
    }


def main(argv):
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if argv[0] == "probe":
        out = probe(argv[1])
    else:
        out = run(argv[1], int(argv[2]), float(argv[3]), argv[4] == "1")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
