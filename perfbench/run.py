"""orthogal benchmark: one command per workload run.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Workloads: certify, twist-survey, group-census (see NOTES.md).
Every workload runs in processes of its own, started from here:

* ``--trace 0``: three set-up probes (fresh processes that import
  orthogal and run the warm-up job), then one closed-loop run of
  ``--seconds``.  Prints the end-to-end metrics, the failure breakdown
  and the output digest.
* ``--trace 1``: an untraced and a traced closed-loop run of half of
  ``--seconds`` each on the same inputs.  Prints the per-layer metrics
  of the traced run and the tracing overhead (traced minus untraced).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits non-zero,
without that line, when a process fails or the source tree is missing.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import statistics
import subprocess
import sys
from collections import Counter
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import METRICS  # noqa: E402  (no orthogal import here)

WORKLOADS = ("certify", "twist-survey", "group-census")
SETUP_PROBES = 3
# Median duration of worker.reference_work() on the reference machine
# (the 2-core VM of NOTES.md).  The host's speed drifts by 10-40 % within
# minutes, which would swamp the program's own changes, so every time is
# divided by the machine scale measured next to it: a sample of the
# reference work's duration over REFERENCE_S.  Each job gets the median
# of the LOCAL_SAMPLES samples nearest to its start.  Times then read as
# on the reference machine at its reference speed; the raw values are
# printed next to them.
REFERENCE_S = 0.0100
LOCAL_SAMPLES = 5
TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)
# Highest tail percentile reported per workload.  Without a cap the
# percentile would change with the number of jobs a run completes, and
# so would the metric.  The caps leave a 30 s run well over ten passing
# jobs beyond them even on a slow machine.
TAIL_CAP = {"certify": 90, "twist-survey": 75, "group-census": 75}
DEADLINE = time.monotonic() + 170    # the whole command ends within 180 s


def _worker(*args):
    """Run worker.py in a fresh process; its last stdout line is JSON."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          capture_output=True, text=True, cwd=HERE.parent,
                          timeout=max(1.0, DEADLINE - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"worker {' '.join(args)} exited "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies_ms, cap):
    """(percentile, value): the highest ladder percentile up to cap with
    at least ten passing jobs beyond it (nearest rank); the maximum,
    labelled 100, when fewer than twenty jobs passed."""
    xs = sorted(latencies_ms)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * len(xs))
        if p > cap:
            continue
        if len(xs) - rank >= 10:
            return p, xs[rank - 1]
    return 100, xs[-1]


def machine_scale(reference_s):
    """How much slower than the reference machine a process ran."""
    return statistics.median(reference_s) / REFERENCE_S


def local_scales(job_t, ref_t, ref_s):
    """Machine scale for each job: the median of the LOCAL_SAMPLES
    reference samples nearest to the job's start (all times are offsets
    from the start of the loop, both lists ascending)."""
    k = min(LOCAL_SAMPLES, len(ref_t))
    scales = []
    for t in job_t:
        lo = bisect.bisect_left(ref_t, t) - k // 2
        lo = max(0, min(lo, len(ref_t) - k))
        scales.append(machine_scale(ref_s[lo:lo + k]))
    return scales


def summarize(raw, cap):
    """End-to-end numbers of one closed-loop run at the reference speed,
    and the raw ones."""
    failures = raw["failures"]
    lat = raw["latencies_s"]
    scales = local_scales(raw["job_t"], raw["reference_t"],
                          raw["reference_s"])
    scaled = [1000 * t / c for t, c in zip(lat, scales)]
    passed = [x for x, f in zip(scaled, failures) if f is None]
    if not passed:
        raise SystemExit("no job passed its output check")
    raw_passed = [1000 * t for t, f in zip(lat, failures) if f is None]
    p, tail_ms = tail(passed, cap)
    raw_values = {"jobs_per_s": len(passed) / raw["wall_s"],
                  "job_p50_ms": statistics.median(raw_passed),
                  "job_tail_ms": tail(raw_passed, cap)[1]}
    return {
        # the loop's wall time is the sum of its jobs' latencies
        "jobs_per_s": len(passed) / (sum(scaled) / 1000),
        "job_p50_ms": statistics.median(passed),
        "job_tail_ms": tail_ms,
        "raw": raw_values,
        "scale": statistics.median(scales),
        "tail_percentile": p,
        "passed": len(passed),
        "attempted": len(failures),
        "failed": len(failures) - len(passed),
    }


def _print_run_summary(label, raw, s):
    print(f"[{label}] {s['attempted']} jobs in {raw['wall_s']:.2f} s, "
          f"{s['passed']} passed; {raw['inputs']} inputs drawn in "
          f"{raw['draw_s']:.2f} s")
    print(f"machine scale = {s['scale']:.4f} (median over jobs; "
          f"{len(raw['reference_s'])} reference samples / {REFERENCE_S} s); "
          "raw: " + ", ".join(f"{k} {v:.6g}" for k, v in s["raw"].items()))
    print(f"failed_ratio = {s['failed'] / s['attempted']:.4f} ratio "
          f"({s['failed']}/{s['attempted']})")
    for kind, count in Counter(f for f in raw["failures"] if f).most_common():
        print(f"  failed x{count}: {kind}")
    print(f"digest = {raw['digest']} (reports of the first "
          f"{raw['digest_jobs']} jobs)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (HERE.parent / "src" / "orthogal").is_dir():
        raise SystemExit("no src/orthogal next to the benchmark")
    common = (args.workload, str(args.seed))

    if args.trace == 0:
        probes = [_worker("probe", args.workload)
                  for _ in range(SETUP_PROBES)]
        setups = [pr["setup_s"] / machine_scale(pr["reference_s"])
                  for pr in probes]
        raw = _worker("run", *common, str(args.seconds), "0")
        failures = raw["failures"]
        s = summarize(raw, TAIL_CAP[args.workload])
        _print_run_summary(args.workload, raw, s)
        metrics = {
            "jobs_per_s": (s["jobs_per_s"], "1/s"),
            "job_p50_ms": (s["job_p50_ms"], "ms"),
            "job_tail_ms": (s["job_tail_ms"], "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        }
        notes = {"job_tail_ms": f"(p{s['tail_percentile']:g} of "
                                f"{s['passed']} passing jobs)",
                 "setup_s": f"(median of {SETUP_PROBES} fresh processes, "
                            "scaled: " + ", ".join(f"{x:.3f}" for x in setups)
                            + "; raw: " + ", ".join(
                                f"{pr['setup_s']:.3f}" for pr in probes) + ")"}
    else:
        half = str(args.seconds / 2)
        plain = _worker("run", *common, half, "0")
        raw = _worker("run", *common, half, "1")
        failures = plain["failures"] + raw["failures"]
        cap = TAIL_CAP[args.workload]
        sp, s = summarize(plain, cap), summarize(raw, cap)
        _print_run_summary(args.workload + ", untraced half", plain, sp)
        _print_run_summary(args.workload + ", traced half", raw, s)
        for key, unit in (("jobs_per_s", "1/s"), ("job_p50_ms", "ms"),
                          ("job_tail_ms", "ms")):
            print(f"tracing overhead {key}: traced {s[key]:.4f} - untraced "
                  f"{sp[key]:.4f} = {s[key] - sp[key]:+.4f} {unit}")
        metrics = {name: (value, METRICS[name][0])
                   for name, value in raw["layers"].items()}
        metrics["trace.overhead.jobs_per_s"] = (
            s["jobs_per_s"] - sp["jobs_per_s"], "1/s")
        metrics["trace.overhead.job_p50_ms"] = (
            s["job_p50_ms"] - sp["job_p50_ms"], "ms")
        notes = {name: "ABSENT (traced name not found)"
                 for name, (value, _) in metrics.items() if value is None}

    for name, (value, unit) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{name} = {shown} {unit} {notes.get(name, '')}".rstrip())
    correct = not any((f or "").startswith("check") for f in failures)
    print(json.dumps({
        "correct": correct,
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
