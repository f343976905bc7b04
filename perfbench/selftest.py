"""Quick self-test of the benchmark (about two minutes on 2 cores).

    python3 perfbench/selftest.py

1. Runs every workload for one second, untraced and traced, and checks
   that every end-to-end metric of BENCHMARK.json is printed by name
   with its unit, and that the traced run emits every per-layer metric
   (a number, or marked absent).
2. Runs one job of each workload in this process and checks that its
   output check accepts the report and rejects a corrupted copy.
3. Hides one traced private name and checks that its metrics are
   reported as absent instead of failing.
"""

from __future__ import annotations

import copy
import json
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180,
                          cwd=ROOT)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_printed_metrics():
    for w in SPEC["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            text, result = run_benchmark(w["name"], trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["attempted"] >= 1
            for m in SPEC[key]:
                got = result["metrics"][m["name"]]
                assert got["unit"] == m["unit"], (m, got)
                shown = [ln for ln in text if ln.startswith(m["name"] + " = ")]
                assert len(shown) == 1, (w["name"], m["name"])
                assert (m["unit"] in shown[0].split()
                        or "absent" in shown[0]), shown[0]
                if trace == 0:
                    assert got["value"] > 0, (w["name"], m["name"], got)
            print(f"ok  {w['name']:13s} trace={trace}: "
                  f"{len(SPEC[key])} metrics printed with units")


def corrupt(name, report):
    """A copy of a passing report with one answer changed."""
    bad = copy.deepcopy(report)
    if name == "certify":
        bad["payload"]["stripped"][0] = str(int(bad["payload"]["stripped"][0]) + 1)
    elif name == "twist-survey":
        bad["report"]["payload"]["confusion"][0]["count"] += 1
    elif "order" in bad["payload"]:
        bad["payload"]["order"] += 1
    else:
        bad["payload"]["miss_probability"] = "2"
    return bad


def check_output_checks():
    from workloads import WORKLOADS, JobFailed
    for name, cls in WORKLOADS.items():
        wl = cls()
        if hasattr(wl, "install_capture"):
            wl.install_capture()
        for job in wl.make_inputs(random.Random(3))[1:]:
            try:
                report = wl.run(job)
                break
            except JobFailed:       # known defects; take the next input
                continue
        assert wl.check(job, report) is None, (name, wl.check(job, report))
        reason = wl.check(job, corrupt(name, report))
        assert reason is not None, name
        print(f"ok  {name:13s} check rejects a corrupted report ({reason})")


def check_absent_names():
    from orthogal import galclass
    from tracing import Tracer
    saved = galclass._batch_frobenius_chains
    del galclass._batch_frobenius_chains
    try:
        tracer = Tracer()
        tracer.install()
        metrics = tracer.metrics()
        tracer.uninstall()
    finally:
        galclass._batch_frobenius_chains = saved
    assert metrics["galclass.frobenius.busy_s"] is None
    assert metrics["galclass.gcd_chain.busy_s"] is None
    assert metrics["galclass.bfd.calls"] is not None
    print("ok  a missing traced name is reported as absent")


if __name__ == "__main__":
    check_output_checks()
    check_absent_names()
    check_printed_metrics()
    print("selftest passed")
