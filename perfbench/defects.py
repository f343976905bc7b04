"""Untimed failure census of the twist-survey strata left out of the
benchmark.

    python3 perfbench/defects.py --seed 1 --jobs 12

The timed ``twist-survey`` workload keeps to curve strata on which the
program answers every job, because a benchmark run must not count
failing operations.  This script runs the strata where known defects
make jobs fail, each job once and untimed, with the same inputs, jobs
and output checks as the workload, and prints for every stratum how
many jobs passed and how many failed, by exception type.  It exits 0
whatever it finds; it measures the program's defects, not its speed.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

# (family, q, n, exact degrees of (a, b) or (A, B), d), as in
# workloads.TwistSurvey.ROUND
STRATA = (("legendre", 7, 1, (1, 1), 2), ("legendre", 7, 1, (1, 2), 2),
          ("legendre", 7, 1, (0, 1), 2), ("legendre", 5, 1, (1, 2), 2),
          ("legendre", 5, 2, (0, 1), 2),
          ("general", 5, 1, (1, 1), 2), ("general", 5, 1, (1, 2), 2),
          ("general", 5, 1, (1, 2), 3), ("general", 7, 1, (1, 1), 2))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--jobs", type=int, default=12,
                    help="jobs per stratum")
    args = ap.parse_args()
    from workloads import TwistSurvey
    from worker import _failure_kind

    wl = TwistSurvey()
    wl.install_capture()
    wl.warm_up()
    rng = random.Random(args.seed)
    total = Counter()
    for spec in STRATA:
        outcomes = Counter()
        for _ in range(args.jobs):
            job = wl._draw(rng, *spec)
            try:
                reason = wl.check(job, wl.run(job))
                outcome = "passed" if reason is None else "check: " + reason
            except Exception as exc:
                outcome = _failure_kind(exc)
            outcomes[outcome] += 1
        total.update(outcomes)
        print(f"{spec}: {outcomes['passed']}/{args.jobs} passed")
        for kind, count in outcomes.most_common():
            if kind != "passed":
                print(f"  failed x{count}: {kind}")
    jobs = args.jobs * len(STRATA)
    print(f"failed_ratio = {(jobs - total['passed']) / jobs:.4f} "
          f"({jobs - total['passed']}/{jobs})")


if __name__ == "__main__":
    main()
