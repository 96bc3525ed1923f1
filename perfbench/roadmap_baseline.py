"""Times the items of the baseline table in ROADMAP.md that no workload
runs, because one of them takes longer than a whole pass should: the
PSL(2,17) lattice (with its ``moebius`` export), ``omega`` at q = 23
and the refusal of S9 under the default budget.

    python3 perfbench/roadmap_baseline.py [--repeat 5] [--seed 1]

Each item runs ``--repeat`` times on one seeded relabelling and is
checked against ``expected.json``; the median and the range are printed
per item.  Exits 1 if any output is wrong.  The other items of that
table are jobs of the workloads: the PSL(2,13) and S6 lattices in
``groups``, ``expand_rational`` to 10^5 in ``series``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import run as R

sys.path.insert(0, str(R.SRC))
import workloads as W  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    R.install_job_cap()
    expected = W.load_expected()
    jobs, refusals = W.roadmap(args.seed)
    tally = R.Tally()
    times = {item.name: [] for item in jobs + refusals}
    for _ in range(args.repeat):
        for job in jobs:
            times[job.name].append(R.run_job(job, expected, tally))
        for refusal in refusals:
            times[refusal.name].append(R.run_refusal(refusal, W.REFUSAL_ERRORS, tally))
    print(f"# env {json.dumps(R.environment())}")
    for name, ts in times.items():
        print(f"{name:<26} median {statistics.median(ts):.3f} s  "
              f"range {min(ts):.3f} - {max(ts):.3f} s  ({len(ts)} runs)")
    print("all outputs correct" if not tally.failures else "SOME OUTPUTS WRONG")
    return 0 if not tally.failures else 1


if __name__ == "__main__":
    sys.exit(main())
