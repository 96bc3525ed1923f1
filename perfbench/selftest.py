"""Self-test of the benchmark harness, on the tiny version of each
workload (S4; omega of PSL(2,7); a small series).

    python3 perfbench/selftest.py

For every workload it checks that
1. the tiny jobs and their refusals pass against ``expected.json``;
2. with one expected value corrupted, ``failed_share`` rises above 0;
3. a refusal whose request fits its budget returns a result, and counts
   as failed.
Exits 1 if the harness gets any of these wrong.
"""

from __future__ import annotations

import copy
import sys

import run as R

sys.path.insert(0, str(R.SRC))
import workloads as W  # noqa: E402


def corrupt(value):
    """A copy of an expected value with its first scalar changed."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "0"
    if isinstance(value, list):
        return [corrupt(value[0])] + value[1:]
    key = next(iter(value))
    return {**value, key: corrupt(value[key])}


def failed_share(jobs, refusals, expected: dict) -> float:
    tally = R.Tally()
    R.run_pass(jobs, expected, tally)
    for refusal in refusals:
        R.run_refusal(refusal, W.REFUSAL_ERRORS, tally)
    return len(tally.failures) / tally.attempted


def main() -> int:
    R.install_job_cap()
    expected = W.load_expected()
    fits_budget = W.refuse_pg("S4", W.Relabeller(None), W.Budget())
    ok = True
    for name in W.WORKLOAD_NAMES:
        wl = W.build(name, 1, expected)
        jobs, refusals = wl.warmup, wl.warmup_refusals
        corrupted = copy.deepcopy(expected)
        target = jobs[0].name
        corrupted["jobs"][target] = corrupt(corrupted["jobs"][target])
        results = {
            "clean run has no failure": failed_share(jobs, refusals, expected) == 0,
            f"corrupted {target} counts as failed": failed_share(jobs, refusals, corrupted) > 0,
            "refusal that returns counts as failed": failed_share(jobs, [fits_budget], expected) > 0,
        }
        for check, passed in results.items():
            print(f"{name:<14} {'ok  ' if passed else 'FAIL'} {check}")
        ok = ok and all(results.values())
    print("(the FAILED lines on stderr are the deliberate failures)")
    print("harness self-test passed" if ok else "HARNESS SELF-TEST FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
