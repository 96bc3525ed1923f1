"""Benchmark of the pzeta library: time to solution per workload, and
time per layer from a separate traced pass.

One workload, in this process (the form ``BENCHMARK.json`` names):

    python3 perfbench/run.py --workload groups --seed 1 --seconds 50 --trace 0

sets up (import, seeded inputs, warm-up on the tiny version of the
workload) five times, then runs passes over the jobs, each followed by
the over-budget requests: three passes, and as many more as fit in
``--seconds``.  Every output is checked against ``expected.json``
outside the timed region.  With ``--trace 1`` it needs one untraced
pass only (for ``trace.overhead``), leaves room in ``--seconds`` for
one traced pass and the traced over-budget requests, and reports the
per-layer metrics.  The last line of output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it, starting ``#detail``, holds everything else (the
environment, ``failed_share``, every per-layer value).

Every workload, each in its own process (so ``peak_rss_mb`` belongs to
that workload alone):

    python3 perfbench/run.py [--repeat N] [--trace 0|1] [--save FILE]

prints each metric by name and unit for each workload, with the median
and quartiles over N seeds, and exits 1 if any output was wrong.

All load comes from this one single-threaded process.  A job that runs
past ``JOB_CAP_S`` is stopped and counts as failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUPS = 5
MIN_PASSES = 3
JOB_CAP_S = 30
DEFAULT_SECONDS = 50

E2E_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "job_s.p50": "s",
    "job_s.max": "s",
    "refuse_s": "s",
    "peak_rss_mb": "MB",
}
# printed and saved, but not in BENCHMARK.json: it is 0 whenever the
# program is right, and the result line carries it as attempted and failed
EXTRA_UNITS = {"failed_share": "ratio"}

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import pzeta; print(time.perf_counter() - t)"
)


class JobTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise JobTimeout(f"ran past the {JOB_CAP_S} s cap")


def install_job_cap() -> None:
    """Make the timer that ``timed`` arms stop a job that runs too long."""
    signal.signal(signal.SIGALRM, _alarm)


class Tally:
    """Attempted and failed jobs, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{name}: {'; '.join(problems)}")
            print(f"FAILED {name}: {'; '.join(problems)}", file=sys.stderr)


def timed(fn):
    """(seconds, result, exception) of one call under the job cap."""
    signal.setitimer(signal.ITIMER_REAL, JOB_CAP_S)
    start = time.perf_counter()
    try:
        out = fn()
        return time.perf_counter() - start, out, None
    except Exception as exc:  # any error fails the job; the run goes on
        return time.perf_counter() - start, None, exc
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_job(job, expected: dict, tally: Tally, call=None) -> float:
    """Time one job, then check its output (outside the timed region)."""
    fn = job.run if call is None else (lambda: call(job.name, job.run))
    gc.collect()  # garbage of the previous job is not this job's cost
    elapsed, out, exc = timed(fn)
    if exc is not None:
        tally.record(job.name, [f"raised {type(exc).__name__}: {exc}"])
    elif job.name not in expected["jobs"]:
        tally.record(job.name, ["no expected value"])
    else:
        summary = json.loads(json.dumps(job.summarize(out)))
        problems = [] if summary == expected["jobs"][job.name] else ["output differs from expected"]
        tally.record(job.name, problems + job.verify(out))
    return elapsed


def run_refusal(refusal, errors, tally: Tally, call=None) -> float:
    fn = refusal.run if call is None else (lambda: call(refusal.name, refusal.run))
    elapsed, _, exc = timed(fn)
    if exc is None:
        tally.record(refusal.name, ["returned a result instead of refusing"])
    elif not isinstance(exc, errors):
        tally.record(refusal.name, [f"raised {type(exc).__name__} instead of a budget error"])
    else:
        tally.record(refusal.name, [])
    return elapsed


def run_pass(jobs, expected: dict, tally: Tally, call=None) -> list[float]:
    return [run_job(job, expected, tally, call) for job in jobs]


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def import_seconds() -> list[float]:
    """Time to import the library: once here, then in fresh interpreters."""
    start = time.perf_counter()
    import pzeta  # noqa: F401

    samples = [time.perf_counter() - start]
    for _ in range(SETUPS - 1):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(probe.stdout.strip().splitlines()[-1]))
    return samples


def layer_metrics(tracer, pass_jobs: set[str], untraced_solve: float) -> dict:
    """Per-layer values of the traced pass and refusal, with units."""
    from tracing import LAYERS

    lt = tracer.layer_times()
    sec, calls, counts = lt["seconds"], lt["calls"], tracer.counts
    wall = tracer.wall()
    traced_solve = tracer.wall(pass_jobs)
    closure_calls = calls.get("permgroup.closure", 0)
    values = {
        "trace.solve_s": (traced_solve, "s"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead": (traced_solve / untraced_solve, "ratio"),
        "permgroup.build.elements": (counts["build.elements"], "count"),
        "permgroup.table_mb": (counts["build.table_bytes"] / 2**20, "MB"),
        "permgroup.closure.calls": (closure_calls, "count"),
        "permgroup.closure.bail_ratio": (counts["closure.bailed"] / max(closure_calls, 1), "ratio"),
        "permgroup.conj.calls": (calls.get("permgroup.conj", 0), "count"),
        "permgroup.quotient_action.calls": (calls.get("permgroup.quotient_action", 0), "count"),
        "lattice.built": (counts["lattice.built"], "count"),
        "lattice.nodes": (counts["lattice.nodes"], "count"),
        "lattice.classes": (counts["lattice.classes"], "count"),
        "lattice.closure_yield": (
            counts["classes.in_build"] / max(counts["closure.in_build"], 1), "ratio"),
        "lattice.overgroups.nodes": (counts["overgroups.nodes"], "count"),
        "dirichlet.mul.calls": (calls.get("dirichlet.mul", 0), "count"),
        "dirichlet.divide.calls": (calls.get("dirichlet.divide", 0), "count"),
        "dirichlet.expand.terms": (counts["expand.terms"], "count"),
        "numtheory.nth_root.calls": (calls.get("numtheory.nth_root", 0), "count"),
    }
    # self seconds per layer, and as a share of the traced wall time (a
    # share is defined on every workload)
    for span in LAYERS:
        values[f"{span}_s"] = (sec.get(span, 0.0), "s")
        values[f"{span}.share"] = (sec.get(span, 0.0) / wall, "ratio")
    values["permgroup.closure_conj.share"] = (closure_conj_share(tracer, pass_jobs), "ratio")
    values["trace.accounted_s"] = (sum(sec.values()), "s")
    return values


def closure_conj_share(tracer, jobs: set[str]) -> float:
    """(closure + conj) seconds / traced wall time of the given pass jobs,
    to set against the cProfile figure in the roadmap."""
    sec = tracer.layer_times(jobs)["seconds"]
    both = sec.get("permgroup.closure", 0.0) + sec.get("permgroup.conj", 0.0)
    return both / tracer.wall(jobs)


def part_layers(tracer, wl) -> dict:
    """Traced pass time, closure + conj share and self seconds per layer
    for each part of the workload."""
    out = {}
    for part in dict.fromkeys(job.part for job in wl.jobs):
        jobs = {job.name for job in wl.jobs if job.part == part}
        out[part] = {
            "trace.solve_s": tracer.wall(jobs),
            "permgroup.closure_conj.share": closure_conj_share(tracer, jobs),
            "self_s": tracer.layer_times(jobs)["seconds"],
        }
    return out


def per_layer_names() -> list[str]:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in bench["per_layer"]]


def run_one(args) -> int:
    if not (SRC / "pzeta" / "__init__.py").is_file():
        print(f"error: library source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    load = os.getloadavg()[0]
    imports = import_seconds()  # first: nothing may import numpy before it
    env = {**environment(), "loadavg_1m_at_start": load}
    import workloads as W
    from tracing import Tracer

    if args.workload not in W.WORKLOAD_NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(W.WORKLOAD_NAMES)}", file=sys.stderr)
        return 2
    expected = W.load_expected()
    tally = Tally()

    setups = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        wl = W.build(args.workload, args.seed, expected)
        run_pass(wl.warmup, expected, tally)
        for refusal in wl.warmup_refusals:
            run_refusal(refusal, W.REFUSAL_ERRORS, tally)
        setups.append(time.perf_counter() - start)

    # MIN_PASSES passes (one when tracing), then as many more as fit in
    # --seconds, leaving room for the traced pass; each pass is followed
    # by the over-budget requests
    passes, refused = [], []
    least, planned = (1, 1) if args.trace else (MIN_PASSES, 0)
    start = time.perf_counter()
    while len(passes) < least or (
        (time.perf_counter() - start) * (len(passes) + 1 + planned) / len(passes) <= args.seconds
    ):
        passes.append(run_pass(wl.jobs, expected, tally))
        refused.append([run_refusal(r, W.REFUSAL_ERRORS, tally) for r in wl.refusals])
    # each job's mean over the passes: the host's speed flips between two
    # levels from second to second, and a job's median over a run flips
    # with it, while the mean moves with the share of time spent at each
    # (see README.md); a pass is then the sum of its jobs' means, and
    # likewise for the refusals
    job_s = [statistics.fmean(times) for times in zip(*passes)]
    refusals = {r.name: statistics.fmean(t) for r, t in zip(wl.refusals, zip(*refused))}
    part_solve = {}
    for job, t in zip(wl.jobs, job_s):
        part_solve[job.part] = part_solve.get(job.part, 0.0) + t

    solve = sum(job_s)
    metrics = {
        "setup_s": statistics.median(imports) + statistics.median(setups),
        "solve_s": solve,
        "job_s.p50": statistics.median(job_s),
        "job_s.max": max(job_s),
        "refuse_s": sum(refusals.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    layers = parts = None
    if args.trace:
        tracer = Tracer()
        with tracer.installed():
            run_pass(wl.jobs, expected, tally, tracer.run_job)
            for refusal in wl.refusals:
                run_refusal(refusal, W.REFUSAL_ERRORS, tally, tracer.run_job)
        layers = layer_metrics(tracer, {j.name for j in wl.jobs}, solve)
        parts = part_layers(tracer, wl)
    metrics["failed_share"] = len(tally.failures) / tally.attempted

    units = {**E2E_UNITS, **EXTRA_UNITS}
    print(f"# env {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} pass(es) of "
          f"{len(wl.jobs)} jobs, {tally.attempted} attempted, {len(tally.failures)} failed")
    for name, value in metrics.items():
        print(f"  {name:<14} {value:.6g} {units[name]}")
    for part, t in part_solve.items():
        print(f"  solve_s of part {part}: {t:.6g} s")
    for name, t in refusals.items():
        print(f"  {name}: refused in {t:.6g} s")
    if layers is not None:
        print(f"  traced: pass {layers['trace.solve_s'][0]:.4g} s + refusals "
              f"{layers['trace.wall_s'][0] - layers['trace.solve_s'][0]:.4g} s = "
              f"{layers['trace.wall_s'][0]:.4g} s; self times sum to "
              f"{layers['trace.accounted_s'][0]:.4g} s")
        for name, (value, unit) in layers.items():
            print(f"  {name:<34} {value:.6g} {unit}")
        for part, p in parts.items():
            top = sorted(p["self_s"].items(), key=lambda kv: -kv[1])[:4]
            print(f"  part {part}: traced pass {p['trace.solve_s']:.4g} s, closure+conj share "
                  f"{p['permgroup.closure_conj.share']:.3f}; most self time: "
                  + ", ".join(f"{n} {t:.3g} s" for n, t in top))

    if args.trace:
        wanted = per_layer_names()
        reported = {n: {"value": layers[n][0], "unit": layers[n][1]} for n in wanted}
    else:
        reported = {n: {"value": metrics[n], "unit": E2E_UNITS[n]} for n in E2E_UNITS}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "env": env,
        "passes": len(passes),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
        "job_s": {job.name: t for job, t in zip(wl.jobs, job_s)},
        "part_solve_s": part_solve,
        "refusals_s": refusals,
        "pass_s": passes,
        "refused_s": refused,
        "parts_traced": parts,
        "per_layer": None if layers is None else {
            n: {"value": v, "unit": u} for n, (v, u) in layers.items()},
        "failures": tally.failures,
    }
    print("#detail " + json.dumps(detail))
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": reported,
    }))
    return 0 if not tally.failures else 1


# ---------------------------------------------------------------------------
# every workload, each in its own process
# ---------------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_all(args) -> int:
    sys.path.insert(0, str(SRC))
    import workloads as W

    ok = True
    summary = {"trace": args.trace, "seconds": args.seconds, "workloads": {}}
    for name in W.WORKLOAD_NAMES:
        runs = []
        for seed in range(1, args.repeat + 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            detail = next((json.loads(ln[8:]) for ln in lines if ln.startswith("#detail ")), None)
            if proc.returncode != 0 or detail is None or detail["failures"]:
                ok = False
                print(f"{name} seed {seed}: FAILED (exit {proc.returncode})\n{proc.stderr}")
            if detail is not None:
                runs.append(detail)
                print(f"{name} seed {seed}: {detail['passes']} pass(es), "
                      f"failed {len(detail['failures'])}", flush=True)
        if not runs:
            continue
        print(f"\n{name}  ({len(runs)} run(s); median [q1, q3], spread = (q3 - q1) / median)")
        table = {}
        source = "per_layer" if args.trace else "metrics"
        for metric, first in runs[0][source].items():
            values = [r[source][metric]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            table[metric] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                             "spread": spread, "values": values}
            print(f"  {metric:<34} {med:.6g} {first['unit']}  [{q1:.6g}, {q3:.6g}]  "
                  f"spread {spread:.3f}")
        jobs = {job: statistics.median(r["job_s"][job] for r in runs) for job in runs[0]["job_s"]}
        print("  per-job median seconds: " + ", ".join(f"{j} {t:.4g}" for j, t in jobs.items()))
        summary["workloads"][name] = {"env": runs[0]["env"], "metrics": table, "job_s": jobs,
                                      "pass_s": [r["pass_s"] for r in runs]}
        if args.trace:
            parts = {part: statistics.median(r["parts_traced"][part]["permgroup.closure_conj.share"]
                                             for r in runs)
                     for part in runs[0]["parts_traced"]}
            print("  closure+conj share of the traced pass, median per part: "
                  + ", ".join(f"{part} {share:.3f}" for part, share in parts.items()))
            summary["workloads"][name]["parts_closure_conj_share"] = parts
        print()
    if args.save:
        Path(args.save).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print("all outputs correct" if ok else "SOME OUTPUTS WRONG OR RUNS FAILED")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="without --workload: seeds 1..N per workload")
    parser.add_argument("--save", help="without --workload: write the summary JSON here")
    args = parser.parse_args()
    install_job_cap()
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
