"""Compute ``expected.json`` and cross-check every value in it.

    python3 perfbench/make_expected.py

Runs every job of every workload (and of their tiny versions), and the
ROADMAP baseline items of ``roadmap_baseline.py``, once on unrelabelled
inputs, stores the isomorphism-invariant summary of each
output, and checks the values against sources independent of the path
that computed them:

* the CLI golden files in ``tests/golden`` (read only);
* the ``generation_counts`` oracle, which never looks at Moebius values:
  ``P_G(2)`` must equal the share of generating pairs;
* the closed form ``predicted_minimal_odd_index`` for every w(X);
* the product of the chief factors, which must give back ``P_G``;
* multiplying back for divisions and expansions, a truncated product
  computed here by plain convolution, evaluation at s = 2 and 3 for the
  product of zeta polynomials, and the witness, I*, beta and the SML
  prime recomputed here from their definitions.

Writes the file only if every check passes; exits 1 otherwise.  Takes
about two minutes, most of it in the oracle on the large lattices.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from functools import reduce
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as W  # noqa: E402
from pzeta import (  # noqa: E402
    DirichletPolynomial,
    builtin_group,
    generation_counts,
    make_psl2,
    odd_supplement_indices,
    predicted_minimal_odd_index,
    supplement_zeta,
    zeta_report,
)
from pzeta.numtheory import is_prime, padic_valuation, prime_factors  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
problems: list[str] = []


def expect(ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)
        print("MISMATCH", message, file=sys.stderr)


def golden_terms(data: dict) -> list[list]:
    return [[int(t["n"]), t["a"]] for t in data["terms"]]


def compute_inputs() -> dict:
    pxs = {}
    for q, v in W.SUPPLEMENT_GROUPS:
        spec = make_psl2(q, v)
        pxs[spec.name] = W.terms(supplement_zeta(spec))
    zetas = {n: W.terms(zeta_report(builtin_group(n)).zeta) for n in W.SERIES_ZETA_GROUPS}
    return {"pxs": pxs, "zeta": zetas}


def batches(expected: dict):
    """Jobs and refusals of each workload, then of the ROADMAP items.  A
    workload is built only once the one before it has run: the series
    workload reads the chief factors that small-groups computes."""
    for name in ("groups", "series"):
        wl = W.build(name, None, expected)
        yield wl.warmup + wl.jobs, wl.warmup_refusals + wl.refusals
    yield W.roadmap(None)


def compute_jobs(expected: dict) -> None:
    for jobs, refusals in batches(expected):
        for job in jobs:
            out = job.run()
            for problem in job.verify(out):
                expect(False, f"{job.name}: {problem}")
            expected["jobs"][job.name] = json.loads(json.dumps(job.summarize(out)))
            print(f"computed {job.name}", flush=True)
        for refusal in refusals:
            try:
                refusal.run()
                expect(False, f"{refusal.name} returned a result")
            except W.REFUSAL_ERRORS:
                pass


def check_goldens(expected: dict) -> None:
    jobs, inputs = expected["jobs"], expected["inputs"]
    for stem, name in (("pg_S3", "S3"), ("pg_S4", "S4"), ("pg_A5", "A5"), ("pg_PSL2_7", "PSL(2,7)")):
        gold = json.loads((GOLDEN / f"{stem}.json").read_text())
        if name == "PSL(2,7)":
            expect(inputs["zeta"][name] == golden_terms(gold["zeta"]), f"{stem}: zeta")
            continue
        got = jobs["pg:" + name]
        expect(
            (got["order"], got["zeta"], got["subgroups"], got["classes"])
            == (gold["order"], golden_terms(gold["zeta"]), gold["subgroups"],
                gold["conjugacy_classes"]),
            f"{stem}: pg output",
        )
    gold = json.loads((GOLDEN / "omega_PSL2_7.json").read_text())
    expect(jobs["omega:PSL(2,7)"] == gold, "omega_PSL2_7: report")
    gold = json.loads((GOLDEN / "pxs_PGL2_7.json").read_text())
    expect(inputs["pxs"]["PGL(2,7)"] == golden_terms(gold["zeta"]), "pxs_PGL2_7: zeta")


def check_oracle(expected: dict) -> None:
    for job_name, got in expected["jobs"].items():
        if not job_name.startswith(("pg:", "pg+moebius:")):
            continue
        group = builtin_group(job_name.split(":", 1)[1])
        lat = group.subgroup_lattice()
        oracle = Fraction(generation_counts(lat, 2)[lat.top_id], group.order**2)
        expect(W.poly_from(got["zeta"]).evaluate(2) == oracle, f"{job_name}: P_G(2) vs oracle")
        print(f"oracle {job_name}", flush=True)


def check_odd_indices(expected: dict) -> None:
    # the full and the tiny workload, and the ROADMAP items
    for q, variant in W.ODD_INDEX + ((7, "psl"),) + W.ROADMAP_ODD_INDEX:
        job_name = f"omega:{variant.upper()}(2,{q})"
        got = expected["jobs"][job_name]["w"]
        expect(got == predicted_minimal_odd_index(q, variant), f"{job_name}: w vs closed form")


def check_factorizations(expected: dict) -> None:
    jobs = expected["jobs"]
    for job_name, got in jobs.items():
        if not job_name.startswith("factorize:"):
            continue
        total = reduce(lambda a, b: a * b, (W.poly_from(f[-1]) for f in got["factors"]))
        expect(total == W.poly_from(got["zeta"]) and got["product_ok"],
               f"{job_name}: product of factors vs P_G")
        pg = jobs.get("pg:" + job_name.split(":", 1)[1])
        expect(pg is None or pg["zeta"] == got["zeta"], f"{job_name}: P_G vs pg job")


def naive_truncated_product(polys, bound: int) -> DirichletPolynomial:
    acc = {1: 1}
    for p in reversed(polys):
        nxt: dict[int, int] = {}
        for n1, a1 in acc.items():
            for n2, a2 in p.items():
                if n1 * n2 <= bound:
                    nxt[n1 * n2] = nxt.get(n1 * n2, 0) + a1 * a2
        acc = nxt
    return DirichletPolynomial(acc)


def exact_root(n: int, r: int) -> int | None:
    lo, hi = 1, 1 << (n.bit_length() // r + 1)
    while lo < hi:  # smallest m with m**r >= n
        mid = (lo + hi) // 2
        if mid**r < n:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**r == n else None


def replay_by_definition(factors) -> dict:
    """Witness, I*, r, beta and c_beta recomputed from their definitions."""
    q = max(f.kind.q for f in factors)
    in_window = lambda n: n % q == 0 and n % 2 == 1  # noqa: E731
    roots = [exact_root(n, f.multiplicity) for f in factors for n, _ in f.coeffs if in_window(n)]
    w = min(roots)
    i_star = sorted(f.ident for f in factors if f.coefficient(w**f.multiplicity) != 0)
    r = min(f.multiplicity for f in factors if f.kind.family == "psl2" and f.kind.q == q)
    beta = min(
        n for f in factors for n, _ in f.coeffs
        if in_window(n) and max(prime_factors(n)) <= q and padic_valuation(n, q) == r
    )
    c_beta = sum(f.coefficient(beta) for f in factors)
    return {"q": q, "w": w, "i_star": i_star, "r": r, "beta": beta, "c_beta": str(c_beta)}


def check_series(expected: dict) -> None:
    jobs = expected["jobs"]
    x = W.series_inputs(expected, W.Relabeller(None))

    naive = naive_truncated_product(x["factors"], W.PRODUCT_BOUND)
    expect(W.digest(naive) == jobs["product"], "product: truncated product vs plain convolution")

    for s in (2, 3):
        value = reduce(lambda a, b: a * b, (z.evaluate(s) for z in x["zetas"]))
        expect(x["dividend"].evaluate(s) == value, f"zeta-product: evaluation at s={s}")
    expect(W.digest(x["dividend"]) == jobs["zeta-product"], "zeta-product: digest")

    others = list(x["zetas"])
    others.remove(x["divisor"])
    expect(W.digest(reduce(lambda a, b: a * b, others)) == jobs["divide"],
           "divide: quotient vs product of the other factors")

    brute_w = odd_supplement_indices(make_psl2(11, "psl")).minimum
    expect(brute_w == predicted_minimal_odd_index(11, "psl") == jobs["replay:psl2-11-family"]["w"],
           "replay family: witness vs lattice w(X) and closed form")
    for job_name, factors in (("replay:psl2-11-family", x["family"]), ("replay:mixed", x["mixed"])):
        got = {k: jobs[job_name][k] for k in ("q", "w", "i_star", "r", "beta", "c_beta")}
        expect(got == replay_by_definition(factors), f"{job_name}: replay vs definitions")

    values = {e.value for e in x["exponents"]}
    prime = next(p for p in range(2, 10**4) if is_prime(p) and all(v % p for v in values))
    expect(jobs["smlcheck"]["condition_ii"]["witness"] == prime, "smlcheck: witness prime")


def main() -> int:
    expected = {"inputs": compute_inputs(), "jobs": {}}
    compute_jobs(expected)
    check_goldens(expected)
    check_odd_indices(expected)
    check_factorizations(expected)
    check_series(expected)
    check_oracle(expected)
    if problems:
        print(f"{len(problems)} cross-check(s) failed; expected.json not written", file=sys.stderr)
        return 1
    W.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {W.EXPECTED_PATH.name}: {len(expected['jobs'])} jobs, all cross-checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
