"""pzeta command line interface.

Subcommands: pg, pxs, omega, wtable, factorize, moebius, replay,
smlcheck, product, divide.  Global flags pick the output format and
the resource budget; the environment variable ``PZETA_BUDGET_ORDER``
overrides the default order budget (an explicit ``--budget-order``
still wins).

Exit codes:
  0  success
  2  unusable input (parse errors, unknown builtin, empty factor list)
  3  resource budget exceeded
  4  table mismatch under --strict
  5  factor data violates the extraction hypothesis
  6  inexact division
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .dirichlet import DirichletPolynomial, divide_exact, int_from_json, truncated_product
from .errors import (
    BudgetExceeded,
    EmptyInput,
    FactorNotUnital,
    HypothesisViolated,
    InvalidParameter,
    NonUnitDenominator,
    NotDivisible,
    NotNormal,
    OrderBoundExceeded,
    ZeroDivisor,
)
from .lattice import Budget
from .permgroup import PermGroup, builtin_group, make_psl2, parse_group_file
from .rationality import (
    ArithmeticExponents,
    ConstantExponents,
    FactorDescriptor,
    GeometricExponents,
    check_sml_conditions,
    replay_finiteness_argument,
)
from .zeta import (
    chief_factorization,
    minimal_odd_index_table,
    odd_supplement_indices,
    supplement_zeta,
    zeta_report,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_MISMATCH = 4
EXIT_HYPOTHESIS = 5
EXIT_NOT_DIVISIBLE = 6


def _non_negative(kind):
    def parse(text: str):
        value = kind(text)
        if not value >= 0:  # also rejects nan
            raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its messages
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pzeta",
        description="Probabilistic zeta functions of finite groups, "
        "subgroup-lattice Moebius data, and Dirichlet polynomial tools.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    # a string default goes through ``type`` too, so the environment
    # value is validated exactly like the flag
    parser.add_argument("--budget-order", type=_non_negative(int),
                        default=os.environ.get("PZETA_BUDGET_ORDER"),
                        help="max group order for lattice work "
                        "(default: $PZETA_BUDGET_ORDER, else 10000)")
    parser.add_argument("--budget-subgroups", type=_non_negative(int), default=None,
                        help="max number of subgroups stored (0 refuses every lattice)")
    parser.add_argument("--time-hint", type=_non_negative(float), default=None,
                        help="soft wall-clock limit in seconds")
    parser.add_argument("--truncate", type=int, default=64,
                        help="default truncation bound for series output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_group_source(p):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--builtin", help="builtin group name, e.g. S4, A5, C7, PSL(2,7)")
        src.add_argument("--file", help="group file (degree line + cycle generators)")
        p.add_argument("--p", type=int, default=None, help="order parameter for --builtin Cp")

    p = sub.add_parser("pg", help="probabilistic zeta polynomial of a group")
    add_group_source(p)

    p = sub.add_parser("pxs", help="supplement zeta polynomial of PSL/PGL(2,q)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--variant", choices=("psl", "pgl"), default="psl")

    p = sub.add_parser("omega", help="odd supplement indices and their minimum w(X)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--variant", choices=("psl", "pgl"), default="psl")
    p.add_argument("--include-even", action="store_true",
                   help="also scan even indices (full lattice; slower)")

    p = sub.add_parser("wtable", help="computed vs predicted w(X) per (q, variant)")
    p.add_argument("--qmax", type=int, default=13)
    p.add_argument("--qs", type=str, default=None,
                   help="comma-separated list of primes (overrides --qmax)")
    p.add_argument("--variants", type=str, default="psl,pgl")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero if any row mismatches")

    p = sub.add_parser("factorize", help="chief-series factorization of P_G(s)")
    add_group_source(p)

    p = sub.add_parser("moebius", help="subgroup lattice export with Moebius values")
    add_group_source(p)

    p = sub.add_parser("replay", help="finiteness pipeline on a factor descriptor file")
    p.add_argument("path", help="JSON file with {\"factors\": [...]}")

    p = sub.add_parser("smlcheck", help="finiteness conditions on exponent families")
    p.add_argument("path", help="JSON file with {\"families\": [...]}")

    p = sub.add_parser("product", help="truncated product of Dirichlet polynomials")
    p.add_argument("path", help="JSON file with {\"factors\": [...], \"bound\": N?}")

    p = sub.add_parser("divide", help="exact division of Dirichlet polynomials")
    p.add_argument("path", help="JSON file with {\"p\": ..., \"d\": ..., \"bound\": N?}")

    return parser


def _budget(args) -> Budget:
    default = Budget()
    order = default.max_order
    if args.budget_order is not None:
        order = args.budget_order
    subgroups = default.max_subgroups
    if args.budget_subgroups is not None:
        subgroups = args.budget_subgroups
    return Budget(max_order=order, max_subgroups=subgroups, time_hint_s=args.time_hint)


def _load_group(args) -> PermGroup:
    if args.builtin:
        return builtin_group(args.builtin, p=args.p)
    with open(args.file, encoding="utf-8") as fh:
        return parse_group_file(fh.read())


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(text)


# -- command handlers -------------------------------------------------------


def _cmd_pg(args) -> int:
    group = _load_group(args)
    report = zeta_report(group, _budget(args))
    text = (
        f"group {report.group} (order {report.order}, degree {report.degree})\n"
        f"P(s) = {report.zeta}\n"
        f"subgroups: {report.subgroup_count} in {report.class_count} conjugacy classes"
        f"  [{report.elapsed_s}s]"
    )
    _emit(args, report.to_json_dict(), text)
    return EXIT_OK


def _cmd_pxs(args) -> int:
    spec = make_psl2(args.q, args.variant)
    poly = supplement_zeta(spec, _budget(args))
    payload = {
        "group": spec.name,
        "socle_order": spec.socle.order,
        "zeta": poly.to_json_dict(),
    }
    _emit(args, payload, f"group {spec.name}\nP_X,S(s) = {poly}")
    return EXIT_OK


def _cmd_omega(args) -> int:
    spec = make_psl2(args.q, args.variant)
    report = odd_supplement_indices(spec, _budget(args), include_even=args.include_even)
    lines = [f"group {report.group} (socle order {report.socle_order})"]
    for d in report.details:
        lines.append(
            f"  m={d.index}: {d.supplement_classes} supplement class(es), "
            f"{'all maximal' if d.all_maximal else 'not all maximal'}"
        )
    lines.append(f"indices: {list(report.indices)}  w = {report.minimum}")
    _emit(args, report.to_json_dict(), "\n".join(lines))
    return EXIT_OK


def _cmd_wtable(args) -> int:
    if args.qs:
        qs = [int(tok) for tok in args.qs.split(",") if tok.strip()]
    else:
        from .numtheory import primes_up_to

        qs = [q for q in primes_up_to(args.qmax) if q >= 5]
    variants = [v.strip().lower() for v in args.variants.split(",") if v.strip()]
    rows = minimal_odd_index_table(qs, variants, _budget(args))
    lines = [f"{'q':>4} {'variant':>8} {'computed':>9} {'predicted':>10} {'status':>9}"]
    for row in rows:
        lines.append(
            f"{row.q:>4} {row.variant:>8} {str(row.computed):>9} "
            f"{row.predicted:>10} {row.status:>9}"
            + (f"  ({row.note})" if row.note else "")
        )
    _emit(args, {"rows": [r.to_json_dict() for r in rows]}, "\n".join(lines))
    if args.strict and any(r.status == "MISMATCH" for r in rows):
        return EXIT_MISMATCH
    return EXIT_OK


def _cmd_factorize(args) -> int:
    group = _load_group(args)
    fac = chief_factorization(group, _budget(args))
    lines = [f"group {fac.group}", f"P(s) = {fac.zeta}"]
    for rec in fac.factors:
        tags = []
        if rec.frattini:
            tags.append("frattini")
        if rec.complement_count is not None:
            tags.append(f"complements={rec.complement_count}")
            tags.append(f"abelian-identity={'ok' if rec.abelian_identity_ok else 'FAIL'}")
        suffix = f"  [{', '.join(tags)}]" if tags else ""
        lines.append(
            f"  {rec.label}^{rec.multiplicity}: {rec.polynomial}{suffix}"
        )
    lines.append(f"product identity: {'ok' if fac.product_ok else 'FAIL'}")
    _emit(args, fac.to_json_dict(), "\n".join(lines))
    return EXIT_OK


def _cmd_moebius(args) -> int:
    group = _load_group(args)
    lat = group.subgroup_lattice(_budget(args))
    payload = lat.to_json_dict()
    mu_triv = lat.moebius(lat.trivial_id)
    text = (
        f"group {group.name} (order {group.order})\n"
        f"subgroups: {lat.node_count} in {lat.class_count} conjugacy classes\n"
        f"mu(trivial) = {mu_triv}"
    )
    _emit(args, payload, text)
    return EXIT_OK


def _cmd_replay(args) -> int:
    with open(args.path, encoding="utf-8") as fh:
        data = json.load(fh)
    factors = [FactorDescriptor.from_json_dict(d) for d in data.get("factors", [])]
    report = replay_finiteness_argument(factors, probe_bound=data.get("probe_bound", 10_000))
    lines = [
        f"q = {report.q}, window = odd multiples of {report.q}",
        f"w = {report.witness}, I* = {list(report.i_star)}",
        f"r = {report.min_psl_multiplicity}, beta = {report.beta}, "
        f"c_beta = {report.c_beta} ({'negative' if report.c_beta_negative else 'not negative'})"
        if report.beta is not None
        else f"r = {report.min_psl_multiplicity}, beta = None",
        f"H(s) factors: {[str(p) for p in report.h_factors]}",
        f"finiteness: (i) {'holds' if report.sml.condition_i_holds else 'fails'}, "
        f"(ii) witness {report.sml.condition_ii_witness}",
    ]
    _emit(args, report.to_json_dict(), "\n".join(lines))
    return EXIT_OK


def _parse_family(entry):
    if isinstance(entry, int):
        return ConstantExponents(entry)
    if isinstance(entry, dict):
        if "const" in entry:
            return ConstantExponents(
                int(entry["const"]),
                count=int(entry.get("count", 1)),
                infinite=bool(entry.get("infinite", False)),
            )
        if "arith" in entry:
            return ArithmeticExponents(int(entry["arith"]["start"]), int(entry["arith"]["step"]))
        if "geom" in entry:
            return GeometricExponents(int(entry["geom"]["start"]), int(entry["geom"]["ratio"]))
    raise ValueError(f"cannot parse exponent family {entry!r}")


def _cmd_smlcheck(args) -> int:
    with open(args.path, encoding="utf-8") as fh:
        data = json.load(fh)
    families = [_parse_family(e) for e in data.get("families", [])]
    report = check_sml_conditions(families, probe_bound=data.get("probe_bound", 10_000))
    text = (
        f"condition (i): {'holds' if report.condition_i_holds else 'fails'}"
        + (f" (violated at n={report.condition_i_violated_at})"
           if report.condition_i_violated_at is not None else "")
        + f"\ncondition (ii): witness prime {report.condition_ii_witness}"
    )
    _emit(args, report.to_json_dict(), text)
    return EXIT_OK


def _cmd_product(args) -> int:
    with open(args.path, encoding="utf-8") as fh:
        data = json.load(fh)
    factors = [DirichletPolynomial.from_json_dict(d) for d in data.get("factors", [])]
    bound = int_from_json(data.get("bound", args.truncate))
    result = truncated_product(factors, bound)
    _emit(args, result.to_json_dict(), str(result))
    return EXIT_OK


def _cmd_divide(args) -> int:
    with open(args.path, encoding="utf-8") as fh:
        data = json.load(fh)
    p = DirichletPolynomial.from_json_dict(data["p"])
    d = DirichletPolynomial.from_json_dict(data["d"])
    bound = data.get("bound")
    if bound is not None:
        bound = int_from_json(bound)
    quotient = divide_exact(p, d, support_bound=bound)
    _emit(args, {"quotient": quotient.to_json_dict()}, f"quotient = {quotient}")
    return EXIT_OK


_HANDLERS = {
    "pg": _cmd_pg,
    "pxs": _cmd_pxs,
    "omega": _cmd_omega,
    "wtable": _cmd_wtable,
    "factorize": _cmd_factorize,
    "moebius": _cmd_moebius,
    "replay": _cmd_replay,
    "smlcheck": _cmd_smlcheck,
    "product": _cmd_product,
    "divide": _cmd_divide,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (BudgetExceeded, OrderBoundExceeded) as exc:
        # how far a refused computation got, when the error carries it;
        # a nested count such as closures prints as closures.candidate=...
        items = []
        for key, value in (getattr(exc, "stats", None) or {}).items():
            if isinstance(value, dict):
                items += [(f"{key}.{sub}", x) for sub, x in value.items()]
            else:
                items.append((key, value))
        got = f" ({', '.join(f'{k}={v}' for k, v in items)})" if items else ""
        print(f"budget: {exc}{got}", file=sys.stderr)
        return EXIT_BUDGET
    except HypothesisViolated as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except NotDivisible as exc:
        print(f"not divisible: {exc}", file=sys.stderr)
        return EXIT_NOT_DIVISIBLE
    except (
        EmptyInput,
        InvalidParameter,
        NotNormal,
        FactorNotUnital,
        NonUnitDenominator,
        ZeroDivisor,
        ValueError,
        KeyError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
