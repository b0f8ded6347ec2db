"""Command-line interface: every operation behind one entry point, with a
machine-readable JSON report on stdout.

Exit codes: 0 when every reported check passes (or there are none),
1 when some check fails, 2 for usage and domain errors (message on
stderr, no JSON).  Arbitrary-precision integers are serialized as decimal
strings; fixed-point values as {mantissa, scale, decimal}.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

from . import acceptance, golden
from .asymptotics import (
    alpha,
    characteristic_root,
    growth_constant,
    growth_constant_ratio,
    leading_constant,
    saddle_point,
    verify_recurrence,
)
from .bounds import BoundReport, bound_for_d, optimal_bound, sharp_bound, theorem_bound
from .capsearch import is_progression_free, max_capset
from .fixedpoint import BigFixed
from .qnomial import qnomial
from .verifier import format_pointset, parse_pointset, verify_support_bound


def _bigfixed_json(value: BigFixed) -> dict:
    return {"mantissa": str(value.mantissa), "scale": value.scale,
            "decimal": value.decimal()}


def _bound_json(report: BoundReport) -> dict:
    return {
        "n": report.n,
        "q": report.q,
        "d": report.d,
        "method": report.method,
        "value": str(report.value),
        "identities": [{"name": name, "pass": ok}
                       for name, ok in report.identities],
    }


def _digit_check(name: str, value: BigFixed, pinned: str) -> dict:
    dist = acceptance.ulp_distance(value, pinned)
    return {
        "name": name,
        "pass": dist <= 1,
        "detail": f"computed {value.decimal()} vs pinned {pinned} "
                  f"({float(dist):.3g} ulp)",
    }


def _is_prime_power(n: int) -> bool:
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
        p += 1
    return True


def _prime_powers(lo: int, hi: int) -> list[int]:
    return [q for q in range(max(lo, 2), hi + 1) if _is_prime_power(q)]


# ---------------------------------------------------------------------------
# subcommand implementations: each returns (result_object, checks_list)

def _cmd_bound(args) -> tuple[dict, list[dict]]:
    reports = []
    if args.d is not None:
        reports.append(bound_for_d(args.n, args.d))
    if args.optimize_d:
        reports.append(optimal_bound(args.n))
    if args.theorem:
        reports.append(theorem_bound(args.n))
    if args.sharp:
        reports.append(sharp_bound(args.n))
    if not reports:
        raise ValueError(
            "pick at least one of --d, --optimize-d, --theorem, --sharp")
    checks = []
    for report in reports:
        for name, ok in report.identities:
            checks.append({"name": f"{report.method}:{name}", "pass": ok,
                           "detail": f"exact identity on n={report.n}"})
    return {"bounds": [_bound_json(r) for r in reports]}, checks


def _cmd_qnomial(args) -> tuple[dict, list[dict]]:
    return {"value": str(qnomial(args.n, args.k, args.q))}, []


def _cmd_growth(args) -> tuple[dict, list[dict]]:
    result: dict = {}
    checks: list[dict] = []
    if args.method in ("saddle", "both"):
        sp = saddle_point(args.q, args.digits)
        result["saddle"] = {
            "q": sp.q,
            "x0": _bigfixed_json(sp.x0),
            "constant": _bigfixed_json(sp.constant),
            "residual": _bigfixed_json(sp.residual),
        }
    if args.method in ("ratio", "both"):
        result["ratio_estimate"] = growth_constant_ratio(args.q)
    if args.method == "both":
        saddle_val = float(saddle_point(args.q, args.digits).constant)
        rel = abs(saddle_val - result["ratio_estimate"]) / saddle_val
        checks.append({
            "name": "saddle_ratio_agree",
            "pass": rel < 1e-4,
            "detail": f"relative difference {rel:.3e}",
        })
    return result, checks


def _cmd_table(args) -> tuple[dict, list[dict]]:
    rows = []
    checks = []
    for q in _prime_powers(args.qmin, args.qmax):
        value = growth_constant(q)
        pinned = golden.GROWTH_TABLE.get(q)
        row = {"q": q, "constant": _bigfixed_json(value)}
        if pinned is not None:
            check = _digit_check(f"q={q}_matches_reference", value, pinned)
            row["reference"] = pinned
            row["pass"] = check["pass"]
            checks.append(check)
        rows.append(row)
    return {"rows": rows}, checks


def _cmd_alpha(args) -> tuple[dict, list[dict]]:
    value = alpha(args.digits)
    root = characteristic_root(args.digits)
    checks = []
    if args.digits >= len(golden.ALPHA_DIGITS.split(".")[1]):
        checks.append(_digit_check("alpha_matches_reference", value,
                                   golden.ALPHA_DIGITS))
        checks.append(_digit_check("characteristic_root_matches_reference",
                                   root, golden.CHARACTERISTIC_ROOT_DIGITS))
    return {"alpha": _bigfixed_json(value),
            "characteristic_root": _bigfixed_json(root)}, checks


def _cmd_leading_constant(args) -> tuple[dict, list[dict]]:
    value = leading_constant(args.digits)
    checks = []
    if args.digits >= 12:
        ok, detail = acceptance.leading_constant_digit_check(value)
        checks.append({"name": "matches_reference_to_10_significant_digits",
                       "pass": ok, "detail": detail})
    return {"leading_constant": _bigfixed_json(value)}, checks


def _cmd_verify_recurrence(args) -> tuple[dict, list[dict]]:
    check = verify_recurrence(args.nmax)
    result = {"n_max": check.n_max, "all_zero": check.all_zero,
              "first_failure": check.first_failure}
    return result, [{"name": "recurrence_all_zero", "pass": check.all_zero,
                     "detail": f"n = 0..{args.nmax - 2}, exact integers"}]


def _cmd_search(args) -> tuple[dict, list[dict]]:
    result = max_capset(args.n, node_budget=args.budget)
    witness_lines = [" ".join(str(c) for c in v)
                     for v in result.witness.vectors()]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(format_pointset(result.witness))
    checks = [{
        "name": "witness_progression_free",
        "pass": is_progression_free(result.witness),
        "detail": f"witness of size {result.max_size}",
    }]
    return {
        "n": result.n,
        "max_size": result.max_size,
        "witness": witness_lines,
        "nodes_explored": result.nodes_explored,
        "proven_optimal": result.proven_optimal,
        "fixed_prefix": list(result.fixed_prefix),
    }, checks


def _cmd_verify_clp(args) -> tuple[dict, list[dict]]:
    if args.set:
        with open(args.set, encoding="utf-8") as fh:
            ps = parse_pointset(fh.read(), p=3)
        if ps.n != args.n:
            raise ValueError(f"point file has dimension {ps.n}, --n is {args.n}")
    else:
        ps = max_capset(args.n).witness
    report = verify_support_bound(args.n, args.d, ps)
    result = {
        "n": report.n, "d": report.d, "set_size": report.set_size,
        "dim_v": report.dim_v, "dim_lower_bound": report.dim_lower_bound,
        "max_support": report.max_support, "support_cap": report.support_cap,
        "rank": report.rank,
        "diagonal_ok": report.diagonal_ok, "rank_ok": report.rank_ok,
        "support_ok": report.support_ok, "bound_ok": report.bound_ok,
    }
    checks = [
        {"name": "pair_matrix_diagonal", "pass": report.diagonal_ok,
         "detail": "off-diagonal entries vanish"},
        {"name": "rank_cap", "pass": report.rank_ok,
         "detail": f"max rank {report.rank} <= {report.support_cap}"},
        {"name": "support_cap", "pass": report.support_ok,
         "detail": f"max support {report.max_support} <= {report.support_cap}"},
        {"name": "dimension_bound", "pass": report.bound_ok,
         "detail": f"dim V = {report.dim_v} >= {report.dim_lower_bound}"},
    ]
    return result, checks


def _cmd_verify_all(args) -> tuple[dict, list[dict]]:
    criteria = acceptance.run_all(level=args.level)
    checks = [{"name": c.name, "pass": c.passed, "detail": c.detail}
              for c in criteria]
    result = {"level": args.level,
              "criteria": [{"name": c.name, "pass": c.passed,
                            "warning": c.warning, "detail": c.detail}
                           for c in criteria]}
    return result, checks


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="capbound",
        description="Exact bounds for progression-free subsets of F_q^n, "
                    "proof-core verification, and growth-constant tables.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="bound family / optimal / headline / sharp")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int)
    p.add_argument("--optimize-d", action="store_true")
    p.add_argument("--theorem", action="store_true")
    p.add_argument("--sharp", action="store_true")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("qnomial", help="one exact coefficient")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int, default=3)
    p.set_defaults(func=_cmd_qnomial)

    p = sub.add_parser("growth", help="growth constant for one q")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--digits", type=int, default=40)
    p.add_argument("--method", choices=("saddle", "ratio", "both"),
                   default="saddle")
    p.set_defaults(func=_cmd_growth)

    p = sub.add_parser("table", help="growth constants vs pinned references")
    p.add_argument("--qmin", type=int, default=4)
    p.add_argument("--qmax", type=int, default=31)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("alpha", help="base-3 growth constant digits")
    p.add_argument("--digits", type=int, default=19)
    p.set_defaults(func=_cmd_alpha)

    p = sub.add_parser("leading-constant", help="sqrt(n)-normalized constant")
    p.add_argument("--digits", type=int, default=19)
    p.set_defaults(func=_cmd_leading_constant)

    p = sub.add_parser("verify-recurrence", help="exact recurrence check")
    p.add_argument("--nmax", type=int, required=True)
    p.set_defaults(func=_cmd_verify_recurrence)

    p = sub.add_parser("search", help="maximum progression-free set search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=int,
                   help="node budget, required at n=5 (n >= 6 is refused); "
                        "a walk cut short reports a lower bound")
    p.add_argument("--out", help="write the witness in point-file format")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("verify-clp", help="replay the rank argument on a set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--set", help="point file, one point per line")
    group.add_argument("--from-search", action="store_true")
    p.set_defaults(func=_cmd_verify_clp)

    p = sub.add_parser("verify-all", help="run the whole verification battery")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.set_defaults(func=_cmd_verify_all)

    return top


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        result, checks = args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    inputs = {k: v for k, v in vars(args).items()
              if k not in ("func", "command") and v is not None}
    report = {
        "command": args.command,
        "inputs": inputs,
        "result": result,
        "checks": checks,
        "elapsed_ms": int((time.monotonic() - started) * 1000),
    }
    print(json.dumps(report, indent=2))
    return 0 if all(c["pass"] for c in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
