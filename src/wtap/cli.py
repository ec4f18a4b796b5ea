"""Command line interface.

Subcommands: gen, solve, exact, ratio, component, decompose, bench.
Exit codes: 0 success, 2 validation error, 3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import bench as bench_mod
from . import io as wio
from .baseline import cheapest_disjoint_uplink_cover
from .component_dp import (ComponentSearch, original_search_links,
                           uplink_search_links)
from .decomposition import decompose, verify_cover_structure
from .generators import gen_fig2, gen_fig3, gen_random
from .greedy import solve as greedy_solve
from .greedy import two_approx_only
from .model import Instance, WeightOverflowError, validate
from .oracle import BudgetExceededError, OracleBudget, exact_opt
from .ratio import best_ratio_component

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _emit(payload, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _load_validated(path: str) -> Instance:
    try:
        inst = wio.load(path)
    except (OSError, ValueError, KeyError) as exc:
        raise _CliError(f"cannot parse instance {path}: {exc}", EXIT_VALIDATION)
    issues = validate(inst)
    if issues:
        msg = "; ".join(str(i) for i in issues)
        raise _CliError(f"invalid instance {path}: {msg}", EXIT_VALIDATION)
    return inst


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r} ({exc})")


def _positive_fraction(text: str) -> Fraction:
    value = _fraction(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _nonnegative_fraction(text: str) -> Fraction:
    value = _fraction(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


def _searchlink_json(sl) -> dict:
    return {"u": sl.a, "v": sl.b, "w": sl.weight, "label": list(sl.label)}


def _cmd_gen(args) -> None:
    if args.family == "random":
        inst = gen_random(args.n, args.links, args.weight_max, args.seed)
    elif args.family == "fig2":
        inst = gen_fig2(args.d, args.M)
    else:
        inst = gen_fig3(args.m)
    text = wio.dumps(inst)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)


def _cmd_solve(args) -> None:
    inst = _load_validated(args.instance)
    if args.algorithm == "uplink2":
        sol = cheapest_disjoint_uplink_cover(inst)
        payload = {
            "algorithm": "uplink2",
            "weight": sol.weight,
            "paths": [{"top": p.top, "bottom": p.bottom, "weight": p.weight,
                       "witness_link": p.link_id} for p in sol.paths],
            "witness_links": sorted({p.link_id for p in sol.paths}),
        }
    else:
        sol, trace = greedy_solve(inst, args.eps, k_override=args.k_override,
                                  full_shadows=args.full_shadows)
        payload = {
            "algorithm": "relgreedy",
            "k": trace.k,
            "eps": str(args.eps),
            "solution": {"links": list(sol.link_ids), "weight": sol.weight,
                         "deduped_weight": sol.deduped_weight},
            "weight": sol.weight,
            "trace": {
                "initial_u_weight": trace.initial_u_weight,
                "stopped_early": trace.stopped_early,
                "probes": trace.probes,
                "states": trace.states,
                "iterations": [{
                    "component": [_searchlink_json(sl) for sl in it.component],
                    "component_weight": it.component_weight,
                    "drop_weight": it.drop_weight,
                    "ratio": str(it.ratio),
                    "u_weight_before": it.u_weight_before,
                    "u_weight_after": it.u_weight_after,
                } for it in trace.iterations],
            },
        }
    _emit(payload, args.out)


def _cmd_exact(args) -> None:
    inst = _load_validated(args.instance)
    budget = OracleBudget(max_links=args.max_links)
    sol = exact_opt(inst, budget)
    _emit({"weight": sol.weight, "links": list(sol.link_ids)}, args.out)


def _baseline_search(inst: Instance):
    base = cheapest_disjoint_uplink_cover(inst)
    uplinks = list(base.paths)
    search = original_search_links(inst) + uplink_search_links(uplinks)
    return uplinks, search


def _cmd_ratio(args) -> None:
    inst = _load_validated(args.instance)
    uplinks, search = _baseline_search(inst)
    if not uplinks:
        _emit({"rho": None, "note": "edgeless instance"}, args.out)
        return
    result = best_ratio_component(inst, uplinks, args.k, search)
    _emit({
        "rho": str(result.rho),
        "component": [_searchlink_json(sl) for sl in result.links],
        "drop": [{"top": uplinks[i].top, "bottom": uplinks[i].bottom,
                  "weight": uplinks[i].weight} for i in result.drop_indices],
        "certificate": {"component_weight": result.weight,
                        "drop_weight": result.drop_weight},
        "probes": result.probes,
        "states": result.states,
    }, args.out)


def _cmd_component(args) -> None:
    inst = _load_validated(args.instance)
    uplinks, search = _baseline_search(inst)
    cs = ComponentSearch(inst, uplinks, args.k, search)
    res = cs.max_slack(args.rho.numerator, args.rho.denominator)
    _emit({
        "rho": str(args.rho),
        "slack": str(res.slack),
        "component": [_searchlink_json(sl) for sl in res.links],
        "drop_weight": res.drop_weight,
        "component_weight": res.weight,
    }, args.out)


def _cmd_decompose(args) -> None:
    inst = _load_validated(args.instance)
    try:
        data = json.loads(Path(args.solution).read_text())
    except (OSError, ValueError) as exc:
        raise _CliError(f"cannot parse solution file: {exc}", EXIT_VALIDATION)
    if isinstance(data, dict) and "links" in data:
        f_ids = data["links"]
    elif isinstance(data, dict) and "solution" in data:
        f_ids = data["solution"]["links"]
    else:
        f_ids = data
    uplinks = list(cheapest_disjoint_uplink_cover(inst).paths)
    dec = decompose(inst, f_ids, uplinks, args.eps)
    report = verify_cover_structure(inst, f_ids, uplinks)
    _emit({
        "eps": str(args.eps),
        "k": dec.k,
        "removed": [{"top": uplinks[i].top, "bottom": uplinks[i].bottom,
                     "weight": uplinks[i].weight} for i in dec.removed],
        "removed_weight": sum(uplinks[i].weight for i in dec.removed),
        "u_weight": sum(p.weight for p in uplinks),
        "parts": [list(part) for part in dec.parts],
        "labels": {str(ui): lab for ui, lab in sorted(dec.labels.items())},
        "structure_checks": {"ok": report["ok"], "failed": report["failed"]},
    }, args.out)


def _cmd_bench(args) -> None:
    try:
        config = json.loads(Path(args.config).read_text())
    except (OSError, ValueError) as exc:
        raise _CliError(f"cannot parse config: {exc}", EXIT_VALIDATION)
    report = bench_mod.bench(config, timings=args.timings)
    if args.format == "csv":
        text = bench_mod.report_to_csv(report)
    else:
        text = bench_mod.report_to_json(report)
    if args.out:
        Path(args.out).write_text(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wtap",
        description="Weighted tree augmentation solver and test harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate an instance")
    gen_sub = p_gen.add_subparsers(dest="family", required=True)
    g_rand = gen_sub.add_parser("random")
    g_rand.add_argument("--n", type=int, required=True)
    g_rand.add_argument("--links", type=int, required=True)
    g_rand.add_argument("--weight-max", dest="weight_max", type=int, default=10)
    g_rand.add_argument("--seed", type=int, default=0)
    g_rand.add_argument("--out")
    g_fig2 = gen_sub.add_parser("fig2")
    g_fig2.add_argument("--d", type=int, required=True)
    g_fig2.add_argument("--M", type=int, required=True)
    g_fig2.add_argument("--out")
    g_fig3 = gen_sub.add_parser("fig3")
    g_fig3.add_argument("--m", type=int, required=True)
    g_fig3.add_argument("--out")

    p_solve = sub.add_parser("solve", help="run a solver")
    p_solve.add_argument("--algorithm", choices=["uplink2", "relgreedy"],
                         required=True)
    p_solve.add_argument("--eps", type=_positive_fraction, default=Fraction(1))
    p_solve.add_argument("--k-override", dest="k_override", type=_positive_int)
    p_solve.add_argument("--full-shadows", dest="full_shadows",
                         action="store_true")
    p_solve.add_argument("--out")
    p_solve.add_argument("instance")

    p_exact = sub.add_parser("exact", help="brute-force optimum")
    p_exact.add_argument("--max-links", dest="max_links", type=int, default=20)
    p_exact.add_argument("--out")
    p_exact.add_argument("instance")

    p_ratio = sub.add_parser("ratio", help="best-ratio component vs baseline")
    p_ratio.add_argument("--k", type=_positive_int, required=True)
    p_ratio.add_argument("--out")
    p_ratio.add_argument("instance")

    p_comp = sub.add_parser("component", help="max-slack component at a rho")
    p_comp.add_argument("--rho", type=_nonnegative_fraction, required=True)
    p_comp.add_argument("--k", type=_positive_int, required=True)
    p_comp.add_argument("--out")
    p_comp.add_argument("instance")

    p_dec = sub.add_parser("decompose", help="thin decomposition of a solution")
    p_dec.add_argument("--eps", type=_positive_fraction, required=True)
    p_dec.add_argument("--solution", required=True)
    p_dec.add_argument("--out")
    p_dec.add_argument("instance")

    p_bench = sub.add_parser("bench", help="run a benchmark config")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--format", choices=["json", "csv"], default="json")
    p_bench.add_argument("--timings", action="store_true")
    p_bench.add_argument("--out")
    return parser


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "exact": _cmd_exact,
    "ratio": _cmd_ratio,
    "component": _cmd_component,
    "decompose": _cmd_decompose,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except WeightOverflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
