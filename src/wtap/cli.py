"""Command line interface.

Subcommands: gen, solve, exact, ratio, component, decompose, bench.
Exit codes: 0 success, 2 validation error (an unreadable input, an
unwritable ``--out`` or a ``WeightOverflowError`` included), 3 a size budget
exceeded (``model.BudgetError``: the oracle's enumeration, the tree tables
or the component-DP plan).

Each command imports only the modules it runs, when it runs: ``solve``
loads no decomposition, oracle, bench or generator code, and ``gen`` no
solver.  On hosts that compile every module from source at each start,
start-up otherwise costs more than a desk-scale solve.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import io as wio
from .model import (BudgetError, Instance, WeightOverflowError,
                    uncovered_edges, validate)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _write(text: str, out: str | None) -> None:
    """Write ``text``, newline-terminated, to the file ``out`` or stdout."""
    text = text if text.endswith("\n") else text + "\n"
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise _CliError(f"cannot write {out}: {exc}", EXIT_VALIDATION)


def _emit(payload, out: str | None) -> None:
    _write(json.dumps(payload, indent=2, sort_keys=True), out)


def _load_validated(path: str) -> Instance:
    try:
        inst = wio.load(path)
    except (OSError, ValueError, KeyError, RecursionError) as exc:
        # RecursionError: JSON nested deeper than the interpreter's limit
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


def _int_at_least(low: int, most: int | None = None):
    """An argparse type: an integer of at least ``low`` and at most ``most``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text!r}")
        if most is not None and value > most:
            raise argparse.ArgumentTypeError(f"must be at most {most}, got {text!r}")
        return value
    return parse


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)


def _searchlink_json(sl, m: int) -> dict:
    """A search link as JSON; positions from ``m``, the link count, are up-links."""
    label = ["orig", sl.pos] if sl.pos < m else ["up", sl.a, sl.b]
    return {"u": sl.a, "v": sl.b, "w": sl.weight, "label": label}


def _cmd_gen(args) -> None:
    from .generators import gen_fig2, gen_fig3, gen_random
    if args.family == "random":
        inst = gen_random(args.n, args.links, args.weight_max, args.seed)
    elif args.family == "fig2":
        inst = gen_fig2(args.d, args.M)
    else:
        inst = gen_fig3(args.m)
    _write(wio.dumps(inst), args.out)


def _cmd_solve(args) -> None:
    inst = _load_validated(args.instance)
    if args.algorithm == "uplink2":
        from .baseline import cheapest_disjoint_uplink_cover
        sol = cheapest_disjoint_uplink_cover(inst)
        payload = {
            "algorithm": "uplink2",
            "weight": sol.weight,
            "paths": [{"top": p.top, "bottom": p.bottom, "weight": p.weight,
                       "witness_link": p.link_id} for p in sol.paths],
            "witness_links": sorted({p.link_id for p in sol.paths}),
        }
    else:
        from .greedy import solve
        sol, trace = solve(inst, args.eps)
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
                    "component": [_searchlink_json(sl, len(inst.links))
                                  for sl in it.component],
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
    from .oracle import OracleBudget, exact_opt
    inst = _load_validated(args.instance)
    budget = OracleBudget(max_links=args.max_links)
    sol = exact_opt(inst, budget)
    _emit({"weight": sol.weight, "links": list(sol.link_ids)}, args.out)


def _cmd_ratio(args) -> None:
    from .baseline import cheapest_disjoint_uplink_cover
    from .component_dp import ComponentSearch
    from .ratio import best_ratio_component
    inst = _load_validated(args.instance)
    cs = ComponentSearch(inst, cheapest_disjoint_uplink_cover(inst).paths, args.k)
    uplinks = cs.uplinks
    if not uplinks:
        _emit({"rho": None, "note": "edgeless instance"}, args.out)
        return
    result = best_ratio_component(cs)
    _emit({
        "rho": str(result.rho),
        "component": [_searchlink_json(sl, len(inst.links)) for sl in result.links],
        "drop": [{"top": uplinks[i].top, "bottom": uplinks[i].bottom,
                  "weight": uplinks[i].weight} for i in result.drop_indices],
        "certificate": {"component_weight": result.weight,
                        "drop_weight": result.drop_weight},
        "probes": result.probes,
        "states": result.states,
    }, args.out)


def _cmd_component(args) -> None:
    from .baseline import cheapest_disjoint_uplink_cover
    from .component_dp import ComponentSearch
    inst = _load_validated(args.instance)
    cs = ComponentSearch(inst, cheapest_disjoint_uplink_cover(inst).paths, args.k)
    res = cs.max_slack(args.rho.numerator, args.rho.denominator)
    _emit({
        "rho": str(args.rho),
        "slack": str(res.slack),
        "component": [_searchlink_json(sl, len(inst.links)) for sl in res.links],
        "drop_weight": res.drop_weight,
        "component_weight": res.weight,
    }, args.out)


def _cmd_decompose(args) -> None:
    from .baseline import cheapest_disjoint_uplink_cover
    from .decomposition import decompose, verify_cover_structure
    inst = _load_validated(args.instance)
    try:
        data = json.loads(Path(args.solution).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise _CliError(f"cannot parse solution file: {exc}", EXIT_VALIDATION)
    if isinstance(data, dict) and "links" in data:
        f_ids = data["links"]
    elif isinstance(data, dict) and isinstance(data.get("solution"), dict):
        f_ids = data["solution"].get("links")
    else:
        f_ids = data
    m = len(inst.links)
    if not (isinstance(f_ids, list)
            and all(type(i) is int and 0 <= i < m for i in f_ids)):
        raise _CliError(f"solution links must be a list of link ids in [0, {m})",
                        EXIT_VALIDATION)
    bare = uncovered_edges(inst, ((inst.links[i].u, inst.links[i].v) for i in f_ids))
    if bare:
        v = bare[0]
        raise _CliError(f"solution leaves {len(bare)} tree edges uncovered, "
                        f"({inst.index.parent[v]}, {v}) first", EXIT_VALIDATION)
    uplinks = list(cheapest_disjoint_uplink_cover(inst).paths)
    dec = decompose(inst, f_ids, uplinks, args.eps)
    report = verify_cover_structure(inst, dec.graph)
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
    from . import bench as bench_mod
    try:
        config = json.loads(Path(args.config).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise _CliError(f"cannot parse config: {exc}", EXIT_VALIDATION)
    try:
        report = bench_mod.bench(config, timings=args.timings)
    except bench_mod.ConfigError as exc:
        raise _CliError(f"invalid config {args.config}: {exc}", EXIT_VALIDATION)
    if args.format == "csv":
        text = bench_mod.report_to_csv(report)
    else:
        text = bench_mod.report_to_json(report)
    _write(text, args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wtap",
        description="Weighted tree augmentation solver and test harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate an instance")
    gen_sub = p_gen.add_subparsers(dest="family", required=True)
    g_rand = gen_sub.add_parser("random")
    g_rand.add_argument("--n", type=_positive_int, required=True)
    g_rand.add_argument("--links", type=_nonnegative_int, required=True)
    # weights are drawn as int64, so weight_max + 1 must not pass 2**63
    g_rand.add_argument("--weight-max", dest="weight_max",
                        type=_int_at_least(1, 2**63 - 1), default=10)
    g_rand.add_argument("--seed", type=_nonnegative_int, default=0)
    g_rand.add_argument("--out")
    g_fig2 = gen_sub.add_parser("fig2")
    g_fig2.add_argument("--d", type=_int_at_least(2), required=True)
    g_fig2.add_argument("--M", type=_positive_int, required=True)
    g_fig2.add_argument("--out")
    g_fig3 = gen_sub.add_parser("fig3")
    g_fig3.add_argument("--m", type=_positive_int, required=True)
    g_fig3.add_argument("--out")

    p_solve = sub.add_parser("solve", help="run a solver")
    p_solve.add_argument("--algorithm", choices=["uplink2", "relgreedy"],
                         required=True)
    p_solve.add_argument("--eps", type=_positive_fraction, default=Fraction(1))
    p_solve.add_argument("--out")
    p_solve.add_argument("instance")

    p_exact = sub.add_parser("exact", help="brute-force optimum")
    p_exact.add_argument("--max-links", dest="max_links", type=_nonnegative_int,
                         default=20)
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
        error, code = exc, exc.code
    except BudgetError as exc:
        error, code = exc, EXIT_BUDGET
    except WeightOverflowError as exc:
        error, code = exc, EXIT_VALIDATION
    else:
        return EXIT_OK
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
