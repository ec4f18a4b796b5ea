#!/usr/bin/env python3
"""Benchmark of the wtap solver, end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload relgreedy-mid --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke        # toy sizes, every workload, both modes

One closed-loop caller in one single-threaded process: each instance goes
from text to a checked solution before the next one starts.  Set-up runs
several times, each in a fresh interpreter, and ``setup_s`` is their median.
The measured phase runs in one more process.  With ``--trace 0`` the last
line of output is a JSON object with every end-to-end metric; with
``--trace 1`` it holds every per-layer metric from a separate traced run.
See README.md for the workloads and what each metric should show.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import checks
import inputs
import measure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Set-up repeats: at least 3, more while they take under 1.5 s in total.
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_BUDGET_S = 3, 9, 1.5
CHILD_TIMEOUT_S = 170
FINGERPRINT_COUNTS = ("greedy.iterations", "component_dp.probes", "ratio.searches",
                      "model.table_slots", "baseline.paths", "bench.rows")


def in_child(fn, *args):
    """Run ``fn(*args)`` in a fresh interpreter and wait for it to end.

    The call goes to ``run.py --child`` as a pickle on stdin; the result
    comes back as a pickle on stdout.  Both ends are this program.
    """
    call = pickle.dumps((fn.__module__, fn.__name__, args))
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--child"], input=call,
                          capture_output=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{fn.__name__} failed in its process:\n"
                           + proc.stderr.decode(errors="replace"))
    return pickle.loads(proc.stdout)


def child() -> int:
    module, name, args = pickle.load(sys.stdin.buffer)
    result = getattr(importlib.import_module(module), name)(*args)
    sys.stdout.buffer.write(pickle.dumps(result))
    return 0


def quantile(values, q: int) -> float:
    """The q-th percentile (inclusive method); a lone value is its own."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def code_digest() -> str:
    """Hash of the library and benchmark sources, keying fingerprints."""
    h = hashlib.sha256()
    for base in (ROOT / "src" / "wtap", HERE):
        for path in sorted(base.glob("*.py")):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class Verdict:
    """Attempted and failed rows, with the reasons for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.consistent = True

    def row(self, where: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{where}: {p}" for p in problems)

    def mismatch(self, what: str) -> None:
        self.consistent = False
        self.problems.append(what)


# ---------------------------------------------------------------- checks
def check_solve_runs(runs, instances, spec, verdict: Verdict) -> dict:
    """Check every execution; return the weights fingerprint."""
    weights = {}
    eps = Fraction(spec.get("eps", "1"))
    for rec, unit_runs in zip(instances, runs):
        tree = checks.Tree(rec["n"], rec["root"], rec["edges"])
        first = None
        for run in unit_runs:
            for algo in spec["algorithms"]:
                where = f"{rec['id']}/{algo}"
                if run["error"]:
                    verdict.row(where, [run["error"]])
                    continue
                if first is not None:  # repeats: same answer, checked once
                    same = run["weights"] == first["weights"]
                    verdict.row(where, [] if same else ["weight differs on repeat"])
                    continue
                sol = run["solutions"][algo]
                problems = checks.check_solution(tree, rec["links"], sol["link_ids"],
                                                 sol["weight"], sol["deduped_weight"])
                if algo == "relgreedy":
                    up = run["weights"]["uplink2"]
                    if run["initial_u_weight"] != up:
                        problems.append("greedy baseline differs from uplink2")
                    problems += checks.check_bounds(up, sol["weight"], eps, None)
                verdict.row(where, problems)
            if first is None and not run["error"]:
                first = run
                weights[rec["id"]] = dict(run["weights"])
                if "iterations" in run:
                    weights[rec["id"]]["iterations"] = run["iterations"]
    return weights


def check_bench_runs(runs, instances, verdict: Verdict) -> dict:
    by_id = {rec["id"]: rec for rec in instances}
    trees: dict[str, checks.Tree] = {}
    weights = {}
    for unit_runs in runs:
        first = None
        for run in unit_runs:
            if run["error"]:
                verdict.row("bench", [run["error"]])
                continue
            if first is not None:
                for row in run["rows"]:
                    where = f"{row['instance']}/{row['algorithm']}"
                    same = (row["status"] == "ok"
                            and run["weights"] == first["weights"]
                            and run["exact"] == first["exact"])
                    verdict.row(where, [] if same else ["row differs on repeat"])
                continue
            first = run
            per_instance: dict[str, dict] = {}
            for row in run["rows"]:
                per_instance.setdefault(row["instance"], {})[row["algorithm"]] = row
            for stem, rows in per_instance.items():
                rec = by_id[stem]
                tree = trees.setdefault(stem, checks.Tree(rec["n"], rec["root"],
                                                          rec["edges"]))
                opt = run["exact"].get(stem)
                exact_sol = run["solutions"].get(f"{stem}/exact")
                if opt is not None:
                    problems = [] if exact_sol else ["exact solution not captured"]
                    if exact_sol:
                        problems += checks.check_solution(
                            tree, rec["links"], exact_sol["link_ids"],
                            exact_sol["weight"], exact_sol["deduped_weight"])
                        if exact_sol["weight"] != opt:
                            problems.append("row exact weight differs from oracle")
                    verdict.row(f"{stem}/exact", problems)
                up = rows.get("uplink2", {}).get("weight")
                for algo, row in sorted(rows.items()):
                    where = f"{stem}/{algo}"
                    if row["status"] != "ok":
                        verdict.row(where, [row["status"]])
                        continue
                    sol = run["solutions"].get(where)
                    if sol is None:
                        verdict.row(where, ["solution not captured"])
                        continue
                    problems = checks.check_solution(tree, rec["links"], sol["link_ids"],
                                                     sol["weight"], sol["deduped_weight"])
                    if sol["weight"] != row["weight"]:
                        problems.append("row weight differs from solution")
                    if opt is not None and opt > sol["deduped_weight"]:
                        problems.append(f"OPT {opt} above a feasible {sol['deduped_weight']}")
                    if algo == "uplink2":
                        problems += checks.check_bounds(row["weight"], None, None, opt)
                    elif up is not None:
                        eps = Fraction(algo.split("eps=")[1])
                        problems += checks.check_bounds(up, row["weight"], eps, opt)
                    verdict.row(where, problems)
            weights.update(run["weights"])
            weights.update({f"{stem}/exact": w for stem, w in run["exact"].items()})
    return weights


def compare_fingerprint(workload: str, seed: int, smoke: bool, fingerprint: dict,
                        verdict: Verdict) -> str:
    """Counts and weights must repeat exactly across runs of the same code."""
    tag = "smoke-" if smoke else ""
    path = OUT / "fingerprints" / f"{tag}{workload}-s{seed}-{code_digest()}.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    for key, value in fingerprint.items():
        if key in stored and stored[key] != value:
            verdict.mismatch(f"fingerprint {key} differs from an earlier run ({path.name})")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**stored, **fingerprint}, sort_keys=True))
    blob = json.dumps(fingerprint, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------- metrics
def e2e_metrics(spec, runs, setup_s, peak_rss_mb) -> tuple[dict, dict]:
    """Timings per pass and per instance, each unit at its fastest repeat.

    Only ``wall_ref`` is bounded.  The plain pass time and the per-instance
    median are printed: over ten seeds their spreads reached 0.247 and 0.506
    of the median, against at most 0.25 allowed.
    """
    if spec["kind"] == "bench":
        fastest: dict[str, float] = {}
        for unit in runs:
            for r in unit:
                for stem, ms in ({} if r["error"] else r["instance_ms"]).items():
                    fastest[stem] = min(ms, fastest.get(stem, ms))
        samples = list(fastest.values())
    else:
        samples = [min(r["seconds"] for r in unit) * 1000.0 for unit in runs]
    return {
        "setup_s": (setup_s, "s"),
        "wall_ref": (measure.pass_cost(runs), "ref"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }, {"wall_s (unbounded)": f"{measure.pass_time(runs):.6g} s",
        "instance_ms.p50 (unbounded)": f"{quantile(samples, 50):.6g} ms "
                                       f"over {len(samples)} instances"}


def weight_ratio(spec, weights) -> tuple[float, dict]:
    """Sum of delivered weight over sum of uplink2 weight, and vs OPT.

    On workloads that run only uplink2 the delivered answer is uplink2's,
    so the first ratio is exactly 1.
    """
    if spec["kind"] == "solve":
        up = sum(w["uplink2"] for w in weights.values())
        delivered = sum(w.get("relgreedy", w["uplink2"]) for w in weights.values())
        return delivered / up, {}
    opt_sums: dict[str, list[int]] = {}
    stems = {key.split("/")[0] for key in weights}
    up_sum = greedy_sum = 0
    for stem in sorted(stems):
        algos = {k.split("/", 1)[1]: v for k, v in weights.items()
                 if k.split("/")[0] == stem}
        greedy = [v for a, v in algos.items() if a.startswith("relgreedy")]
        if "uplink2" not in algos or not greedy:
            continue
        up_sum += algos["uplink2"]
        greedy_sum += greedy[0]
        opt = algos.get("exact")
        if opt is None:
            continue
        for algo, v in algos.items():
            if algo == "exact":
                continue
            name = {"relgreedy,eps=1": "relgreedy-k2",
                    "relgreedy,eps=1/2": "relgreedy-k4"}.get(algo, algo)
            acc = opt_sums.setdefault(name, [0, 0])
            acc[0] += v
            acc[1] += opt
    vs_opt = {f"weight_vs_opt.{k}": str(Fraction(a, b)) for k, (a, b) in opt_sums.items()}
    return greedy_sum / up_sum, vs_opt


def layer_metrics(traced, plain, out) -> dict:
    """Per-layer self times and exact counts of one traced pass."""
    def per_pass(key) -> float:
        return measure.pass_time(traced, lambda r: r["layers"].get(key, 0.0))

    def count(key) -> int:
        return sum(unit[0]["counts"].get(key, 0) for unit in traced)

    time_keys = sorted(set(measure.LAYER_OF_SPAN.values()))
    metrics = {key: (per_pass(key), "s") for key in time_keys}
    probes = out["probe_ms"] or [0.0]
    decides, searches = count("ratio.decides"), count("ratio.searches")
    metrics.update({
        "io.text_bytes": (count("io.text_bytes"), "B"),
        "model.table_slots": (count("model.table_slots"), "count"),
        "kernels.min_cover_subsets": (count("kernels.min_cover_subsets"), "count"),
        "baseline.paths": (count("baseline.paths"), "count"),
        "component_dp.builds": (count("component_dp.builds"), "count"),
        "component_dp.probes": (count("component_dp.probes"), "count"),
        "component_dp.probe_ms.p50": (quantile(probes, 50), "ms"),
        "component_dp.probe_ms.p90": (quantile(probes, 90), "ms"),
        "component_dp.states": (count("component_dp.states"), "count"),
        "ratio.searches": (searches, "count"),
        "ratio.probes_per_search": (decides / searches if searches else 0.0, "ratio"),
        "ratio.probe_hit_share": (count("ratio.hits") / decides if decides else 0.0,
                                  "ratio"),
        "greedy.iterations": (count("greedy.iterations"), "count"),
        "oracle.exact_calls": (count("oracle.exact_calls"), "count"),
        "bench.rows": (count("bench.rows"), "count"),
        "trace.overhead_s": (measure.pass_time(traced) - measure.pass_time(plain), "s"),
    })
    return metrics


def purpose_lines(name: str, m: dict, wall: float) -> list[str]:
    """Does the traced run show what the workload is for?"""
    v = {k: val for k, (val, _) in m.items()}
    times = {k: val for k, (val, unit) in m.items() if unit == "s" and k != "trace.overhead_s"}
    largest = max(times, key=times.get)
    if name == "relgreedy-mid":
        ok = v["component_dp.probe_s"] >= 0.95 * wall
        what = f"component_dp.probe_s is {v['component_dp.probe_s'] / wall:.1%} of the pass"
    elif name == "uplink2-deep":
        ok = largest == "kernels.fill_baseline_dp_s"
        what = f"largest layer is {largest}"
    elif name == "uplink2-wide":
        part = (v["io.loads_s"] + v["model.validate_s"]
                + v["kernels.fill_vertical_table_s"])
        ok = part > 0.5 * wall
        what = f"io + validate + vertical table fill are {part / wall:.1%} of the pass"
    else:  # the oracle with the Gray-code kernel it calls
        oracle = v["oracle.exact_s"] + v["kernels.min_cover_gray_s"]
        rest = max(t for k, t in times.items()
                   if k not in ("oracle.exact_s", "kernels.min_cover_gray_s"))
        ok = oracle > rest
        what = f"oracle + its Gray kernel take {oracle:.3g} s, the next layer {rest:.3g} s"
    bypassed = {
        "relgreedy-mid": ("oracle.exact_calls", "bench.rows"),
        "uplink2-wide": ("component_dp.builds", "oracle.exact_calls", "bench.rows"),
        "uplink2-deep": ("component_dp.builds", "oracle.exact_calls", "bench.rows"),
        "bench-small": (),
    }[name]
    zero = all(v[k] == 0 for k in bypassed)
    return [f"purpose: {'met' if ok else 'NOT MET'}: {what}",
            f"bypassed layers read zero calls: {'yes' if zero else 'NO'} "
            f"({', '.join(bypassed) or 'none'})"]


# ---------------------------------------------------------------- driver
def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool):
    spec = inputs.workload_spec(name, smoke)
    setups = []
    while len(setups) < SETUP_MIN_REPEATS or (
            len(setups) < SETUP_MAX_REPEATS
            and sum(s["setup_s"] for s in setups) < SETUP_BUDGET_S):
        setups.append(in_child(inputs.setup_job, str(ROOT), name, seed, smoke))
    if len({s["digest"] for s in setups}) != 1:
        raise RuntimeError("set-up is not deterministic for this seed")
    setup_s = statistics.median(s["setup_s"] for s in setups)
    instances = setups[-1]["instances"]
    work = OUT / f"work-{os.getpid()}"
    try:
        if spec["kind"] == "bench":
            work.mkdir(parents=True, exist_ok=True)
            paths = {}
            for rec in instances:
                path = work / f"{rec['id']}.json"
                path.write_text(rec["text"])
                paths[rec["id"]] = str(path)
            units = [{"kind": "bench", "id": iid, "config": config}
                     for iid, config in zip(paths, inputs.bench_configs(spec, paths))]
        else:
            units = [{"kind": "solve", "id": rec["id"], "text": rec["text"],
                      "algorithms": spec["algorithms"], "eps": spec.get("eps", "1")}
                     for rec in instances]
        spans_path = OUT / f"spans-{'smoke-' if smoke else ''}{name}-s{seed}.jsonl"
        out = in_child(measure.measure_job, str(ROOT), units, seconds, trace,
                       str(spans_path) if trace else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    verdict = Verdict()
    check = (check_bench_runs if spec["kind"] == "bench"
             else lambda r, i, v: check_solve_runs(r, i, spec, v))
    weights = check(out["plain"], instances, verdict)
    fingerprint = {"weights": weights}
    info = {"workload": name, "seed": seed, "setup repeats": len(setups),
            "passes per unit": [len(u) for u in out["plain"]][:8]}
    if trace:
        traced_weights = check(out["traced"], instances, verdict)
        if traced_weights != weights:
            verdict.mismatch("traced and untraced runs returned different weights")
        wall = measure.pass_time(out["traced"])
        metrics = layer_metrics(out["traced"], out["plain"], out)
        counts = {k: metrics[k][0] for k in FINGERPRINT_COUNTS}
        for unit in out["traced"]:
            if any(r["counts"] != unit[0]["counts"] for r in unit if not r["error"]):
                verdict.mismatch("counts differ between repeats of one unit")
        fingerprint["counts"] = counts
        info["spans"] = f"{out['span_count']} written to {spans_path.relative_to(ROOT)}"
        info["probe samples"] = len(out["probe_ms"])
        if out["states_missing"]:
            info["component_dp.states"] = "missing (no per-probe memo)"
        lines = purpose_lines(name, metrics, wall)
    else:
        metrics, extra = e2e_metrics(spec, out["plain"], setup_s, out["peak_rss_mb"])
        ratio, vs_opt = weight_ratio(spec, weights)
        metrics["weight_vs_uplink2"] = (ratio, "ratio")
        info.update(extra)
        info.update(vs_opt)
        lines = []
    info["fingerprint"] = compare_fingerprint(name, seed, smoke, fingerprint, verdict)
    return metrics, info, lines, verdict


def emit(metrics, info, lines, verdict: Verdict) -> dict:
    for key, value in info.items():
        print(f"# {key}: {value}")
    for line in lines:
        print(f"# {line}")
    for problem in verdict.problems[:20]:
        print(f"# problem: {problem}")
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    result = {
        "correct": verdict.failed == 0 and verdict.consistent,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return result


def smoke() -> int:
    """Toy sizes: every workload, both modes, every declared metric present."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
            1: {m["name"]: m["unit"] for m in declared["per_layer"]}}
    bad = []
    for workload in declared["workloads"]:
        for trace in (0, 1):
            metrics, info, lines, verdict = run_workload(
                workload["name"], 1, 0.5, bool(trace), smoke=True)
            result = emit(metrics, info, lines, verdict)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace] or not result["correct"]:
                bad.append(f"{workload['name']} trace={trace}: got {sorted(got.items())}, "
                           f"correct={result['correct']}")
    for line in bad:
        print(f"SMOKE FAILED: {line}", file=sys.stderr)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes, all workloads, checks the metric names")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    metrics, info, lines, verdict = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), smoke=False)
    emit(metrics, info, lines, verdict)
    return 0


if __name__ == "__main__":
    sys.exit(main())
