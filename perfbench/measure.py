"""The measured phase: solve instance text, with or without tracing.

Runs in its own process, so that the peak resident memory it reports is the
workload's and not the set-up's.  Work is a list of units (one instance for
the solve workloads, one single-instance bench call for bench-small), swept
round-robin until the time is up and every unit ran at least once.  Only
the unit call is timed; the results are checked afterwards by the parent.

Tracing wraps the public functions of each layer at module attributes: it
keeps spans in memory (name, request id, parent, start, end), derives each
layer's self time (span minus child spans) and exact counts at the same
boundaries, and writes the spans out when the run ends.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

from inputs import import_wtap

# Span name -> per-layer time metric its self time counts towards.
LAYER_OF_SPAN = {
    "io.loads": "io.loads_s",
    "io.load": "io.loads_s",
    "model.index": "model.index_s",
    "model.validate": "model.validate_s",
    "model.table": "model.table_s",
    "kernels.fill_vertical_table": "kernels.fill_vertical_table_s",
    "kernels.fill_baseline_dp": "kernels.fill_baseline_dp_s",
    "kernels.min_cover_gray": "kernels.min_cover_gray_s",
    "baseline.cover": "baseline.cover_s",
    "component_dp.build": "component_dp.build_s",
    "component_dp.probe": "component_dp.probe_s",
    "ratio.search": "ratio.search_s",
    "ratio.decide": "ratio.search_s",
    "greedy.solve": "greedy.solve_s",
    "greedy.two_approx_only": "greedy.solve_s",
    "oracle.exact": "oracle.exact_s",
    "bench.bench": "bench.self_s",
}


class Tracer:
    """In-memory spans; one request id per instance."""

    def __init__(self):
        self.spans: list[list] = []  # [name, rid, parent, start, end, child_s]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.rids: dict[int, str] = {}
        self.states_missing = False

    def wrap(self, name, fn, after=None):
        spans, stack, rids = self.spans, self.stack, self.rids

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rid = rids.get(id(args[0])) if args else None
            if rid is None:
                rid = spans[parent][1] if parent >= 0 else None
            span = [name, rid, parent, 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += span[4] - span[3]
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    def root(self, rid: str, fn):
        """Run one unit under a root span carrying its request id."""
        span = ["unit", rid, -1, 0.0, 0.0, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[3] = time.perf_counter()
        try:
            return fn()
        finally:
            span[4] = time.perf_counter()
            self.stack.pop()

    def probe_ms(self) -> list[float]:
        return [(end - start) * 1000.0 for name, _, _, start, end, _ in self.spans
                if name == "component_dp.probe"]

    def layer_totals(self, first_span: int) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for name, _, _, start, end, child in self.spans[first_span:]:
            layer = LAYER_OF_SPAN.get(name)
            if layer is not None:
                totals[layer] += end - start - child
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, (name, rid, parent, start, end, child) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name,
                                     "rid": rid, "start": start, "end": end,
                                     "self_s": end - start - child}) + "\n")


class Hooks:
    """Patches layer entry points; restores them on ``remove``.

    Without a tracer only the bench capture hooks are installed, and they
    take no timings: they keep each solution for the output check.
    """

    def __init__(self, wtap, tracer: Tracer | None):
        self.wtap = wtap
        self.tracer = tracer
        self.saved: list[tuple[object, str, object]] = []
        self.captured: dict[tuple[str, str], object] = {}  # (stem, algorithm)
        self.stem_of: dict[int, str] = {}

    def patch(self, owner, attr, name, after=None, capture=False):
        if self.tracer is None and not capture:
            return
        fn = getattr(owner, attr)
        self.saved.append((owner, attr, fn))
        if self.tracer is not None:
            wrapped = self.tracer.wrap(name, fn, after)
        else:
            def wrapped(*args, **kwargs):
                result = fn(*args, **kwargs)
                after(args, kwargs, result)
                return result
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        w, t = self.wtap, self.tracer
        from wtap.component_dp import ComponentSearch
        from wtap.model import RootedTreeIndex

        def count(key, value=lambda a, k, r: 1):
            def after(args, kwargs, result):
                t.counts[key] += value(args, kwargs, result)
            return after

        def loaded(args, kwargs, inst):
            stem = Path(args[0]).stem
            self.stem_of[id(inst)] = stem
            if t is not None:
                t.rids[id(inst)] = stem

        def keep(algo):
            def after(args, kwargs, result):
                key = algo if algo != "relgreedy" else f"relgreedy,eps={args[1]}"
                self.captured[(self.stem_of[id(args[0])], key)] = result
                if algo == "relgreedy" and t is not None:
                    t.counts["greedy.iterations"] += len(result[1].iterations)
                if algo == "exact" and t is not None:
                    t.counts["oracle.exact_calls"] += 1
            return after

        def probed(args, kwargs, result):
            cs = args[0]
            t.counts["component_dp.probes"] += 1
            memo = getattr(cs, "_memo", None)
            if memo is None:
                t.states_missing = True
            else:
                t.counts["component_dp.states"] += len(memo)

        def decided(args, kwargs, result):
            t.counts["ratio.decides"] += 1
            t.counts["ratio.hits"] += bool(result[0])

        self.patch(w.io, "loads", "io.loads",
                   count("io.text_bytes", lambda a, k, r: len(a[0].encode())))
        self.patch(w.bench, "load", "io.load", loaded, capture=True)
        self.patch(RootedTreeIndex, "__init__", "model.index")
        self.patch(w.model, "validate", "model.validate")
        self.patch(w.bench, "validate", "model.validate")
        self.patch(w.baseline, "vertical_cost_table", "model.table",
                   count("model.table_slots", lambda a, k, r: int(r.anc_off[-1])))
        self.patch(w._kernels, "fill_vertical_table", "kernels.fill_vertical_table")
        self.patch(w._kernels, "fill_baseline_dp", "kernels.fill_baseline_dp")
        self.patch(w._kernels, "min_cover_gray", "kernels.min_cover_gray",
                   count("kernels.min_cover_subsets",
                         lambda a, k, r: (1 << len(a[0])) - 1))
        self.patch(w.greedy, "cheapest_disjoint_uplink_cover", "baseline.cover",
                   count("baseline.paths", lambda a, k, r: len(r.paths)))
        self.patch(ComponentSearch, "__init__", "component_dp.build",
                   count("component_dp.builds"))
        self.patch(ComponentSearch, "max_slack", "component_dp.probe", probed)
        self.patch(w.greedy, "best_ratio_component", "ratio.search",
                   count("ratio.searches"))
        self.patch(w.ratio, "decide", "ratio.decide", decided)
        self.patch(w.greedy, "solve", "greedy.solve",
                   count("greedy.iterations", lambda a, k, r: len(r[1].iterations)))
        self.patch(w.greedy, "two_approx_only", "greedy.two_approx_only")
        self.patch(w.bench, "solve", "greedy.solve", keep("relgreedy"), capture=True)
        self.patch(w.bench, "two_approx_only", "greedy.two_approx_only",
                   keep("uplink2"), capture=True)
        self.patch(w.bench, "exact_opt", "oracle.exact", keep("exact"), capture=True)
        self.patch(w.bench, "bench", "bench.bench",
                   count("bench.rows", lambda a, k, r: len(r["rows"])))

    def remove(self) -> None:
        for owner, attr, fn in reversed(self.saved):
            setattr(owner, attr, fn)
        self.saved.clear()


def _solution(sol) -> dict:
    return {"link_ids": list(sol.link_ids), "weight": sol.weight,
            "deduped_weight": sol.deduped_weight}


def _solve_unit(wtap, unit: dict) -> dict:
    """Instance text to solutions, the in-process path of ``wtap solve``."""
    inst = wtap.io.loads(unit["text"])
    issues = wtap.model.validate(inst)
    if issues:
        raise ValueError("invalid instance: " + "; ".join(map(str, issues)))
    out = {"uplink2": wtap.greedy.two_approx_only(inst)}
    if "relgreedy" in unit["algorithms"]:
        out["relgreedy"] = wtap.greedy.solve(inst, Fraction(unit["eps"]))
    return out


def _solve_outcome(result: dict) -> dict:
    out = {"weights": {"uplink2": result["uplink2"].weight},
           "solutions": {"uplink2": _solution(result["uplink2"])}}
    if "relgreedy" in result:
        sol, trace = result["relgreedy"]
        out["weights"]["relgreedy"] = sol.weight
        out["solutions"]["relgreedy"] = _solution(sol)
        out["iterations"] = len(trace.iterations)
        out["initial_u_weight"] = trace.initial_u_weight
    return out


def _bench_outcome(report: dict, captured: dict) -> dict:
    rows, weights, exact, row_ms = [], {}, {}, defaultdict(float)
    for row in report["rows"]:
        stem = Path(row["instance"][len("file-"):]).stem
        rows.append({"instance": stem, "algorithm": row["algorithm"],
                     "status": row["status"], "weight": row.get("weight"),
                     "exact_weight": row.get("exact_weight")})
        if row["status"] == "ok":
            weights[f"{stem}/{row['algorithm']}"] = row["weight"]
            row_ms[stem] += row["wall_time_ms"]
            if "exact_weight" in row:
                exact[stem] = row["exact_weight"]
    solutions = {f"{stem}/{algo}": _solution(r[0] if algo.startswith("relgreedy") else r)
                 for (stem, algo), r in captured.items()}
    return {"weights": weights, "exact": exact, "rows": rows,
            "solutions": solutions, "instance_ms": dict(row_ms)}


def reference_loop() -> int:
    """A fixed pure-Python job of dict, list and integer work, like the solver's.

    It never touches wtap, so a change to the library cannot change its time;
    only the host's speed can.
    """
    table: dict[int, int] = {}
    acc = 0
    for i in range(2000):
        key = i * 7919 % 1009
        table[key] = table.get(key, 0) + i
        acc += table[key] & 255
    return acc


def reference_seconds(repeats: int = 2) -> float:
    t0 = time.perf_counter()
    for _ in range(repeats):
        reference_loop()
    return (time.perf_counter() - t0) / repeats


def _execute(wtap, unit: dict, tracer: Tracer | None, hooks: Hooks | None) -> dict:
    """One timed run of a unit, with its outcome, layer times and counts."""
    first_span = len(tracer.spans) if tracer else 0
    counts_before = dict(tracer.counts) if tracer else {}
    call = (lambda: wtap.bench.bench(unit["config"], timings=True)) \
        if unit["kind"] == "bench" else (lambda: _solve_unit(wtap, unit))
    t0 = time.perf_counter()
    try:
        result = tracer.root(unit["id"], call) if tracer else call()
        error = None
    except Exception as exc:  # recorded as a failed row; the sweep goes on
        result, error = None, f"{type(exc).__name__}: {exc}"
    run = {"seconds": time.perf_counter() - t0, "error": error}
    if result is not None:
        run.update(_bench_outcome(result, hooks.captured) if unit["kind"] == "bench"
                   else _solve_outcome(result))
    if tracer is not None:
        run["layers"] = dict(tracer.layer_totals(first_span))
        run["counts"] = {k: v - counts_before.get(k, 0) for k, v in tracer.counts.items()}
    return run


def _sweep(wtap, units, seconds: float, bench_kind: bool,
           tracer: Tracer | None) -> list[list[list[dict]]]:
    """Round-robin over units until each ran once and ``seconds`` are used.

    After the first sweep a unit starts only if its fastest run so far
    still fits in the time left, so a run ends within ``seconds``.  With a
    tracer each visit runs the unit untraced and then traced, back to back,
    so that both see the same host conditions.  The reference loop runs
    before and after each run, to measure the host's speed at that moment.
    Returns runs per mode, then per unit.
    """
    modes = [None] if tracer is None else [None, tracer]
    runs = [[[] for _ in units] for _ in modes]
    start = time.perf_counter()
    i = 0
    while True:
        u = i % len(units)
        if i >= len(units):
            fastest = sum(min(r["seconds"] for r in mode_runs[u]) for mode_runs in runs)
            if time.perf_counter() - start + fastest > seconds:
                break
        for mode, mode_runs in zip(modes, runs):
            hooks = Hooks(wtap, mode) if mode is not None or bench_kind else None
            if hooks:
                hooks.install()
            try:
                before = reference_seconds()
                run = _execute(wtap, units[u], mode, hooks)
                run["ref"] = (before + reference_seconds()) / 2
                mode_runs[u].append(run)
            finally:
                if hooks:
                    hooks.remove()
        i += 1
    return runs


def measure_job(root: str, units: list[dict], seconds: float, trace: bool,
                spans_path: str | None) -> dict:
    """The measured phase of one run; returns raw samples for the parent."""
    wtap = import_wtap(Path(root))
    import wtap.bench  # not imported by the package itself
    bench_kind = any(u["kind"] == "bench" for u in units)
    tracer = Tracer() if trace else None
    runs = _sweep(wtap, units, seconds, bench_kind, tracer)
    out = {"plain": runs[0]}
    if tracer is None:
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return out
    out["traced"] = runs[1]
    out["probe_ms"] = tracer.probe_ms()
    out["states_missing"] = tracer.states_missing
    out["span_count"] = len(tracer.spans)
    if spans_path:
        tracer.write(Path(spans_path))
    return out


def pass_time(runs: list[list[dict]], key=lambda r: r["seconds"]) -> float:
    """The time of one pass: the sum over units of each unit's fastest run.

    Host interference only ever adds time; repeats of a unit are a whole
    sweep apart, so the fastest one is the least disturbed.
    """
    return sum(min(key(r) for r in unit_runs) for unit_runs in runs)


def pass_cost(runs: list[list[dict]]) -> float:
    """One pass in reference-loop units: the sum over units of the median
    of each run's time divided by the reference loop's time around it.

    The host's speed drifts by tens of percent over tens of seconds, and
    the reference loop drifts with it, so the quotient stays steady.
    """
    return sum(statistics.median(r["seconds"] / r["ref"] for r in unit_runs)
               for unit_runs in runs)
