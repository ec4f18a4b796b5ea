"""Benchmark runner emitting machine-readable reports.

A config lists instance sources and algorithms; every (instance, algorithm)
pair becomes one report row.  Exact optima are attached when the instance
fits the oracle budget.  Reports are deterministic byte-for-byte for a fixed
config: rows are sorted, fractions are serialized exactly, and wall-clock
timings are only included when explicitly requested.
"""

from __future__ import annotations

import csv
import io as _io
import json
import time
from fractions import Fraction
from typing import Any

from . import __version__ as _version
from .generators import gen_fig2, gen_fig3, gen_random
from .greedy import solve, two_approx_only
from .io import load
from .model import Instance, validate
from .oracle import BudgetExceededError, OracleBudget, exact_opt

SCHEMA_VERSION = 2

CSV_COLUMNS = ["instance", "algorithm", "n", "links", "weight",
               "exact_weight", "ratio", "iterations", "status", "wall_time_ms"]


class ConfigError(ValueError):
    """The config itself is malformed: no row can be run from it."""


def _int(entry: dict, key: str, default: int | None = None) -> int:
    """``entry[key]`` (or ``default`` when absent), which must be an int and
    not a bool: ``type(x) is int`` refuses both, as ``io.loads_json`` does."""
    value = entry[key] if default is None else entry.get(key, default)
    if type(value) is not int:
        raise ValueError(f"{key!r} {value!r} is not an integer")
    return value


def _materialize_instances(config: dict) -> list[tuple[str, dict, Instance]]:
    out = []
    for entry in config.get("instances", []):
        kind = entry["kind"]
        if kind == "random":
            n = _int(entry, "n")
            inst = gen_random(n, _int(entry, "links", n),
                              _int(entry, "weight_max", 10), _int(entry, "seed"))
            name = f"random-n{n}-s{entry['seed']}"
            out.append((name, entry, inst))
        elif kind == "random_batch":
            count = _int(entry, "count")
            if count < 0:
                raise ValueError(f"random_batch count {count} is negative")
            n_min = _int(entry, "n_min", 2)
            n_max = _int(entry, "n_max")
            seed0 = _int(entry, "seed", 0)
            wmax = _int(entry, "weight_max", 10)
            span = n_max - n_min + 1
            if span < 1:
                raise ValueError(f"n_min {n_min} is above n_max {n_max}")
            for i in range(count):
                n = n_min + (i % span)
                links = _int(entry, "links", n)
                seed = seed0 * 1_000_000 + i
                inst = gen_random(n, links, wmax, seed)
                params = {"kind": "random", "n": n, "links": links,
                          "weight_max": wmax, "seed": seed}
                out.append((f"random-n{n}-s{seed}", params, inst))
        elif kind == "fig2":
            d, m = _int(entry, "d"), _int(entry, "M")
            out.append((f"fig2-d{d}-M{m}", entry, gen_fig2(d, m)))
        elif kind == "fig3":
            m = _int(entry, "m")
            out.append((f"fig3-m{m}", entry, gen_fig3(m)))
        elif kind == "file":
            path = entry["path"]
            out.append((f"file-{path}", entry, load(path)))
        else:
            raise ValueError(f"unknown instance kind {kind!r}")
    return out


def _run_algorithm(inst: Instance, algo: dict) -> tuple[int, int]:
    """Returns (weight, iterations)."""
    unknown = sorted(set(algo) - {"name", "eps"})
    if unknown:
        raise ValueError(f"unknown algorithm keys {unknown}")
    name = algo["name"]
    if name == "uplink2":
        return two_approx_only(inst).weight, 0
    if name == "relgreedy":
        sol, trace = solve(inst, Fraction(str(algo.get("eps", "1"))))
        return sol.weight, len(trace.iterations)
    raise ValueError(f"unknown algorithm {name!r}")


def _algo_id(algo: dict) -> str:
    name = algo["name"]
    if name == "relgreedy":
        return f"{name},eps={algo.get('eps', '1')}"
    return name


def bench(config: dict, timings: bool = False) -> dict:
    """Run every (instance, algorithm) pair; per-row errors never abort.

    A malformed config raises ``ConfigError`` before any row runs.
    """
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    algos = config.get("algorithms", [])
    if not (isinstance(algos, list)
            and all(isinstance(a, dict) and "name" in a for a in algos)):
        raise ConfigError('"algorithms" must be a list of objects with a "name"')
    oracle_cfg = config.get("oracle", {})
    if not isinstance(oracle_cfg, dict):
        raise ConfigError('"oracle" must be an object')
    try:
        max_links = _int(oracle_cfg, "max_links", 18)
        if max_links < 0:
            raise ValueError(f"oracle max_links {max_links} is negative")
        budget = OracleBudget(max_links=max_links)
        instances = _materialize_instances(config)
    except KeyError as exc:
        raise ConfigError(f"missing key {exc}") from exc
    except (TypeError, ValueError, OSError, RecursionError) as exc:
        raise ConfigError(str(exc)) from exc
    rows: list[dict[str, Any]] = []
    for name, params, inst in instances:
        issues = validate(inst)
        exact_weight = None
        if not issues and len(inst.links) <= budget.max_links:
            try:
                exact_weight = exact_opt(inst, budget).weight
            except BudgetExceededError:
                exact_weight = None
        for algo in algos:
            row: dict[str, Any] = {
                "instance": name,
                "algorithm": _algo_id(algo),
                "n": inst.n,
                "links": len(inst.links),
            }
            if issues:
                row["status"] = "invalid: " + "; ".join(str(i) for i in issues)
                rows.append(row)
                continue
            t0 = time.perf_counter()
            try:
                weight, iters = _run_algorithm(inst, algo)
            except Exception as exc:  # recorded, run continues
                row["status"] = f"error: {exc}"
                rows.append(row)
                continue
            elapsed_ms = (time.perf_counter() - t0) * 1000.0
            row["status"] = "ok"
            row["weight"] = weight
            row["iterations"] = iters
            if exact_weight is not None:
                row["exact_weight"] = exact_weight
                if exact_weight:  # else a tree with no edge, and weight 0
                    row["ratio"] = str(Fraction(weight, exact_weight))
            if timings:
                row["wall_time_ms"] = round(elapsed_ms, 3)
            rows.append(row)
    rows.sort(key=lambda r: (r["instance"], r["algorithm"]))
    return {
        "schema_version": SCHEMA_VERSION,
        "metadata": {
            "version": _version,
            "config": config,
        },
        "rows": rows,
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, separators=(",", ":"), sort_keys=True)


def report_to_csv(report: dict) -> str:
    buf = _io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, extrasaction="ignore",
                            lineterminator="\n")
    writer.writeheader()
    for row in report["rows"]:
        writer.writerow(row)
    return buf.getvalue()
