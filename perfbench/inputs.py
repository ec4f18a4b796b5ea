"""Workload definitions and seeded input generation.

Each workload turns ``--seed`` into instance text.  Generation runs in the
set-up phase, in a fresh interpreter, and is timed together with
``import wtap`` (the ``setup_s`` metric).  Besides the text, set-up returns
the plain tree and link tuples so that the output checks never depend on
the library's own parsing.
"""

from __future__ import annotations

import hashlib
import random
import sys
import time
from pathlib import Path

# Why each workload exists and which layers it stresses is in README.md.
WORKLOADS = {
    # Many small relative-greedy solves: the component DP does >= 95% of
    # the work, and per-instance seed variation averages out.
    "relgreedy-mid": {"kind": "solve", "algorithms": ("uplink2", "relgreedy"),
                      "eps": "1", "count": 32, "n": 24, "weight_max": 20},
    # One big shallow random tree: parsing, validation and the vertical
    # table fill dominate; the component DP never runs.
    "uplink2-wide": {"kind": "solve", "algorithms": ("uplink2",),
                     "count": 1, "n": 20_000, "links": 30_000, "weight_max": 20},
    # A caterpillar whose sum of depths is quadratic in n: the baseline DP
    # sweep over the Theta(sum depth) table dominates.
    "uplink2-deep": {"kind": "solve", "algorithms": ("uplink2",),
                     "count": 1, "spine": 1500, "legs": 1500, "reach": 29,
                     "weight_max": 20},
    # The bench harness with the exact oracle, plus a k=4 tail: the only
    # workload that runs the oracle, the Gray-code kernel and many tiny
    # ratio searches.
    "bench-small": {"kind": "bench", "oracle_count": 16, "oracle_n": (8, 12),
                    "oracle_links": 16, "tail_count": 16, "tail_n": (6, 10),
                    "weight_max": 20, "max_links": 18,
                    "fig2": ((4, 10), (6, 10)), "fig3": (3, 4)},
}

# Toy sizes for --smoke: every code path of the full workloads, in seconds.
SMOKE = {
    "relgreedy-mid": {"count": 2, "n": 10},
    "uplink2-wide": {"n": 300, "links": 450},
    "uplink2-deep": {"spine": 40, "legs": 40, "reach": 5},
    "bench-small": {"oracle_count": 2, "oracle_links": 10, "tail_count": 2,
                    "fig2": ((4, 10),), "fig3": (3,)},
}


def workload_spec(name: str, smoke: bool) -> dict:
    spec = dict(WORKLOADS[name])
    if smoke:
        spec.update(SMOKE[name])
    return spec


def _sub_seed(seed: int, stream: int, index: int) -> int:
    """Distinct generator seeds per workload stream and instance."""
    return seed * 1_000_000 + stream * 100_000 + index


def caterpillar_text(spine: int, legs: int, reach: int, weight_max: int,
                     seed: int) -> tuple[str, int, list, list]:
    """A spine path from the root with legs on uniform spine vertices.

    Every edge gets a parent-child link of weight ``weight_max``; then one
    link per vertex count joins a uniform non-root vertex to an ancestor
    1..``reach`` levels up, with a uniform weight in 1..``weight_max``.
    Returns line-oriented instance text plus the raw tuples.
    """
    rng = random.Random(seed)
    n = spine + legs
    parent = [-1] + list(range(spine - 1))
    depth = list(range(spine))
    edges = [(v - 1, v) for v in range(1, spine)]
    for j in range(legs):
        p = rng.randrange(spine)
        parent.append(p)
        depth.append(depth[p] + 1)
        edges.append((p, spine + j))
    links = [(p, c, weight_max) for p, c in edges]
    for _ in range(n):
        v = rng.randrange(1, n)
        a = v
        for _ in range(rng.randint(1, min(reach, depth[v]))):
            a = parent[a]
        links.append((a, v, rng.randint(1, weight_max)))
    lines = [f"{n} 0"]
    lines += [f"{u} {v}" for u, v in edges]
    lines.append(str(len(links)))
    lines += [f"{u} {v} {w}" for u, v, w in links]
    return "\n".join(lines) + "\n", n, edges, links


def _instance_record(iid: str, wtap, inst) -> dict:
    return {"id": iid, "text": wtap.dumps(inst), "n": inst.n, "root": inst.root,
            "edges": list(inst.edges),
            "links": [(lk.u, lk.v, lk.weight) for lk in inst.links]}


def _generate(name: str, spec: dict, seed: int, wtap) -> list[dict]:
    wmax = spec["weight_max"]
    if name == "uplink2-deep":
        text, n, edges, links = caterpillar_text(
            spec["spine"], spec["legs"], spec["reach"], wmax, _sub_seed(seed, 0, 0))
        return [{"id": "i000", "text": text, "n": n, "root": 0,
                 "edges": edges, "links": links}]
    if spec["kind"] == "solve":
        n = spec["n"]
        links = spec.get("links", n)
        return [_instance_record(f"i{i:03d}", wtap,
                                 wtap.gen_random(n, links, wmax, _sub_seed(seed, 0, i)))
                for i in range(spec["count"])]
    out = []
    lo, hi = spec["oracle_n"]
    for i in range(spec["oracle_count"]):
        n = lo + i % (hi - lo + 1)
        inst = wtap.gen_random(n, spec["oracle_links"], wmax, _sub_seed(seed, 1, i))
        out.append(_instance_record(f"a{i:03d}", wtap, inst))
    lo, hi = spec["tail_n"]
    for i in range(spec["tail_count"]):
        n = lo + i % (hi - lo + 1)
        inst = wtap.gen_random(n, n, wmax, _sub_seed(seed, 2, i))
        out.append(_instance_record(f"b{i:03d}", wtap, inst))
    for d, m in spec["fig2"]:
        out.append(_instance_record(f"fig2-d{d}-M{m}", wtap, wtap.gen_fig2(d, m)))
    for m in spec["fig3"]:
        out.append(_instance_record(f"fig3-m{m}", wtap, wtap.gen_fig3(m)))
    return out


def import_wtap(root: Path):
    """Import wtap from the checkout's ``src``; refuse any other copy."""
    src = (root / "src").resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import wtap
    where = Path(wtap.__file__).resolve()
    if src not in where.parents:
        raise ImportError(f"wtap imported from {where}, not from {src}")
    return wtap


def setup_job(root: str, name: str, seed: int, smoke: bool) -> dict:
    """One timed set-up: import wtap, generate and serialize the inputs.

    Runs in a fresh interpreter so that the import is really paid.
    """
    spec = workload_spec(name, smoke)
    t0 = time.perf_counter()
    wtap = import_wtap(Path(root))
    instances = _generate(name, spec, seed, wtap)
    elapsed = time.perf_counter() - t0
    digest = hashlib.sha256()
    for rec in instances:
        digest.update(rec["id"].encode() + b"\0" + rec["text"].encode() + b"\0")
    return {"setup_s": elapsed, "digest": digest.hexdigest(), "instances": instances}


def bench_configs(spec: dict, paths: dict[str, str]) -> list[dict]:
    """One bench config per instance file, so that each is its own unit.

    Oracle-sized instances (ids ``a*``) run with eps=1, the k=4 tail with
    eps=1/2.  Small units let each one's fastest repeat dodge host noise.
    """
    oracle = {"max_links": spec["max_links"]}
    return [{"instances": [{"kind": "file", "path": path}], "oracle": oracle,
             "algorithms": [{"name": "uplink2"},
                            {"name": "relgreedy", "eps": "1" if iid.startswith("a") else "1/2"}]}
            for iid, path in paths.items()]
