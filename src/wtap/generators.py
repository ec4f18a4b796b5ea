"""Seeded instance generators.

Random generation uses numpy's PCG64 with fixed per-purpose child streams
(tree=0, links=1, weights=2), so reruns with the same seed are byte-identical
and adding a later stage never perturbs earlier draws.  numpy is imported
on the first draw, not with the package: generating instances is the only
part of ``wtap`` that needs it.

``gen_fig2`` and ``gen_fig3`` build the two structured families used by the
test harness: a pendant-path family on which no small component improves the
disjoint up-link cover, and a hub family whose covering witnesses chain into
a single dependency path.
"""

from __future__ import annotations

from .baseline import UpPath, uplink_from_link
from .model import Instance, Link, uncovered_edges


def _stream(seed: int, purpose: int):
    """numpy's PCG64 child stream ``purpose`` of ``seed``.

    numpy is imported here, on first use, so that solving never loads it.
    """
    from numpy.random import PCG64, Generator, SeedSequence

    return Generator(PCG64(SeedSequence(seed, spawn_key=(purpose,))))


def gen_random(n: int, link_count: int, weight_max: int, seed: int) -> Instance:
    """Uniform random rooted tree with random links, patched to feasibility.

    Tree: vertex i>0 attaches to a uniform parent among 0..i-1; root is 0.
    Links: distinct random pairs with uniform weights in [1, weight_max].
    Any edge left uncovered gets a parent-child link of weight weight_max.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if link_count < 0:
        raise ValueError("link_count must be nonnegative")
    if weight_max < 1:
        raise ValueError("weight_max must be at least 1")
    rng_tree = _stream(seed, 0)
    edges = [(int(rng_tree.integers(0, i)), i) for i in range(1, n)]

    rng_links = _stream(seed, 1)
    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    attempts = 0
    max_attempts = 20 * link_count + 100
    while len(pairs) < link_count and attempts < max_attempts:
        attempts += 1
        u = int(rng_links.integers(0, n))
        v = int(rng_links.integers(0, n))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in seen:
            continue
        seen.add(key)
        pairs.append(key)

    rng_w = _stream(seed, 2)
    weights = [int(rng_w.integers(1, weight_max + 1)) for _ in pairs]
    links = [Link(id=i, u=u, v=v, weight=w)
             for i, ((u, v), w) in enumerate(zip(pairs, weights))]

    inst = Instance(n=n, root=0, edges=edges, links=links)
    for child in uncovered_edges(inst, pairs):
        parent = inst.index.parent[child]
        links.append(Link(id=len(links), u=parent, v=child, weight=weight_max))
    if len(links) != len(inst.links):
        inst = Instance(n=n, root=0, edges=edges, links=links)
    return inst


def gen_fig2(d: int, M: int) -> Instance:
    """Pendant-path family: a top path around the root, two leaves per node.

    The root sits between ceil(d/2) and floor(d/2) top nodes.  Each non-root
    top node X carries leaves Xa, Xb.  Links: one long top link (weight d*M),
    per node a two-edge vertical link {parent(X), Xa} (weight 2M+1), a pendant
    link {X, Xb} (weight 1), and a leaf-to-leaf link {Xa, Xb} (weight 1).
    The union of the long link and the leaf links is the unique optimum
    d*M + d; the vertical and pendant links form a disjoint up-link cover of
    weight exactly twice that.  Even d is recommended: for odd d that cover
    is no longer a cheapest one.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    if M < 1:
        raise ValueError("M must be at least 1")
    p = (d + 1) // 2
    n = 3 * d + 1
    root = 0

    def top_id(j: int) -> int:
        # j = 1..d; left side outward is 1..p, right side is p+1..d
        return 3 * (j - 1) + 1

    def leaf_a(j: int) -> int:
        return top_id(j) + 1

    def leaf_b(j: int) -> int:
        return top_id(j) + 2

    def top_parent(j: int) -> int:
        if j in (1, p + 1):
            return root
        return top_id(j - 1)

    edges = []
    for j in range(1, d + 1):
        t = top_id(j)
        edges.append((top_parent(j), t))
        edges.append((t, leaf_a(j)))
        edges.append((t, leaf_b(j)))

    links = [Link(id=0, u=top_id(p), v=top_id(d), weight=d * M)]
    for j in range(1, d + 1):
        links.append(Link(id=j, u=top_parent(j), v=leaf_a(j), weight=2 * M + 1))
    for j in range(1, d + 1):
        links.append(Link(id=d + j, u=top_id(j), v=leaf_b(j), weight=1))
    for j in range(1, d + 1):
        links.append(Link(id=2 * d + j, u=leaf_a(j), v=leaf_b(j), weight=1))
    return Instance(n=n, root=root, edges=edges, links=links)


def fig2_link_groups(instance: Instance) -> dict[str, list[int]]:
    """Link ids of gen_fig2 output by role: long / vertical / pendant / leafpair."""
    d = (instance.n - 1) // 3
    return {
        "long": [0],
        "vertical": list(range(1, d + 1)),
        "pendant": list(range(d + 1, 2 * d + 1)),
        "leafpair": list(range(2 * d + 1, 3 * d + 1)),
    }


def fig2_reference_cover(instance: Instance) -> list[UpPath]:
    """The disjoint up-link cover made of the vertical and pendant links.

    Covers every edge, has weight d*(2M+2), and is a cheapest such cover
    when d is even.
    """
    groups = fig2_link_groups(instance)
    return [uplink_from_link(instance, lid)
            for lid in groups["vertical"] + groups["pendant"]]


def gen_fig3(m: int) -> Instance:
    """Hub family: spine to a hub vertex with m+1 leaves.

    Spine s_0(root)..s_m, hub v below s_m with leaves leaf_0..leaf_m, and a
    pendant p_i on each s_i.  Solution links l_i = {leaf_i, p_i} all pass
    through the hub; up-links u_i = {s_{i-1}, p_i} have disjoint two-edge
    paths.  All weights are 1.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    hub = m + 1

    def pend(i: int) -> int:
        return m + 2 + i

    def leaf(i: int) -> int:
        return 2 * m + 3 + i

    n = 3 * m + 4
    edges = [(i - 1, i) for i in range(1, m + 1)]
    edges.append((m, hub))
    edges.extend((i, pend(i)) for i in range(m + 1))
    edges.extend((hub, leaf(i)) for i in range(m + 1))

    links = [Link(id=i, u=leaf(i), v=pend(i), weight=1) for i in range(m + 1)]
    links.extend(Link(id=m + i, u=i - 1, v=pend(i), weight=1)
                 for i in range(1, m + 1))
    return Instance(n=n, root=0, edges=edges, links=links)


def fig3_solution_ids(instance: Instance) -> list[int]:
    m = (instance.n - 4) // 3
    return list(range(m + 1))


def fig3_uplinks(instance: Instance) -> list[UpPath]:
    m = (instance.n - 4) // 3
    return [uplink_from_link(instance, m + i) for i in range(1, m + 1)]
