"""Problem representation and rooted-tree primitives.

An instance is a rooted spanning tree plus weighted links.  A link covers
the tree edges on the path between its endpoints.  Tree edges are identified
by their child vertex (the endpoint farther from the root).

Whether a set of links covers the tree is checked in O(n + m) by
``uncovered_edges``, with no per-link edge sets; the solve path and the
decomposition lab check coverage this way or on the index's depths and
Euler intervals.  A disjoint vertical-path cover U is an owner map from
each edge to its path (``path_owner``); ``dropped_paths`` reads off the
paths a link set covers whole, for the component search and the lab alike.
This module holds what the solvers and the lab use; the Θ(n)-bit edge sets
that the oracles build live in ``wtap.oracle``.

Weights are positive integers; rational inputs are scaled at parse time
(see ``wtap.io``), so all arithmetic here is exact.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from . import _kernels
from ._kernels import INF


class WeightOverflowError(ValueError):
    """Weights too large for the int64 kernel arithmetic."""


class BudgetError(RuntimeError):
    """A size budget would be exceeded; the command line exits 3."""


class BudgetExceededError(BudgetError):
    """An exact oracle's enumeration would exceed its ``OracleBudget``."""


class TableTooLargeError(BudgetError):
    """The tree tables of ``uplink2`` would exceed ``TABLE_SLOT_BUDGET``."""


# Slots per tree table (8 B each; the up-link cover holds four such tables,
# so about 1 GiB in all).  Checked before anything is allocated.
TABLE_SLOT_BUDGET = 1 << 25


@dataclass(frozen=True)
class Link:
    """A weighted link; its id is its position in ``Instance.links``."""
    u: int
    v: int
    weight: int

    def endpoints(self) -> tuple[int, int]:
        return (self.u, self.v)


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    subject: int | tuple | None
    detail: str

    def __str__(self) -> str:
        return f"{self.code}({self.subject}): {self.detail}"


class Instance:
    """Immutable WTAP instance: spanning tree, root, and weighted links."""

    def __init__(self, n: int, root: int, edges: Sequence[tuple[int, int]],
                 links: Sequence[Link], scale: int = 1):
        if n < 1:
            raise ValueError("need at least one vertex")
        if not 0 <= root < n:
            raise ValueError(f"root {root} out of range")
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
        for pos, lk in enumerate(links):
            if lk.u == lk.v:
                raise ValueError(f"link {pos} is a self-loop")
            if not (0 <= lk.u < n and 0 <= lk.v < n):
                raise ValueError(f"link {pos} endpoint out of range")
        self.n = n
        self.root = root
        self.edges = tuple((min(u, v), max(u, v)) for u, v in edges)
        self.links = tuple(links)
        self.scale = scale

    @cached_property
    def index(self) -> "RootedTreeIndex":
        return RootedTreeIndex(self.n, self.root, self.edges)

    def link(self, link_id: int) -> Link:
        return self.links[link_id]

    def __repr__(self) -> str:
        return f"Instance(n={self.n}, root={self.root}, links={len(self.links)})"


class RootedTreeIndex:
    """Parent/depth arrays, Euler intervals, and binary-lifting LCA."""

    def __init__(self, n: int, root: int, edges: Sequence[tuple[int, int]]):
        self.n = n
        self.root = root
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        for nbrs in adj:
            nbrs.sort()
        parent = [-1] * n
        depth = [0] * n
        order = [root]
        seen = [False] * n
        seen[root] = True
        for v in order:
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = v
                    depth[w] = depth[v] + 1
                    order.append(w)
        if len(order) != n:
            raise ValueError("edges do not connect all vertices from the root")
        self.parent = parent
        self.depth = depth
        self.bfs_order = order
        children: list[list[int]] = [[] for _ in range(n)]
        for v in range(n):
            if v != root:
                children[parent[v]].append(v)
        self.children = [tuple(cs) for cs in children]
        # Euler in/out times via iterative DFS, children in id order.
        tin = [0] * n
        tout = [0] * n
        clock = 0
        stack: list[tuple[int, int]] = [(root, 0)]
        while stack:
            v, ci = stack.pop()
            if ci == 0:
                tin[v] = clock
                clock += 1
            if ci < len(children[v]):
                stack.append((v, ci + 1))
                stack.append((children[v][ci], 0))
            else:
                tout[v] = clock - 1
        self.tin = tin
        self.tout = tout
        # Binary lifting table: up[j][v] is the 2**j-th ancestor (root caps).
        log = 1
        maxd = max(depth)
        while (1 << log) <= max(1, maxd):
            log += 1
        up = [[root if p < 0 else p for p in parent]]
        for _ in range(1, log):
            prev = up[-1]
            up.append([prev[p] for p in prev])
        self.up = up

    def is_ancestor(self, a: int, b: int) -> bool:
        """True when a is an ancestor of b (a == b counts)."""
        return self.tin[a] <= self.tin[b] <= self.tout[a]

    def kth_ancestor(self, v: int, k: int) -> int:
        j = 0
        while k:
            if k & 1:
                v = self.up[j][v]
            k >>= 1
            j += 1
        return v

    def ancestor_at_depth(self, v: int, d: int) -> int:
        if d > self.depth[v]:
            raise ValueError("requested depth below vertex")
        return self.kth_ancestor(v, self.depth[v] - d)

    def lca(self, a: int, b: int) -> int:
        tin, tout = self.tin, self.tout
        ta, tb = tin[a], tin[b]
        if ta <= tb <= tout[a]:
            return a
        if tb <= ta <= tout[b]:
            return b
        v = a
        for row in reversed(self.up):
            w = row[v]
            if not tin[w] <= tb <= tout[w]:
                v = w
        return self.up[0][v]

    def child_toward(self, v: int, d: int) -> int:
        """The child of v on the path from v to its strict descendant d."""
        return self.ancestor_at_depth(d, self.depth[v] + 1)

    def path_vertices(self, a: int, b: int) -> list[int]:
        """Vertices on the tree path a..b, in walk order."""
        top = self.lca(a, b)
        left = []
        v = a
        while v != top:
            left.append(v)
            v = self.parent[v]
        right = []
        v = b
        while v != top:
            right.append(v)
            v = self.parent[v]
        return left + [top] + right[::-1]


def _check_tree(instance: Instance) -> list[ValidationIssue]:
    """n - 1 edges that reach every vertex from the root make a tree; the
    search for them builds ``instance.index``, which coverage then reads."""
    n = instance.n
    if len(instance.edges) != n - 1:
        return [ValidationIssue("NotATree", None,
                                f"expected {n - 1} edges, got {len(instance.edges)}")]
    try:
        instance.index
    except ValueError as exc:
        return [ValidationIssue("NotATree", None, str(exc))]
    return []


def validate(instance: Instance) -> list[ValidationIssue]:
    """Check the instance invariants; an empty list means ok.

    Reported codes: NotATree, NonpositiveWeight, UncoverableEdge.
    """
    issues = []
    for lid, lk in enumerate(instance.links):
        if lk.weight <= 0:
            issues.append(ValidationIssue(
                "NonpositiveWeight", lid, f"weight {lk.weight}"))
    issues.extend(_check_tree(instance))
    if any(i.code == "NotATree" for i in issues):
        return issues
    pairs = ((lk.u, lk.v) for lk in instance.links)
    for child in uncovered_edges(instance, pairs):
        issues.append(ValidationIssue(
            "UncoverableEdge", child,
            f"edge ({instance.index.parent[child]},{child}) not on any link path"))
    return issues


def uncovered_edges(instance: Instance, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Child ids of the tree edges on no pair's path, ascending.

    Edge (parent(v), v) lies on the path a..b exactly when one of a, b is in
    subtree(v) and the other is not.  So fold, bottom-up, the least and
    greatest Euler time of the far ends of the pairs that end inside each
    subtree, and compare with the subtree's own interval [tin[v], tout[v]].
    O(n + m) time and memory; no LCA and no edge sets.
    """
    idx = instance.index
    tin, tout, parent = idx.tin, idx.tout, idx.parent
    # Seeded with the subtree's own interval, which folding cannot widen:
    # lo[v] < tin[v] or hi[v] > tout[v] only through a far end outside.
    lo = tin[:]
    hi = tout[:]
    for a, b in pairs:
        ta, tb = tin[a], tin[b]
        if tb < lo[a]:
            lo[a] = tb
        if tb > hi[a]:
            hi[a] = tb
        if ta < lo[b]:
            lo[b] = ta
        if ta > hi[b]:
            hi[b] = ta
    order = idx.bfs_order
    for i in range(len(order) - 1, 0, -1):
        v = order[i]
        p = parent[v]
        if lo[v] < lo[p]:
            lo[p] = lo[v]
        if hi[v] > hi[p]:
            hi[p] = hi[v]
    root = instance.root
    return [v for v in range(instance.n)
            if lo[v] == tin[v] and hi[v] == tout[v] and v != root]


def path_owner(instance: Instance, paths: Iterable) -> list[int]:
    """For each vertex v, the index of the vertical path (``top`` down to
    ``bottom``) whose edges include (parent(v), v), or -1.  Raises ValueError
    unless each top is a strict ancestor of its bottom and no two paths
    share an edge."""
    idx = instance.index
    parent = idx.parent
    owner = [-1] * instance.n
    for i, path in enumerate(paths):
        top, v = path.top, path.bottom
        if v == top or not idx.is_ancestor(top, v):
            raise ValueError(f"path {top}..{v} is not vertical: {top} is not "
                             f"a strict ancestor of {v}")
        while v != top:
            if owner[v] != -1:
                raise ValueError(f"paths {owner[v]} and {i} overlap on the "
                                 f"edge above {v}")
            owner[v] = i
            v = parent[v]
    return owner


def dropped_paths(instance: Instance, owner: Sequence[int], count: int,
                  pairs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """The paths, ascending, with no edge in ``uncovered_edges(pairs)``: the
    drop d(C) in the ratio w(C)/d(C).  ``owner`` is the ``path_owner`` of
    ``count`` paths."""
    kept = bytearray(count)
    for v in uncovered_edges(instance, pairs):
        if owner[v] >= 0:
            kept[owner[v]] = 1
    return tuple(i for i, hit in enumerate(kept) if not hit)


def apex(instance: Instance, link: Link | int) -> int:
    """Lowest common ancestor of the link's endpoints."""
    lk = instance.link(link) if isinstance(link, int) else link
    return instance.index.lca(lk.u, lk.v)


def link_vertices(instance: Instance, link: Link | int) -> list[int]:
    lk = instance.link(link) if isinstance(link, int) else link
    return instance.index.path_vertices(lk.u, lk.v)


def is_k_thin(instance: Instance, c_ids: Iterable[int], k: int) -> bool:
    """True when every vertex lies on the paths of at most k links of C."""
    counts: dict[int, int] = {}
    for lid in c_ids:
        for v in link_vertices(instance, lid):
            cnt = counts.get(v, 0) + 1
            if cnt > k:
                return False
            counts[v] = cnt
    return True


def mask_bits(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & (-mask)
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class VerticalCostTable:
    """Cheapest link realizing each vertical ancestor-descendant path.

    Entry (t, b) is the minimum weight over links whose path contains the
    whole vertical path t..b, together with the achieving link's id, its
    position in ``instance.links`` (the smaller on ties).  Realizes
    shadow-completeness implicitly: no shadow links are created.

    Row b holds only the depths ``[front[b], depth[b])``, where ``front[b]``
    is the least apex depth of any link whose path runs through the edge
    above b; every entry of that suffix is present and every depth above it
    absent.  ``anc_off[b]`` is the row's base, so the entry for an ancestor
    t at depth ``front[b]`` or below sits at ``anc_off[b] + depth[t]``; a
    shallower t has no slot, and its depth must be checked against
    ``front[b]`` first.  ``anc_off[n]`` is the slot count: the number of
    present entries, not Σ depth.
    """

    def __init__(self, instance: Instance):
        idx = instance.index
        n = instance.n
        guard_weight_range(instance)
        links = instance.links
        lapex = [apex(instance, lk) for lk in links]
        depth, parent, order = idx.depth, idx.parent, idx.bfs_order
        # A leg from endpoint y up to depth a passes every vertex between,
        # so front[b] is the least apex depth over links ending in subtree(b),
        # capped at depth[b].
        front = depth[:]
        for lk, x in zip(links, lapex):
            a = depth[x]
            if a < front[lk.u]:
                front[lk.u] = a
            if a < front[lk.v]:
                front[lk.v] = a
        for i in range(n - 1, 0, -1):
            v = order[i]
            if front[v] < front[parent[v]]:
                front[parent[v]] = front[v]
        anc_off = [0] * (n + 1)
        total = 0
        for b in range(n):
            anc_off[b] = total - front[b]
            total += depth[b] - front[b]
        anc_off[n] = total
        if total > TABLE_SLOT_BUDGET:
            raise TableTooLargeError(
                f"vertical cost table needs {total} slots, over the budget of "
                f"{TABLE_SLOT_BUDGET}")
        cost = array('q', [INF]) * total
        best = array('q', [-1]) * total
        _kernels.fill_vertical_table(links, lapex, parent, depth, anc_off,
                                     cost, best)
        self.instance = instance
        self.front = front
        self.anc_off = anc_off
        self.cost = cost
        self.best = best

    def cost_of(self, t: int, b: int) -> tuple[int, int] | None:
        """(weight, achieving link id) for vertical path t..b, or None."""
        idx = self.instance.index
        if t == b or not idx.is_ancestor(t, b):
            raise ValueError(f"{t} is not a strict ancestor of {b}")
        d = idx.depth[t]
        if d < self.front[b]:
            return None
        slot = self.anc_off[b] + d
        return self.cost[slot], self.best[slot]


def guard_weight_range(instance: Instance) -> None:
    maxw = max((lk.weight for lk in instance.links), default=0)
    if (instance.n + len(instance.links)) * max(maxw, 1) >= (1 << 61):
        raise WeightOverflowError(
            "scaled weights too large for int64 kernels; rescale the input")


def vertical_cost_table(instance: Instance) -> VerticalCostTable:
    return VerticalCostTable(instance)
