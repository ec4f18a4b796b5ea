"""Problem representation and rooted-tree primitives.

An instance is a rooted spanning tree plus weighted links.  A link covers
the tree edges on the path between its endpoints.  Tree edges are identified
by their child vertex (the endpoint farther from the root), and edge sets
are plain Python ints used as bitsets over those ids.

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


@dataclass(frozen=True)
class Link:
    id: int
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
            if lk.id != pos:
                raise ValueError(f"link at position {pos} has id {lk.id}")
            if lk.u == lk.v:
                raise ValueError(f"link {lk.id} is a self-loop")
            if not (0 <= lk.u < n and 0 <= lk.v < n):
                raise ValueError(f"link {lk.id} endpoint out of range")
        self.n = n
        self.root = root
        self.edges = tuple((min(u, v), max(u, v)) for u, v in edges)
        self.links = tuple(links)
        self.scale = scale

    @cached_property
    def index(self) -> "RootedTreeIndex":
        return RootedTreeIndex(self.n, self.root, self.edges)

    @cached_property
    def full_edge_mask(self) -> int:
        return ((1 << self.n) - 1) & ~(1 << self.root)

    @cached_property
    def link_paths(self) -> tuple[int, ...]:
        """Edge bitmask of every link's covered path, indexed by link id."""
        idx = self.index
        return tuple(idx.path_edge_mask(lk.u, lk.v) for lk in self.links)

    def link(self, link_id: int) -> Link:
        return self.links[link_id]

    def total_link_weight(self) -> int:
        return sum(lk.weight for lk in self.links)

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
        if self.is_ancestor(a, b):
            return a
        if self.is_ancestor(b, a):
            return b
        v = a
        for j in range(len(self.up) - 1, -1, -1):
            w = self.up[j][v]
            if not self.is_ancestor(w, b):
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

    def path_edge_mask(self, a: int, b: int) -> int:
        top = self.lca(a, b)
        mask = 0
        for e in (a, b):
            v = e
            while v != top:
                mask |= 1 << v
                v = self.parent[v]
        return mask

    def vertical_edge_mask(self, t: int, b: int) -> int:
        """Edges of the vertical path from ancestor t down to b."""
        mask = 0
        v = b
        while v != t:
            mask |= 1 << v
            v = self.parent[v]
        return mask


def _check_tree(instance: Instance) -> list[ValidationIssue]:
    issues = []
    n = instance.n
    if len(instance.edges) != n - 1:
        issues.append(ValidationIssue(
            "NotATree", None,
            f"expected {n - 1} edges, got {len(instance.edges)}"))
        return issues
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in instance.edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            issues.append(ValidationIssue("NotATree", (u, v), "edge closes a cycle"))
            return issues
        parent[ru] = rv
    return issues


def validate(instance: Instance) -> list[ValidationIssue]:
    """Check the instance invariants; an empty list means ok.

    Reported codes: NotATree, NonpositiveWeight, UncoverableEdge.
    """
    issues = []
    for lk in instance.links:
        if lk.weight <= 0:
            issues.append(ValidationIssue(
                "NonpositiveWeight", lk.id, f"weight {lk.weight}"))
    issues.extend(_check_tree(instance))
    if any(i.code == "NotATree" for i in issues):
        return issues
    covered = cover_mask(instance, range(len(instance.links)))
    for child in mask_bits(instance.full_edge_mask & ~covered):
        issues.append(ValidationIssue(
            "UncoverableEdge", child,
            f"edge ({instance.index.parent[child]},{child}) not on any link path"))
    return issues


def link_path(instance: Instance, link: Link | int) -> int:
    """Edge bitmask of the path covered by the link."""
    if isinstance(link, Link):
        return instance.index.path_edge_mask(link.u, link.v)
    return instance.link_paths[link]


def apex(instance: Instance, link: Link | int) -> int:
    """Lowest common ancestor of the link's endpoints."""
    lk = instance.link(link) if isinstance(link, int) else link
    return instance.index.lca(lk.u, lk.v)


def is_uplink(instance: Instance, link: Link | int) -> bool:
    """True when one endpoint is an ancestor of the other."""
    lk = instance.link(link) if isinstance(link, int) else link
    return apex(instance, lk) in (lk.u, lk.v)


def cover_mask(instance: Instance, link_ids: Iterable[int]) -> int:
    mask = 0
    for lid in link_ids:
        mask |= instance.link_paths[lid]
    return mask


def drop_set(instance: Instance, u_ids: Iterable[int], c_ids: Iterable[int]) -> set[int]:
    """Links of U whose covered path lies inside the union of C's paths."""
    cov = cover_mask(instance, c_ids)
    return {u for u in u_ids if instance.link_paths[u] & ~cov == 0}


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
    whole vertical path t..b, together with the achieving original link id.
    Realizes shadow-completeness implicitly: no shadow links are created.
    """

    def __init__(self, instance: Instance):
        idx = instance.index
        n = instance.n
        guard_weight_range(instance)
        anc_off = [0] * (n + 1)
        for v, d in enumerate(idx.depth):
            anc_off[v + 1] = anc_off[v] + d
        total = anc_off[n]
        cost = array('q', [INF]) * total
        best = array('q', [-1]) * total
        links = instance.links
        _kernels.fill_vertical_table(
            [lk.u for lk in links], [lk.v for lk in links],
            [apex(instance, lk) for lk in links], [lk.weight for lk in links],
            [lk.id for lk in links], idx.parent, idx.depth, anc_off, cost, best)
        self.instance = instance
        self.anc_off = anc_off
        self.cost = cost
        self.best = best

    def _slot(self, t: int, b: int) -> int:
        idx = self.instance.index
        if t == b or not idx.is_ancestor(t, b):
            raise ValueError(f"{t} is not a strict ancestor of {b}")
        return self.anc_off[b] + idx.depth[t]

    def cost_of(self, t: int, b: int) -> tuple[int, int] | None:
        """(weight, achieving link id) for vertical path t..b, or None."""
        slot = self._slot(t, b)
        if self.cost[slot] >= INF:
            return None
        return self.cost[slot], self.best[slot]

    def iter_entries(self):
        """Yield (t, b, weight, link id) for every present entry."""
        idx = self.instance.index
        for b in range(self.instance.n):
            off = self.anc_off[b]
            for d in range(idx.depth[b]):
                if self.cost[off + d] < INF:
                    t = idx.ancestor_at_depth(b, d)
                    yield t, b, self.cost[off + d], self.best[off + d]


def guard_weight_range(instance: Instance) -> None:
    maxw = max((lk.weight for lk in instance.links), default=0)
    if (instance.n + len(instance.links)) * max(maxw, 1) >= (1 << 61):
        raise WeightOverflowError(
            "scaled weights too large for int64 kernels; rescale the input")


def vertical_cost_table(instance: Instance) -> VerticalCostTable:
    return VerticalCostTable(instance)
