"""Constructive cover witnesses, dependency graph, and thin decomposition.

For a feasible link set F and disjoint vertical up-links U, each up-link u
gets a minimal witness F_u drawn from the links whose apex lies below the
highest useful ancestor v_u.  Chaining each witness in path order yields a
branching over F; labeling the chains by their distance from the component
roots and deleting every k-th label class leaves connected components that
are k-thin and still cover every surviving up-link.

This module is not on the solve path; it makes the structural claims the
solver's guarantee rests on executable and testable.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .baseline import UpPath
from .model import (Instance, is_k_thin, link_vertices, mask_bits,
                    uncovered_edges)


class NotABranchingError(AssertionError):
    pass


@dataclass(frozen=True)
class CoverWitness:
    uplink: UpPath
    v_u: int
    links: tuple[int, ...]           # F_u in path order
    own_edges: dict[int, int]        # link id -> edges only it covers (P_{u,l})

    def arcs(self) -> list[tuple[int, int]]:
        return list(zip(self.links, self.links[1:]))


@dataclass(frozen=True)
class DependencyGraph:
    nodes: tuple[int, ...]
    arcs: tuple[tuple[int, int, int], ...]   # (from link, to link, up-link index)
    witnesses: tuple[CoverWitness, ...]


@dataclass(frozen=True)
class Decomposition:
    removed: tuple[int, ...]          # indices into the up-link list
    parts: tuple[tuple[int, ...], ...]
    labels: dict[int, int]            # up-link index -> chain label
    chosen_residue: int
    k: int
    graph: DependencyGraph


def compute_cover_witness(instance: Instance, f_ids: Sequence[int],
                          up: UpPath) -> CoverWitness:
    """Minimal ordered witness for one up-link.

    v_u is the lowest ancestor of the path's top endpoint such that links of
    F with apex below it still cover the path; the witness is pruned from
    that candidate set by repeatedly removing the removable link of smallest
    id.

    On depths: with x <= h the depths of lca(a, bottom) and lca(b, bottom),
    link (a, b) covers the path edges whose child depth lies in
    (max(x, t), h], t = depth[top], and has its apex below the ancestor of
    top at depth d exactly when d <= min(x, t).
    """
    idx = instance.index
    top, bottom = up.top, up.bottom
    if top == bottom or not idx.is_ancestor(top, bottom):
        raise ValueError(f"up-link {top}..{bottom}: {top} is not a strict "
                         f"ancestor of {bottom}")
    depth, tin, tout = idx.depth, idx.tin, idx.tout
    t = depth[top]
    # path[i] is the child vertex of the path edge at depth t + 1 + i.
    path = [idx.ancestor_at_depth(bottom, d)
            for d in range(t + 1, depth[bottom] + 1)]
    lo_in, hi_in = tin[path[0]], tout[path[0]]
    spans = []  # (link id, first edge, end edge, apex-depth threshold)
    for lid in sorted(set(f_ids)):
        lk = instance.link(lid)
        if not (lo_in <= tin[lk.u] <= hi_in or lo_in <= tin[lk.v] <= hi_in):
            continue
        x, h = sorted((depth[idx.lca(lk.u, bottom)],
                       depth[idx.lca(lk.v, bottom)]))
        if h > t and h > x:
            spans.append((lid, max(x, t) - t, h - t, min(x, t)))

    best = [-1] * len(path)
    for _, i, j, thr in spans:
        for e in range(i, j):
            best[e] = max(best[e], thr)
    d_u = min(best)
    if d_u < 0:
        raise ValueError("F does not cover the up-link path")
    v_u = idx.ancestor_at_depth(top, d_u)

    # A link that is not removable never becomes removable as others go,
    # so one pass in id order equals repeatedly removing the smallest.
    spans = [s for s in spans if s[3] >= d_u]
    count = [0] * len(path)
    for _, i, j, _ in spans:
        for e in range(i, j):
            count[e] += 1
    kept = []
    for lid, i, j, _ in spans:
        if all(count[e] >= 2 for e in range(i, j)):
            for e in range(i, j):
                count[e] -= 1
        else:
            kept.append((lid, i, j))
    alone = {lid: [e for e in range(i, j) if count[e] == 1]
             for lid, i, j in kept}
    own = {lid: sum(1 << path[e] for e in es) for lid, es in alone.items()}
    # Order by where each link's own edges sit on the top-to-bottom walk.
    ordered = tuple(sorted(alone, key=lambda lid: alone[lid][0]))
    return CoverWitness(uplink=up, v_u=v_u, links=ordered, own_edges=own)


def build_dependency_graph(instance: Instance, f_ids: Sequence[int],
                           uplinks: Sequence[UpPath]) -> DependencyGraph:
    """Disjoint union of witness chains; checked to be a branching."""
    f_ids = sorted(set(f_ids))
    witnesses = tuple(compute_cover_witness(instance, f_ids, up)
                      for up in uplinks)
    arcs = [(a, b, ui) for ui, wit in enumerate(witnesses)
            for a, b in wit.arcs()]
    parents: dict[int, int] = {}
    for a, b, _ in arcs:
        if b in parents:
            raise NotABranchingError(f"link {b} has two incoming arcs")
        parents[b] = a
    # Acyclicity: follow unique in-arcs upward; a repeat means a cycle.
    for start in parents:
        seen = {start}
        v = start
        while v in parents:
            v = parents[v]
            if v in seen:
                raise NotABranchingError(f"cycle through link {v}")
            seen.add(v)
    return DependencyGraph(nodes=tuple(sorted(f_ids)), arcs=tuple(arcs),
                           witnesses=witnesses)


def _chain_labels(graph: DependencyGraph) -> dict[int, int]:
    """Label each witness chain by the number of chains above its start."""
    in_arc = {arc[1]: arc for arc in graph.arcs}
    labels: dict[int, int] = {}
    for ui, wit in enumerate(graph.witnesses):
        if len(wit.links) < 2:
            continue
        # Walk up to a labelled chain or a root chain, then label downward.
        pending: list[int] = []
        while ui not in labels:
            if len(pending) == len(graph.witnesses):
                raise NotABranchingError("the witness chains form a cycle")
            pending.append(ui)
            arc = in_arc.get(graph.witnesses[ui].links[0])
            if arc is None:
                break
            ui = arc[2]
        value = labels.get(ui, -1)
        for ui in reversed(pending):
            value += 1
            labels[ui] = value
    return labels


def decompose(instance: Instance, f_ids: Sequence[int],
              uplinks: Sequence[UpPath], eps: Fraction | int | str) -> Decomposition:
    """Split F into ceil(1/eps)-thin parts after removing a light up-link set."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    f_ids = sorted(set(f_ids))
    k = math.ceil(1 / eps)
    graph = build_dependency_graph(instance, f_ids, uplinks)
    labels = _chain_labels(graph)

    residue_weight = [0] * k
    for ui, lab in labels.items():
        residue_weight[lab % k] += uplinks[ui].weight
    chosen = min(range(k), key=lambda i: (residue_weight[i], i))
    removed = tuple(ui for ui, lab in labels.items() if lab % k == chosen)

    removed_set = set(removed)
    parent = {lid: lid for lid in f_ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b, ui in graph.arcs:
        if ui in removed_set:
            continue
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: dict[int, list[int]] = {}
    for lid in f_ids:
        groups.setdefault(find(lid), []).append(lid)
    parts = tuple(tuple(sorted(g)) for g in
                  sorted(groups.values(), key=lambda g: min(g)))
    decomposition = Decomposition(removed=removed, parts=parts, labels=labels,
                                  chosen_residue=chosen, k=k, graph=graph)
    issues = check_decomposition(instance, f_ids, uplinks, eps, decomposition)
    if issues:
        raise AssertionError("; ".join(issues))
    return decomposition


def check_decomposition(instance: Instance, f_ids: Sequence[int],
                        uplinks: Sequence[UpPath], eps: Fraction,
                        dec: Decomposition) -> list[str]:
    """Exact checks of every decomposition property; empty list when ok."""
    issues = []
    idx = instance.index
    w_u = sum(p.weight for p in uplinks)
    w_r = sum(uplinks[ui].weight for ui in dec.removed)
    if w_r * eps.denominator > eps.numerator * w_u:
        issues.append(f"removed weight {w_r} exceeds eps * {w_u}")
    for part in dec.parts:
        if not is_k_thin(instance, part, dec.k):
            issues.append(f"part {part} is not {dec.k}-thin")
    # A part drops an up-link unless an edge it leaves uncovered lies on
    # it: marks[v] counts those edges on the root..v path.
    covered = bytearray(len(uplinks))
    drop_total = 0
    for part in dec.parts:
        marks = [0] * instance.n
        for v in uncovered_edges(instance, (instance.link(lid).endpoints()
                                            for lid in part)):
            marks[v] = 1
        for v in idx.bfs_order[1:]:
            marks[v] += marks[idx.parent[v]]
        for ui, up in enumerate(uplinks):
            if marks[up.bottom] == marks[up.top]:
                covered[ui] = 1
                drop_total += up.weight
    removed_set = set(dec.removed)
    for ui in range(len(uplinks)):
        if ui not in removed_set and not covered[ui]:
            issues.append(f"surviving up-link {ui} covered by no part")
    if drop_total < w_u - w_r:
        issues.append(f"parts drop only {drop_total} < {w_u} - {w_r}")
    return issues


def verify_cover_structure(instance: Instance, graph: DependencyGraph) -> dict:
    """Run every structural check on a dependency graph of ``instance``.

    F is ``graph.nodes`` and U the witnesses' up-links, as
    ``build_dependency_graph`` made them (``decompose`` keeps its graph as
    ``Decomposition.graph``).  Checks: witness 2-thinness, the covered edge
    above each arc target's apex, apex ancestry with own-edge placement
    along consecutive pairs, ancestry of links sharing a path vertex, the
    path-count thinness bound per component, and (informationally) distinct
    apexes per component.
    """
    idx = instance.index
    depth = idx.depth
    f_ids = graph.nodes
    apexes = {lid: idx.lca(instance.link(lid).u, instance.link(lid).v)
              for lid in f_ids}
    vert_sets = {lid: set(link_vertices(instance, lid)) for lid in f_ids}
    checks: dict[str, list] = {name: [] for name in (
        "witness_2_thin", "arc_target_edge_covered", "arc_apex_order",
        "shared_vertex_ancestry", "path_count_thinness", "distinct_apexes",
        "own_edges_nonempty_contiguous")}

    for ui, wit in enumerate(graph.witnesses):
        counts = Counter(v for lid in wit.links for v in vert_sets[lid])
        bad = [v for v, c in counts.items() if c > 2]
        if bad:
            checks["witness_2_thin"].append((ui, bad))
        for lid in wit.links:
            own = wit.own_edges[lid]
            if own == 0:
                checks["own_edges_nonempty_contiguous"].append((ui, lid, "empty"))
                continue
            # Edges of a vertical path are contiguous iff their child depths
            # form a consecutive run.
            depths = sorted(idx.depth[c] for c in mask_bits(own))
            if depths[-1] - depths[0] + 1 != len(depths):
                checks["own_edges_nonempty_contiguous"].append((ui, lid, "not a path"))
        top, bottom = wit.uplink.top, wit.uplink.bottom
        for a, b in wit.arcs():
            apx_b = apexes[b]
            if depth[apx_b] <= depth[top] or not idx.is_ancestor(apx_b, bottom):
                checks["arc_target_edge_covered"].append((ui, a, b))
            apx_a = apexes[a]
            if apx_a == apx_b or not idx.is_ancestor(apx_a, apx_b):
                checks["arc_apex_order"].append((ui, a, b, "apex not strict ancestor"))
            elif any(depth[c] <= depth[apx_a] or not idx.is_ancestor(c, apx_b)
                     for c in mask_bits(wit.own_edges[a])):
                checks["arc_apex_order"].append((ui, a, b, "own edges off the apex span"))

    # Per-component structure, from one walk down each tree of the
    # branching: preorder intervals for ancestry, and the number of
    # chains on each link's root path (a chain's arcs on a root path are
    # consecutive, so count where the in-arc's chain changes).
    in_tag = {b: ui for _, b, ui in graph.arcs}
    kids: dict[int, list[int]] = {}
    for a, b, _ in graph.arcs:
        kids.setdefault(a, []).append(b)
    enter, leave, chains = {}, {}, {}
    components: dict[int, list[int]] = {}
    for croot in (lid for lid in f_ids if lid not in in_tag):
        order, stack = [], [croot]
        chains[croot] = 0
        while stack:
            lid = stack.pop()
            enter[lid] = len(enter)
            order.append(lid)
            for kid in kids.get(lid, ()):
                chains[kid] = chains[lid] + (in_tag.get(lid) != in_tag[kid])
                stack.append(kid)
        for lid in reversed(order):
            leave[lid] = max([enter[lid]]
                             + [leave[kid] for kid in kids.get(lid, ())])
        components[croot] = sorted(order)

    def under(l1: int, l2: int) -> bool:
        return enter[l1] <= enter[l2] <= leave[l1]

    for croot, members in sorted(components.items()):
        for i, l1 in enumerate(members):
            for l2 in members[i + 1:]:
                if not (under(l1, l2) or under(l2, l1)
                        or vert_sets[l1].isdisjoint(vert_sets[l2])):
                    checks["shared_vertex_ancestry"].append((croot, l1, l2))
        kappa = max(chains[lid] for lid in members)
        if not is_k_thin(instance, members, kappa + 1):
            checks["path_count_thinness"].append((croot, kappa))
        seen_apex: dict[int, int] = {}
        for lid in members:
            other = seen_apex.get(apexes[lid])
            if other is not None:
                checks["distinct_apexes"].append((croot, other, lid))
            seen_apex[apexes[lid]] = lid

    hard = [name for name, bad in checks.items()
            if bad and name != "distinct_apexes"]
    return {"ok": not hard, "checks": checks, "failed": hard}
