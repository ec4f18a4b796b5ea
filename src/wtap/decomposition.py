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

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .baseline import UpPath
from .model import Instance, cover_mask, link_vertices, mask_bits


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

    def in_arc(self, link_id: int) -> tuple[int, int, int] | None:
        for arc in self.arcs:
            if arc[1] == link_id:
                return arc
        return None


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
    """
    idx = instance.index
    f_ids = sorted(set(f_ids))
    pu = idx.vertical_edge_mask(up.top, up.bottom)
    apexes = {lid: idx.lca(instance.link(lid).u, instance.link(lid).v)
              for lid in f_ids}

    chain = [up.top]
    v = up.top
    while v != instance.root:
        v = idx.parent[v]
        chain.append(v)
    v_u = None
    candidates: list[int] = []
    for v in reversed(chain):  # root first, descending toward top
        b_v = [lid for lid in f_ids if idx.is_ancestor(v, apexes[lid])]
        if pu & ~cover_mask(instance, b_v) == 0:
            v_u = v
            candidates = b_v
        else:
            break
    if v_u is None:
        raise ValueError("F does not cover the up-link path")

    current = sorted(candidates)
    while True:
        removable = None
        for lid in current:
            rest = [x for x in current if x != lid]
            if pu & ~cover_mask(instance, rest) == 0:
                removable = lid
                break
        if removable is None:
            break
        current.remove(removable)

    own = {}
    for lid in current:
        rest_cover = cover_mask(instance, (x for x in current if x != lid))
        own[lid] = pu & ~rest_cover
    # Order by where each link's own edges sit on the top-to-bottom walk.
    def pos(lid: int) -> int:
        mask = own[lid]
        return min(idx.depth[e] for e in mask_bits(mask))

    ordered = tuple(sorted(current, key=pos))
    return CoverWitness(uplink=up, v_u=v_u, links=ordered, own_edges=own)


def build_dependency_graph(instance: Instance, f_ids: Sequence[int],
                           uplinks: Sequence[UpPath]) -> DependencyGraph:
    """Disjoint union of witness chains; checked to be a branching."""
    f_ids = sorted(set(f_ids))
    witnesses = tuple(compute_cover_witness(instance, f_ids, up)
                      for up in uplinks)
    arcs = []
    for ui, wit in enumerate(witnesses):
        for a, b in wit.arcs():
            arcs.append((a, b, ui))
    indeg: dict[int, int] = {}
    for _, b, _ in arcs:
        indeg[b] = indeg.get(b, 0) + 1
        if indeg[b] > 1:
            raise NotABranchingError(f"link {b} has two incoming arcs")
    # Acyclicity: follow unique in-arcs upward; a repeat means a cycle.
    parents = {b: a for a, b, _ in arcs}
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
    in_arc: dict[int, tuple[int, int, int]] = {}
    for arc in graph.arcs:
        in_arc[arc[1]] = arc
    labels: dict[int, int] = {}

    def label_of(ui: int) -> int:
        got = labels.get(ui)
        if got is not None:
            return got
        start = graph.witnesses[ui].links[0]
        arc = in_arc.get(start)
        value = 0 if arc is None else label_of(arc[2]) + 1
        labels[ui] = value
        return value

    for ui, wit in enumerate(graph.witnesses):
        if len(wit.links) >= 2:
            label_of(ui)
    return labels


def decompose(instance: Instance, f_ids: Sequence[int],
              uplinks: Sequence[UpPath], eps: Fraction | int | str) -> Decomposition:
    """Split F into ceil(1/eps)-thin parts after removing a light up-link set."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    f_ids = sorted(set(f_ids))
    one_over = Fraction(1) / eps
    k = -(-one_over.numerator // one_over.denominator)
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
        if not _is_k_thin_links(instance, part, dec.k):
            issues.append(f"part {part} is not {dec.k}-thin")
    part_cover = [cover_mask(instance, part) for part in dec.parts]
    removed_set = set(dec.removed)
    drop_total = 0
    for pc in part_cover:
        drop_total += sum(p.weight for p in uplinks
                          if idx.vertical_edge_mask(p.top, p.bottom) & ~pc == 0)
    for ui, up in enumerate(uplinks):
        if ui in removed_set:
            continue
        pu = idx.vertical_edge_mask(up.top, up.bottom)
        if not any(pu & ~pc == 0 for pc in part_cover):
            issues.append(f"surviving up-link {ui} covered by no part")
    if drop_total < w_u - w_r:
        issues.append(f"parts drop only {drop_total} < {w_u} - {w_r}")
    return issues


def _is_k_thin_links(instance: Instance, ids: Sequence[int], k: int) -> bool:
    counts: dict[int, int] = {}
    for lid in ids:
        for v in link_vertices(instance, lid):
            c = counts.get(v, 0) + 1
            if c > k:
                return False
            counts[v] = c
    return True


def verify_cover_structure(instance: Instance, f_ids: Sequence[int],
                           uplinks: Sequence[UpPath]) -> dict:
    """Run every structural check on the constructed dependency graph.

    Checks: witness 2-thinness, the covered edge above each arc target's
    apex, apex ancestry with own-edge placement along consecutive pairs,
    ancestry of links sharing a path vertex, the path-count thinness bound
    per component, and (informationally) distinct apexes per component.
    """
    idx = instance.index
    f_ids = sorted(set(f_ids))
    graph = build_dependency_graph(instance, f_ids, uplinks)
    apexes = {lid: idx.lca(instance.link(lid).u, instance.link(lid).v)
              for lid in f_ids}
    vert_sets = {lid: set(link_vertices(instance, lid)) for lid in f_ids}
    checks: dict[str, list] = {
        "witness_2_thin": [],
        "arc_target_edge_covered": [],
        "arc_apex_order": [],
        "shared_vertex_ancestry": [],
        "path_count_thinness": [],
        "distinct_apexes": [],
        "own_edges_nonempty_contiguous": [],
    }

    for ui, wit in enumerate(graph.witnesses):
        counts: dict[int, int] = {}
        for lid in wit.links:
            for v in vert_sets[lid]:
                counts[v] = counts.get(v, 0) + 1
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
        pu = idx.vertical_edge_mask(wit.uplink.top, wit.uplink.bottom)
        for a, b in wit.arcs():
            apx_b = apexes[b]
            if apx_b == instance.root or not (pu >> apx_b) & 1:
                checks["arc_target_edge_covered"].append((ui, a, b))
            apx_a = apexes[a]
            if apx_a == apx_b or not idx.is_ancestor(apx_a, apx_b):
                checks["arc_apex_order"].append((ui, a, b, "apex not strict ancestor"))
            else:
                span = idx.path_edge_mask(apx_a, apx_b)
                if wit.own_edges[a] & ~span:
                    checks["arc_apex_order"].append((ui, a, b, "own edges off the apex span"))

    # Per-component structure.
    comp_parent = {b: a for a, b, _ in graph.arcs}
    arc_tag = {(a, b): ui for a, b, ui in graph.arcs}

    def root_path(lid: int) -> list[int]:
        path = [lid]
        while path[-1] in comp_parent:
            path.append(comp_parent[path[-1]])
        return path[::-1]

    comp_of: dict[int, int] = {}
    for lid in f_ids:
        comp_of[lid] = root_path(lid)[0]
    components: dict[int, list[int]] = {}
    for lid in f_ids:
        components.setdefault(comp_of[lid], []).append(lid)

    for croot, members in sorted(components.items()):
        for i, l1 in enumerate(members):
            for l2 in members[i + 1:]:
                if vert_sets[l1] & vert_sets[l2]:
                    p1, p2 = root_path(l1), root_path(l2)
                    if not (l1 in p2 or l2 in p1):
                        checks["shared_vertex_ancestry"].append((croot, l1, l2))
        kappa = 0
        for lid in members:
            path = root_path(lid)
            tags = {arc_tag[(path[i], path[i + 1])] for i in range(len(path) - 1)}
            kappa = max(kappa, len(tags))
        if not _is_k_thin_links(instance, members, kappa + 1):
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
