"""2-approximate starting solution: cheapest disjoint vertical-path cover.

The tree DP picks, for every edge, the vertical path that covers it, such
that the chosen paths partition the edge set and each path is realized by
the cheapest link containing it (from the vertical cost table).  The total
weight is at most twice the optimum.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from . import _kernels
from ._kernels import INF
from .model import Instance, VerticalCostTable, apex, guard_weight_range, vertical_cost_table


class InfeasibleError(ValueError):
    """Some tree edge cannot be covered by any link."""


@dataclass(frozen=True)
class UpPath:
    """A vertical path from ancestor ``top`` down to ``bottom``.

    ``weight`` is the cost of the cheapest link containing the path and
    ``link_id`` that link's id in the instance.
    """
    top: int
    bottom: int
    weight: int
    link_id: int


@dataclass(frozen=True)
class UpLinkSolution:
    paths: tuple[UpPath, ...]
    weight: int

    def path_masks(self, instance: Instance) -> list[int]:
        idx = instance.index
        return [idx.vertical_edge_mask(p.top, p.bottom) for p in self.paths]


def uplink_from_link(instance: Instance, link_id: int) -> UpPath:
    """View an up-link of the instance as a vertical path record."""
    lk = instance.link(link_id)
    apx = apex(instance, lk)
    if apx not in (lk.u, lk.v):
        raise ValueError(f"link {link_id} is not an up-link")
    top, bottom = (lk.u, lk.v) if apx == lk.u else (lk.v, lk.u)
    return UpPath(top=top, bottom=bottom, weight=lk.weight, link_id=link_id)


def cheapest_disjoint_uplink_cover(instance: Instance,
                                   table: VerticalCostTable | None = None) -> UpLinkSolution:
    """Minimum-weight cover of all tree edges by disjoint vertical paths.

    Every returned path carries the cheapest original link realizing it.
    Raises InfeasibleError when some edge is on no link path.
    """
    n = instance.n
    if n == 1:
        return UpLinkSolution(paths=(), weight=0)
    guard_weight_range(instance)
    if table is None:
        table = vertical_cost_table(instance)
    idx = instance.index
    anc_off = table.anc_off
    order = [v for v in reversed(idx.bfs_order) if v != instance.root]
    kids_off = [0] * (n + 1)
    kids: list[int] = []
    for v in range(n):
        kids.extend(idx.children[v])
        kids_off[v + 1] = len(kids)
    total = anc_off[n]
    h = array('q', [INF]) * total
    bp = array('q', [-2]) * total
    _kernels.fill_baseline_dp(order, kids_off, kids, idx.depth, anc_off, table.cost, h, bp)

    paths: list[UpPath] = []
    weight = 0
    # Walk the back-pointers: a state (c, tdep) covers edge (parent(c), c)
    # with a path whose top is the ancestor of c at depth tdep.
    stack = [(c, 0) for c in sorted(idx.children[instance.root], reverse=True)]
    while stack:
        c, tdep = stack.pop()
        slot = anc_off[c] + tdep
        if h[slot] >= INF:
            raise InfeasibleError(f"no vertical cover for edge above vertex {c}")
        sel = bp[slot]
        if sel == -1:
            t = idx.ancestor_at_depth(c, tdep)
            cost, link_id = table.cost_of(t, c)
            paths.append(UpPath(top=t, bottom=c, weight=cost, link_id=link_id))
            weight += cost
            for d in sorted(idx.children[c], reverse=True):
                stack.append((d, idx.depth[c]))
        else:
            cont = idx.children[c][sel]
            for d in sorted(idx.children[c], reverse=True):
                if d != cont:
                    stack.append((d, idx.depth[c]))
            stack.append((cont, tdep))

    solution = UpLinkSolution(paths=tuple(paths), weight=weight)
    _assert_partition(instance, solution)
    return solution


def _assert_partition(instance: Instance, solution: UpLinkSolution) -> None:
    seen = 0
    for mask in solution.path_masks(instance):
        if mask & seen:
            raise AssertionError("vertical paths overlap")
        seen |= mask
    if seen != instance.full_edge_mask:
        raise AssertionError("vertical paths do not cover all edges")
