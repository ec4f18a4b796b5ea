"""2-approximate starting solution: cheapest disjoint vertical-path cover.

The tree DP picks, for every edge, the vertical path that covers it, such
that the chosen paths partition the edge set and each path is realized by
the cheapest link containing it (from the vertical cost table).  The total
weight is at most twice the optimum.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from weakref import WeakKeyDictionary

from . import _kernels
from ._kernels import INF
from .model import Instance, path_owner, vertical_cost_table


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


# instance -> its cover, held only while the instance lives
_covers: WeakKeyDictionary[Instance, UpLinkSolution] = WeakKeyDictionary()


def cheapest_disjoint_uplink_cover(instance: Instance) -> UpLinkSolution:
    """Minimum-weight cover of all tree edges by disjoint vertical paths.

    Every returned path carries the cheapest original link realizing it.
    Raises InfeasibleError when some edge is on no link path.

    The cover is computed once per instance, as ``Instance.index`` is: a
    later call on the same instance returns the same object, so the
    2-approximation and the relative greedy that starts from it share one.
    It is held only while its instance lives.  An error is not kept; the
    next call computes again.
    """
    solution = _covers.get(instance)
    if solution is None:
        solution = _covers[instance] = _cover(instance)
    return solution


def _cover(instance: Instance) -> UpLinkSolution:
    """The cover itself, computed from the instance's tables."""
    n = instance.n
    if n == 1:
        return UpLinkSolution(paths=(), weight=0)
    table = vertical_cost_table(instance)
    idx = instance.index
    anc_off, front = table.anc_off, table.front
    order = [v for v in reversed(idx.bfs_order) if v != instance.root]
    total = anc_off[n]
    h = array('q', [INF]) * total
    bp = array('q', [-2]) * total
    _kernels.fill_baseline_dp(order, idx.children, idx.depth, front, anc_off,
                              table.cost, h, bp)

    paths: list[UpPath] = []
    weight = 0
    # Walk the back-pointers: a state (c, tdep) covers edge (parent(c), c)
    # with a path whose top is the ancestor of c at depth tdep.  Depths
    # above front[c] have no slot in row c: no link reaches them.
    stack = [(c, 0) for c in sorted(idx.children[instance.root], reverse=True)]
    while stack:
        c, tdep = stack.pop()
        slot = anc_off[c] + tdep
        if tdep < front[c] or h[slot] >= INF:
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
    """Raise unless the paths' edges partition the tree edges."""
    try:
        owner = path_owner(instance, solution.paths)
    except ValueError as exc:
        raise AssertionError(str(exc)) from exc
    # Only the root, which no edge is named after, may have no owner.
    if owner.count(-1) != 1:
        raise AssertionError("vertical paths do not cover all edges")
