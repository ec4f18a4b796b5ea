"""Relative greedy solver.

Start from the cheapest disjoint vertical-path cover, then repeatedly swap
in the best-ratio ceil(2/eps)-thin component, removing the up-links whose
paths it covers, until no component has ratio below 1.  eps is the only
parameter: it fixes k = ceil(2/eps).

The component alphabet is the original links plus the surviving up-link
paths (each viewed as a link of its recorded cost); the guarantee needs
only these, and ``ComponentSearch`` builds it from U.  A component swapped
in holds instance links only: at a ratio below 1, taking an up-link u out
of C lowers w(C) by w(u) and d(C) by at most w(u), and d(C) > w(C), so the
ratio falls, and the best-ratio set never holds u.

Each iteration only removes up-links, so the alphabet only shrinks.  One
``ComponentSearch`` is compiled per solve from the instance, U and k;
after each iteration ``drop_uplinks`` cuts the dropped up-links out of it
in place, and every later ratio search reuses it.

The starting cover is ``cheapest_disjoint_uplink_cover``'s, which is
computed once per instance: ``two_approx_only`` and ``solve`` on the same
instance share it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .baseline import UpPath, cheapest_disjoint_uplink_cover
from .component_dp import ComponentSearch, SearchLink
from .model import Instance, uncovered_edges
from .ratio import best_ratio_component


class InvalidEpsilonError(ValueError):
    pass


@dataclass(frozen=True)
class Solution:
    """A feasible link choice.

    ``link_ids`` are the original instance links, each surviving up-link
    path mapped to its witness link; ``weight`` is the total weight of the
    distinct chosen objects (up-link paths counted at their own cost), the
    quantity the approximation guarantee bounds.  ``deduped_weight`` is the
    weight of the original-id set, which can only be smaller.
    """
    link_ids: tuple[int, ...]
    weight: int
    deduped_weight: int

    def covers(self, instance: Instance) -> bool:
        pairs = (instance.link(l).endpoints() for l in self.link_ids)
        return not uncovered_edges(instance, pairs)


@dataclass(frozen=True)
class IterationRecord:
    component: tuple[SearchLink, ...]
    component_weight: int
    drop_weight: int
    ratio: Fraction
    u_weight_before: int
    u_weight_after: int


@dataclass
class GreedyTrace:
    k: int
    initial_u_weight: int
    iterations: list[IterationRecord] = field(default_factory=list)
    stopped_early: bool = False
    probes: int = 0   # max_slack calls, summed over every ratio search
    states: int = 0   # compiled DP states, summed over every ratio search


def epsilon_to_k(eps: Fraction) -> int:
    if eps <= 0:
        raise InvalidEpsilonError(f"epsilon must be positive, got {eps}")
    return math.ceil(Fraction(2) / eps)


def _finish(instance: Instance, chosen: set[int],
            remaining: list[UpPath]) -> Solution:
    weight = sum(instance.link(l).weight for l in chosen)
    weight += sum(p.weight for p in remaining)
    ids = chosen | {p.link_id for p in remaining}
    pairs = [instance.link(l).endpoints() for l in ids]
    if uncovered_edges(instance, pairs):
        raise AssertionError("greedy output does not cover all tree edges")
    deduped = sum(instance.link(l).weight for l in ids)
    return Solution(link_ids=tuple(sorted(ids)), weight=weight,
                    deduped_weight=deduped)


def solve(instance: Instance,
          eps: Fraction | int | str) -> tuple[Solution, GreedyTrace]:
    """Run the relative greedy with k = ceil(2/eps); returns the solution
    and its trace."""
    k = epsilon_to_k(Fraction(eps))
    if instance.n == 1:
        return (Solution(link_ids=(), weight=0, deduped_weight=0),
                GreedyTrace(k=k, initial_u_weight=0))

    baseline = cheapest_disjoint_uplink_cover(instance)
    trace = GreedyTrace(k=k, initial_u_weight=baseline.weight)
    chosen: set[int] = set()  # instance link ids
    m = len(instance.links)
    search = ComponentSearch(instance, baseline.paths, k)
    while search.uplinks:
        result = best_ratio_component(search)
        trace.probes += result.probes
        trace.states += result.states
        w_before = sum(p.weight for p in search.uplinks)
        if result.rho >= 1:
            trace.stopped_early = True
            break
        for sl in result.links:
            if sl.pos >= m:
                raise AssertionError("an up-link in a component of ratio < 1, "
                                     "whose ratio is lower without it")
            chosen.add(sl.pos)
        search.drop_uplinks(result.drop_indices)
        trace.iterations.append(IterationRecord(
            component=result.links, component_weight=result.weight,
            drop_weight=result.drop_weight, ratio=result.rho,
            u_weight_before=w_before,
            u_weight_after=sum(p.weight for p in search.uplinks)))

    return _finish(instance, chosen, search.uplinks), trace


def two_approx_only(instance: Instance) -> Solution:
    """The 2-approximation alone, with shadows mapped to original links."""
    if instance.n == 1:
        return Solution(link_ids=(), weight=0, deduped_weight=0)
    baseline = cheapest_disjoint_uplink_cover(instance)
    ids = sorted({p.link_id for p in baseline.paths})
    deduped = sum(instance.link(l).weight for l in ids)
    return Solution(link_ids=tuple(ids), weight=baseline.weight,
                    deduped_weight=deduped)
