"""Best-ratio component via binary search on the slack decision problem.

rho* = min over nonempty k-thin C of w(C) / w(dropped up-links).  A probe at
rho answers "rho >= rho*" exactly when the maximum slack is attained by a
nonempty set.  The interval [0,1] is halved until its width drops below
1/w(U)^2; integrality of the weights then certifies that the last witness
attains rho* exactly.  Whenever a probe succeeds, the upper endpoint snaps
down to the witness's own ratio, which never loses feasibility of the upper
endpoint and keeps the iteration count within the halving bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .baseline import UpPath
from .component_dp import ComponentSearch, SearchLink, SlackResult
from .model import Instance


class EmptyUError(ValueError):
    """Ratio search needs a nonempty up-link set."""


@dataclass(frozen=True)
class RatioResult:
    rho: Fraction
    links: tuple[SearchLink, ...]
    drop_indices: tuple[int, ...]
    weight: int
    drop_weight: int
    probes: int
    states: int

    @property
    def certificate(self) -> tuple[int, int]:
        return (self.weight, self.drop_weight)


def decide(instance: Instance, uplinks: Sequence[UpPath], k: int,
           rho: Fraction, search_links: Sequence[SearchLink],
           search: ComponentSearch | None = None) -> tuple[bool, SlackResult | None]:
    """(True, witness) when rho >= rho*; (False, None) when rho < rho*."""
    rho = Fraction(rho)
    cs = search if search is not None else ComponentSearch(
        instance, uplinks, k, search_links)
    res = cs.max_slack(rho.numerator, rho.denominator)
    if res.cmask != 0 and res.slack >= 0:
        return True, res
    return False, None


def best_ratio_component(instance: Instance, uplinks: Sequence[UpPath], k: int,
                         search_links: Sequence[SearchLink],
                         search: ComponentSearch | None = None) -> RatioResult:
    if not uplinks:
        raise EmptyUError("up-link set is empty")
    cs = search if search is not None else ComponentSearch(
        instance, uplinks, k, search_links)
    w_u = sum(p.weight for p in uplinks)
    width_limit = Fraction(1, w_u * w_u)

    ok, witness = decide(instance, uplinks, k, Fraction(1), search_links, cs)
    probes = 1
    if not ok:
        raise ValueError("search alphabet must contain every up-link of U")
    lo = Fraction(0)
    hi = _witness_ratio(witness)
    while hi - lo >= width_limit:
        mid = (lo + hi) / 2
        ok, res = decide(instance, uplinks, k, mid, search_links, cs)
        probes += 1
        if ok:
            witness = res
            hi = _witness_ratio(res)
        else:
            lo = mid
    return RatioResult(rho=_witness_ratio(witness), links=witness.links,
                       drop_indices=witness.drop_indices,
                       weight=witness.weight, drop_weight=witness.drop_weight,
                       probes=probes, states=cs.states)


def _witness_ratio(res: SlackResult) -> Fraction:
    return Fraction(res.weight, res.drop_weight)
