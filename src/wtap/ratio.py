"""Best-ratio component via binary search on the slack decision problem.

rho* = min over nonempty k-thin C of w(C) / w(dropped up-links).  A probe at
rho answers "rho >= rho*" exactly when the maximum slack is attained by a
nonempty set.  The interval [0,1] is halved until its width drops below
1/w(U)^2; integrality of the weights then certifies that the last witness
attains rho* exactly.  Whenever a probe succeeds, the upper endpoint snaps
down to the witness's own ratio, which never loses feasibility of the upper
endpoint and keeps the iteration count within the halving bound.

The search stops early once rho* is certified.  With positive weights a
nonempty set C has slack < 0 at every rho below w(C)/d(C), and at every rho
when it drops nothing.  So a max slack of exactly 0 at hi = w(W)/d(W), for
the witness W, means no set has a ratio below hi: hi = rho*, every later
midpoint would fail, and full bisection would return the same witness W.
A hit whose max slack is 0 certifies this at no cost.  After a hit with
slack > 0 one probe at the new hi checks it, if the probes spent plus the
halvings still possible stay within ceil(log2 w(U)^2) + 2, the bound of
full bisection.  When that probe finds slack > 0 its witness is ignored and
bisection goes on as before, so the answer is always that of full
bisection.  Non-positive weights are rejected, as the certificate needs
positive ones.
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
    cs = _search_for(instance, uplinks, k, search_links, search)
    res = cs.max_slack(rho.numerator, rho.denominator)
    if res.cmask != 0 and res.slack >= 0:
        return True, res
    return False, None


def best_ratio_component(instance: Instance, uplinks: Sequence[UpPath], k: int,
                         search_links: Sequence[SearchLink],
                         search: ComponentSearch | None = None) -> RatioResult:
    if not uplinks:
        raise EmptyUError("up-link set is empty")
    for sl in search_links:
        if sl.weight <= 0:
            raise ValueError(f"search link {sl.label} has weight {sl.weight}; "
                             "the ratio search needs positive weights")
    for up in uplinks:
        if up.weight <= 0:
            raise ValueError(f"up-link {up.top}-{up.bottom} of link {up.link_id} "
                             f"has weight {up.weight}; the ratio search needs "
                             "positive weights")
    cs = _search_for(instance, uplinks, k, search_links, search)
    w_u2 = sum(p.weight for p in uplinks) ** 2
    width_limit = Fraction(1, w_u2)
    cap = (w_u2 - 1).bit_length() + 2  # ceil(log2 w(U)^2) + 2 probes

    lo, rho = Fraction(0), Fraction(1)
    witness = None
    probes = 0
    while True:
        ok, res = decide(instance, cs.uplinks, k, rho, cs.links, cs)
        probes += 1
        if not ok:
            if witness is None:
                raise ValueError("search alphabet must contain every up-link of U")
            lo = rho
        else:
            witness, hi = res, _witness_ratio(res)
            if res.slack == 0:
                break  # no set has a ratio below hi: hi is rho*
            # One probe at hi certifies it, if the halvings still possible
            # leave room for it; the probe is a hit, as W has slack 0 there.
            left = int((hi - lo) * w_u2).bit_length()
            if probes + 1 + left <= cap:
                probes += 1
                if decide(instance, cs.uplinks, k, hi, cs.links, cs)[1].slack == 0:
                    break
        if hi - lo < width_limit:
            break
        rho = (lo + hi) / 2
    return RatioResult(rho=hi, links=witness.links,
                       drop_indices=witness.drop_indices,
                       weight=witness.weight, drop_weight=witness.drop_weight,
                       probes=probes, states=cs.states)


def _search_for(instance: Instance, uplinks: Sequence[UpPath], k: int,
                search_links: Sequence[SearchLink],
                search: ComponentSearch | None) -> ComponentSearch:
    """``search``, checked to be built for (U, k, alphabet), or a new one."""
    if search is None:
        return ComponentSearch(instance, uplinks, k, search_links)
    for what, have, want in (("up-links", search.uplinks, uplinks),
                             ("search links", search.links, search_links)):
        if have is not want and have != list(want):
            raise ValueError(f"search was built for other {what}")
    if search.k != k:
        raise ValueError(f"search was built for k={search.k}, not k={k}")
    return search


def _witness_ratio(res: SlackResult) -> Fraction:
    return Fraction(res.weight, res.drop_weight)
