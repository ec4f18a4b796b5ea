"""Best-ratio component by Dinkelbach iteration on the max-slack DP.

rho* = min over nonempty k-thin C of w(C) / d(C), where d(C) is the weight of
the up-links whose paths C covers.  The search probes rho = 1; while the max
slack rho * d(W) - w(W) of the probe's witness W is positive, it probes next
at W's own ratio.  A max slack of 0 there means no set has a ratio below it,
so the last witness W attains rho*.

The answer does not depend on the probe path.  It is the nonempty k-thin set
of ratio rho* = p/q with the largest drop weight, ties broken by the DP's
order, the larger mask: what ``max_slack`` returns at rho* + 1/(q*(w(U)+1)),
where no other ratio fits.  W maximized the slack at a rho above rho*, where
a ratio-rho* set gains slack with its drop weight.  If the probe at rho = 1
already has slack 0, rho* = 1 and that probe's set is returned.

Termination: adding the optimality of W_i at rho_i to the positive slack of
W_{i+1} at rho_{i+1} = w(W_i)/d(W_i) gives
(rho_i - rho_{i+1}) * (d(W_i) - d(W_{i+1})) > 0, so the drop weight, a
positive integer, strictly decreases.  Non-positive weights are rejected.

Both ``decide`` and ``best_ratio_component`` take only a ``ComponentSearch``
and read U, k and the alphabet from it, so the search they probe is the one
problem they answer for.  The alphabet holds every up-link of U, and a lone
up-link has slack 0 at rho = 1, so the first probe is always a hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .component_dp import ComponentSearch, SearchLink, SlackResult


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


def decide(search: ComponentSearch,
           rho: Fraction) -> tuple[bool, SlackResult | None]:
    """(True, witness) when rho >= rho*; (False, None) when rho < rho*."""
    rho = Fraction(rho)
    res = search.max_slack(rho.numerator, rho.denominator)
    if res.links and res.slack >= 0:
        return True, res
    return False, None


def best_ratio_component(search: ComponentSearch) -> RatioResult:
    """The canonical best-ratio component for the search's U, k and alphabet."""
    if not search.uplinks:
        raise EmptyUError("up-link set is empty")
    for sl in search.links:
        if sl.weight <= 0:
            raise ValueError(f"search link {sl.pos} has weight {sl.weight}; "
                             "the ratio search needs positive weights")
    for up in search.uplinks:
        if up.weight <= 0:
            raise ValueError(f"up-link {up.top}-{up.bottom} of link {up.link_id} "
                             f"has weight {up.weight}; the ratio search needs "
                             "positive weights")
    _, res = decide(search, Fraction(1))
    witness, probes = res, 1
    while res.slack > 0:
        # W has slack 0 at its own ratio, so this probe is a hit
        witness = res
        _, res = decide(search, _witness_ratio(witness))
        probes += 1
    return RatioResult(rho=_witness_ratio(witness), links=witness.links,
                       drop_indices=witness.drop_indices,
                       weight=witness.weight, drop_weight=witness.drop_weight,
                       probes=probes, states=search.states)


def _witness_ratio(res: SlackResult) -> Fraction:
    return Fraction(res.weight, res.drop_weight)
