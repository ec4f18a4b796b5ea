"""Ratio minimization by Dinkelbach iteration against the exhaustive oracle."""

import math
from fractions import Fraction

import pytest

import wtap
from wtap.component_dp import ComponentSearch
from wtap.generators import fig2_link_groups
from wtap.oracle import OracleBudget, path_edge_mask, vertical_edge_mask
from wtap.ratio import EmptyUError

from fig_helpers import fig2_reference_cover


def _search(inst, uplinks, k):
    return ComponentSearch(inst, uplinks, k)


def test_single_edge_ratio_one(single_edge):
    up = [wtap.uplink_from_link(single_edge, 0)]
    res = wtap.best_ratio_component(_search(single_edge, up, 1))
    assert res.rho == 1
    assert res.weight == res.drop_weight == 5


def test_empty_u_rejected(single_edge):
    with pytest.raises(EmptyUError):
        wtap.best_ratio_component(ComponentSearch(single_edge, [], 1))


def test_fig2_reference_ratios():
    inst = wtap.gen_fig2(3, 5)
    uplinks = fig2_reference_cover(inst)
    groups = fig2_link_groups(inst)
    res2 = wtap.best_ratio_component(_search(inst, uplinks, 2))
    assert res2.rho == Fraction(1, 2)
    assert sorted(sl.pos for sl in res2.links) == sorted(
        groups["long"] + groups["leafpair"])
    assert (res2.weight, res2.drop_weight) == (18, 36)
    assert len(res2.drop_indices) == 6
    res1 = wtap.best_ratio_component(_search(inst, uplinks, 1))
    assert res1.rho == 1


def test_decide_examples():
    inst = wtap.gen_fig2(3, 5)
    uplinks = fig2_reference_cover(inst)
    cs = _search(inst, uplinks, 2)
    ok, witness = wtap.decide(cs, Fraction(1))
    assert ok and witness.links
    ok, _ = wtap.decide(cs, Fraction(0))
    assert not ok
    ok, _ = wtap.decide(cs, Fraction(1, 4))
    assert not ok
    ok, _ = wtap.decide(cs, Fraction(1, 2))
    assert ok


def test_decide_monotone_in_rho():
    for seed in range(25):
        inst = wtap.gen_random(n=3 + seed % 7, link_count=seed % 7,
                               weight_max=5, seed=6000 + seed)
        uplinks = list(wtap.cheapest_disjoint_uplink_cover(inst).paths)
        if not uplinks:
            continue
        cs = _search(inst, uplinks, 2)
        answers = [wtap.decide(cs, Fraction(i, 8))[0] for i in range(9)]
        # once True, stays True
        first = answers.index(True)
        assert all(answers[first:])


def test_matches_exhaustive_minimum():
    budget = OracleBudget(max_links=13)
    for seed in range(100):
        inst = wtap.gen_random(n=2 + seed % 8, link_count=(seed * 3) % 9,
                               weight_max=6, seed=6200 + seed)
        uplinks = list(wtap.cheapest_disjoint_uplink_cover(inst).paths)
        if not uplinks:
            continue
        if len(inst.links) + len(uplinks) > 12:
            continue
        for k in (1, 2, 3):
            cs = ComponentSearch(inst, uplinks, k)
            got = wtap.best_ratio_component(cs)
            want = wtap.brute_best_kthin(inst, uplinks, k, cs.links, budget)
            assert got.rho == want.rho
            # cross-multiplied optimality of the returned witness
            assert (got.weight * want.drop_weight
                    <= want.weight * got.drop_weight)
            # returned witness attains its ratio exactly
            assert Fraction(got.weight, got.drop_weight) == got.rho


def test_iteration_bound():
    for seed in range(40):
        inst = wtap.gen_random(n=3 + seed % 9, link_count=seed % 9,
                               weight_max=9, seed=6400 + seed)
        uplinks = list(wtap.cheapest_disjoint_uplink_cover(inst).paths)
        if not uplinks:
            continue
        w_u = sum(p.weight for p in uplinks)
        res = wtap.best_ratio_component(_search(inst, uplinks, 2))
        bound = (math.ceil(math.log2(w_u * w_u)) + 1) if w_u > 1 else 1
        assert res.probes <= bound + 1  # within the bisection bound


def _full_bisection(cs, uplinks):
    """Bisection halving [0, 1] down to 1/w(U)^2, for reference.

    Returns rho, the witness, the number of probes and the rhos probed."""
    w_u = sum(p.weight for p in uplinks)
    limit = Fraction(1, w_u * w_u)
    witness = cs.max_slack(1, 1)
    probed = [Fraction(1)]
    lo, hi = Fraction(0), Fraction(witness.weight, witness.drop_weight)
    while hi - lo >= limit:
        mid = (lo + hi) / 2
        res = cs.max_slack(mid.numerator, mid.denominator)
        probed.append(mid)
        if res.links and res.slack >= 0:
            witness, hi = res, Fraction(res.weight, res.drop_weight)
        else:
            lo = mid
    return hi, witness, len(probed), probed


def test_dinkelbach_returns_canonical_answer():
    """The search returns the max-drop set of ratio rho*, whatever the path.

    That is ``max_slack`` just above rho* (at 1 when rho* = 1), and full
    bisection's witness unless bisection probed rho* itself, where the DP
    prefers the lex-first ratio-rho* set.  Along each search the drop
    weights of the witnesses with positive slack strictly decrease."""
    searches = probes = full_probes = 0
    for seed in range(160):
        n = 3 + seed % 14
        inst = wtap.gen_random(n=n, link_count=(seed * 5) % (n + 4),
                               weight_max=12, seed=6600 + seed)
        uplinks = list(wtap.cheapest_disjoint_uplink_cover(inst).paths)
        if not uplinks:
            continue
        w_u = sum(p.weight for p in uplinks)
        bound = (math.ceil(math.log2(w_u * w_u)) + 1) if w_u > 1 else 1
        for k in (1, 2, 3):
            cs = ComponentSearch(inst, uplinks, k)
            seen = []
            max_slack = cs.max_slack

            def recorded(p, q):
                res = max_slack(p, q)
                seen.append(res)
                return res

            cs.max_slack = recorded
            got = wtap.best_ratio_component(cs)
            cs.max_slack = max_slack
            assert len(seen) == got.probes
            drops = [res.drop_weight for res in seen if res.slack > 0]
            assert all(a > b for a, b in zip(drops, drops[1:])), (seed, k)
            assert seen[-1].slack == 0 and seen[-1].links
            rho, want, full, probed = _full_bisection(cs, uplinks)
            assert got.rho == rho, f"seed {seed} k={k}"
            at = (Fraction(1) if rho == 1 else
                  rho + Fraction(1, rho.denominator * (w_u + 1)))
            canon = cs.max_slack(at.numerator, at.denominator)
            assert (got.links, got.drop_indices) == (
                canon.links, canon.drop_indices), (seed, k)
            assert (got.weight, got.drop_weight) == (
                canon.weight, canon.drop_weight)
            if rho not in probed:
                assert (got.links, got.drop_indices) == (
                    want.links, want.drop_indices), (seed, k)
            assert got.probes <= bound + 1
            searches += 1
            probes += got.probes
            full_probes += full
    assert searches >= 3 * 150
    assert probes < full_probes / 2


def test_nonpositive_weight_rejected_by_solve():
    # a path 0-1-2 whose link 1 has weight 0 or -1
    for w in (0, -1):
        inst = wtap.Instance(3, 0, [(0, 1), (1, 2)],
                             [wtap.Link(0, 2, 4), wtap.Link(1, 2, w)])
        with pytest.raises(ValueError, match="search link 1 has weight"):
            wtap.solve(inst, 1)


def test_result_invariants():
    inst = wtap.gen_fig2(4, 10)
    uplinks = list(wtap.cheapest_disjoint_uplink_cover(inst).paths)
    res = wtap.best_ratio_component(_search(inst, uplinks, 2))
    assert res.links
    assert res.rho == Fraction(res.weight, res.drop_weight)
    idx = inst.index
    cover = 0
    for sl in res.links:
        cover |= path_edge_mask(idx, sl.a, sl.b)
    for i, p in enumerate(uplinks):
        inside = vertical_edge_mask(idx, p.top, p.bottom) & ~cover == 0
        assert inside == (i in res.drop_indices)
