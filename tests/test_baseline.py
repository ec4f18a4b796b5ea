"""Disjoint vertical-path cover: examples, oracle agreement, invariants."""

import random

import pytest

import wtap
from wtap import Instance, Link, _kernels
from wtap._kernels import INF
from wtap.generators import fig2_link_groups, fig2_reference_cover


def _baseline_dp_reference(order, kids_off, kids, depth, anc_off, cost):
    """Every slot of every row, candidates in order, first strict minimum."""
    h = [INF] * anc_off[-1]
    bp = [-2] * anc_off[-1]
    for c in order:
        kid_list = kids[kids_off[c]:kids_off[c + 1]]
        dc = depth[c]
        at_c = [h[anc_off[d] + dc] for d in kid_list]
        blocked = [p for p, v in enumerate(at_c) if v >= INF]
        sfin = sum(v for v in at_c if v < INF)
        for t in range(dc):
            slot = anc_off[c] + t
            if not blocked and cost[slot] < INF:
                h[slot], bp[slot] = cost[slot] + sfin, -1
            for p, d in enumerate(kid_list):
                if len(blocked) > 1 or (blocked and p != blocked[0]):
                    continue
                v = h[anc_off[d] + t]
                if v >= INF:
                    continue
                v += sfin - (0 if blocked else at_c[p])
                if v < h[slot]:
                    h[slot], bp[slot] = v, p
    return h, bp


def test_single_option(path3):
    sol = wtap.cheapest_disjoint_uplink_cover(path3)
    assert sol.weight == 7
    assert [(p.top, p.bottom) for p in sol.paths] == [(0, 2)]


def test_star_shadow_split(star_ab):
    sol = wtap.cheapest_disjoint_uplink_cover(star_ab)
    assert sol.weight == 6
    assert sorted((p.top, p.bottom) for p in sol.paths) == [(0, 1), (0, 2)]
    assert all(p.link_id == 0 and p.weight == 3 for p in sol.paths)


def test_single_vertex():
    inst = wtap.Instance(1, 0, [], [])
    assert wtap.cheapest_disjoint_uplink_cover(inst).weight == 0


@pytest.mark.parametrize("d,m_val", [(2, 5), (4, 10), (6, 100)])
def test_fig2_even_d_reference_cover_is_cheapest(d, m_val):
    inst = wtap.gen_fig2(d, m_val)
    sol = wtap.cheapest_disjoint_uplink_cover(inst)
    ref = fig2_reference_cover(inst)
    assert sol.weight == sum(p.weight for p in ref) == d * (2 * m_val + 2)


def test_fig2_d4_witness_is_reference_cover():
    # tie-breaking favors early termination, reproducing the two-edge
    # vertical paths plus pendant paths exactly
    inst = wtap.gen_fig2(4, 10)
    sol = wtap.cheapest_disjoint_uplink_cover(inst)
    got = sorted((p.top, p.bottom) for p in sol.paths)
    want = sorted((p.top, p.bottom) for p in fig2_reference_cover(inst))
    assert got == want


def test_fig2_odd_d_has_cheaper_mixed_cover():
    # With an odd node count the long link's heavier side admits a mixed
    # cover strictly below the reference cover's weight.
    inst = wtap.gen_fig2(3, 5)
    sol = wtap.cheapest_disjoint_uplink_cover(inst)
    brute_w, _ = wtap.brute_uplink_cover(inst)
    assert sol.weight == brute_w == 31
    assert sum(p.weight for p in fig2_reference_cover(inst)) == 36


def test_paths_partition_edges():
    for seed in range(40):
        inst = wtap.gen_random(n=2 + seed % 12, link_count=seed % 9,
                               weight_max=8, seed=4000 + seed)
        sol = wtap.cheapest_disjoint_uplink_cover(inst)
        seen = 0
        for mask in sol.path_masks(inst):
            assert mask & seen == 0
            seen |= mask
        assert seen == inst.full_edge_mask
        table = wtap.vertical_cost_table(inst)
        for p in sol.paths:
            assert table.cost_of(p.top, p.bottom) == (p.weight, p.link_id)


def test_matches_brute_force_and_two_approx():
    for seed in range(120):
        inst = wtap.gen_random(n=2 + seed % 8, link_count=(seed * 5) % 11,
                               weight_max=7, seed=4200 + seed)
        sol = wtap.cheapest_disjoint_uplink_cover(inst)
        brute_w, brute_paths = wtap.brute_uplink_cover(inst)
        assert sol.weight == brute_w
        opt = wtap.exact_opt(inst)
        assert opt.weight <= sol.weight <= 2 * opt.weight


def test_baseline_dp_matches_per_slot_reference(monkeypatch):
    # whole h and back-pointer tables, with ties (small weights), blocked
    # children and infeasible rows, on random trees and caterpillars
    seen = []

    def fill(*args):
        _fill(*args)
        want = _baseline_dp_reference(*args[:6])
        seen.append((list(args[6]), list(args[7])) == want)

    _fill = _kernels.fill_baseline_dp
    monkeypatch.setattr(_kernels, "fill_baseline_dp", fill)
    rng = random.Random(4400)
    infeasible = 0
    for seed in range(80):
        if seed % 2:
            inst = wtap.gen_random(n=2 + seed % 30, link_count=seed % 40,
                                   weight_max=1 + seed % 4, seed=4400 + seed)
        else:
            spine = 3 + seed
            n = spine + seed // 2
            parent = [v - 1 for v in range(spine)] + [rng.randrange(spine)
                                                       for _ in range(n - spine)]
            # every fourth one misses some parent-child links: infeasible
            pairs = [(parent[v], v) for v in range(1, n)
                     if seed % 4 or rng.random() > 0.1]
            for v in rng.sample(range(1, n), n // 2):
                a = v
                for _ in range(rng.randint(1, 4)):
                    a = max(parent[a], 0)
                if a != v:
                    pairs.append((a, v))
            links = [Link(i, a, v, rng.randint(1, 3)) for i, (a, v) in enumerate(pairs)]
            inst = Instance(n, 0, [(parent[v], v) for v in range(1, n)], links)
        try:
            wtap.cheapest_disjoint_uplink_cover(inst)
        except wtap.InfeasibleError:
            infeasible += 1
    assert len(seen) == 80 and all(seen)
    assert infeasible > 0


def test_two_approx_only_examples(single_edge, star_ab):
    assert wtap.two_approx_only(single_edge).weight == 5
    star = wtap.two_approx_only(star_ab)
    assert star.weight == 6
    assert star.link_ids == (0,)
    assert star.deduped_weight == 3
    fig = wtap.gen_fig2(4, 10)
    assert wtap.two_approx_only(fig).weight == 88
