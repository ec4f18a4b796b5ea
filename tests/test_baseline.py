"""Disjoint vertical-path cover: examples, oracle agreement, invariants."""

import gc
import random
import weakref

import pytest

import wtap
from wtap import Instance, Link, _kernels, baseline, model
from wtap._kernels import INF
from wtap.oracle import full_edge_mask, vertical_edge_mask

from fig_helpers import fig2_link_groups, fig2_reference_cover


def _baseline_dp_reference(order, children, depth, front, anc_off, cost):
    """h and back-pointer of every (c, depth of t) pair, candidates in order,
    first strict minimum.  Reads the table only where its row has a slot."""
    def cost_at(c, t):
        return cost[anc_off[c] + t] if t >= front[c] else INF

    h, bp = {}, {}
    for c in order:
        kid_list = children[c]
        dc = depth[c]
        at_c = [h[d, dc] for d in kid_list]
        blocked = [p for p, v in enumerate(at_c) if v >= INF]
        sfin = sum(v for v in at_c if v < INF)
        for t in range(dc):
            h[c, t], bp[c, t] = INF, -2
            if not blocked and cost_at(c, t) < INF:
                h[c, t], bp[c, t] = cost_at(c, t) + sfin, -1
            for p, d in enumerate(kid_list):
                if len(blocked) > 1 or (blocked and p != blocked[0]):
                    continue
                v = h[d, t]
                if v >= INF:
                    continue
                v += sfin - (0 if blocked else at_c[p])
                if v < h[c, t]:
                    h[c, t], bp[c, t] = v, p
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
        idx = inst.index
        for p in sol.paths:
            mask = vertical_edge_mask(idx, p.top, p.bottom)
            assert mask & seen == 0
            seen |= mask
        assert seen == full_edge_mask(inst)
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
    # h and back-pointer of every (t, c) pair, over every depth of t, with
    # ties (small weights), blocked children and infeasible rows, on random
    # trees and caterpillars; depths above a row's front read as infeasible
    seen = []

    def fill(*args):
        _fill(*args)
        order, _, depth, front, anc_off, _, h, bp = args
        assert len(h) == len(bp) == anc_off[-1]
        got = {}
        for c in order:
            for t in range(depth[c]):
                slot = anc_off[c] + t
                got[c, t] = (h[slot], bp[slot]) if t >= front[c] else (INF, -2)
        want_h, want_bp = _baseline_dp_reference(*args[:6])
        seen.append(got == {key: (want_h[key], want_bp[key]) for key in want_h})

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
            links = [Link(a, v, rng.randint(1, 3)) for a, v in pairs]
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


def test_long_path_table_holds_only_feasible_slots():
    # n = 20 000 and links at most 4 levels long: Σ depth would be 2e8
    # slots per table, the feasible suffixes are at most 4n
    n, reach = 20000, 4
    rng = random.Random(4500)
    pairs = [(v - 1, v) for v in range(1, n)]
    pairs += [(v - rng.randint(2, reach), v) for v in rng.sample(range(reach, n), n // 2)]
    links = [Link(*((u, v) if i % 2 else (v, u)),
                  rng.randint(1, 9) * (v - u) if v - u > 1 else 10)
             for i, (u, v) in enumerate(pairs)]
    inst = Instance(n, 0, [(v - 1, v) for v in range(1, n)], links)
    assert wtap.vertical_cost_table(inst).anc_off[-1] <= reach * n
    # Independent 1-D interval DP: dp[b] is the cheapest cover of edges
    # 1..b by disjoint intervals [t, b], each priced at the cheapest link
    # spanning it.
    span = {}
    for lk in links:
        key = (min(lk.u, lk.v), max(lk.u, lk.v))
        span[key] = min(span.get(key, INF), lk.weight)

    def price(t, b):
        return min(span.get((u, v), INF) for u in range(b - reach, t + 1)
                   for v in range(b, u + reach + 1))

    dp = [0] * n
    for b in range(1, n):
        dp[b] = min(dp[t] + price(t, b) for t in range(max(0, b - reach), b))
    assert wtap.cheapest_disjoint_uplink_cover(inst).weight == dp[-1]


def test_table_size_budget(monkeypatch):
    # the slot count is known before anything is allocated; past the
    # budget the table build raises instead of allocating.  The second call
    # is on a fresh instance: the first one's cover is kept with it.
    inst = wtap.gen_fig2(4, 10)
    slots = wtap.vertical_cost_table(inst).anc_off[-1]
    monkeypatch.setattr(model, "TABLE_SLOT_BUDGET", slots)
    assert wtap.cheapest_disjoint_uplink_cover(inst).weight == 88
    monkeypatch.setattr(model, "TABLE_SLOT_BUDGET", slots - 1)
    with pytest.raises(wtap.TableTooLargeError, match=f"needs {slots} slots"):
        wtap.cheapest_disjoint_uplink_cover(wtap.gen_fig2(4, 10))


def test_cover_is_kept_with_its_instance():
    # a second call on the same instance returns the first call's cover,
    # and the cover goes when its instance goes
    gc.collect()
    held = len(baseline._covers)
    inst = wtap.gen_random(n=12, link_count=12, weight_max=9, seed=7300)
    cover = wtap.cheapest_disjoint_uplink_cover(inst)
    assert wtap.cheapest_disjoint_uplink_cover(inst) is cover
    assert len(baseline._covers) == held + 1
    dead = weakref.ref(inst)
    del inst
    gc.collect()
    assert dead() is None
    assert len(baseline._covers) == held


def test_cover_errors_are_not_kept(monkeypatch):
    # a call that raises keeps nothing: the next call on the same instance
    # computes again
    inst = wtap.gen_fig2(4, 10)
    monkeypatch.setattr(model, "TABLE_SLOT_BUDGET", 1)
    with pytest.raises(wtap.TableTooLargeError):
        wtap.cheapest_disjoint_uplink_cover(inst)
    monkeypatch.undo()
    assert wtap.cheapest_disjoint_uplink_cover(inst).weight == 88
