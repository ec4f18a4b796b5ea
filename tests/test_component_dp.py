"""Slack-maximization DP: table-entry examples, oracle equivalence, timing."""

import hashlib
import random
import sys
import time
from fractions import Fraction
from itertools import combinations

import pytest

import wtap
from wtap import Instance, Link, component_dp
from wtap.baseline import UpPath
from wtap.component_dp import MINUS, PLUS, ComponentSearch, SearchLink
from wtap.oracle import (KThinTable, OracleBudget, path_edge_mask,
                         vertical_edge_mask)

from fig_helpers import (fig2_link_groups, fig2_reference_cover,
                         uplink_from_link)


def _slack_at(inst, uplinks, k, rho):
    """One probe of a fresh search over the standard alphabet."""
    cs = ComponentSearch(inst, uplinks, k)
    return cs.max_slack(rho.numerator, rho.denominator)


def test_rho_zero_returns_empty(single_edge):
    up = [uplink_from_link(single_edge, 0)]
    res = _slack_at(single_edge, up, 1, Fraction(0))
    assert res.links == () and res.slack == 0


def test_single_edge_rho_one(single_edge):
    up = [uplink_from_link(single_edge, 0)]
    res = _slack_at(single_edge, up, 1, Fraction(1))
    assert res.slack == 0
    assert res.links  # nonempty maximizer preferred


def test_fig2_reference_slack_at_half():
    inst = wtap.gen_fig2(3, 5)
    uplinks = fig2_reference_cover(inst)
    groups = fig2_link_groups(inst)
    res = _slack_at(inst, uplinks, 2, Fraction(1, 2))
    assert res.slack == 0
    chosen = sorted(sl.pos for sl in res.links)
    assert chosen == sorted(groups["long"] + groups["leafpair"])
    assert res.drop_weight == 36


def test_leaf_entries():
    # chain 0-1-2; one up-link path (0..2); alphabet holds link 0 and that path
    inst = Instance(3, 0, [(0, 1), (1, 2)], [Link(0, 2, 4)])
    up = [uplink_from_link(inst, 0)]
    cs = ComponentSearch(inst, up, 1)
    cs.max_slack(1, 2)
    # every state the root reaches, as (v, boundary endpoints, x, slack*q, C):
    # at rho = 1/2 no set pays, and a leaf is feasible with the empty set,
    # with or without the up-link entering it
    assert sorted(cs.entries()) == [
        (0, (), MINUS, 0, ()),
        (1, (), MINUS, 0, ()), (1, (2,), MINUS, 0, ()), (1, (2,), PLUS, 0, ()),
        (2, (), MINUS, 0, ()), (2, (2,), MINUS, 0, ()), (2, (2,), PLUS, 0, ())]


def test_inner_plus_infeasible_without_boundary_link():
    # with an empty boundary set nothing can cover the up-link's inside edge
    inst = Instance(3, 0, [(0, 1), (1, 2)], [Link(0, 2, 4)])
    up = [uplink_from_link(inst, 0)]
    cs = ComponentSearch(inst, up, 1)
    cs.max_slack(1, 1)
    entries = {(v, ends, x): (num, links) for v, ends, x, num, links in cs.entries()}
    assert (1, (), PLUS) not in entries
    # a boundary link ending at 2 covers everything below vertex 1
    assert entries[(1, (2,), PLUS)] == (0, ())
    # at rho = 1 link 0 and the up-link each pay for the up-link exactly;
    # a nonempty set wins the tie, and of those the larger mask, the up-link
    assert entries[(0, (), MINUS)] == (0, (SearchLink(0, 2, 4, 1),))


def test_kthin_table_ties_take_larger_mask():
    # the tie above, exhaustively: at rho = 1 the empty set, link 0 (mask
    # 0b01) and the up-link (0b10) all have slack 0, and both nonempty sets
    # have ratio 1
    inst = Instance(3, 0, [(0, 1), (1, 2)], [Link(0, 2, 4)])
    up = [uplink_from_link(inst, 0)]
    table = KThinTable(inst, up, 1, ComponentSearch(inst, up, 1).links)
    assert table.max_slack(1, 1) == (0, 0b10)
    assert table.min_ratio() == (1, 0b10)


def test_oracle_equivalence_small():
    budget = OracleBudget(max_links=13)
    for seed in range(120):
        inst = wtap.gen_random(n=2 + seed % 8, link_count=(seed * 7) % 9,
                               weight_max=6, seed=5000 + seed)
        base = wtap.cheapest_disjoint_uplink_cover(inst)
        uplinks = list(base.paths)
        if not uplinks:
            continue
        if len(inst.links) + len(uplinks) > 12:
            continue
        for k in (1, 2, 3):
            cs = ComponentSearch(inst, uplinks, k)
            table = KThinTable(inst, uplinks, k, cs.links, budget)
            for p, q in ((0, 1), (1, 3), (1, 2), (2, 3), (1, 1)):
                res = cs.max_slack(p, q)
                want_slack, want_mask = table.max_slack(p, q)
                assert res.slack == want_slack
                assert bool(res.links) == (want_mask != 0)


def test_stored_slack_matches_recomputation():
    # max_slack re-derives drop and weight from the chosen set and asserts
    for seed in range(40):
        inst = wtap.gen_random(n=3 + seed % 9, link_count=seed % 8,
                               weight_max=9, seed=5500 + seed)
        uplinks = list(wtap.cheapest_disjoint_uplink_cover(inst).paths)
        if not uplinks:
            continue
        cs = ComponentSearch(inst, uplinks, 2)
        cs.max_slack(2, 3)  # raises internally on any slack disagreement


def test_chosen_component_is_k_thin():
    for seed in range(40):
        inst = wtap.gen_random(n=3 + seed % 10, link_count=seed % 9,
                               weight_max=5, seed=5700 + seed)
        uplinks = list(wtap.cheapest_disjoint_uplink_cover(inst).paths)
        if not uplinks:
            continue
        for k in (1, 2):
            cs = ComponentSearch(inst, uplinks, k)
            res = cs.max_slack(1, 2)
            counts: dict[int, int] = {}
            for sl in res.links:
                for v in inst.index.path_vertices(sl.a, sl.b):
                    counts[v] = counts.get(v, 0) + 1
            assert all(c <= k for c in counts.values())


def _entry_invariants(inst, uplinks, cs, k, p, q):
    # Y is the vertical paths from v down to the boundary endpoints
    idx = inst.index
    u_masks = [vertical_edge_mask(idx, u.top, u.bottom) for u in uplinks]
    for v, ends, x, num, c_links in cs.entries():
        assert list(ends) == sorted(ends) and len(ends) <= k, (v, ends, x)
        assert all(idx.is_ancestor(v, e) for e in ends), (v, ends, x)
        for sl in c_links:
            assert idx.is_ancestor(v, sl.a) and idx.is_ancestor(v, sl.b)
        counts: dict[int, int] = {}
        paths = [idx.path_vertices(sl.a, sl.b) for sl in c_links]
        paths += [idx.path_vertices(v, e) for e in ends]
        for path in paths:
            for w in path:
                counts[w] = counts.get(w, 0) + 1
        assert all(c <= k for c in counts.values()), (v, ends, x)
        cover = 0
        for sl in c_links:
            cover |= path_edge_mask(idx, sl.a, sl.b)
        for e in ends:
            cover |= vertical_edge_mask(idx, v, e)
        if x == PLUS:
            ui = cs.crossing[v]
            assert ui >= 0
            inside = vertical_edge_mask(idx, v, uplinks[ui].bottom)
            assert inside & ~cover == 0, (v, ends)
        drop_w = 0
        for ui, u in enumerate(uplinks):
            if idx.is_ancestor(v, u.top) and u_masks[ui] & ~cover == 0:
                drop_w += u.weight
        c_w = sum(sl.weight for sl in c_links)
        assert p * drop_w - q * c_w == num, (v, ends, x)


def test_table_entry_invariants_hold():
    # every compiled (hence feasible) entry: C inside the subtree, C+Y k-thin,
    # inside-coverage when required, stored slack exactly recomputable
    for seed in range(25):
        inst = wtap.gen_random(n=3 + seed % 8, link_count=(seed * 5) % 8,
                               weight_max=6, seed=5900 + seed)
        uplinks = list(wtap.cheapest_disjoint_uplink_cover(inst).paths)
        if not uplinks:
            continue
        for k in (1, 2):
            cs = ComponentSearch(inst, uplinks, k)
            for p, q in ((1, 2), (1, 1)):
                cs.max_slack(p, q)
                _entry_invariants(inst, uplinks, cs, k, p, q)


def test_plan_reads_every_state():
    # the build leaves live only what the root reaches: every live state
    # but the root (state 0) is read by a live candidate's term, as its
    # child entry or as a PLUS alternative, or by a zero list
    for seed in range(40):
        n = 3 + seed % 12
        inst = wtap.gen_random(n=n, link_count=n + seed % 5, weight_max=6,
                               seed=5950 + seed)
        uplinks = list(wtap.cheapest_disjoint_uplink_cover(inst).paths)
        if not uplinks:
            continue
        for k in (1, 2, 3):
            cs = ComponentSearch(inst, uplinks, k)
            plan = cs._plan
            live = _live_states(plan)
            read = {e for zs in plan.zero for e in zs}
            for s in live:
                for c in range(plan.cand_lo[s], plan.cand_hi[s]):
                    for _, ch, pl, _ in _cand_terms(plan, s, c):
                        read.update((ch, pl))
            unread = set(live) - read - {0}
            assert not unread, f"seed {seed} k={k}: {len(unread)} unread"


def _chained_drops(count, seed0):
    # (instance, k, search, its up-links, dropped yet) for
    # random instances as built and after each of a chain of random drops
    rng = random.Random(11)
    instances = 0
    seed = 0
    while instances < count:
        seed += 1
        n = 3 + seed % 14
        inst = wtap.gen_random(n=n, link_count=n + seed % 5, weight_max=9,
                               seed=seed0 + seed)
        uplinks = list(wtap.cheapest_disjoint_uplink_cover(inst).paths)
        if len(uplinks) < 2:
            continue
        instances += 1
        k = 1 + seed % 3
        cs = ComponentSearch(inst, uplinks, k)
        yield inst, k, cs, uplinks, False
        while uplinks:
            gone = set(rng.sample(range(len(uplinks)),
                                  rng.randint(1, max(1, len(uplinks) // 2))))
            cs.drop_uplinks(gone)
            uplinks = [p for i, p in enumerate(uplinks) if i not in gone]
            yield inst, k, cs, uplinks, True


def test_drop_uplinks_matches_fresh_compile():
    # chained random drops answer every probe, and hold the same states with
    # the same values and sets, as a plan compiled afresh for the smaller U
    # and alphabet
    rhos = ((0, 1), (1, 4), (1, 3), (1, 2), (2, 3), (1, 1), (3, 2))
    drops = 0
    for inst, k, cs, uplinks, dropped in _chained_drops(150, 6100):
        if not dropped:
            continue
        fresh = ComponentSearch(inst, uplinks, k)
        drops += 1
        assert cs.uplinks == uplinks and cs.links == fresh.links
        assert cs.states == fresh.states, k
        for p, q in rhos:
            assert cs.max_slack(p, q) == fresh.max_slack(p, q), (k, p, q)
            assert sorted(cs.entries()) == sorted(fresh.entries()), (k, p, q)
    assert drops > 300


def _live_states(plan):
    return [s for s in range(len(plan.vert)) if plan.cand_lo[s] < plan.cand_hi[s]]


def _cand_terms(plan, s, c):
    # the terms (ze, ch, pl, uw) of candidate c of state s, in its order
    terms = plan.terms[plan.vert[s]]
    return tuple(terms[i] for i in plan.cand_ids[c])


def test_plan_keys_are_unique():
    # a state is keyed by (vertex, boundary endpoints, x): no key twice among
    # a plan's live states, as built and after every drop
    plans = 0
    for _, _, cs, _, _ in _chained_drops(60, 6300):
        plan = cs._plan
        keys = [(plan.vert[s], plan.key[s]) for s in _live_states(plan)]
        assert len(set(keys)) == len(keys) == cs.states
        plans += 1
    assert plans > 150


def test_drops_keep_reach_and_tombstones_consistent():
    # as built, which checks the compile's cut and cascade, and after every
    # drop: the states reached from the root over zero lists, live
    # candidates' terms and their active PLUS alternatives are exactly the
    # live ones, no live term reads a dead state, and every dead state has
    # an empty candidate range; a state read as a PLUS alternative is read
    # no other way (drop_uplinks' docstring rests on it)
    steps = 0
    for _, _, cs, _, _ in _chained_drops(60, 6500):
        plan = cs._plan
        live = set(_live_states(plan))
        reach = {0}
        stack = [0]
        as_ch, as_pl = set(), set()
        while stack:
            s = stack.pop()
            reads = list(plan.zero[plan.vert[s]])
            as_ch.update(reads)
            for c in range(plan.cand_lo[s], plan.cand_hi[s]):
                for _, ch, pl, _ in _cand_terms(plan, s, c):
                    reads.append(ch)
                    as_ch.add(ch)
                    if pl >= 0:
                        reads.append(pl)
                        as_pl.add(pl)
            for e in reads:
                assert e in live, "a live state reads a dead one"
                if e not in reach:
                    reach.add(e)
                    stack.append(e)
        assert len(reach) == cs.states
        assert reach == live
        assert not as_ch & as_pl
        for s in range(len(plan.vert)):
            if s not in live:
                assert plan.cand_lo[s] == plan.cand_hi[s]
        steps += 1
    assert steps > 150


def test_vertex_terms_are_distinct_and_ids_in_range():
    # within each vertex the terms are pairwise distinct, and every id a
    # candidate slot holds, dead ones included, lies in its own vertex's
    # terms; as built, each term is read by some candidate there.  As built
    # and after every drop
    steps = 0
    for _, _, cs, _, dropped in _chained_drops(60, 6700):
        plan = cs._plan
        read = [set() for _ in plan.terms]
        for vterms in plan.terms:
            assert len(set(vterms)) == len(vterms)
        nst = len(plan.vert)
        for s in range(nst):
            v = plan.vert[s]
            end = plan.cand_lo[s + 1] if s + 1 < nst else len(plan.cand_ids)
            for c in range(plan.cand_lo[s], end):
                assert all(0 <= i < len(plan.terms[v]) for i in plan.cand_ids[c])
                read[v].update(plan.cand_ids[c])
        if not dropped:
            assert read == [set(range(len(vterms))) for vterms in plan.terms]
        steps += 1
    assert steps > 150


@pytest.mark.parametrize("eps, n, seed, k, weight, probes, states", [
    (Fraction(2), 14, 1, 1, 60, 6, 141),
    (Fraction(1), 20, 5, 2, 88, 7, 578),
    (Fraction(2, 3), 12, 3, 3, 40, 4, 222),
    (Fraction(1, 2), 12, 6, 4, 54, 4, 310),
])
def test_greedy_counts_pinned(eps, n, seed, k, weight, probes, states):
    # pinned: probes and compiled states summed over a solve's ratio
    # searches, which a change to how the plan is built must not move
    inst = wtap.gen_random(n, n, 20, seed)
    sol, trace = wtap.greedy.solve(inst, eps)
    assert (trace.k, sol.weight, trace.probes, trace.states) == \
        (k, weight, probes, states)


@pytest.mark.parametrize("k, n, seed, states", [
    (1, 14, 11, [50, 44, 39, 36, 35]),
    (2, 14, 12, [109, 79, 75, 67, 64]),
    (3, 12, 13, [154, 100, 87, 84]),
    (4, 10, 14, [124, 90, 66, 62]),
])
def test_drop_chain_states_pinned(k, n, seed, states):
    # pinned: states as built and after each drop of every other up-link;
    # each build also kills states that were requested and listed
    # (infeasible PLUS ones), and leaves them as tombstones
    inst = wtap.gen_random(n, n, 20, seed)
    uplinks = list(wtap.cheapest_disjoint_uplink_cover(inst).paths)
    cs = ComponentSearch(inst, uplinks, k)
    plan = cs._plan
    assert any(lo == hi for lo, hi in zip(plan.cand_lo, plan.cand_hi))
    got = [cs.states]
    while cs.uplinks:
        cs.drop_uplinks(range(0, len(cs.uplinks), 2))
        got.append(cs.states)
    assert got == states


def _plan_columns(plan):
    # the plan in a form that does not depend on its layout: every live
    # state with its vertex, key, candidate range and whole slot block, dead
    # candidate slots included, each candidate as (w, z, its terms); every
    # dead state as (vertex, key, None)
    nst = len(plan.vert)
    states = []
    for s in range(nst):
        lo, hi = plan.cand_lo[s], plan.cand_hi[s]
        if lo == hi:
            states.append((plan.vert[s], plan.key[s], None))
            continue
        end = plan.cand_lo[s + 1] if s + 1 < nst else len(plan.cand_w)
        states.append((plan.vert[s], plan.key[s], lo, hi,
                       [(plan.cand_w[c], plan.cand_z[c], _cand_terms(plan, s, c))
                        for c in range(lo, end)]))
    return states, plan.zero, plan.ref, [(r.start, r.stop) for r in plan.span]


def _witness_chains(k, n, seeds):
    # per seed, a search as built and after each drop of a chain, each drop
    # removing the last witness's up-links, as (cs, None); and after each
    # probe of a Dinkelbach search (from rho = 1, then at each witness's own
    # ratio, where the witness ties with the empty set at the root), as
    # (cs, answer).  Seeds 10, 20 and 27 have a term whose PLUS alternative
    # ties with its entry in a set that is composed
    for seed in seeds:
        inst = wtap.gen_random(n, n, 20, seed)
        uplinks = list(wtap.cheapest_disjoint_uplink_cover(inst).paths)
        cs = ComponentSearch(inst, uplinks, k)
        yield cs, None
        while cs.uplinks:
            witness = res = cs.max_slack(1, 1)
            yield cs, res
            while res.slack > 0:
                witness = res
                rho = Fraction(res.weight, res.drop_weight)
                res = cs.max_slack(rho.numerator, rho.denominator)
                yield cs, res
            cs.drop_uplinks(witness.drop_indices)
            yield cs, None


def _link_rows(links, m):
    # each link as (a, b, weight, label), the label in its CLI JSON form
    return tuple((sl.a, sl.b, sl.weight,
                  ("orig", sl.pos) if sl.pos < m else ("up", sl.a, sl.b))
                 for sl in links)


def _fixed_probes(k, n, seeds):
    # per seed, a search as built and after each drop of every other
    # up-link, probed at rho = 1, at 1/2 and at the best ratio; unlike the
    # witness chains, these probes do not depend on how ties are broken
    for seed in seeds:
        inst = wtap.gen_random(n, n, 20, seed)
        uplinks = list(wtap.cheapest_disjoint_uplink_cover(inst).paths)
        cs = ComponentSearch(inst, uplinks, k)
        while cs.uplinks:
            for rho in (Fraction(1), Fraction(1, 2),
                        wtap.best_ratio_component(cs).rho):
                yield cs, cs.max_slack(rho.numerator, rho.denominator)
            cs.drop_uplinks(range(0, len(cs.uplinks), 2))


@pytest.mark.parametrize("k, n, seeds, digest", [
    (2, 24, (1, 2, 10, 20), "491bbdc79ebf4759"),
    (4, 12, (1, 2, 3, 27), "cb71ba323cca847b"),
])
def test_entry_values_pinned(k, n, seeds, digest):
    # pinned: the live state count, the best slack and every entry's key
    # and slack * q after each fixed probe, none of which a tie decides
    h = hashlib.sha256()
    for cs, res in _fixed_probes(k, n, seeds):
        h.update(repr((cs.states, res.slack,
                       [entry[:4] for entry in cs.entries()])).encode())
    assert h.hexdigest()[:16] == digest


@pytest.mark.parametrize("k, n, seeds, digest", [
    (2, 24, (1, 2, 10, 20), "f12ec8bc99f9574d"),
    (4, 12, (1, 2, 3, 27), "d0765fbdc2a719b9"),
])
def test_entries_pinned(k, n, seeds, digest):
    # pinned: the live state count, the answer and entries() after each
    # probe of the witness chains, which do not depend on the plan's layout,
    # nor on how a link is numbered; ties decide the sets and, through
    # them, the chains
    h = hashlib.sha256()
    for cs, res in _witness_chains(k, n, seeds):
        if res is not None:
            m = len(cs.instance.links)
            entries = [(v, ends, x, num, _link_rows(c, m))
                       for v, ends, x, num, c in cs.entries()]
            h.update(repr((cs.states, res.slack, _link_rows(res.links, m),
                           res.drop_indices, res.drop_weight, res.weight,
                           entries)).encode())
    assert h.hexdigest()[:16] == digest


@pytest.mark.parametrize("k, n, seeds, built, dropped", [
    (2, 24, (1, 2, 10, 20), "a46bc8533ee43a84", "fa92b210dc678a8d"),
    (4, 12, (1, 2, 3, 27), "a7801c781c9f9555", "85cf7ffce9800879"),
])
def test_plan_columns_pinned(k, n, seeds, built, dropped):
    # pinned: the whole plan, dead slots and tombstones included, as built,
    # which no tie decides, and after each drop of the witness chains,
    # whose witnesses ties decide
    hb, hd = hashlib.sha256(), hashlib.sha256()
    last = None
    for cs, res in _witness_chains(k, n, seeds):
        if res is None:
            h = hd if cs is last else hb
            h.update(repr(_plan_columns(cs._plan)).encode())
            last = cs
    assert (hb.hexdigest()[:16], hd.hexdigest()[:16]) == (built, dropped)


@pytest.mark.parametrize("k, n, seeds, digest", [
    (2, 24, (1, 2, 10, 20), "81cca20939887f5c"),
    (3, 16, (4, 5, 6), "bb2e09bcee0fa5df"),
    (4, 12, (1, 2, 3, 27), "857e6b02314eaf4e"),
])
def test_raw_listing_pinned(monkeypatch, k, n, seeds, digest):
    # pinned: the plan as listed, before the cut kills what is infeasible:
    # every state's name, vertex and key, every candidate's range, weight,
    # Z mask and term ids, and each vertex's terms and zero list; for the
    # full up-link cover and for every other up-link of it
    h = hashlib.sha256()
    count_reads = component_dp._Plan.count_reads

    def pin(plan, names):
        h.update(repr((names, plan.vert, plan.key, plan.cand_lo, plan.cand_w,
                       plan.cand_z, plan.cand_ids, plan.terms,
                       plan.zero)).encode())
        count_reads(plan, names)

    monkeypatch.setattr(component_dp._Plan, "count_reads", pin)
    for seed in seeds:
        inst = wtap.gen_random(n, n, 20, seed)
        uplinks = list(wtap.cheapest_disjoint_uplink_cover(inst).paths)
        for ups in (uplinks, uplinks[::2]):
            ComponentSearch(inst, ups, k)
    assert h.hexdigest()[:16] == digest


def test_budget_stops_listing_within_a_state(monkeypatch):
    # the budget is checked per listed candidate, so a state that alone
    # lists more than the budget stops at budget + 1 candidates
    inst = wtap.gen_random(12, 12, 20, 3)
    uplinks = list(wtap.cheapest_disjoint_uplink_cover(inst).paths)
    plans, listed = [], []

    class Kept(component_dp._Plan):
        def __init__(self, n):
            super().__init__(n)
            plans.append(self)

        def count_reads(self, names):
            listed.append(list(self.cand_lo))
            super().count_reads(names)

    monkeypatch.setattr(component_dp, "_Plan", Kept)
    ComponentSearch(inst, uplinks, 3)
    lo = listed[0]
    s = max(range(1, len(lo) - 1), key=lambda t: lo[t + 1] - lo[t])
    assert lo[s + 1] - lo[s] >= 3
    budget = lo[s] + 1
    monkeypatch.setattr(component_dp, "PLAN_CANDIDATE_BUDGET", budget)
    with pytest.raises(wtap.PlanTooLargeError, match=f"budget of {budget} "):
        ComponentSearch(inst, uplinks, 3)
    plan = plans[-1]
    assert len(plan.cand_w) == budget + 1
    assert len(plan.cand_lo) == s + 1


def _zwalk_reference(apex, most, base):
    """Every nonempty Z of at most ``most`` of the links ``apex``, by size,
    then in ``combinations`` order, each with its ends merged into ``base``."""
    for size in range(1, most + 1):
        for combo in combinations(apex, size):
            ends = dict(base)
            for _, _, legs in combo:
                for child, e in legs:
                    ends[child] = tuple(sorted(ends.get(child, ()) + (e,)))
            mask = 0
            for bit, _, _ in combo:
                mask |= bit
            yield sum(w for _, w, _ in combo), mask, ends


def test_zwalk_matches_combinations_reference():
    # the walk yields what combinations plus a sorted merge give, in the
    # same order, children in the order first reached, and leaves the
    # boundary map it starts from as it was; it walks sizes 1 and up (the
    # compile lists the empty Z itself)
    rng = random.Random(23)
    for trial in range(60):
        apex = []
        for pos in rng.sample(range(40), rng.randint(2, 7)):
            kids = rng.sample(range(4), rng.randint(1, 2))
            apex.append((1 << pos, rng.randint(1, 20),
                         tuple((c, rng.randint(10, 30)) for c in kids)))
        apex[1] = (apex[1][0], apex[1][1], ((apex[0][2][0][0], 5),))  # a shared child
        for base in ({}, {3: (12, 17), rng.randrange(4): (8,)}):
            frozen = dict(base)
            most = rng.randint(1, len(apex))
            got = [(w, m, list(ends.items())) for size in range(1, most + 1)
                   for w, m, ends in component_dp._zwalk(apex, 0, size, 0, 0, base)]
            want = [(w, m, list(ends.items()))
                    for w, m, ends in _zwalk_reference(apex, most, base)]
            assert got == want, trial
            assert list(base.items()) == list(frozen.items())


def test_drop_uplinks_rejects_unknown_index():
    inst = wtap.gen_fig2(3, 5)
    uplinks = fig2_reference_cover(inst)
    cs = ComponentSearch(inst, uplinks, 2)
    with pytest.raises(IndexError):
        cs.drop_uplinks([len(uplinks)])
    with pytest.raises(IndexError):
        cs.drop_uplinks([-1])


def test_answer_before_any_probe_raises():
    inst = wtap.gen_fig2(3, 5)
    uplinks = fig2_reference_cover(inst)
    cs = ComponentSearch(inst, uplinks, 2)
    with pytest.raises(RuntimeError, match="max_slack"):
        cs.entries()
    cs.max_slack(1, 2)
    cs.entries()
    cs.drop_uplinks([0])  # a cut plan has not been probed either
    with pytest.raises(RuntimeError, match="max_slack"):
        cs.entries()


def test_deterministic_tables():
    inst = wtap.gen_random(n=9, link_count=7, weight_max=6, seed=42)
    uplinks = list(wtap.cheapest_disjoint_uplink_cover(inst).paths)
    a = ComponentSearch(inst, uplinks, 2).max_slack(1, 2)
    b = ComponentSearch(inst, uplinks, 2).max_slack(1, 2)
    assert a == b


def test_plan_candidate_budget(monkeypatch):
    # the compile counts candidates as it lists them and stops past the
    # budget; the plan keeps no more candidates than it listed
    inst = wtap.gen_fig2(4, 10)
    uplinks = fig2_reference_cover(inst)
    kept = len(ComponentSearch(inst, uplinks, 2)._plan.cand_w)
    monkeypatch.setattr(component_dp, "PLAN_CANDIDATE_BUDGET", kept - 1)
    with pytest.raises(wtap.PlanTooLargeError, match=f"budget of {kept - 1} "):
        ComponentSearch(inst, uplinks, 2)
    with pytest.raises(wtap.PlanTooLargeError):
        wtap.greedy.solve(inst, Fraction(1))
    monkeypatch.setattr(component_dp, "PLAN_CANDIDATE_BUDGET", 4 * kept)
    assert ComponentSearch(inst, uplinks, 2).states > 0


def test_up_links_must_be_disjoint():
    inst = Instance(3, 0, [(0, 1), (1, 2)], [Link(0, 2, 4)])
    overlapping = [UpPath(0, 2, 4, 0), UpPath(0, 1, 4, 0)]
    with pytest.raises(ValueError, match="overlap"):
        ComponentSearch(inst, overlapping, 1)


@pytest.mark.parametrize("top, bottom", [(4, 4), (6, 4), (3, 5)],
                         ids=["top-is-bottom", "top-below-bottom", "unrelated"])
def test_up_links_must_hang_from_a_strict_ancestor(top, bottom):
    # gen_random(8, 8, 5, 1) has root 0, the path 0-2-3-4 and 6, 7 below 4
    inst = wtap.gen_random(8, 8, 5, 1)
    assert inst.index.parent == [-1, 0, 0, 2, 3, 0, 4, 4]
    with pytest.raises(ValueError, match=f"{top} is not a strict ancestor of {bottom}"):
        ComponentSearch(inst, [UpPath(top, bottom, 5, 0)], 2)


def _caterpillar(n, link_count, wmax, seed):
    # spine-heavy tree: deep ancestries stress the coverage-flag chains
    from wtap.generators import _stream
    from wtap.model import uncovered_edges
    rng = _stream(seed, 5)
    edges = []
    spine = [0]
    for i in range(1, n):
        if rng.integers(0, 4) == 0 and len(spine) > 1:
            parent = int(spine[int(rng.integers(0, len(spine)))])
        else:
            parent = spine[-1]
        edges.append((parent, i))
        if parent == spine[-1]:
            spine.append(i)
    links = []
    for _ in range(link_count):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u != v:
            links.append(Link(u, v, int(rng.integers(1, wmax + 1))))
    inst = Instance(n, 0, edges, links)
    for c in uncovered_edges(inst, (lk.endpoints() for lk in links)):
        links.append(Link(int(inst.index.parent[c]), c, wmax))
    return Instance(n, 0, edges, links)


def _random_disjoint_uplinks(inst, seed):
    from wtap.generators import _stream
    rng = _stream(seed, 6)
    idx = inst.index
    table = wtap.vertical_cost_table(inst)
    used = 0
    ups = []
    verts = list(range(1, inst.n))
    # numpy's Generator.shuffle on a list shorter than 2**32: Fisher-Yates,
    # each draw under the smallest bit mask covering i, draws above i rejected
    for i in reversed(range(1, len(verts))):
        mask = (1 << i.bit_length()) - 1
        j = rng._next32() & mask
        while j > i:
            j = rng._next32() & mask
        verts[i], verts[j] = verts[j], verts[i]
    for b in verts:
        td = int(rng.integers(0, int(idx.depth[b])))
        t = idx.ancestor_at_depth(b, td)
        ent = table.cost_of(t, b)
        if ent is None:
            continue
        mask = vertical_edge_mask(idx, t, b)
        if mask & used:
            continue
        used |= mask
        ups.append(UpPath(t, b, ent[0], ent[1]))
    return ups


def test_oracle_equivalence_deep_chains_arbitrary_u():
    # long vertical paths and non-baseline U sets, k up to 4
    budget = OracleBudget(max_links=12)
    tested = 0
    seed = 0
    while tested < 40:
        seed += 1
        inst = _caterpillar(4 + seed % 9, (seed * 3) % 8, 1 + seed % 30,
                            40_000 + seed)
        ups = _random_disjoint_uplinks(inst, seed)
        if not ups:
            continue
        if len(inst.links) + len(ups) > 12:
            continue
        tested += 1
        for k in (1, 3, 4):
            cs = ComponentSearch(inst, ups, k)
            table = KThinTable(inst, ups, k, cs.links, budget)
            for p, q in ((1, 4), (1, 2), (1, 1)):
                res = cs.max_slack(p, q)
                want, want_mask = table.max_slack(p, q)
                assert res.slack == want, (seed, k, p, q)
                assert bool(res.links) == (want_mask != 0)
            got = wtap.best_ratio_component(cs)
            oracle = wtap.brute_best_kthin(inst, ups, k, cs.links, budget)
            assert got.rho == oracle.rho, (seed, k)


def test_runtime_envelope_n30_k2():
    inst = wtap.gen_random(n=30, link_count=45, weight_max=9, seed=77)
    uplinks = list(wtap.cheapest_disjoint_uplink_cover(inst).paths)
    t0 = time.perf_counter()  # the plan is compiled in the constructor
    ComponentSearch(inst, uplinks, 2).max_slack(1, 2)
    assert time.perf_counter() - t0 < 10.0


def test_long_path_leaves_recursion_limit_alone():
    # 3000-vertex path: the plan is compiled, swept and cut without
    # recursion, and the library must not raise the interpreter's
    # recursion limit
    n = 3000
    rng = random.Random(3)
    links = [Link(i - 1, i, 20) for i in range(1, n)]
    for v in range(2, n, 2):
        links.append(Link(max(0, v - rng.randint(1, 6)), v, rng.randint(1, 20)))
    inst = Instance(n, 0, [(i - 1, i) for i in range(1, n)], links)
    uplinks = list(wtap.cheapest_disjoint_uplink_cover(inst).paths)
    # one up-link of 1500 edges on the same path
    long_up = UpPath(0, 1500, 20, 0)
    long_fresh = ComponentSearch(inst, [], 1)
    old = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(1000)
        cs = ComponentSearch(inst, uplinks, 2)
        res = cs.max_slack(1, 2)
        while len(cs.uplinks) > 1:  # a chain of drops of every other up-link
            cs.drop_uplinks(range(0, len(cs.uplinks), 2))
            cs.max_slack(1, 2)
        long_cs = ComponentSearch(inst, [long_up], 1)
        long_cs.drop_uplinks([0])
        long_res = long_cs.max_slack(1, 2)
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(old)
    assert res.slack >= 0
    assert long_cs.states == long_fresh.states
    assert long_res == long_fresh.max_slack(1, 2)

