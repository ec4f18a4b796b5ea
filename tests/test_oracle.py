"""Brute-force oracles: examples, self-consistency, budgets."""

import random

import pytest

import wtap
from wtap import _kernels
from wtap._kernels import lex_less
from wtap.generators import fig2_link_groups
from wtap.model import Instance, Link
from wtap.component_dp import ComponentSearch
from wtap.oracle import (BudgetExceededError, OracleBudget, full_edge_mask,
                         link_paths, vertical_edge_mask)


def _min_cover_python(masks: list[int], weights: list[int], full: int) -> tuple[int, int]:
    """Reference minimum cover: a Gray-code sweep over all 2**m subsets.

    Keeps per-edge coverage counts; ties pick the ``lex_less``-smallest
    subset.  Returns ``(-1, 0)`` when no subset covers ``full``.
    """
    m = len(masks)
    counts: dict[int, int] = {}
    covered = 0
    n_edges = bin(full).count("1")
    cur = 0
    curw = 0
    bestw = -1
    bestmask = 0
    for s in range(1, 1 << m):
        b = (s & -s).bit_length() - 1
        bit = 1 << b
        delta = -1 if cur & bit else 1
        cur ^= bit
        curw += delta * weights[b]
        pm = masks[b]
        while pm:
            low = pm & (-pm)
            e = low.bit_length() - 1
            c = counts.get(e, 0) + delta
            counts[e] = c
            if delta > 0 and c == 1:
                covered += 1
            elif delta < 0 and c == 0:
                covered -= 1
            pm ^= low
        if covered == n_edges:
            if bestw < 0 or curw < bestw or (curw == bestw and lex_less(cur, bestmask)):
                bestw, bestmask = curw, cur
    return bestw, bestmask


def test_exact_opt_examples(single_edge, star_ab):
    assert wtap.exact_opt(single_edge).weight == 5
    assert wtap.exact_opt(star_ab).weight == 3
    inst = wtap.gen_fig2(3, 5)
    sol = wtap.exact_opt(inst)
    groups = fig2_link_groups(inst)
    assert sol.weight == 18
    assert sorted(sol.link_ids) == sorted(groups["long"] + groups["leafpair"])


def test_exact_opt_budget():
    inst = wtap.gen_random(n=8, link_count=10, weight_max=3, seed=1)
    with pytest.raises(BudgetExceededError):
        wtap.exact_opt(inst, OracleBudget(max_links=4))


def _path(n: int, pairs, weight_max: int, rng: random.Random) -> Instance:
    links = [Link(u, v, rng.randint(1, weight_max)) for u, v in pairs]
    return Instance(n, 0, [(i, i + 1) for i in range(n - 1)], links)


def _random_path(n: int, m: int, weight_max: int, rng: random.Random) -> Instance:
    """A path 0..n-1 with m interval links; the first m // 2 tile it."""
    cuts = sorted(rng.sample(range(1, n - 1), m // 2 - 1))
    bounds = [0] + cuts + [n - 1]
    pairs = list(zip(bounds, bounds[1:]))
    while len(pairs) < m:
        u = rng.randrange(n - 1)
        pairs.append((u, rng.randrange(u + 1, n)))
    return _path(n, pairs, weight_max, rng)


def _gapped_path(n: int, m: int, rng: random.Random) -> Instance:
    """A path with m interval links, none of which covers edge (g, g+1)."""
    g = rng.randrange(1, n - 2)
    pairs = []
    while len(pairs) < m:
        lo, hi = (0, g) if rng.random() < 0.5 else (g + 1, n - 1)
        u = rng.randrange(lo, hi)
        pairs.append((u, rng.randrange(u + 1, hi + 1)))
    return _path(n, pairs, 3, rng)


def _oracle_cases():
    rng = random.Random(20260)
    cases = []
    for seed in range(160):  # random trees; m up to 14 reaches the high links
        n = 2 + seed % 12
        cases.append(wtap.gen_random(n=n, link_count=seed % 15, weight_max=6,
                                     seed=9000 + seed))
    for seed in range(60):  # all weights equal: every tie goes to lex_less
        cases.append(wtap.gen_random(n=3 + seed % 9, link_count=4 + seed % 11,
                                     weight_max=1, seed=9500 + seed))
    for i in range(60):  # n >= 64, beyond the old 63-bit edge masks
        cases.append(_random_path(64 + i, 8 + i % 7, 1 + i % 4, rng))
    for seed in range(20):  # zero weights: a set can tie a proper prefix of it
        inst = wtap.gen_random(n=4 + seed % 6, link_count=11 + seed % 4,
                               weight_max=2, seed=9700 + seed)
        cases.append(Instance(inst.n, inst.root, inst.edges,
                              [Link(lk.u, lk.v, lk.weight % 2) for lk in inst.links]))
    cases.extend(wtap.gen_fig3(m) for m in range(1, 6))
    cases.extend(wtap.gen_fig2(d, 3) for d in (2, 3, 4))
    cases.extend(_gapped_path(4 + i, 3 + i % 10, rng) for i in range(20))
    return cases


def test_exact_opt_kernel_matches_python_fallback(monkeypatch):
    cases = _oracle_cases()
    assert len(cases) >= 300
    infeasible = 0
    for i, inst in enumerate(cases):
        # small low tables too, so that small cases run the high-link scan
        monkeypatch.setattr(_kernels, "LOW_LINKS", 10 if i % 3 else 1 + i % 5)
        masks = link_paths(inst)
        weights = [lk.weight for lk in inst.links]
        w, mask = _min_cover_python(masks, weights, full_edge_mask(inst))
        if w < 0:
            infeasible += 1
            with pytest.raises(ValueError, match="infeasible"):
                wtap.exact_opt(inst)
            continue
        got = wtap.exact_opt(inst)
        assert got.weight == w
        assert got.link_ids == tuple(wtap.model.mask_bits(mask))
    assert infeasible == 20


def test_tie_orders_match_sorted_id_tuples():
    for lo in range(11):
        ids = [tuple(b for b in range(lo) if s >> b & 1) for s in range(1 << lo)]
        alone, beside = _kernels.tie_orders(lo)
        assert alone == sorted(range(1 << lo), key=lambda s: ids[s]), lo
        assert beside == sorted(range(1 << lo), key=lambda s: ids[s] + (lo,)), lo


def test_min_cover_gray_matches_python_reference_at_every_split(monkeypatch):
    rng = random.Random(4242)
    for low_links in range(1, 11):
        monkeypatch.setattr(_kernels, "LOW_LINKS", low_links)
        for trial in range(12):
            m = rng.randint(low_links + 1, min(low_links + 4, 13))
            n_edges = rng.randint(1, 10)
            masks = [rng.getrandbits(n_edges) for _ in range(m)]
            # zero weights tie a set with its subsets; equal weights tie by ids
            top = trial % 4
            weights = [1] * m if top == 1 else [rng.randint(0, top) for _ in range(m)]
            full = (1 << n_edges) - 1
            want = _min_cover_python(masks, weights, full)
            assert _kernels.min_cover_gray(masks, weights, n_edges) == want, \
                (low_links, masks, weights)


def test_exact_opt_weights_beyond_int64():
    # Two links of about 2**62 each: their sum overflows int64, and the
    # cheapest cover is the single heavy link 0, not links 1 and 2.
    inst = Instance(3, 0, [(0, 1), (1, 2)],
                    [Link(0, 2, 1 << 62), Link(0, 1, (1 << 62) - 1),
                     Link(1, 2, 2)])
    sol = wtap.exact_opt(inst)
    assert sol.weight == 1 << 62
    assert sol.link_ids == (0,)


def test_brute_uplink_cover_examples(path3, star_ab):
    assert wtap.brute_uplink_cover(path3)[0] == 7
    assert wtap.brute_uplink_cover(star_ab)[0] == 6
    # brute witness partitions the edges
    inst = wtap.gen_random(n=9, link_count=8, weight_max=5, seed=3)
    w, paths = wtap.brute_uplink_cover(inst)
    seen = 0
    for p in paths:
        mask = vertical_edge_mask(inst.index, p.top, p.bottom)
        assert mask & seen == 0
        seen |= mask
    assert seen == full_edge_mask(inst)
    assert sum(p.weight for p in paths) == w


def test_brute_best_kthin_singleton(single_edge):
    up = [wtap.uplink_from_link(single_edge, 0)]
    search = ComponentSearch(single_edge, up, 1).links
    res = wtap.brute_best_kthin(single_edge, up, 1, search)
    assert res.rho == 1


def test_oracle_self_consistency():
    for seed in range(60):
        inst = wtap.gen_random(n=2 + seed % 9, link_count=(seed * 3) % 10,
                               weight_max=7, seed=9300 + seed)
        opt = wtap.exact_opt(inst)
        two = wtap.two_approx_only(inst)
        assert opt.weight <= two.weight <= 2 * opt.weight
