"""Generators: determinism, structure, and figure-family weight rules."""

import pytest

import wtap
from wtap import io as wio
from wtap.generators import (fig2_link_groups, fig2_reference_cover,
                             fig3_solution_ids, fig3_uplinks)
from wtap.model import link_vertices

GOLDEN_SEED42 = (
    '{"edges":[[0,1],[0,2],[2,3],[2,4],[4,5],[1,6],[6,7]],'
    '"links":[{"u":0,"v":3,"w":7},{"u":0,"v":1,"w":1},{"u":4,"v":5,"w":7},'
    '{"u":5,"v":7,"w":7},{"u":0,"v":6,"w":1},{"u":0,"v":5,"w":1}],'
    '"meta":{"scale":1},"n":8,"root":0}'
)


def test_gen_random_reproducible():
    a = wtap.gen_random(n=12, link_count=9, weight_max=8, seed=123)
    b = wtap.gen_random(n=12, link_count=9, weight_max=8, seed=123)
    assert wio.dumps(a) == wio.dumps(b)
    c = wtap.gen_random(n=12, link_count=9, weight_max=8, seed=124)
    assert wio.dumps(a) != wio.dumps(c)


def test_gen_random_golden_seed42():
    inst = wtap.gen_random(n=8, link_count=6, weight_max=9, seed=42)
    assert wio.dumps(inst) == GOLDEN_SEED42


def test_gen_random_always_feasible():
    for seed in range(50):
        inst = wtap.gen_random(n=1 + seed % 14, link_count=seed % 10,
                               weight_max=6, seed=seed)
        assert wtap.validate(inst) == []


def test_gen_random_edgeless():
    inst = wtap.gen_random(n=1, link_count=3, weight_max=5, seed=0)
    assert inst.n == 1 and not inst.links and not inst.edges


def test_gen_random_two_vertices():
    inst = wtap.gen_random(n=2, link_count=1, weight_max=5, seed=0)
    assert len(inst.edges) == 1
    assert wtap.validate(inst) == []


def test_gen_random_rejects_bad_params():
    for kwargs, what in ((dict(n=0, link_count=3, weight_max=5), "n must"),
                         (dict(n=5, link_count=-1, weight_max=5), "link_count"),
                         (dict(n=5, link_count=3, weight_max=0), "weight_max"),
                         (dict(n=1, link_count=0, weight_max=0), "weight_max")):
        with pytest.raises(ValueError, match=what):
            wtap.gen_random(seed=0, **kwargs)


def test_fig2_legend_weights():
    for d, m_val in ((2, 1), (3, 5), (6, 10)):
        inst = wtap.gen_fig2(d, m_val)
        groups = fig2_link_groups(inst)
        assert inst.links[groups["long"][0]].weight == d * m_val
        for lid in groups["vertical"]:
            assert inst.links[lid].weight == 2 * m_val + 1
        for lid in groups["pendant"] + groups["leafpair"]:
            assert inst.links[lid].weight == 1
        assert wtap.validate(inst) == []
        assert inst.n == 3 * d + 1


def test_fig2_reference_cover_structure():
    inst = wtap.gen_fig2(4, 10)
    ref = fig2_reference_cover(inst)
    seen = 0
    for p in ref:
        mask = inst.index.vertical_edge_mask(p.top, p.bottom)
        assert mask & seen == 0
        seen |= mask
    assert seen == inst.full_edge_mask
    assert sum(p.weight for p in ref) == 2 * (4 * 10 + 4)


def test_fig2_small_components_cannot_win():
    # any component of at most d/2 links drops no more weight than it costs
    from itertools import combinations
    inst = wtap.gen_fig2(4, 10)
    ref = fig2_reference_cover(inst)
    u_ids = [p.link_id for p in ref]
    idx = inst.index
    u_masks = {p.link_id: idx.vertical_edge_mask(p.top, p.bottom) for p in ref}
    all_ids = range(len(inst.links))
    for size in (1, 2):
        for combo in combinations(all_ids, size):
            cover = 0
            for lid in combo:
                cover |= inst.link_paths[lid]
            dropw = sum(inst.links[u].weight for u in u_ids
                        if u_masks[u] & ~cover == 0)
            cost = sum(inst.links[lid].weight for lid in combo)
            assert dropw <= cost


def test_fig2_rejects_bad_params():
    with pytest.raises(ValueError):
        wtap.gen_fig2(1, 5)
    with pytest.raises(ValueError):
        wtap.gen_fig2(4, 0)


def test_fig3_structure():
    for m in (1, 2, 5):
        inst = wtap.gen_fig3(m)
        assert wtap.validate(inst) == []
        hub = m + 1
        for lid in fig3_solution_ids(inst):
            assert hub in link_vertices(inst, lid)
        ups = fig3_uplinks(inst)
        assert len(ups) == m
        seen = 0
        for p in ups:
            mask = inst.index.vertical_edge_mask(p.top, p.bottom)
            assert mask & seen == 0
            seen |= mask


def test_fig3_decomposition_budget():
    inst = wtap.gen_fig3(4)
    ups = fig3_uplinks(inst)
    dec = wtap.decompose(inst, fig3_solution_ids(inst), ups, "1/2")
    w_r = sum(ups[i].weight for i in dec.removed)
    assert 2 * w_r <= sum(p.weight for p in ups)
