"""Instance model: validation, paths, apexes, drops, thinness, cost table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wtap
from wtap import Instance, Link
from wtap.model import link_vertices, mask_bits
from wtap.oracle import path_edge_mask, vertical_edge_mask


def test_validate_minimal_ok(single_edge):
    assert wtap.validate(single_edge) == []


def test_validate_missing_coverage():
    inst = Instance(3, 0, [(0, 1), (1, 2)], [Link(0, 1, 2)])
    issues = wtap.validate(inst)
    assert [i.code for i in issues] == ["UncoverableEdge"]
    assert issues[0].subject == 2


def test_validate_not_a_tree():
    inst = Instance(3, 0, [(0, 1), (0, 1)], [Link(0, 1, 2)])
    assert any(i.code == "NotATree" for i in wtap.validate(inst))
    inst2 = Instance(4, 0, [(0, 1), (1, 2)], [Link(0, 1, 2)])
    assert any(i.code == "NotATree" for i in wtap.validate(inst2))


def test_validate_nonpositive_weight():
    inst = Instance(2, 0, [(0, 1)], [Link(0, 1, 0)])
    assert any(i.code == "NonpositiveWeight" for i in wtap.validate(inst))


def test_validate_fig2_family():
    assert wtap.validate(wtap.gen_fig2(3, 5)) == []


def test_validate_single_vertex():
    inst = Instance(1, 0, [], [])
    assert wtap.validate(inst) == []


def test_self_loop_rejected_at_construction():
    with pytest.raises(ValueError):
        Instance(2, 0, [(0, 1)], [Link(1, 1, 3)])


def test_link_path_parent_child(single_edge):
    assert path_edge_mask(single_edge.index, 0, 1) == 0b10


def test_link_path_through_root(path3):
    # both edges, children 1 and 2
    assert path_edge_mask(path3.index, 0, 2) == 0b110


def test_link_path_length_identity():
    inst = wtap.gen_fig2(4, 3)
    idx = inst.index
    for lk in inst.links:
        apx = wtap.apex(inst, lk)
        expect = int(idx.depth[lk.u]) + int(idx.depth[lk.v]) - 2 * int(idx.depth[apx])
        assert len(mask_bits(path_edge_mask(inst.index, lk.u, lk.v))) == expect


def test_apex_and_uplink(star_ab, single_edge):
    assert wtap.apex(star_ab, 0) == 0
    assert wtap.apex(single_edge, 0) == 0


def test_fig2_long_link_apex_is_root():
    inst = wtap.gen_fig2(4, 3)
    assert wtap.apex(inst, 0) == 0
    # vertical and pendant links are up-links: the apex is an endpoint
    d = 4
    for lid in range(1, 2 * d + 1):
        assert wtap.apex(inst, lid) in inst.link(lid).endpoints()
    for lid in range(2 * d + 1, 3 * d + 1):
        assert wtap.apex(inst, lid) not in inst.link(lid).endpoints()


def test_is_k_thin_examples():
    inst = wtap.gen_fig2(3, 5)
    from wtap.generators import fig2_link_groups
    groups = fig2_link_groups(inst)
    opt = groups["long"] + groups["leafpair"]
    assert wtap.is_k_thin(inst, [], 0)
    assert wtap.is_k_thin(inst, opt, 2)
    assert not wtap.is_k_thin(inst, opt, 1)
    m = 3
    hub = wtap.gen_fig3(m)
    from fig_helpers import fig3_solution_ids
    sol = fig3_solution_ids(hub)
    assert not wtap.is_k_thin(hub, sol, m)
    assert wtap.is_k_thin(hub, sol, m + 1)


def test_path_is_union_of_vertical_legs():
    for seed in range(30):
        inst = wtap.gen_random(n=2 + seed % 9, link_count=seed % 7,
                               weight_max=5, seed=900 + seed)
        idx = inst.index
        for lk in inst.links:
            apx = wtap.apex(inst, lk)
            up_u = vertical_edge_mask(idx, apx, lk.u)
            up_v = vertical_edge_mask(idx, apx, lk.v)
            assert up_u | up_v == path_edge_mask(idx, lk.u, lk.v)
            assert up_u & up_v == 0


@given(st.integers(0, 10_000), st.integers(2, 9), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_k_thin_monotone_in_k_antitone_in_c(seed, n, k):
    inst = wtap.gen_random(n=n, link_count=6, weight_max=4, seed=seed)
    ids = list(range(len(inst.links)))
    if wtap.is_k_thin(inst, ids, k):
        assert wtap.is_k_thin(inst, ids, k + 1)
        assert wtap.is_k_thin(inst, ids[: len(ids) // 2], k)


def test_vertical_cost_table_examples(single_edge, path3):
    t = wtap.vertical_cost_table(single_edge)
    assert t.cost_of(0, 1) == (5, 0)
    t3 = wtap.vertical_cost_table(path3)
    assert t3.cost_of(0, 1) == (7, 0)
    assert t3.cost_of(1, 2) == (7, 0)
    assert t3.cost_of(0, 2) == (7, 0)


def test_vertical_cost_table_fig2_top_edge():
    # A single top edge is realizable both by the two-edge vertical link
    # (2M+1) and by the long link (d*M); the table keeps the cheaper one.
    inst = wtap.gen_fig2(3, 5)
    assert inst.index.parent[1] == 0
    assert wtap.vertical_cost_table(inst).cost_of(0, 1) == (11, 1)
    # with d*M below 2M+1 the long link wins
    cheap = wtap.gen_fig2(2, 1)
    assert wtap.vertical_cost_table(cheap).cost_of(0, 1) == (2, 0)


def _shadow_closure(inst):
    """All shadows of all links: each vertex pair on a link's path, mapped
    to the (weight, id) of the cheapest link through it, the smaller id on
    ties."""
    best = {}
    for lid, lk in enumerate(inst.links):
        verts = link_vertices(inst, lk)
        for i in range(len(verts)):
            for j in range(i + 1, len(verts)):
                a, b = verts[i], verts[j]
                key = (min(a, b), max(a, b))
                cand = (lk.weight, lid)
                if key not in best or cand < best[key]:
                    best[key] = cand
    return best


def test_vertical_cost_table_matches_explicit_shadows():
    # Oracle: materialize every shadow and take the per-pair minimum.
    for seed in range(25):
        inst = wtap.gen_random(n=2 + seed % 9, link_count=(seed * 3) % 9,
                               weight_max=6, seed=1500 + seed)
        idx = inst.index
        table = wtap.vertical_cost_table(inst)
        closure = _shadow_closure(inst)
        for b in range(inst.n):
            for d in range(int(idx.depth[b])):
                t = idx.ancestor_at_depth(b, d)
                key = (min(t, b), max(t, b))
                entry = table.cost_of(t, b)
                if entry is None:
                    assert key not in closure
                else:
                    assert closure[key][0] == entry[0]


def _vertical_table_reference(inst):
    """Per-slot relaxation: every link, every vertical pair on its legs."""
    idx = inst.index
    best = {}
    for lid, lk in enumerate(inst.links):
        top = idx.lca(lk.u, lk.v)
        for y in (lk.u, lk.v):
            while y != top:
                t = y
                while t != top:
                    t = idx.parent[t]
                    key = (t, y)
                    best[key] = min(best.get(key, (lk.weight, lid)), (lk.weight, lid))
                y = idx.parent[y]
    return best


def test_vertical_cost_table_matches_per_slot_reference():
    # weights and the smaller-id tie-break, on random trees and deep paths
    for seed in range(60):
        if seed % 2:
            inst = wtap.gen_random(n=2 + seed % 23, link_count=seed % 31,
                                   weight_max=1 + seed % 3, seed=2300 + seed)
        else:
            n = 5 + seed
            pairs = [(i % n, (7 * i + 3) % n) for i in range(2 * n)]
            links = [Link(u, v, 1 + j % 3)
                     for j, (u, v) in enumerate((u, v) for u, v in pairs if u != v)]
            inst = Instance(n, seed % n, [(v - 1, v) for v in range(1, n)], links)
        want = _vertical_table_reference(inst)
        idx = inst.index
        table = wtap.vertical_cost_table(inst)
        got = {}
        for b in range(inst.n):
            t = b
            while t != inst.root:
                t = idx.parent[t]
                entry = table.cost_of(t, b)
                if entry is not None:
                    got[(t, b)] = entry
        assert got == want


def test_table_cost_monotone_under_path_extension():
    # covering a longer vertical path can never be cheaper, and once a
    # length is unrealizable every extension is too
    for seed in range(10):
        inst = wtap.gen_random(n=3 + seed % 7, link_count=6, weight_max=9,
                               seed=2100 + seed)
        idx = inst.index
        table = wtap.vertical_cost_table(inst)
        for b in range(inst.n):
            prev_cost = None
            for d in range(int(idx.depth[b]) - 1, -1, -1):
                t = idx.ancestor_at_depth(b, d)
                entry = table.cost_of(t, b)
                if entry is None:
                    for d2 in range(d - 1, -1, -1):
                        t2 = idx.ancestor_at_depth(b, d2)
                        assert table.cost_of(t2, b) is None
                    break
                if prev_cost is not None:
                    assert entry[0] >= prev_cost
                prev_cost = entry[0]


def test_link_vertices_matches_path():
    inst = wtap.gen_fig3(2)
    for lk in inst.links:
        verts = link_vertices(inst, lk)
        assert verts[0] in (lk.u, lk.v) and verts[-1] in (lk.u, lk.v)
        assert len(verts) == len(mask_bits(path_edge_mask(inst.index, lk.u, lk.v))) + 1
