"""Cover witnesses, dependency graph, labeling, and thin decomposition."""

import hashlib
from fractions import Fraction

import pytest

import wtap
from wtap import Instance, Link
from wtap.baseline import UpPath
from wtap.oracle import link_paths, vertical_edge_mask

from fig_helpers import fig3_solution_ids, fig3_uplinks, uplink_from_link


def _chain_instance():
    # chain 0-1-...-8 with four overlapping links and one long up-link
    edges = [(i, i + 1) for i in range(8)]
    links = [
        Link(0, 3, 1),
        Link(2, 5, 1),
        Link(4, 7, 1),
        Link(6, 8, 1),
        Link(0, 8, 1),
    ]
    return Instance(9, 0, edges, links)


def test_witness_chain_order():
    inst = _chain_instance()
    up = uplink_from_link(inst, 4)
    wit = wtap.compute_cover_witness(inst, [0, 1, 2, 3], up)
    assert wit.links == (0, 1, 2, 3)
    assert wit.v_u == 0
    # own edges: each link alone covers a nonempty stretch, in order
    assert wit.own_edges[0] == 0b0000_0000_0110  # children 1,2
    assert wit.own_edges[1] == 0b0000_0001_0000  # child 4
    assert wit.own_edges[2] == 0b0000_0100_0000  # child 6
    assert wit.own_edges[3] == 0b0001_0000_0000  # child 8


def test_witness_single_link():
    inst = _chain_instance()
    up = UpPath(top=2, bottom=4, weight=1, link_id=1)
    wit = wtap.compute_cover_witness(inst, [0, 1, 2, 3], up)
    assert wit.links == (1,)
    assert wit.arcs() == []


def test_witness_requires_coverage():
    inst = _chain_instance()
    up = uplink_from_link(inst, 4)
    with pytest.raises(ValueError):
        wtap.compute_cover_witness(inst, [0, 1], up)


def test_fig3_witnesses_and_path_graph():
    for m in (1, 2, 4):
        inst = wtap.gen_fig3(m)
        f_ids = fig3_solution_ids(inst)
        uplinks = fig3_uplinks(inst)
        graph = wtap.build_dependency_graph(inst, f_ids, uplinks)
        for ui, wit in enumerate(graph.witnesses):
            assert list(wit.links) == [ui, ui + 1]
        arcs = sorted((a, b) for a, b, _ in graph.arcs)
        assert arcs == [(i, i + 1) for i in range(m)]


def test_empty_u_gives_singletons():
    inst = _chain_instance()
    graph = wtap.build_dependency_graph(inst, [0, 1, 2, 3], [])
    assert graph.arcs == ()
    dec = wtap.decompose(inst, [0, 1, 2, 3], [], Fraction(1, 2))
    assert dec.removed == ()
    assert dec.parts == ((0,), (1,), (2,), (3,))


def test_fig3_labels_and_residues():
    m = 5
    inst = wtap.gen_fig3(m)
    f_ids = fig3_solution_ids(inst)
    uplinks = fig3_uplinks(inst)
    dec = wtap.decompose(inst, f_ids, uplinks, Fraction(1, 2))
    assert dec.k == 2
    assert [dec.labels[ui] for ui in range(m)] == list(range(m))
    w_r = sum(uplinks[i].weight for i in dec.removed)
    w_u = sum(p.weight for p in uplinks)
    assert 2 * w_r <= w_u
    for part in dec.parts:
        assert wtap.is_k_thin(inst, part, 2)


def test_decompose_eps_above_one():
    # k = 1: every chained up-link is removed, parts become singletons
    m = 3
    inst = wtap.gen_fig3(m)
    dec = wtap.decompose(inst, fig3_solution_ids(inst), fig3_uplinks(inst),
                         Fraction(2))
    assert dec.k == 1
    assert len(dec.removed) == m
    assert all(len(part) == 1 for part in dec.parts)


def test_decompose_random_triples():
    for seed in range(60):
        inst = wtap.gen_random(n=2 + seed % 11, link_count=(seed * 3) % 10,
                               weight_max=5, seed=8000 + seed)
        uplinks = list(wtap.cheapest_disjoint_uplink_cover(inst).paths)
        f_ids = list(range(len(inst.links)))
        for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 3)):
            dec = wtap.decompose(inst, f_ids, uplinks, eps)  # self-checking
            assert dec.k == -(-1 * eps.denominator // eps.numerator)


def test_verify_lemmas_on_families_and_random():
    for m in (1, 3):
        inst = wtap.gen_fig3(m)
        graph = wtap.build_dependency_graph(inst, fig3_solution_ids(inst),
                                            fig3_uplinks(inst))
        rep = wtap.verify_cover_structure(inst, graph)
        assert rep["ok"], rep["failed"]
    inst = _chain_instance()
    graph = wtap.build_dependency_graph(inst, [0, 1, 2, 3],
                                        [uplink_from_link(inst, 4)])
    rep = wtap.verify_cover_structure(inst, graph)
    assert rep["ok"], rep["failed"]
    for seed in range(50):
        rnd = wtap.gen_random(n=2 + seed % 9, link_count=(seed * 5) % 9,
                              weight_max=4, seed=8300 + seed)
        uplinks = list(wtap.cheapest_disjoint_uplink_cover(rnd).paths)
        f_ids = list(range(len(rnd.links)))
        graph = wtap.build_dependency_graph(rnd, f_ids, uplinks)
        rep = wtap.verify_cover_structure(rnd, graph)
        assert rep["ok"], (seed, rep["failed"], rep["checks"])


def test_averaging_inequality():
    # the decomposition's parts drop at least w(U) - w(R) in total
    for seed in range(40):
        inst = wtap.gen_random(n=3 + seed % 9, link_count=(seed * 7) % 11,
                               weight_max=6, seed=8600 + seed)
        uplinks = list(wtap.cheapest_disjoint_uplink_cover(inst).paths)
        if not uplinks:
            continue
        f_ids = list(wtap.exact_opt(inst).link_ids)
        dec = wtap.decompose(inst, f_ids, uplinks, Fraction(1, 2))
        w_u = sum(p.weight for p in uplinks)
        w_r = sum(uplinks[i].weight for i in dec.removed)
        total_drop = 0
        idx = inst.index
        paths = link_paths(inst)
        for part in dec.parts:
            cover = 0
            for lid in part:
                cover |= paths[lid]
            total_drop += sum(p.weight for p in uplinks
                              if vertical_edge_mask(idx, p.top, p.bottom) & ~cover == 0)
        assert total_drop >= w_u - w_r


def _canon(x):
    """A text form of the lab's outputs; dicts by sorted key."""
    if isinstance(x, dict):
        return "{" + ",".join(f"{_canon(k)}:{_canon(v)}"
                              for k, v in sorted(x.items())) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in x) + "]"
    return repr(x)


def _digest_cases():
    # (instance, F, U, exact), exact when F is exact_opt's set, which ties
    # decide
    for seed in range(200):
        inst = wtap.gen_random(n=3 + seed % 18, link_count=2 + (seed * 5) % 19,
                               weight_max=5, seed=70_000 + seed)
        uplinks = list(wtap.cheapest_disjoint_uplink_cover(inst).paths)
        yield inst, list(range(len(inst.links))), uplinks, False
        if len(inst.links) <= 16:
            yield inst, list(wtap.exact_opt(inst).link_ids), uplinks, True
    for m in (1, 3, 8, 20):
        inst = wtap.gen_fig3(m)
        yield inst, fig3_solution_ids(inst), fig3_uplinks(inst), False


def test_lab_outputs_pinned_digest():
    # every witness, label, residue, part and structure report, as the
    # edge-bitmask implementation produced them; one digest for the cases
    # whose F is exact_opt's, one for the rest
    hashes = {False: hashlib.sha256(), True: hashlib.sha256()}
    runs = 0
    for inst, f_ids, uplinks, exact in _digest_cases():
        h = hashes[exact]
        for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 3)):
            dec = wtap.decompose(inst, f_ids, uplinks, eps)
            g = dec.graph
            wits = [(w.uplink, w.v_u, w.links, w.own_edges)
                    for w in g.witnesses]
            h.update(_canon((dec.removed, dec.parts, dec.labels,
                             dec.chosen_residue, dec.k, g.nodes, g.arcs,
                             wits)).encode())
            runs += 1
        rep = wtap.verify_cover_structure(inst, dec.graph)
        h.update(_canon(rep).encode())
    assert runs == 1095
    assert hashes[False].hexdigest() == \
        "0cba7f0e508b14faa055aa39bb9017a78b493b1921806dcae363f857d8e3a80d"
    assert hashes[True].hexdigest() == \
        "1aca2eb2ec2f63f35cfcf68c261ee6a373ea9be69ae6f1169c0bca9501e49dd1"


def test_lab_at_scale_fig3_m400():
    m = 400
    inst = wtap.gen_fig3(m)
    assert inst.n == 1204
    f_ids = fig3_solution_ids(inst)
    uplinks = fig3_uplinks(inst)
    dec = wtap.decompose(inst, f_ids, uplinks, Fraction(1, 2))
    assert [dec.labels[ui] for ui in range(m)] == list(range(m))
    for part in dec.parts:
        assert wtap.is_k_thin(inst, part, 2)
    rep = wtap.verify_cover_structure(inst, dec.graph)
    assert rep["ok"], rep["failed"]


def test_chain_labels_long_chain_from_far_end():
    # witness i chains link i+1 -> link i, so the in-arc of each chain's
    # start comes from the next witness: labelling witness 0 first walks
    # all 3 000 chains
    from wtap.decomposition import _chain_labels
    length = 3000
    witnesses = tuple(wtap.CoverWitness(uplink=UpPath(0, 1, 1, 0), v_u=0,
                                        links=(i + 1, i), own_edges={})
                      for i in range(length))
    arcs = tuple((i + 1, i, i) for i in range(length))
    graph = wtap.DependencyGraph(nodes=tuple(range(length + 1)), arcs=arcs,
                                 witnesses=witnesses)
    labels = _chain_labels(graph)
    assert labels == {ui: length - 1 - ui for ui in range(length)}
    assert list(labels) == list(range(length - 1, -1, -1))


def test_witness_rejects_non_vertical_uplink():
    inst = _chain_instance()
    tree = Instance(4, 0, [(0, 1), (0, 2), (2, 3)], [Link(1, 3, 1)])
    bad = [(inst, UpPath(top=3, bottom=3, weight=1, link_id=0)),
           (tree, UpPath(top=1, bottom=3, weight=1, link_id=0)),
           (inst, UpPath(top=5, bottom=2, weight=1, link_id=0))]
    for instance, up in bad:
        f_ids = list(range(len(instance.links)))
        with pytest.raises(ValueError, match="not a strict ancestor"):
            wtap.compute_cover_witness(instance, f_ids, up)
        with pytest.raises(ValueError, match="not a strict ancestor"):
            wtap.decompose(instance, f_ids, [up], Fraction(1, 2))
        with pytest.raises(ValueError, match="not a strict ancestor"):
            wtap.build_dependency_graph(instance, f_ids, [up])


def test_lab_refuses_overlapping_uplinks():
    # both witnesses exist (0..8 by links 0-3, 2..4 by link 1), so only the
    # up-front check of U refuses them
    inst = _chain_instance()
    overlapping = [UpPath(0, 8, 1, 4), UpPath(2, 4, 1, 1)]
    with pytest.raises(ValueError, match="overlap"):
        wtap.build_dependency_graph(inst, [0, 1, 2, 3], overlapping)
    with pytest.raises(ValueError, match="overlap"):
        wtap.decompose(inst, [0, 1, 2, 3], overlapping, Fraction(1, 2))


@pytest.mark.parametrize("chains, message", [
    (((0, 2), (1, 2)), "link 2 has two incoming arcs"),
    (((0, 1), (1, 0)), "cycle through link"),
], ids=["two-in-arcs", "cycle"])
def test_dependency_graph_must_be_a_branching(monkeypatch, chains, message):
    # real witnesses always chain into a branching, so these are supplied
    inst = _chain_instance()
    uplinks = [UpPath(0, 4, 1, 4), UpPath(4, 8, 1, 4)]
    links = dict(zip(uplinks, chains))

    def witness(instance, f_ids, up):
        return wtap.CoverWitness(uplink=up, v_u=up.top, links=links[up],
                                 own_edges={})

    monkeypatch.setattr(wtap.decomposition, "compute_cover_witness", witness)
    with pytest.raises(wtap.NotABranchingError, match=message):
        wtap.build_dependency_graph(inst, [0, 1, 2, 3], uplinks)


def test_path_count_thinness_counts_chains_not_arcs():
    # one witness chaining all four fig3 links: the root path of link 3
    # has three arcs but one chain, so the bound is 2-thinness, which the
    # hub (on every link) breaks
    inst = wtap.gen_fig3(3)
    wit = wtap.CoverWitness(uplink=fig3_uplinks(inst)[0], v_u=inst.root,
                            links=(0, 1, 2, 3),
                            own_edges=dict.fromkeys((0, 1, 2, 3), 0))
    graph = wtap.DependencyGraph(nodes=(0, 1, 2, 3),
                                 arcs=((0, 1, 0), (1, 2, 0), (2, 3, 0)),
                                 witnesses=(wit,))
    rep = wtap.verify_cover_structure(inst, graph)
    assert rep["checks"]["path_count_thinness"] == [(0, 1)]
    assert rep["checks"]["shared_vertex_ancestry"] == []
