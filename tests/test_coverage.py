"""The O(n + m) coverage check against the bitset reference, and its users."""

import random
import tracemalloc
from fractions import Fraction

import pytest

import wtap
from wtap import Instance, Link
from wtap.baseline import UpLinkSolution, UpPath, _assert_partition
from wtap.cli import main
from wtap.greedy import Solution
from wtap.model import ValidationIssue, mask_bits, uncovered_edges


def _reference_uncovered(inst, pairs):
    """Union of the pairs' path bitmasks, complemented: the former check."""
    idx = inst.index
    cover = 0
    for a, b in pairs:
        cover |= idx.path_edge_mask(a, b)
    return mask_bits(inst.full_edge_mask & ~cover)


def _reference_tree_issues(inst):
    """n - 1 edges that a union-find joins without closing a cycle make a
    tree; this reads the edge list alone, not the tree index."""
    n = inst.n
    if len(inst.edges) != n - 1:
        return [ValidationIssue("NotATree", None,
                                f"expected {n - 1} edges, got {len(inst.edges)}")]
    boss = list(range(n))

    def find(v):
        while boss[v] != v:
            boss[v] = v = boss[boss[v]]
        return v

    for u, v in inst.edges:
        ru, rv = find(u), find(v)
        if ru == rv:  # a cycle, so with n - 1 edges some vertex is cut off
            return [ValidationIssue("NotATree", None,
                                    "edges do not connect all vertices from the root")]
        boss[ru] = rv
    return []


def _reference_validate(inst):
    """``validate`` as it was when it ORed the ``link_paths`` bitmasks."""
    issues = [ValidationIssue("NonpositiveWeight", lid, f"weight {lk.weight}")
              for lid, lk in enumerate(inst.links) if lk.weight <= 0]
    issues.extend(_reference_tree_issues(inst))
    if any(i.code == "NotATree" for i in issues):
        return issues
    pairs = [lk.endpoints() for lk in inst.links]
    for child in _reference_uncovered(inst, pairs):
        issues.append(ValidationIssue(
            "UncoverableEdge", child,
            f"edge ({inst.index.parent[child]},{child}) not on any link path"))
    return issues


def _tree(rng, shape, n):
    """Parent-child edges of a tree of the given shape, over vertices 0..n-1."""
    if shape == "path":
        return [(i - 1, i) for i in range(1, n)]
    if shape == "star":
        return [(0, i) for i in range(1, n)]
    if shape == "caterpillar":
        spine = max(1, n // 2)
        edges = [(i - 1, i) for i in range(1, spine)]
        return edges + [(rng.randrange(spine), i) for i in range(spine, n)]
    return [(rng.randrange(i), i) for i in range(1, n)]


def _random_instance(rng, shape, n):
    """A tree of ``shape`` with relabelled vertices, a random root and random
    links, often too few to cover every edge; some weights are not positive."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[a], perm[b]) for a, b in _tree(rng, shape, n)]
    links = []
    for _ in range(rng.randrange(0, 2 * n + 1) if n > 1 else 0):
        u, v = rng.sample(range(n), 2)
        links.append(Link(u, v, rng.choice((-1, 0, 1, 2, 5))))
    return Instance(n, rng.randrange(n), edges, links)


def test_uncovered_edges_matches_bitset_reference():
    rng = random.Random(2024)
    shapes = ("random", "path", "star", "caterpillar")
    infeasible = 0
    for trial in range(2400):
        inst = _random_instance(rng, shapes[trial % 4], rng.randint(1, 40))
        pairs = [lk.endpoints() for lk in inst.links]
        # Any pair of vertices, repeats and a == b included, also counts.
        pairs += [(rng.randrange(inst.n), rng.randrange(inst.n))
                  for _ in range(rng.randrange(3))]
        rng.shuffle(pairs)
        got = uncovered_edges(inst, pairs)
        assert got == _reference_uncovered(inst, pairs), trial
        infeasible += bool(got)
        assert uncovered_edges(inst, []) == sorted(set(range(inst.n)) - {inst.root})
    assert 200 < infeasible < 2200


def test_validate_issue_lists_match_reference():
    rng = random.Random(77)
    shapes = ("random", "path", "star", "caterpillar")
    codes = set()
    for trial in range(800):
        inst = _random_instance(rng, shapes[trial % 4], rng.randint(1, 30))
        got = wtap.validate(inst)
        want = _reference_validate(inst)
        assert [(i.code, i.subject, str(i)) for i in got] == \
            [(i.code, i.subject, str(i)) for i in want], trial
        codes.update(i.code for i in got)
    assert codes == {"NonpositiveWeight", "UncoverableEdge"}
    bad = Instance(4, 0, [(0, 1), (1, 2), (2, 0)], [Link(0, 3, 0)])
    assert wtap.validate(bad) == _reference_validate(bad)
    assert [i.code for i in wtap.validate(bad)] == ["NonpositiveWeight", "NotATree"]
    for n, edges in ((3, [(0, 1)]), (3, [(0, 1), (1, 2), (0, 2)]),
                     (3, [(0, 1), (1, 0)]), (5, [(0, 1), (2, 3), (3, 4), (4, 2)]),
                     (1, [(0, 0)])):
        bad = Instance(n, n - 1, edges, [])
        assert wtap.validate(bad) == _reference_validate(bad), (n, edges)
        assert [i.code for i in wtap.validate(bad)] == ["NotATree"]


def test_gen_random_same_as_with_bitset_patching(monkeypatch):
    fast = [wtap.io.dumps(wtap.gen_random(n=1 + s % 30, link_count=s % 13,
                                          weight_max=9, seed=s))
            for s in range(150)]
    monkeypatch.setattr(wtap.generators, "uncovered_edges", _reference_uncovered)
    slow = [wtap.io.dumps(wtap.gen_random(n=1 + s % 30, link_count=s % 13,
                                          weight_max=9, seed=s))
            for s in range(150)]
    assert fast == slow


def test_assert_partition_raises_on_overlap_gap_and_non_vertical():
    inst = Instance(4, 0, [(0, 1), (1, 2), (1, 3)],
                    [Link(0, 2, 1), Link(1, 3, 1), Link(1, 2, 1)])
    whole = [UpPath(0, 2, 1, 0), UpPath(1, 3, 1, 1)]
    _assert_partition(inst, UpLinkSolution(paths=tuple(whole), weight=2))
    overlap = whole + [UpPath(1, 2, 1, 2)]
    with pytest.raises(AssertionError, match="overlap"):
        _assert_partition(inst, UpLinkSolution(paths=tuple(overlap), weight=3))
    gap = [UpPath(1, 2, 1, 2), UpPath(1, 3, 1, 1)]
    with pytest.raises(AssertionError, match="do not cover"):
        _assert_partition(inst, UpLinkSolution(paths=tuple(gap), weight=2))
    sideways = [UpPath(2, 3, 1, 1), UpPath(0, 2, 1, 0)]
    with pytest.raises(AssertionError, match="not vertical"):
        _assert_partition(inst, UpLinkSolution(paths=tuple(sideways), weight=2))


def test_covers_false_once_a_needed_link_is_removed():
    needed_seen = 0
    for seed in range(40):
        inst = wtap.gen_random(n=4 + seed % 20, link_count=10 + seed % 9,
                               weight_max=9, seed=900 + seed)
        sols = [wtap.two_approx_only(inst), wtap.solve(inst, 1)[0]]
        for sol in sols:
            assert sol.covers(inst)
            for drop in sol.link_ids:
                rest = tuple(l for l in sol.link_ids if l != drop)
                cut = Solution(link_ids=rest, weight=0, deduped_weight=0)
                needed = bool(_reference_uncovered(
                    inst, [inst.link(l).endpoints() for l in rest]))
                assert cut.covers(inst) is not needed
                needed_seen += needed
    assert needed_seen > 100


def test_solve_paths_build_no_link_bitmasks():
    inst = wtap.gen_random(n=30, link_count=40, weight_max=9, seed=5)
    assert wtap.validate(inst) == []
    sol = wtap.two_approx_only(inst)
    assert sol.covers(inst)
    relg, _ = wtap.solve(inst, 1)
    assert relg.covers(inst)
    assert "link_paths" not in inst.__dict__


def test_cli_solve_never_reads_link_bitmasks(tmp_path, capsys, monkeypatch):
    def forbidden(self):
        raise AssertionError("link_paths read on a solve path")

    path = tmp_path / "inst.json"
    wtap.io.dump(wtap.gen_random(n=25, link_count=30, weight_max=9, seed=8), path)
    monkeypatch.setattr(Instance, "link_paths", property(forbidden))
    for algo in ("uplink2", "relgreedy"):
        assert main(["solve", "--algorithm", algo, str(path)]) == 0
    capsys.readouterr()


def test_solve_path_builds_no_edge_bitmask(tmp_path, capsys, monkeypatch):
    # the greedy, the ratio search and the component DP find drops through
    # uncovered_edges; no per-link or per-up-link edge mask is built
    def forbidden(self, *args):
        raise AssertionError("edge bitmask built on a solve path")

    insts = [wtap.gen_random(n=20, link_count=28, weight_max=9, seed=s)
             for s in range(3)] + [wtap.gen_fig2(4, 10), wtap.gen_fig3(2)]
    path = tmp_path / "inst.json"
    wtap.io.dump(insts[0], path)
    monkeypatch.setattr(wtap.RootedTreeIndex, "path_edge_mask", forbidden)
    monkeypatch.setattr(wtap.RootedTreeIndex, "vertical_edge_mask", forbidden)
    iterations = 0
    for inst in insts:
        for eps in (2, 1, Fraction(2, 3)):  # k = 1, 2, 3
            sol, trace = wtap.solve(inst, eps)
            assert sol.covers(inst)
            iterations += len(trace.iterations)
    assert iterations > 0
    assert main(["ratio", "--k", "2", str(path)]) == 0
    assert main(["component", "--rho", "1/2", "--k", "3", str(path)]) == 0
    capsys.readouterr()


def test_validate_memory_stays_linear_on_a_long_path():
    # The bitset check ORed one (v+1)-bit int per link here: about 150 MB.
    n = 50_000
    inst = Instance(n, 0, [(i - 1, i) for i in range(1, n)],
                    [Link(i - 1, i, 1) for i in range(1, n)])
    tracemalloc.start()
    try:
        issues = wtap.validate(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert issues == []
    assert "link_paths" not in inst.__dict__
    assert peak < 40 * 2**20, peak
