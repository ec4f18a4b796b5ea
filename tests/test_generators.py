"""Generators: determinism, structure, and figure-family weight rules."""

import hashlib

import pytest

import wtap
from wtap import generators
from wtap import io as wio
from wtap.generators import _stream, fig2_link_groups
from wtap.model import link_vertices
from wtap.oracle import full_edge_mask, link_paths, vertical_edge_mask

from fig_helpers import fig2_reference_cover, fig3_solution_ids, fig3_uplinks

GOLDEN_SEED42 = (
    '{"edges":[[0,1],[0,2],[2,3],[2,4],[4,5],[1,6],[6,7]],'
    '"links":[{"u":0,"v":3,"w":7},{"u":0,"v":1,"w":1},{"u":4,"v":5,"w":7},'
    '{"u":5,"v":7,"w":7},{"u":0,"v":6,"w":1},{"u":0,"v":5,"w":1}],'
    '"meta":{"scale":1},"n":8,"root":0}'
)

# sha256 of dumps(gen_random(20000, 30000, 20, 9973000000)), the instance of
# perfbench's uplink2-wide workload at seed 9973, as numpy generated it.
GOLDEN_20000_SHA256 = "c596a956df44ab72b6493494ec48b2948649c07b6063f0080c6a97c6909f3830"

# The first four draws of numpy's
# Generator(PCG64(SeedSequence(seed, spawn_key=(1,)))).integers(low, high),
# keyed by (low, high), then by seed.  The ranges walk the paths of
# random_bounded_uint64_fill: 32-bit Lemire, the raw 32-bit draw for a range
# of 2**32, 64-bit Lemire, and the raw 64-bit draw for the full int64 range.
# The rejecting ranges reject at least one draw for seeds 5 and 2**70 (32-bit)
# and for seeds 2 and 2**70 (64-bit).  Seed 2**70 spans three entropy words.
PINNED_DRAWS = {
    (1, 21): {
        2: [18, 19, 19, 5],
        5: [11, 6, 19, 2],
        2**70: [12, 9, 9, 2],
    },
    (0, 3 * 2**30 + 1): {
        2: [2896940177, 2983890253, 2987066842, 705920550],
        5: [815465545, 2928106112, 2639400053, 1807490383],
        2**70: [1824027065, 1290510169, 311381952, 678907556],
    },
    (0, 2**32): {
        2: [3862586902, 3978520337, 3982755789, 941227401],
        5: [2312582142, 1087287394, 3904141482, 317393984],
        2**70: [2432036087, 1720680226, 1841051585, 415175937],
    },
    (1, 2**40 + 1): {
        2: [1018501206503, 240954214894, 612928831120, 908154748622],
        5: [278345573002, 81252860137, 900915218107, 616956717417],
        2**70: [440494138001, 106285039982, 881717572406, 493309143153],
    },
    (0, 3 * 2**61 + 1): {
        2: [3856214772117024642, 5713615642145225406,
            2625394733606837965, 2113932737635081803],
        5: [1751198925335868287, 511198794424233279,
            5668068454448150908, 3881556041530078425],
        2**70: [668687652503327976, 5547287311218878290,
                3103632768538980739, 3053917678082144064],
    },
    (-2**63, 2**63): {
        2: [7864242700893709846, -5180831127477942323,
            1059867355457289905, 6012936342199158607],
        5: [-4553508235959127042, -7860175251723487062,
            5891477175006959946, 1127444073892099993],
        2**70: [-1833106736878850825, -7440204963512567871,
                5569394126395566299, -947017987417493836],
    },
}

# One draw per range in turn, from purpose 2, so that 64-bit draws fall
# between the two halves of a buffered 32-bit draw; (7, 8) draws nothing.
MIXED_SCHEDULE = [(0, 10), (7, 8), (0, 2**32), (0, 2**40), (0, 2**32), (1, 21),
                  (-2**63, 2**63), (0, 3)]
MIXED_DRAWS = {
    42: [7, 7, 305970046, 780828872901, 457952343, 2, -3332817633615636614, 2],
    2**32: [5, 7, 3857836075, 425835503968, 2749567469, 5, -392400167213448615, 2],
}


class _NumpyStream:
    """Reference stream: numpy's own generator, with Python int draws."""

    def __init__(self, seed, purpose):
        np_random = pytest.importorskip("numpy.random")
        self._gen = np_random.Generator(np_random.PCG64(
            np_random.SeedSequence(seed, spawn_key=(purpose,))))

    def integers(self, low, high):
        return int(self._gen.integers(low, high))


@pytest.mark.parametrize("low, high", sorted(PINNED_DRAWS))
def test_stream_pinned_draws(low, high):
    for seed, want in PINNED_DRAWS[(low, high)].items():
        rng = _stream(seed, 1)
        assert [rng.integers(low, high) for _ in want] == want


def test_stream_pinned_mixed_schedule():
    for seed, want in MIXED_DRAWS.items():
        rng = _stream(seed, 2)
        assert [rng.integers(lo, hi) for lo, hi in MIXED_SCHEDULE] == want


def test_stream_single_value_range_draws_nothing():
    rng = _stream(9, 0)
    assert rng.integers(0, 2**32) == _stream(9, 0).integers(0, 2**32)
    assert rng.integers(-4, -3) == -4
    assert rng.integers(2**62, 2**62 + 1) == 2**62
    fresh = _stream(9, 0)
    fresh.integers(0, 2**32)
    assert rng.integers(0, 2**32) == fresh.integers(0, 2**32)


@pytest.mark.parametrize("low, high", [(0, 2**63 + 1), (-2**63 - 1, 0), (3, 3),
                                       (5, 2)])
def test_stream_rejects_bad_range(low, high):
    with pytest.raises(ValueError):
        _stream(0, 0).integers(low, high)


def test_stream_rejects_bad_seed():
    with pytest.raises(ValueError):
        _stream(-1, 0)
    for seed in (1.0, "3", None):
        with pytest.raises(TypeError):
            _stream(seed, 0)


def test_stream_matches_numpy():
    seeds = list(range(12)) + [2**31, 2**32 - 1, 2**32, 2**63, 2**64, 2**70,
                               2**96 + 5, 2**128, 10**40, 9973000000]
    ranges = [(0, 1), (0, 2), (1, 21), (0, 1000), (0, 2**31), (0, 2**32 - 1),
              (0, 2**32), (0, 2**32 + 1), (1, 2**40 + 1), (0, 3 * 2**61 + 1),
              (0, 2**63), (-2**63, 2**63), (-5, 7)]
    for seed in seeds:
        for purpose in range(4):
            ref, rng = _NumpyStream(seed, purpose), _stream(seed, purpose)
            for _ in range(3):
                for low, high in ranges:
                    assert rng.integers(low, high) == ref.integers(low, high), \
                        (seed, purpose, low, high)


def test_gen_random_matches_numpy(monkeypatch):
    weight_maxes = (1, 2, 20, 2**31, 2**32 - 1, 2**32, 2**40, 2**63 - 1)
    cases = [(1 + i % 29, (7 * i) % 41, weight_maxes[i % len(weight_maxes)],
              i * 7919 if i % 5 else 2**64 + i) for i in range(200)]
    ours = [wio.dumps(wtap.gen_random(*case)) for case in cases]
    monkeypatch.setattr(generators, "_stream", _NumpyStream)
    assert [wio.dumps(wtap.gen_random(*case)) for case in cases] == ours


def test_gen_random_reproducible():
    a = wtap.gen_random(n=12, link_count=9, weight_max=8, seed=123)
    b = wtap.gen_random(n=12, link_count=9, weight_max=8, seed=123)
    assert wio.dumps(a) == wio.dumps(b)
    c = wtap.gen_random(n=12, link_count=9, weight_max=8, seed=124)
    assert wio.dumps(a) != wio.dumps(c)


def test_gen_random_golden_seed42():
    inst = wtap.gen_random(n=8, link_count=6, weight_max=9, seed=42)
    assert wio.dumps(inst) == GOLDEN_SEED42


def test_gen_random_golden_uplink2_wide():
    inst = wtap.gen_random(20000, 30000, 20, 9973000000)
    digest = hashlib.sha256(wio.dumps(inst).encode()).hexdigest()
    assert digest == GOLDEN_20000_SHA256


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
    with pytest.raises(ValueError, match="2\\*\\*63"):
        wtap.gen_random(n=5, link_count=3, weight_max=2**63, seed=0)
    with pytest.raises(ValueError, match="nonnegative"):
        wtap.gen_random(n=5, link_count=3, weight_max=5, seed=-1)
    with pytest.raises(TypeError):
        wtap.gen_random(n=5, link_count=3, weight_max=5, seed=1.5)


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
        mask = vertical_edge_mask(inst.index, p.top, p.bottom)
        assert mask & seen == 0
        seen |= mask
    assert seen == full_edge_mask(inst)
    assert sum(p.weight for p in ref) == 2 * (4 * 10 + 4)


def test_fig2_small_components_cannot_win():
    # any component of at most d/2 links drops no more weight than it costs
    from itertools import combinations
    inst = wtap.gen_fig2(4, 10)
    ref = fig2_reference_cover(inst)
    u_ids = [p.link_id for p in ref]
    idx = inst.index
    u_masks = {p.link_id: vertical_edge_mask(idx, p.top, p.bottom) for p in ref}
    paths = link_paths(inst)
    all_ids = range(len(inst.links))
    for size in (1, 2):
        for combo in combinations(all_ids, size):
            cover = 0
            for lid in combo:
                cover |= paths[lid]
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
            mask = vertical_edge_mask(inst.index, p.top, p.bottom)
            assert mask & seen == 0
            seen |= mask


def test_fig3_decomposition_budget():
    inst = wtap.gen_fig3(4)
    ups = fig3_uplinks(inst)
    dec = wtap.decompose(inst, fig3_solution_ids(inst), ups, "1/2")
    w_r = sum(ups[i].weight for i in dec.removed)
    assert 2 * w_r <= sum(p.weight for p in ups)
