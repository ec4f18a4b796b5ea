"""Seeded instance generators.

Random generation draws from fixed per-purpose child streams of the seed
(tree=0, links=1, weights=2), so reruns with the same seed are byte-identical
and adding a later stage never perturbs earlier draws.  Each stream is numpy's
``Generator(PCG64(SeedSequence(seed, spawn_key=(purpose,))))`` rebuilt in
plain Python, draw for draw, so ``wtap`` needs no numpy:

* seeding is SeedSequence's hash mix of the entropy words into a pool of
  four, expanded by ``generate_state(4, uint64)`` and fed to
  ``PCG64.set_seed``;
* the generator is PCG64: a 128-bit LCG step, then the XSL-RR output
  (O'Neill 2014, "PCG: A Family of Simple Fast Space-Efficient
  Statistically Good Algorithms for Random Number Generation");
* bounded integers follow numpy's ``random_bounded_uint64_fill``: Lemire's
  multiply-and-reject method (Lemire, "Fast Random Integer Generation in an
  Interval", ACM TOMACS 2019) on a buffered 32-bit draw for ranges of up
  to 2^32 values, on a 64-bit draw above.

``gen_fig2`` and ``gen_fig3`` build the two structured families used by the
test harness: a pendant-path family on which no small component improves the
disjoint up-link cover, and a hub family whose covering witnesses chain into
a single dependency path.
"""

from __future__ import annotations

import operator

from .model import Instance, Link, uncovered_edges


_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

# PCG's default 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words32(value: int) -> list[int]:
    """``value`` as little-endian 32-bit words; 0 is one zero word."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _seed_state(seed: int, purpose: int) -> tuple[int, int]:
    """PCG64's (initstate, initseq) from ``seed`` and ``purpose``.

    Mirrors, for ``SeedSequence(seed, spawn_key=(purpose,))``,
    ``get_assembled_entropy``, ``mix_entropy`` and
    ``generate_state(4, uint64)``: the entropy is padded with zero words to
    the pool size because a spawn key follows it.  Each of the pair is two
    of the four 64-bit words, high word first, as ``pcg64_set_seed`` reads
    them.
    """
    entropy = _words32(seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    entropy += _words32(purpose)

    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    # generate_state(4, uint64): eight 32-bit words, cycling over the pool
    hash_const = _INIT_B
    state32 = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        state32.append(value ^ (value >> 16))
    w = [state32[2 * j] | state32[2 * j + 1] << 32 for j in range(4)]
    return w[0] << 64 | w[1], w[2] << 64 | w[3]


class _PCG64:
    """PCG64 with XSL-RR output, and numpy's bounded draws on top of it.

    A 32-bit draw is the low half of a 64-bit draw, whose high half is kept
    for the next 32-bit draw, as in numpy's ``pcg64_next32``; 64-bit draws
    leave that half in place.
    """

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, initstate: int, initseq: int):
        # pcg_setseq_128_srandom_r: state 0, step, add the seed, step.
        self._inc = (initseq << 1 | 1) & _MASK128
        self._state = ((self._inc + initstate) * _PCG_MULT + self._inc) & _MASK128
        self._half = None

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        value = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        return ((value >> rot) | (value << (64 - rot))) & _MASK64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        value = self._next64()
        self._half = value >> 32
        return value & _MASK32

    def integers(self, low: int, high: int) -> int:
        """A uniform integer in ``[low, high)``, as numpy draws it."""
        if not -(1 << 63) <= low < high <= 1 << 63:
            raise ValueError("integers needs -2**63 <= low < high <= 2**63, "
                             f"got low={low}, high={high}")
        # numpy's random_bounded_uint64_fill with cnt=1: no draw for a single
        # value, else Lemire on a 32-bit draw up to 2**32 values and on a
        # 64-bit draw above.  numpy returns the raw draw for exactly 2**32 or
        # 2**64 values; Lemire gives the same there, with threshold 0.
        span = high - low
        if span == 1:
            return low
        if span <= 1 << 32:
            draw, bits = self._next32, 32
        else:
            draw, bits = self._next64, 64
        mask = (1 << bits) - 1
        m = draw() * span
        if m & mask < span:
            threshold = (1 << bits) % span
            while m & mask < threshold:
                m = draw() * span
        return low + (m >> bits)


def _stream(seed: int, purpose: int) -> _PCG64:
    """numpy's ``Generator(PCG64(SeedSequence(seed, spawn_key=(purpose,))))``.

    Rebuilt draw for draw from three published algorithms, each mirroring
    the numpy routine named:

    * SeedSequence's hash mix (``get_assembled_entropy``, ``mix_entropy``,
      ``generate_state(4, uint64)``) and ``pcg64_set_seed``;
    * PCG64's 128-bit LCG step and XSL-RR output (``pcg64_next64``, and
      ``pcg64_next32`` with its buffered half);
    * Lemire's bounded integers (``random_bounded_uint64_fill`` with
      ``cnt=1``), behind ``integers(low, high)`` with the int64 dtype.

    Raises ``TypeError`` for a seed that is not an integer and
    ``ValueError`` for a negative one, as SeedSequence does.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return _PCG64(*_seed_state(seed, purpose))


def gen_random(n: int, link_count: int, weight_max: int, seed: int) -> Instance:
    """Uniform random rooted tree with random links, patched to feasibility.

    Tree: vertex i>0 attaches to a uniform parent among 0..i-1; root is 0.
    Links: distinct random pairs with uniform weights in [1, weight_max].
    Any edge left uncovered gets a parent-child link of weight weight_max.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if link_count < 0:
        raise ValueError("link_count must be nonnegative")
    if weight_max < 1:
        raise ValueError("weight_max must be at least 1")
    rng_tree = _stream(seed, 0)
    edges = [(rng_tree.integers(0, i), i) for i in range(1, n)]

    rng_links = _stream(seed, 1)
    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    attempts = 0
    max_attempts = 20 * link_count + 100
    while len(pairs) < link_count and attempts < max_attempts:
        attempts += 1
        u = rng_links.integers(0, n)
        v = rng_links.integers(0, n)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in seen:
            continue
        seen.add(key)
        pairs.append(key)

    rng_w = _stream(seed, 2)
    weights = [rng_w.integers(1, weight_max + 1) for _ in pairs]
    links = [Link(u, v, w) for (u, v), w in zip(pairs, weights)]

    inst = Instance(n=n, root=0, edges=edges, links=links)
    for child in uncovered_edges(inst, pairs):
        parent = inst.index.parent[child]
        links.append(Link(parent, child, weight_max))
    if len(links) != len(inst.links):
        inst = Instance(n=n, root=0, edges=edges, links=links)
    return inst


def gen_fig2(d: int, M: int) -> Instance:
    """Pendant-path family: a top path around the root, two leaves per node.

    The root sits between ceil(d/2) and floor(d/2) top nodes.  Each non-root
    top node X carries leaves Xa, Xb.  Links: one long top link (weight d*M),
    per node a two-edge vertical link {parent(X), Xa} (weight 2M+1), a pendant
    link {X, Xb} (weight 1), and a leaf-to-leaf link {Xa, Xb} (weight 1).
    The union of the long link and the leaf links is the unique optimum
    d*M + d; the vertical and pendant links form a disjoint up-link cover of
    weight exactly twice that.  Even d is recommended: for odd d that cover
    is no longer a cheapest one.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    if M < 1:
        raise ValueError("M must be at least 1")
    p = (d + 1) // 2
    n = 3 * d + 1
    root = 0

    def top_id(j: int) -> int:
        # j = 1..d; left side outward is 1..p, right side is p+1..d
        return 3 * (j - 1) + 1

    def leaf_a(j: int) -> int:
        return top_id(j) + 1

    def leaf_b(j: int) -> int:
        return top_id(j) + 2

    def top_parent(j: int) -> int:
        if j in (1, p + 1):
            return root
        return top_id(j - 1)

    edges = []
    for j in range(1, d + 1):
        t = top_id(j)
        edges.append((top_parent(j), t))
        edges.append((t, leaf_a(j)))
        edges.append((t, leaf_b(j)))

    links = [Link(u=top_id(p), v=top_id(d), weight=d * M)]
    for j in range(1, d + 1):
        links.append(Link(u=top_parent(j), v=leaf_a(j), weight=2 * M + 1))
    for j in range(1, d + 1):
        links.append(Link(u=top_id(j), v=leaf_b(j), weight=1))
    for j in range(1, d + 1):
        links.append(Link(u=leaf_a(j), v=leaf_b(j), weight=1))
    return Instance(n=n, root=root, edges=edges, links=links)


def gen_fig3(m: int) -> Instance:
    """Hub family: spine to a hub vertex with m+1 leaves.

    Spine s_0(root)..s_m, hub v below s_m with leaves leaf_0..leaf_m, and a
    pendant p_i on each s_i.  Solution links l_i = {leaf_i, p_i} all pass
    through the hub; up-links u_i = {s_{i-1}, p_i} have disjoint two-edge
    paths.  All weights are 1.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    hub = m + 1

    def pend(i: int) -> int:
        return m + 2 + i

    def leaf(i: int) -> int:
        return 2 * m + 3 + i

    n = 3 * m + 4
    edges = [(i - 1, i) for i in range(1, m + 1)]
    edges.append((m, hub))
    edges.extend((i, pend(i)) for i in range(m + 1))
    edges.extend((hub, leaf(i)) for i in range(m + 1))

    links = [Link(u=leaf(i), v=pend(i), weight=1) for i in range(m + 1)]
    links.extend(Link(u=i - 1, v=pend(i), weight=1)
                 for i in range(1, m + 1))
    return Instance(n=n, root=0, edges=edges, links=links)

