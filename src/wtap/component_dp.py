"""Maximum-slack k-thin component search.

Given disjoint vertical up-link paths U, a ratio rho = p/q, and a search
alphabet of links, find a k-thin set C maximizing

    slack_rho(C) = rho * w(links of U whose path C covers) - w(C).

The table is indexed by triples (v, Y, x): a vertex, the set of chosen links
with exactly one endpoint below v (at most k of them; they all pass through
v), and a flag x telling whether the unique up-link entering the subtree of
v, if any, must have its inside edges covered.  Entries are computed lazily
top-down with memoization; only reachable Y sets are ever materialized.

All slack values are integers in units of 1/q: slack * q = p*w(drop) - q*w(C).
Link sets are bitmasks over the search alphabet.  Ties between equal-slack
candidates prefer a nonempty set, then the lexicographically smallest sorted
id tuple, so tables are deterministic.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .baseline import UpPath
from .model import Instance, link_vertices, mask_bits

MINUS = 0
PLUS = 1

_INFEASIBLE = None
_MISSING = object()


@dataclass(frozen=True)
class SearchLink:
    """A candidate component link: instance link, shadow, or up-link path."""
    a: int
    b: int
    weight: int
    label: tuple


def original_search_links(instance: Instance) -> list[SearchLink]:
    return [SearchLink(lk.u, lk.v, lk.weight, ("orig", lk.id))
            for lk in instance.links]


def uplink_search_links(uplinks: Sequence[UpPath]) -> list[SearchLink]:
    return [SearchLink(p.top, p.bottom, p.weight, ("up", p.top, p.bottom))
            for p in uplinks]


def shadow_closure_search_links(instance: Instance) -> list[SearchLink]:
    """All shadows of all links, keeping the cheapest link per vertex pair."""
    best: dict[tuple[int, int], tuple[int, int]] = {}
    for lk in instance.links:
        verts = link_vertices(instance, lk)
        for i in range(len(verts)):
            for j in range(i + 1, len(verts)):
                a, b = verts[i], verts[j]
                key = (min(a, b), max(a, b))
                cand = (lk.weight, lk.id)
                if key not in best or cand < best[key]:
                    best[key] = cand
    return [SearchLink(a, b, w, ("shadow", lid))
            for (a, b), (w, lid) in sorted(best.items())]


def lex_less(m1: int, m2: int) -> bool:
    """Compare bitmasks as sorted id tuples, lexicographically."""
    if m1 == m2:
        return False
    d = m1 ^ m2
    low = d & (-d)
    hi = ~((low << 1) - 1)
    if m1 & low:
        return (m2 & hi) != 0
    return (m1 & hi) == 0


@dataclass(frozen=True)
class SlackResult:
    slack: Fraction
    cmask: int
    links: tuple[SearchLink, ...]
    drop_indices: tuple[int, ...]
    drop_weight: int
    weight: int


class ComponentSearch:
    """Reusable DP context for one (instance, U, k, search alphabet)."""

    def __init__(self, instance: Instance, uplinks: Sequence[UpPath],
                 k: int, search_links: Sequence[SearchLink]):
        if k < 1:
            raise ValueError("k must be at least 1")
        self.instance = instance
        self.k = k
        self.links = list(search_links)
        self.uplinks = list(uplinks)
        idx = instance.index
        self.idx = idx
        n = instance.n
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 10000 + 20 * n))

        # Per-link structure: apex, per-vertex child targets, path mask.
        self.apex_ids: list[list[int]] = [[] for _ in range(n)]
        self.touch: dict[tuple[int, int], tuple[int, ...]] = {}
        self.link_masks: list[int] = []
        touch_acc: dict[tuple[int, int], list[int]] = {}
        for i, sl in enumerate(self.links):
            apx = idx.lca(sl.a, sl.b)
            self.apex_ids[apx].append(i)
            for e in (sl.a, sl.b):
                prev = -1
                v = e
                while True:
                    if prev >= 0:
                        touch_acc.setdefault((i, v), []).append(prev)
                    if v == apx:
                        break
                    prev = v
                    v = int(idx.parent[v])
            self.link_masks.append(idx.path_edge_mask(sl.a, sl.b))
        self.touch = {key: tuple(val) for key, val in touch_acc.items()}

        # Up-link structure: unique crossing path per vertex, step-down map.
        self.crossing = [-1] * n
        self.u_step: dict[tuple[int, int], int] = {}
        self.u_masks: list[int] = []
        for ui, up in enumerate(self.uplinks):
            prev = -1
            v = up.bottom
            mask = 0
            while True:
                if prev >= 0:
                    self.u_step[(ui, v)] = prev
                if v == up.top:
                    break
                if self.crossing[v] != -1:
                    raise ValueError("up-link paths are not pairwise disjoint")
                self.crossing[v] = ui
                mask |= 1 << v
                prev = v
                v = int(idx.parent[v])
            self.u_masks.append(mask)

        self._memo: dict[tuple[int, int, int], tuple[int, int] | None] = {}
        self._zero: dict[int, tuple[int, int]] = {}
        self._p = 0
        self._q = 1

    # ------------------------------------------------------------------
    def max_slack(self, p: int, q: int) -> SlackResult:
        """Best k-thin component at rho = p/q; empty set is always admissible."""
        if q <= 0 or p < 0:
            raise ValueError("rho must be a nonnegative rational")
        self._p, self._q = p, q
        self._memo = {}
        self._zero = {}
        entry = self._entry(self.instance.root, 0, MINUS)
        assert entry is not _INFEASIBLE
        slack_num, cmask = entry
        return self.result_for(cmask, expect_slack=(slack_num, q))

    def result_for(self, cmask: int,
                   expect_slack: tuple[int, int] | None = None) -> SlackResult:
        bits = mask_bits(cmask)
        links = tuple(self.links[i] for i in bits)
        weight = sum(sl.weight for sl in links)
        cover = 0
        for i in bits:
            cover |= self.link_masks[i]
        drops = tuple(i for i, um in enumerate(self.u_masks) if um & ~cover == 0)
        drop_weight = sum(self.uplinks[i].weight for i in drops)
        if expect_slack is not None:
            num, q = expect_slack
            if self._p * drop_weight - q * weight != num:
                raise AssertionError("table slack disagrees with recomputation")
            slack = Fraction(num, q)
        else:
            slack = Fraction(self._p * drop_weight - self._q * weight, self._q)
        return SlackResult(slack=slack, cmask=cmask, links=links,
                           drop_indices=drops, drop_weight=drop_weight,
                           weight=weight)

    # ------------------------------------------------------------------
    def extract_root(self) -> SlackResult:
        """The table's answer: the entry for (root, empty boundary, -).

        Requires a prior ``max_slack`` call, whose rho it reuses.
        """
        entry = self._entry(self.instance.root, 0, MINUS)
        num, cmask = entry
        return self.result_for(cmask, expect_slack=(num, self._q))

    def entry(self, v: int, y_ids: Sequence[int], x: int):
        """Public accessor for a table entry; None when infeasible."""
        ymask = 0
        for i in y_ids:
            ymask |= 1 << i
        got = self._entry(v, ymask, x)
        if got is _INFEASIBLE:
            return None
        num, cmask = got
        return Fraction(num, self._q), tuple(self.links[i] for i in mask_bits(cmask))

    def _zero_sum(self, v: int) -> tuple[int, int]:
        """Sum of children's (v_i, {}, -) slacks and the union of their sets."""
        got = self._zero.get(v)
        if got is not None:
            return got
        total = 0
        cmask = 0
        for c in self.idx.children[v]:
            num, cm = self._entry(c, 0, MINUS)
            total += num
            cmask |= cm
        got = (total, cmask)
        self._zero[v] = got
        return got

    def _entry(self, v: int, ymask: int, x: int):
        key = (v, ymask, x)
        got = self._memo.get(key, _MISSING)
        if got is not _MISSING:
            return got
        result = self._compute(v, ymask, x)
        self._memo[key] = result
        return result

    def _compute(self, v: int, ymask: int, x: int):
        k = self.k
        cstar = -1
        if x == PLUS:
            u = self.crossing[v]
            if u < 0:
                return _INFEASIBLE
            if self.uplinks[u].bottom != v:
                cstar = self.u_step[(u, v)]
        zero_total, zero_cmask = self._zero_sum(v)
        ybits = mask_bits(ymask)
        avail = k - len(ybits)
        apex_list = self.apex_ids[v]
        best: tuple[int, int] | None = None

        for zsize in range(0, min(avail, len(apex_list)) + 1):
            for zcombo in combinations(apex_list, zsize):
                cand = self._evaluate(v, ybits, zcombo, x, cstar,
                                      zero_total, zero_cmask)
                if cand is None:
                    continue
                if best is None or self._better(cand, best):
                    best = cand
        if best is None:
            return _INFEASIBLE
        return best

    def _evaluate(self, v, ybits, zcombo, x, cstar, zero_total, zero_cmask):
        p, q = self._p, self._q
        touch = self.touch
        ydict: dict[int, int] = {}
        for lid in ybits:
            for child in touch.get((lid, v), ()):
                ydict[child] = ydict.get(child, 0) | (1 << lid)
        zlink_mask = 0
        zweight = 0
        for lid in zcombo:
            zlink_mask |= 1 << lid
            zweight += self.links[lid].weight
            for child in touch.get((lid, v), ()):
                ydict[child] = ydict.get(child, 0) | (1 << lid)
        if cstar >= 0 and cstar not in ydict:
            return None  # the entering up-link's inside edges would stay uncovered

        slack = zero_total - q * zweight
        cmask = zero_cmask | zlink_mask
        for child, ym in ydict.items():
            ze = self._entry(child, 0, MINUS)
            uc = self.crossing[child]
            if uc >= 0 and self.uplinks[uc].top == v:
                # up-link hanging from v into this child's subtree
                em = self._entry(child, ym, MINUS)
                val, cm = em
                ep = self._entry(child, ym, PLUS)
                if ep is not _INFEASIBLE:
                    bonus = p * self.uplinks[uc].weight
                    if ep[0] + bonus >= val:
                        val, cm = ep[0] + bonus, ep[1]
            elif uc >= 0:
                # up-link entering from strictly above v
                want = PLUS if (x == PLUS and child == cstar) else MINUS
                e = self._entry(child, ym, want)
                if e is _INFEASIBLE:
                    return None
                val, cm = e
            else:
                e = self._entry(child, ym, MINUS)
                val, cm = e
            slack += val - ze[0]
            cmask = (cmask & ~ze[1]) | cm
        return slack, cmask

    @staticmethod
    def _better(cand: tuple[int, int], best: tuple[int, int]) -> bool:
        if cand[0] != best[0]:
            return cand[0] > best[0]
        cne, bne = cand[1] != 0, best[1] != 0
        if cne != bne:
            return cne
        return lex_less(cand[1], best[1])


def slack_max(instance: Instance, uplinks: Sequence[UpPath], k: int,
              rho: Fraction, search_links: Sequence[SearchLink]) -> SlackResult:
    """One-shot maximum-slack query; see ComponentSearch for repeated use."""
    rho = Fraction(rho)
    cs = ComponentSearch(instance, uplinks, k, search_links)
    return cs.max_slack(rho.numerator, rho.denominator)
