"""Desk-scale ground truth by exhaustive enumeration.

Everything here recomputes from first principles: blocked subset
enumeration over Python ints for the exact optimum (``_kernels.min_cover_gray``:
a table of the partial covers of the low links, scanned once per subset of
the high links, with no bound on weights or on n), Gray-code sweeps over the
search alphabet for best-ratio k-thin components, and memoized recursion
over vertical-path partitions for the cheapest disjoint up-link cover.
The solvers are validated against these oracles exactly.  Edge sets here
are int bitsets over the child ids, Θ(n) bits each; no solver builds them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import _kernels
from ._kernels import lex_less
from .baseline import UpPath
from .component_dp import SearchLink
from .greedy import Solution
from .model import (BudgetExceededError, Instance, RootedTreeIndex, mask_bits,
                    vertical_cost_table)
from .ratio import RatioResult


def full_edge_mask(instance: Instance) -> int:
    """Every tree edge."""
    return ((1 << instance.n) - 1) & ~(1 << instance.root)


def vertical_edge_mask(index: RootedTreeIndex, t: int, b: int) -> int:
    """Edges of the vertical path from ancestor t down to b."""
    parent = index.parent
    mask = 0
    v = b
    while v != t:
        mask |= 1 << v
        v = parent[v]
    return mask


def path_edge_mask(index: RootedTreeIndex, a: int, b: int) -> int:
    """Edges of the tree path a..b."""
    top = index.lca(a, b)
    mask = 0
    for e in (a, b):
        v = e
        while v != top:
            mask |= 1 << v
            v = index.parent[v]
    return mask


def link_paths(instance: Instance) -> list[int]:
    """Edge set of every link's path, indexed by link id."""
    idx = instance.index
    return [path_edge_mask(idx, lk.u, lk.v) for lk in instance.links]


# An enumeration takes at most this many links (2^22 subsets), whatever
# its budget's ``max_links`` allows.
MAX_ENUMERATED_LINKS = 22


@dataclass(frozen=True)
class OracleBudget:
    max_links: int = 20

    def check_links(self, count: int, what: str) -> None:
        if count > min(self.max_links, MAX_ENUMERATED_LINKS):
            raise BudgetExceededError(
                f"{what}: {count} links exceed the enumeration budget")


def exact_opt(instance: Instance, budget: OracleBudget | None = None) -> Solution:
    """Minimum-weight covering subset of the original links."""
    budget = budget or OracleBudget()
    m = len(instance.links)
    budget.check_links(m, "exact_opt")
    if instance.n == 1:
        return Solution(link_ids=(), weight=0, deduped_weight=0)
    weights = [lk.weight for lk in instance.links]
    bestw, bestmask = _kernels.min_cover_gray(link_paths(instance), weights,
                                              instance.n - 1)
    if bestw < 0:
        raise ValueError("instance is infeasible")
    ids = tuple(mask_bits(bestmask))
    return Solution(link_ids=ids, weight=bestw, deduped_weight=bestw)


class KThinTable:
    """All k-thin subsets of a search alphabet with their drop weights.

    Built once by a Gray-code sweep maintaining per-vertex path counts and
    per-up-link uncovered-edge counts; reused for exhaustive ratio minima
    and exhaustive slack maxima at any rho.
    """

    def __init__(self, instance: Instance, uplinks: Sequence[UpPath], k: int,
                 search_links: Sequence[SearchLink],
                 budget: OracleBudget | None = None):
        budget = budget or OracleBudget(max_links=14)
        m = len(search_links)
        budget.check_links(m, "k-thin enumeration")
        idx = instance.index
        verts = [idx.path_vertices(sl.a, sl.b) for sl in search_links]
        lmasks = [path_edge_mask(idx, sl.a, sl.b) for sl in search_links]
        weights = [sl.weight for sl in search_links]
        u_masks = [vertical_edge_mask(idx, p.top, p.bottom) for p in uplinks]
        u_w = [p.weight for p in uplinks]
        edge_owner: dict[int, int] = {}
        for ui, um in enumerate(u_masks):
            for e in mask_bits(um):
                edge_owner[e] = ui
        uncov = [len(mask_bits(um)) for um in u_masks]

        vcount: dict[int, int] = {}
        over = 0
        ecount: dict[int, int] = {}
        dropw = 0
        cur = 0
        curw = 0
        rows_mask = [0]
        rows_w = [0]
        rows_drop = [sum(w for w, um in zip(u_w, u_masks) if um == 0)]
        # (an up-link with an empty path cannot occur: top != bottom)
        for s in range(1, 1 << m):
            b = (s & -s).bit_length() - 1
            bit = 1 << b
            delta = -1 if cur & bit else 1
            cur ^= bit
            curw += delta * weights[b]
            for v in verts[b]:
                c = vcount.get(v, 0) + delta
                vcount[v] = c
                if delta > 0 and c == k + 1:
                    over += 1
                elif delta < 0 and c == k:
                    over -= 1
            pm = lmasks[b]
            while pm:
                low = pm & (-pm)
                e = low.bit_length() - 1
                c = ecount.get(e, 0) + delta
                ecount[e] = c
                owner = edge_owner.get(e)
                if owner is not None:
                    if delta > 0 and c == 1:
                        uncov[owner] -= 1
                        if uncov[owner] == 0:
                            dropw += u_w[owner]
                    elif delta < 0 and c == 0:
                        if uncov[owner] == 0:
                            dropw -= u_w[owner]
                        uncov[owner] += 1
                pm ^= low
            if over == 0:
                rows_mask.append(cur)
                rows_w.append(curw)
                rows_drop.append(dropw)
        self.masks = rows_mask
        self.weights = rows_w
        self.drops = rows_drop

    def max_slack(self, p: int, q: int) -> tuple[Fraction, int]:
        """Exhaustive max of p*w(drop) - q*w(C); returns (slack, best mask)."""
        slacks = [p * d - q * w for d, w in zip(self.drops, self.weights)]
        best = max(slacks)
        hits = (i for i, s in enumerate(slacks) if s == best)
        best_nonempty = None
        for i in hits:
            mask = self.masks[i]
            if mask == 0:
                continue
            if best_nonempty is None or lex_less(mask, best_nonempty):
                best_nonempty = mask
        mask = best_nonempty if best_nonempty is not None else 0
        return Fraction(best, q), mask

    def min_ratio(self) -> tuple[Fraction, int] | None:
        """Exhaustive min of w(C)/w(drop) over nonempty k-thin C."""
        best: Fraction | None = None
        best_mask = 0
        for mask, w, dw in zip(self.masks, self.weights, self.drops):
            if mask == 0 or dw == 0:
                continue
            ratio = Fraction(w, dw)
            if best is None or ratio < best or (ratio == best and lex_less(mask, best_mask)):
                best = ratio
                best_mask = mask
        if best is None:
            return None
        return best, best_mask


def brute_best_kthin(instance: Instance, uplinks: Sequence[UpPath], k: int,
                     search_links: Sequence[SearchLink],
                     budget: OracleBudget | None = None) -> RatioResult:
    """Exhaustive minimizer of the component ratio over k-thin subsets."""
    table = KThinTable(instance, uplinks, k, search_links, budget)
    got = table.min_ratio()
    if got is None:
        raise ValueError("no k-thin subset drops anything; is U in the alphabet?")
    ratio, mask = got
    bits = mask_bits(mask)
    links = tuple(search_links[i] for i in bits)
    weight = sum(sl.weight for sl in links)
    idx = instance.index
    cover = 0
    for i in bits:
        cover |= path_edge_mask(idx, search_links[i].a, search_links[i].b)
    drops = tuple(i for i, p in enumerate(uplinks)
                  if vertical_edge_mask(idx, p.top, p.bottom) & ~cover == 0)
    drop_weight = sum(uplinks[i].weight for i in drops)
    assert Fraction(weight, drop_weight) == ratio
    return RatioResult(rho=ratio, links=links, drop_indices=drops,
                       weight=weight, drop_weight=drop_weight,
                       probes=0, states=0)


def brute_uplink_cover(instance: Instance,
                       budget: OracleBudget | None = None) -> tuple[int, list[UpPath]]:
    """Cheapest partition of the edges into realizable vertical paths.

    Exhaustive recursion over the lowest-id uncovered edge; memoized on the
    uncovered edge set.  Independent of the production DP.
    """
    if instance.n > 16:
        raise BudgetExceededError("brute_uplink_cover is limited to n <= 16")
    if instance.n == 1:
        return 0, []
    table = vertical_cost_table(instance)
    idx = instance.index
    full = full_edge_mask(instance)

    anc_cache: dict[int, list[int]] = {}

    def ancestors(v: int) -> list[int]:
        got = anc_cache.get(v)
        if got is None:
            got = []
            w = v
            while w != instance.root:
                w = idx.parent[w]
                got.append(w)
            anc_cache[v] = got
        return got

    desc = [[w for w in range(instance.n) if idx.is_ancestor(v, w)]
            for v in range(instance.n)]

    memo: dict[int, int | None] = {}

    def best(uncovered: int) -> int | None:
        if uncovered == 0:
            return 0
        got = memo.get(uncovered, -1)
        if got != -1:
            return got
        low = uncovered & (-uncovered)
        c = low.bit_length() - 1
        result: int | None = None
        for t in ancestors(c):
            for b in desc[c]:
                ent = table.cost_of(t, b)
                if ent is None:
                    continue
                pmask = vertical_edge_mask(idx, t, b)
                if pmask & ~uncovered:
                    continue
                sub = best(uncovered & ~pmask)
                if sub is None:
                    continue
                cand = ent[0] + sub
                if result is None or cand < result:
                    result = cand
        memo[uncovered] = result
        return result

    total = best(full)
    if total is None:
        raise ValueError("instance is infeasible")

    # Reconstruct one optimal partition deterministically.
    paths: list[UpPath] = []
    uncovered = full
    while uncovered:
        low = uncovered & (-uncovered)
        c = low.bit_length() - 1
        picked = None
        for t in ancestors(c):
            for b in desc[c]:
                ent = table.cost_of(t, b)
                if ent is None:
                    continue
                pmask = vertical_edge_mask(idx, t, b)
                if pmask & ~uncovered:
                    continue
                sub = best(uncovered & ~pmask)
                if sub is None or ent[0] + sub != best(uncovered):
                    continue
                cand = (t, b, ent[0], ent[1])
                if picked is None or (cand[0], cand[1]) < (picked[0], picked[1]):
                    picked = cand
        assert picked is not None
        t, b, w, lid = picked
        paths.append(UpPath(top=t, bottom=b, weight=w, link_id=lid))
        uncovered &= ~vertical_edge_mask(idx, t, b)
    return total, paths
