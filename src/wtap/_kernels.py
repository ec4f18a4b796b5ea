"""Hot integer kernels.

Three plain-Python kernels: the vertical cost table fill, the baseline DP
sweep and the exact minimum cover.  The two tree tables hold one slot per
feasible (ancestor, vertex) pair: row b keeps only the suffix of depths
from ``front[b]``, the least apex depth of a link passing b, so a table
takes Σ_b (depth[b] - front[b]) slots, not Σ depth.  They live in
``array('q')`` (8 B per slot) and the kernels write them a row slice at a
time; the links and the tree index they read as they are, with no copies.
The minimum cover builds its subset tables with list comprehensions and
one stable C-level sort, not a Python step per subset: subset sums by
doubling, then a sort of the low table by weight alone.  Callers reach
the kernels as ``_kernels.<name>(...)`` so that a tracer can patch them in
place; the benchmark's tracer does so by these names, which is why the
minimum cover is still called ``min_cover_gray`` although it no longer
walks a Gray code.

Table entries are int64; ``INF = 2**62`` is the "no entry" sentinel.
Callers bound their weights so that finite sums stay below ``INF``
(see ``model.guard_weight_range``).  The minimum cover works on Python
ints and has no such bound.
"""

from __future__ import annotations

from array import array

INF = 1 << 62

# Links in the low table of ``min_cover_gray``: 2**LOW_LINKS partial covers.
LOW_LINKS = 10


def fill_vertical_table(links, lapex, parent, depth, anc_off, cost, best):
    """Cheapest link for every vertical pair (t, b).

    ``links`` is ``Instance.links`` (a link's id is its position) and
    ``lapex[j]`` the apex of link j.  ``cost[anc_off[b] + depth[t]]`` becomes
    the least weight over links j whose path contains t..b, and ``best``
    that link's id; ties prefer the smaller id.  ``cost`` and ``best`` come
    in filled with ``INF`` and -1.

    Links are taken in (weight, id) order, so the first one to reach a slot
    owns it.  The slots written in row b are always a suffix, from
    ``front[b]`` up to depth[b] - 1, and a link with apex depth a writes
    ``[a, front[b])`` of each row on its two legs in one slice.  Its walk up
    a leg stops at the first row already written down to a: the link that
    wrote that row also wrote every row above it, up to depth a or higher.
    """
    front = list(depth)
    for j in sorted(range(len(links)), key=lambda j: (links[j].weight, j)):
        lk = links[j]
        apx = lapex[j]
        a = depth[apx]
        wj = array('q', [lk.weight])
        idj = array('q', [j])
        for y in (lk.u, lk.v):
            while y != apx:
                f = front[y]
                if f <= a:
                    break
                off = anc_off[y]
                cost[off + a:off + f] = wj * (f - a)
                best[off + a:off + f] = idj * (f - a)
                front[y] = a
                y = parent[y]


def fill_baseline_dp(order, children, depth, front, anc_off, cost, h, bp):
    """Bottom-up table fill for the disjoint vertical-path cover.

    ``children[c]`` lists the children of c (``RootedTreeIndex.children``).
    ``h[anc_off[c] + depth[t]]`` is the cheapest cover of the subtree below c
    plus the edge above c, given the path through that edge starts at t.
    ``bp`` stores -1 when that path ends at c, else the child position it
    continues into; -2 marks infeasible states.  Candidates are the path
    ending at c, then each child in order; the first strictly cheapest
    wins.

    ``h`` and ``bp`` share the row layout of ``cost``: row c holds the depths
    ``[front[c], depth[c])`` (see ``model.VerticalCostTable``).  They come in
    filled with ``INF`` and -2, and only feasible entries are written.  A
    row of ``h`` is feasible exactly where its ``cost`` row is, that is on
    the whole row, and only when every child edge can be covered from c: a
    link or cover that works from t also works from any t' between t and c,
    and a child edge that cannot be covered from c cannot be from higher up
    either.  A child d whose row is empty (``front[d] > depth[c]``) blocks
    c, and d's candidates exist only from ``front[d]`` down.  The row is
    computed as a list and written in one slice.
    """
    for c in order:
        dc = depth[c]
        fc = front[c]
        if fc == dc:
            continue
        kid_list = children[c]
        at_c = [h[anc_off[d] + dc] if front[d] <= dc else INF for d in kid_list]
        if max(at_c, default=0) >= INF:
            continue
        off = anc_off[c]
        sfin = sum(at_c)
        vals = [v + sfin for v in cost[off + fc:off + dc]]
        sel = [-1] * len(vals)
        for p, d in enumerate(kid_list):
            others = sfin - at_c[p]
            od = anc_off[d]
            lo = max(fc, front[d])
            for t, v in enumerate(h[od + lo:od + dc], lo - fc):
                v += others
                if v < vals[t]:
                    vals[t] = v
                    sel[t] = p
        h[off + fc:off + dc] = array('q', vals)
        bp[off + fc:off + dc] = array('q', sel)


def _partial_covers(pmask, w):
    """The edge set and weight of every subset s of the links, at index s.

    Built by doubling: adding link b appends a copy of the lists so far
    with b in every set."""
    cov = [0]
    wt = [0]
    for pm, wb in zip(pmask, w):
        cov += [c | pm for c in cov]
        wt += [x + wb for x in wt]
    return cov, wt


def min_cover_gray(pmask, w, n_edges):
    """Minimum-weight covering subset, by blocked enumeration.

    ``pmask[j]`` is the edge bitmask covered by link j, ``w[j]`` its weight,
    both Python ints of any size.  Returns ``(best_weight, best_subset_mask)``;
    weight -1 when no subset covers all ``n_edges`` edges.  Ties pick the
    smallest subset mask.

    The first ``LOW_LINKS`` links form a table of every partial cover with
    its weight (``_partial_covers``); the remaining high links get the same
    table, unsorted.  The low table is stably sorted by weight, so equal
    weights keep the order of their masks.  Each subset of the high links,
    in mask order, scans the low table for the first entry covering what it
    leaves missing; the scan stops once the weight cannot beat the best
    found so far, so the first cover of a weight found is the smallest
    mask of that weight.  The result equals that of a Gray-code sweep over
    all 2**m subsets, the method the name comes from.
    """
    m = len(pmask)
    full = 0
    for pm in pmask:
        full |= pm
    if bin(full).count("1") != n_edges:
        return -1, 0
    lo = min(m, LOW_LINKS)
    cov, wt = _partial_covers(pmask[:lo], w[:lo])
    hcov, hw = _partial_covers(pmask[lo:], w[lo:])
    table = [(wt[s], cov[s], s)
             for s in sorted(range(len(wt)), key=wt.__getitem__)]
    reach = cov[-1]
    bestw = -1
    bestmask = 0
    for hs, (wh, hc) in enumerate(zip(hw, hcov)):
        missing = full & ~hc
        if missing & ~reach:
            continue
        for ws, cs, s in table:
            total = wh + ws
            if 0 <= bestw <= total:
                break
            if cs & missing == missing:
                bestw = total
                bestmask = (hs << lo) | s
                break
    return bestw, bestmask
