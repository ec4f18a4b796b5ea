"""Hot integer kernels.

Three plain-Python kernels: the vertical cost table fill, the baseline DP
sweep and the exact minimum cover.  The two tree tables hold Theta(sum of
depths) slots, so they live in ``array('q')`` (8 B per slot) and the kernels
write them a row slice at a time; everything else is lists and Python ints.
Callers reach the kernels as ``_kernels.<name>(...)`` so that a tracer can
patch them in place; the benchmark's tracer does so by these names, which
is why the minimum cover is still called ``min_cover_gray`` although it no
longer walks a Gray code.

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


def fill_vertical_table(la, lb, lapex, lw, lid, parent, depth, anc_off, cost, best):
    """Cheapest link for every vertical pair (t, b).

    ``cost[anc_off[b] + depth[t]]`` becomes the least w(j) over links j whose
    path contains t..b, and ``best`` that link's id; ties prefer the smaller
    id.  ``cost`` and ``best`` come in filled with ``INF`` and -1.

    Links are taken in (weight, id) order, so the first one to reach a slot
    owns it.  The slots written in row b are always a suffix, from
    ``front[b]`` up to depth[b] - 1, and a link with apex depth a writes
    ``[a, front[b])`` of each row on its two legs in one slice.  Its walk up
    a leg stops at the first row already written down to a: the link that
    wrote that row also wrote every row above it, up to depth a or higher.
    """
    front = list(depth)
    for j in sorted(range(len(lw)), key=lambda j: (lw[j], lid[j])):
        apx = lapex[j]
        a = depth[apx]
        wj = array('q', [lw[j]])
        idj = array('q', [lid[j]])
        for y in (la[j], lb[j]):
            while y != apx:
                f = front[y]
                if f <= a:
                    break
                off = anc_off[y]
                cost[off + a:off + f] = wj * (f - a)
                best[off + a:off + f] = idj * (f - a)
                front[y] = a
                y = parent[y]


def fill_baseline_dp(order, kids_off, kids, depth, anc_off, cost, h, bp):
    """Bottom-up table fill for the disjoint vertical-path cover.

    ``h[anc_off[c] + depth[t]]`` is the cheapest cover of the subtree below c
    plus the edge above c, given the path through that edge starts at t.
    ``bp`` stores -1 when that path ends at c, else the child position it
    continues into; -2 marks infeasible states.  Candidates are the path
    ending at c, then each child in order; the first strictly cheapest
    wins.

    ``h`` and ``bp`` come in filled with ``INF`` and -2, and only feasible
    entries are written.  The feasible entries of every row of ``cost`` and
    ``h`` are a suffix: a link or cover that works from t also works from
    any t' between t and c.  So a row of c is feasible exactly where its
    ``cost`` row is, and only when every child edge can be covered from c;
    a child edge that cannot be covered from c cannot be from higher up
    either.  That suffix is computed as a list and written in one slice.
    """
    for c in order:
        dc = depth[c]
        off = anc_off[c]
        kid_offs = [anc_off[d] for d in kids[kids_off[c]:kids_off[c + 1]]]
        at_c = [h[od + dc] for od in kid_offs]
        if max(at_c, default=0) >= INF:
            continue
        f = off + dc
        while f > off and cost[f - 1] < INF:
            f -= 1
        if f == off + dc:
            continue
        sfin = sum(at_c)
        vals = [v + sfin for v in cost[f:off + dc]]
        sel = [-1] * len(vals)
        lo = f - off
        for p, od in enumerate(kid_offs):
            others = sfin - at_c[p]
            for t, v in enumerate(h[od + lo:od + dc]):
                v += others
                if v < vals[t]:
                    vals[t] = v
                    sel[t] = p
        h[f:off + dc] = array('q', vals)
        bp[f:off + dc] = array('q', sel)


def min_cover_gray(pmask, w, n_edges):
    """Minimum-weight covering subset, by blocked enumeration.

    ``pmask[j]`` is the edge bitmask covered by link j, ``w[j]`` its weight,
    both Python ints of any size.  Returns ``(best_weight, best_subset_mask)``;
    weight -1 when no subset covers all ``n_edges`` edges.  Ties pick the
    ``lex_less``-smallest subset, that is the smallest sorted id tuple.

    The first ``LOW_LINKS`` links form a table of every partial cover with
    its weight, sorted by weight and then by the tie order.  Each subset of
    the remaining high links scans that table for the first entry covering
    what it leaves missing; the scan stops once the weight cannot match the
    best found so far.  The result equals that of a Gray-code sweep over
    all 2**m subsets, the method the name comes from.
    """
    m = len(pmask)
    full = 0
    for pm in pmask:
        full |= pm
    if bin(full).count("1") != n_edges:
        return -1, 0
    lo = min(m, LOW_LINKS)
    cov = [0] * (1 << lo)
    wt = [0] * (1 << lo)
    ids = [()] * (1 << lo)
    for s in range(1, 1 << lo):
        low = s & -s
        b = low.bit_length() - 1
        cov[s] = cov[s ^ low] | pmask[b]
        wt[s] = wt[s ^ low] + w[b]
        ids[s] = (b,) + ids[s ^ low]
    # Alone, a low subset ties by its sorted ids; beside a nonempty high
    # subset, whose ids are all >= lo, a proper prefix no longer wins (which
    # matters only when zero weights let a set tie a prefix of itself).
    tables = [[(wt[s], cov[s], s)
               for s in sorted(range(1 << lo), key=lambda s: (wt[s], ids[s] + tail))]
              for tail in ((), (lo,))]
    reach = cov[-1]
    bestw = -1
    bestmask = 0
    hcov = [0]
    hw = [0]
    for hs in range(1 << (m - lo)):
        if hs:
            low = hs & -hs
            b = low.bit_length() - 1
            hcov.append(hcov[hs ^ low] | pmask[lo + b])
            hw.append(hw[hs ^ low] + w[lo + b])
        wh = hw[hs]
        missing = full & ~hcov[hs]
        if missing & ~reach:
            continue
        for ws, cs, s in tables[hs != 0]:
            total = wh + ws
            if bestw >= 0 and total > bestw:
                break
            if cs & missing == missing:
                mask = (hs << lo) | s
                if bestw < 0 or total < bestw or lex_less(mask, bestmask):
                    bestw = total
                    bestmask = mask
                break
    return bestw, bestmask
