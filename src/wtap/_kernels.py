"""Hot integer kernels.

Three plain-Python loops over numpy int64 arrays: the vertical cost table
fill, the baseline DP sweep and the Gray-code minimum cover.  Callers reach
them as ``_kernels.<name>(...)`` so that a tracer can patch them in place.

All arithmetic is exact int64; ``INF = 2**62`` is the "no entry" sentinel.
Callers bound their weights so that finite sums stay below ``INF``
(see ``model.guard_weight_range``).
"""

from __future__ import annotations

import numpy as np

INF = 1 << 62


def fill_vertical_table(la, lb, lapex, lw, lid, parent, depth, anc_off, cost, best):
    """Relax vertical-path costs for every link.

    For link j and every vertical pair (t, b) contained in one of its two
    legs, ``cost[anc_off[b] + depth[t]]`` is lowered to w(j); ties prefer the
    smaller original link id.
    """
    m = la.shape[0]
    for j in range(m):
        apx = lapex[j]
        wj = lw[j]
        idj = lid[j]
        for side in range(2):
            e = la[j] if side == 0 else lb[j]
            y = e
            while y != apx:
                t = parent[y]
                while True:
                    slot = anc_off[y] + depth[t]
                    cy = cost[slot]
                    if wj < cy or (wj == cy and idj < best[slot]):
                        cost[slot] = wj
                        best[slot] = idj
                    if t == apx:
                        break
                    t = parent[t]
                y = parent[y]


def fill_baseline_dp(order, kids_off, kids, depth, anc_off, cost, h, bp):
    """Bottom-up table fill for the disjoint vertical-path cover.

    ``h[anc_off[c] + depth[t]]`` is the cheapest cover of the subtree below c
    plus the edge above c, given the path through that edge starts at t.
    ``bp`` stores -1 when that path ends at c, else the child position it
    continues into; -2 marks infeasible states.
    """
    for idx in range(order.shape[0]):
        c = order[idx]
        k0 = kids_off[c]
        k1 = kids_off[c + 1]
        dc = depth[c]
        n_inf = 0
        inf_pos = -1
        sfin = 0
        for pos in range(k0, k1):
            d = kids[pos]
            v = h[anc_off[d] + dc]
            if v >= INF:
                n_inf += 1
                inf_pos = pos
            else:
                sfin += v
        for tdep in range(dc):
            slot = anc_off[c] + tdep
            bestv = INF
            sel = -2
            if n_inf == 0:
                cst = cost[slot]
                if cst < INF:
                    bestv = cst + sfin
                    sel = -1
            if n_inf <= 1:
                for pos in range(k0, k1):
                    if n_inf == 1 and pos != inf_pos:
                        continue
                    d = kids[pos]
                    hdt = h[anc_off[d] + tdep]
                    if hdt >= INF:
                        continue
                    if n_inf == 0:
                        others = sfin - h[anc_off[d] + dc]
                    else:
                        others = sfin
                    cand = hdt + others
                    if cand < bestv:
                        bestv = cand
                        sel = pos - k0
            h[slot] = bestv
            bp[slot] = sel


def min_cover_gray(pmask, w, n_edges):
    """Minimum-weight covering subset by Gray-code enumeration.

    ``pmask[j]`` is the edge bitmask covered by link j (edge bits < 63).
    Returns ``(best_weight, best_subset_mask)``; weight -1 when no subset
    covers.  Ties pick the lexicographically smallest sorted id tuple.
    """
    m = pmask.shape[0]
    cnt = np.zeros(64, np.int64)
    covered = 0
    cur = 0
    curw = 0
    bestw = -1
    bestmask = 0
    total = 1 << m
    for s in range(1, total):
        t = s
        b = 0
        while t & 1 == 0:
            t >>= 1
            b += 1
        bit = 1 << b
        pm = pmask[b]
        if cur & bit:
            cur &= ~bit
            curw -= w[b]
            mm = pm
            while mm != 0:
                low = mm & (-mm)
                tt = low
                e = 0
                while tt & 1 == 0:
                    tt >>= 1
                    e += 1
                cnt[e] -= 1
                if cnt[e] == 0:
                    covered -= 1
                mm ^= low
        else:
            cur |= bit
            curw += w[b]
            mm = pm
            while mm != 0:
                low = mm & (-mm)
                tt = low
                e = 0
                while tt & 1 == 0:
                    tt >>= 1
                    e += 1
                cnt[e] += 1
                if cnt[e] == 1:
                    covered += 1
                mm ^= low
        if covered == n_edges:
            if bestw < 0 or curw < bestw:
                bestw = curw
                bestmask = cur
            elif curw == bestw and bestmask != cur:
                d = bestmask ^ cur
                low = d & (-d)
                hi = ~((low << 1) - 1)
                if cur & low:
                    cur_less = (bestmask & hi) != 0
                else:
                    cur_less = (cur & hi) == 0
                if cur_less:
                    bestmask = cur
    return bestw, bestmask

