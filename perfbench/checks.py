"""Output checks that do not trust the library.

Coverage is decided with an O(n + m) link difference count over the tree:
+1 at each endpoint of a chosen link, -2 at the endpoints' lowest common
ancestor (found by Tarjan's offline algorithm), then subtree sums; a tree
edge is covered exactly when the sum below it is positive.  Weights are
recomputed from the generated link tuples, and the approximation bounds
are compared in exact ``Fraction`` arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

# 1 + ln 2 = 1.6931..., rounded up: the relative greedy's proven factor is
# (1 + ln 2 + eps); 1694/1000 keeps the comparison exact and still valid.
GREEDY_FACTOR = Fraction(1694, 1000)


class Tree:
    """Parent pointers, a BFS order and a DFS preorder of one instance tree."""

    def __init__(self, n: int, root: int, edges):
        adj = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        parent = [-1] * n
        parent[root] = root
        order = [root]
        for v in order:
            for w in adj[v]:
                if parent[w] == -1:
                    parent[w] = v
                    order.append(w)
        if len(order) != n or len(edges) != n - 1:
            raise ValueError("edges do not form a spanning tree")
        self.n, self.root, self.parent, self.bfs = n, root, parent, order
        self.children = [[] for _ in range(n)]
        for v in order[1:]:
            self.children[parent[v]].append(v)

    def lcas(self, pairs) -> list[int]:
        """Tarjan's offline lowest common ancestors, iteratively."""
        queries = [[] for _ in range(self.n)]
        for i, (u, v) in enumerate(pairs):
            queries[u].append((v, i))
            queries[v].append((u, i))
        up = list(range(self.n))  # union-find; a finished vertex points up
        done = [False] * self.n
        out = [0] * len(pairs)

        def find(x: int) -> int:
            r = x
            while up[r] != r:
                r = up[r]
            while up[x] != r:
                up[x], x = r, up[x]
            return r

        stack = [(self.root, 0)]
        while stack:
            v, ci = stack.pop()
            kids = self.children[v]
            if ci < len(kids):
                stack.append((v, ci + 1))
                stack.append((kids[ci], 0))
                continue
            done[v] = True
            for other, i in queries[v]:
                if done[other]:
                    out[i] = find(other)
            if v != self.root:
                up[v] = self.parent[v]
        return out

    def uncovered(self, pairs) -> int:
        """Number of tree edges on no path of the given vertex pairs."""
        count = [0] * self.n
        for (u, v), a in zip(pairs, self.lcas(pairs)):
            count[u] += 1
            count[v] += 1
            count[a] -= 2
        missing = 0
        for v in reversed(self.bfs):
            if v != self.root:
                if count[v] <= 0:
                    missing += 1
                count[self.parent[v]] += count[v]
        return missing


def check_solution(tree: Tree, links, link_ids, weight: int,
                   deduped_weight: int) -> list[str]:
    """Problems with one solution: ids, recomputed weight, coverage."""
    ids = list(link_ids)
    if len(set(ids)) != len(ids) or any(not 0 <= i < len(links) for i in ids):
        return [f"invalid link ids {ids[:8]}"]
    problems = []
    own = sum(links[i][2] for i in ids)
    if own != deduped_weight:
        problems.append(f"deduped weight {deduped_weight} != recomputed {own}")
    if deduped_weight > weight:
        problems.append(f"deduped weight {deduped_weight} > weight {weight}")
    missing = tree.uncovered([(links[i][0], links[i][1]) for i in ids])
    if missing:
        problems.append(f"{missing} tree edges uncovered")
    return problems


def check_bounds(uplink2: int, greedy: int | None, eps: Fraction | None,
                 opt: int | None) -> list[str]:
    """relgreedy <= uplink2, and against an exact optimum when one is known."""
    problems = []
    if greedy is not None and greedy > uplink2:
        problems.append(f"relgreedy {greedy} > uplink2 {uplink2}")
    if opt is not None:
        if uplink2 > 2 * opt:
            problems.append(f"uplink2 {uplink2} > 2*OPT {2 * opt}")
        if greedy is not None and greedy > (GREEDY_FACTOR + eps) * opt:
            problems.append(f"relgreedy {greedy} > (1.694+{eps})*OPT {opt}")
    return problems
