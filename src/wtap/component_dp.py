"""Maximum-slack k-thin component search.

Given disjoint vertical up-link paths U, a ratio rho = p/q, and a search
alphabet of links, find a k-thin set C maximizing

    slack_rho(C) = rho * w(links of U whose path C covers) - w(C).

The table is indexed by triples (v, Y, x): a vertex, the set of chosen links
with exactly one endpoint below v (at most k of them; they all pass through
v), and a flag x telling whether the unique up-link entering the subtree of
v, if any, must have its inside edges covered.

Which triples the root reaches, each one's candidate link sets Z (links with
apex v), the child entries each candidate combines and whether it is
feasible do not depend on rho.  ``ComponentSearch`` therefore compiles them
once into a flat plan, listed in post-order so that every entry follows the
entries it reads; each probe is then one bottom-up integer sweep over it.
Triples at one vertex whose Y links end at the same vertices below it
always have the same slack and set, so they share one slot of the plan.

Removing up-links from U, together with their search links, only takes
candidates, states and PLUS alternatives away.  ``drop_uplinks`` therefore
cuts the plan down in place with three linear passes instead of compiling
it again, and the relative greedy compiles one plan per solve.  A slot stands
for every Y with the same endpoints below its vertex, so it is never dropped
because the Y of its own key holds a removed link: a live request may share
it.

All slack values are integers in units of 1/q: slack * q = p*w(drop) - q*w(C).
Link sets are bitmasks over the search alphabet.  Ties between equal-slack
candidates prefer a nonempty set, then the lexicographically smallest sorted
id tuple, so tables are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, compress
from typing import Iterable, Iterator, Sequence

from ._kernels import lex_less
from .baseline import UpPath
from .model import Instance, link_vertices, mask_bits

MINUS = 0
PLUS = 1

_EMPTY_KEY = 0  # state key 2*Y + x of (v, {}, -)


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


def _preferred(m1: int, m2: int) -> bool:
    """Tie-break between equal slacks: nonempty first, then ``lex_less``."""
    if (m1 != 0) != (m2 != 0):
        return m1 != 0
    return lex_less(m1, m2)


@dataclass(frozen=True)
class SlackResult:
    slack: Fraction
    cmask: int
    links: tuple[SearchLink, ...]
    drop_indices: tuple[int, ...]
    drop_weight: int
    weight: int


class _Plan:
    """The compiled table: flat per-state, per-candidate and per-term lists.

    State ``s`` sits at vertex ``vert[s]`` with key ``ykey[s] = 2*Y + x``;
    its candidates are ``cand_lo[s]:cand_lo[s+1]``.  Candidate ``c`` has
    weight ``cand_w[c]``, apex-link mask ``cand_z[c]`` and terms
    ``term_lo[c]:term_lo[c+1]``.  Term ``t`` replaces, for one child, the
    child's empty-boundary entry ``term_ze[t]`` by entry ``term_ch[t]``, or
    by entry ``term_pl[t]`` plus rho * ``term_uw[t]`` when that is at least
    as large (``term_pl[t]`` is -1 when there is no such choice, and
    ``term_uw[t]`` then means nothing).
    ``ze[v]`` is the empty-boundary entry (v, {}, -) and ``zero[v]`` lists
    those of v's children.  States come in post-order of their vertices, so
    each follows the entries it reads, and those of one vertex are
    contiguous.  ``root`` is the state the plan was compiled for.
    """

    def __init__(self, n: int):
        self.vert: list[int] = []
        self.ykey: list[int] = []
        self.cand_lo = [0]
        self.cand_w: list[int] = []
        self.cand_z: list[int] = []
        self.term_lo = [0]
        self.term_ze: list[int] = []
        self.term_ch: list[int] = []
        self.term_pl: list[int] = []
        self.term_uw: list[int] = []
        self.zero: list[list[int] | None] = [None] * n
        self.ze = [-1] * n
        self.root = -1


class _Sweep:
    """One probe: every state's value at rho = p/q, link sets on demand.

    ``val[s]`` is state s's slack * q and ``pick[s]`` its best candidate,
    found in one pass in plan order.  Link sets are needed only to break
    ties and to answer, so ``mask`` composes them from the picks when asked.
    """

    def __init__(self, plan: _Plan, p: int, q: int):
        self.plan = plan
        self.p = p
        nst = len(plan.vert)
        self.val = val = [0] * nst
        self.pick = pick = [0] * nst
        self.msk: list[int | None] = [None] * nst
        cand_lo, cand_w = plan.cand_lo, plan.cand_w
        term_lo, term_ze, term_ch = plan.term_lo, plan.term_ze, plan.term_ch
        term_pl, term_uw, zero = plan.term_pl, plan.term_uw, plan.zero
        at = -1
        zs = 0
        for s, v in enumerate(plan.vert):
            if v != at:  # a vertex's states are contiguous
                at = v
                zs = 0
                for e in zero[v]:
                    zs += val[e]
            best = 0
            best_c = -1
            best_m = None
            for c in range(cand_lo[s], cand_lo[s + 1]):
                sl = zs - q * cand_w[c]
                for t in range(term_lo[c], term_lo[c + 1]):
                    a = val[term_ch[t]]
                    pl = term_pl[t]
                    if pl >= 0:
                        b = val[pl] + p * term_uw[t]
                        if b >= a:
                            a = b
                    sl += a - val[term_ze[t]]
                if best_c < 0 or sl > best:
                    best, best_c, best_m = sl, c, None
                elif sl == best:
                    if best_m is None:
                        best_m = self._cand_mask(s, best_c)
                    m = self._cand_mask(s, c)
                    if _preferred(m, best_m):
                        best_c, best_m = c, m
            val[s] = best
            pick[s] = best_c
            self.msk[s] = best_m

    def mask(self, s: int) -> int:
        """The link set of state s, as a mask over the search alphabet."""
        self._fill([s])
        return self.msk[s]

    def root(self) -> tuple[int, int]:
        """The plan root's slack * q and link-set mask."""
        s = self.plan.root
        return self.val[s], self.mask(s)

    def _parts(self, s: int, c: int) -> list[int]:
        """The states whose sets candidate c of state s combines."""
        plan, val, p = self.plan, self.val, self.p
        out = list(plan.zero[plan.vert[s]])
        for t in range(plan.term_lo[c], plan.term_lo[c + 1]):
            pick = plan.term_ch[t]
            pl = plan.term_pl[t]
            if pl >= 0 and val[pl] + p * plan.term_uw[t] >= val[pick]:
                pick = pl
            out.append(pick)
        return out

    def _cand_mask(self, s: int, c: int) -> int:
        """The link set of candidate c of state s."""
        parts = self._parts(s, c)
        self._fill(parts)
        return self._combine(s, c, parts)

    def _combine(self, s: int, c: int, parts: list[int]) -> int:
        """Candidate c's apex links, each child's empty-boundary set, and the
        chosen entry's set in place of that for every child a term names;
        the sets of ``parts`` must be known."""
        plan, msk = self.plan, self.msk
        nzero = len(plan.zero[plan.vert[s]])
        m = plan.cand_z[c]
        for e in parts[:nzero]:
            m |= msk[e]
        for t, e in zip(range(plan.term_lo[c], plan.term_lo[c + 1]), parts[nzero:]):
            m = (m & ~msk[plan.term_ze[t]]) | msk[e]
        return m

    def _fill(self, states: list[int]) -> None:
        """Compose the sets of ``states`` and of everything they rest on."""
        msk, pick = self.msk, self.pick
        stack = list(states)
        while stack:
            s = stack[-1]
            if msk[s] is not None:
                stack.pop()
                continue
            parts = self._parts(s, pick[s])
            todo = [e for e in parts if msk[e] is None]
            if todo:
                stack.extend(todo)
                continue
            stack.pop()
            msk[s] = self._combine(s, pick[s], parts)


class ComponentSearch:
    """Reusable DP context for one (instance, U, k, search alphabet);
    ``drop_uplinks`` narrows it to fewer up-links."""

    def __init__(self, instance: Instance, uplinks: Sequence[UpPath],
                 k: int, search_links: Sequence[SearchLink]):
        if k < 1:
            raise ValueError("k must be at least 1")
        self.instance = instance
        self.k = k
        self.idx = instance.index
        self._index(uplinks, search_links)
        self._plan = self._compile(instance.root, 0, MINUS)
        assert self._plan is not None  # (root, {}, -) is always feasible
        self._fresh()

    def _index(self, uplinks: Sequence[UpPath],
               search_links: Sequence[SearchLink]) -> None:
        """Build the per-link and up-link structures for (U, search alphabet)."""
        self.links = list(search_links)
        self.uplinks = list(uplinks)
        idx = self.idx
        n = self.instance.n

        # Per-link structure: apex, per-vertex child targets, path mask.
        self.apex_ids: list[list[int]] = [[] for _ in range(n)]
        # touch[v][i]: the children of v that link i's path goes down into
        self.touch: list[dict[int, list[int]]] = [{} for _ in range(n)]
        self.link_masks: list[int] = []
        for i, sl in enumerate(self.links):
            apx = idx.lca(sl.a, sl.b)
            self.apex_ids[apx].append(i)
            for e in (sl.a, sl.b):
                prev = -1
                v = e
                while True:
                    if prev >= 0:
                        self.touch[v].setdefault(i, []).append(prev)
                    if v == apx:
                        break
                    prev = v
                    v = idx.parent[v]
            self.link_masks.append(idx.path_edge_mask(sl.a, sl.b))

        # Up-link structure: unique crossing path per vertex, step-down map,
        # and the weight of the up-link hanging from each vertex's parent.
        self.crossing = [-1] * n
        self.u_step: dict[tuple[int, int], int] = {}
        self.u_masks: list[int] = []
        self.hang_weight = [-1] * n
        for ui, up in enumerate(self.uplinks):
            prev = -1
            v = up.bottom
            mask = 0
            while True:
                if prev >= 0:
                    self.u_step[(ui, v)] = prev
                if v == up.top:
                    self.hang_weight[prev] = up.weight
                    break
                if self.crossing[v] != -1:
                    raise ValueError("up-link paths are not pairwise disjoint")
                self.crossing[v] = ui
                mask |= 1 << v
                prev = v
                v = idx.parent[v]
            self.u_masks.append(mask)

    def _fresh(self) -> None:
        """Count the plan's states and forget the last probe."""
        self.states = len(self._plan.vert)
        self._p = 0
        self._q = 1
        self._last: _Sweep | None = None

    # ------------------------------------------------------------------
    def max_slack(self, p: int, q: int) -> SlackResult:
        """Best k-thin component at rho = p/q; empty set is always admissible."""
        if q <= 0 or p < 0:
            raise ValueError("rho must be a nonnegative rational")
        self._p, self._q = p, q
        self._last = _Sweep(self._plan, p, q)
        num, cmask = self._last.root()
        return self.result_for(cmask, expect_slack=(num, q))

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
    def drop_uplinks(self, indices: Iterable[int]) -> None:
        """Remove the up-links at ``indices`` from U, and their search links.

        The search links removed are the alphabet entries equal to
        ``uplink_search_links`` of those up-links; the other links keep their
        order, so originals keep their ids, later ids shift down and
        ``lex_less`` tie-breaks are unchanged.  Afterwards the object
        answers every query as ``ComponentSearch(instance, U', k,
        alphabet')`` would, with the same states and candidates; the states
        of one vertex may come in another order, and ``entries`` may show
        another Y of the same slot.  The plan is cut down in place:

        1. A candidate goes when its Z holds a removed link, and a PLUS
           state when the up-link crossing its vertex was removed.  As
           up-links are disjoint, every other state keeps a candidate, and
           the entry each term of a kept candidate must read is kept.
        2. Top-down from the root: keep what the kept candidates read.  A
           term's PLUS alternative goes when its entry went, as it does when
           the up-link hanging into that child was removed.
        3. Renumber states, candidates and terms in order, in place.

        A state is never dropped because the Y of its key holds a removed
        link: the slot stands for every Y with the same endpoints below its
        vertex, and a live request may share it.  Such a slot takes the Y of
        the first live candidate found reading it as its key.
        """
        gone = set(indices)
        if not gone <= set(range(len(self.uplinks))):
            raise IndexError(f"no up-links {sorted(gone)} among {len(self.uplinks)}")
        cut_links = set(uplink_search_links([self.uplinks[i] for i in gone]))
        cut = [i for i, sl in enumerate(self.links) if sl in cut_links]
        self._last = None  # free the last sweep before the passes
        self._index([p for i, p in enumerate(self.uplinks) if i not in gone],
                    [sl for sl in self.links if sl not in cut_links])
        self._restrict(cut)
        self._fresh()

    def extract_root(self) -> SlackResult:
        """The table's answer: the entry for (root, empty boundary, -).

        Requires a prior ``max_slack`` call, whose rho it reuses.
        """
        num, cmask = self._probed().root()
        return self.result_for(cmask, expect_slack=(num, self._q))

    def _probed(self) -> _Sweep:
        if self._last is None:
            raise RuntimeError("no probe yet: call max_slack first")
        return self._last

    def entry(self, v: int, y_ids: Sequence[int], x: int):
        """Public accessor for a table entry at the last rho; None when infeasible.

        The entry is compiled on its own, so states the root never reaches
        can be asked for too.  Requires a prior ``max_slack`` call.
        """
        self._probed()
        ymask = 0
        for i in y_ids:
            ymask |= 1 << i
        plan = self._compile(v, ymask, x)
        if plan is None:
            return None
        num, cmask = _Sweep(plan, self._p, self._q).root()
        return Fraction(num, self._q), tuple(self.links[i] for i in mask_bits(cmask))

    def entries(self) -> Iterator[tuple[int, int, int, int, int]]:
        """Every compiled state as (v, Y mask, x, slack * q, C mask) at the last rho."""
        plan, sw = self._plan, self._probed()
        return ((v, yk >> 1, yk & 1, sw.val[s], sw.mask(s))
                for s, (v, yk) in enumerate(zip(plan.vert, plan.ykey)))

    # ------------------------------------------------------------------
    def _zsets(self, v: int) -> Iterator[tuple[int, int, int, tuple]]:
        """Yield every candidate Z of vertex v as ``(|Z|, w(Z), Z mask, down)``.

        Z is a set of at most k links with apex v, by size, then in
        ``combinations`` order; ``down`` pairs each child the links of Z go
        down into with the mask of those links.  They are made afresh for
        each state, as at k = 4 a vertex can have over 10^5 of them.
        """
        touch_v = self.touch[v]
        apex_list = self.apex_ids[v]
        for zsize in range(0, min(self.k, len(apex_list)) + 1):
            for zcombo in combinations(apex_list, zsize):
                zmask = 0
                zweight = 0
                down: dict[int, int] = {}
                for lid in zcombo:
                    zmask |= 1 << lid
                    zweight += self.links[lid].weight
                    for child in touch_v[lid]:
                        down[child] = down.get(child, 0) | (1 << lid)
                yield zsize, zweight, zmask, tuple(down.items())

    def _frame(self, v: int, ymask: int, x: int) -> tuple[int, dict[int, int], int]:
        """What state (v, Y, x) fixes for its candidates: ``(cstar, ybase, avail)``.

        ``cstar`` is the child the up-link entering v continues into when x
        is PLUS (every candidate must send a link down into it), else -1;
        ``ybase`` maps each child the links of Y go down into to their mask;
        ``avail`` is how many apex links of v a candidate may still add.
        """
        cstar = -1
        if x == PLUS:
            u = self.crossing[v]
            if self.uplinks[u].bottom != v:
                cstar = self.u_step[(u, v)]
        touch_v = self.touch[v]
        ybits = mask_bits(ymask)
        ybase: dict[int, int] = {}
        for lid in ybits:
            for child in touch_v.get(lid, ()):
                ybase[child] = ybase.get(child, 0) | (1 << lid)
        return cstar, ybase, self.k - len(ybits)

    def _candidates(self, v: int, ymask: int, x: int):
        """Yield the candidate specs ``(w(Z), Z mask, terms)`` of state (v, Y, x).

        When x is PLUS an up-link must enter v.  A term ``(child, key,
        plus_key, up_weight)`` reads the child's entry with key ``key``
        (``2*Y + x``, as in ``_Plan.ykey``); when an up-link hangs from v into
        that child, its PLUS entry ``plus_key`` may be taken instead with the
        up-link's weight as bonus (otherwise ``plus_key`` is -1).
        """
        cstar, ybase, avail = self._frame(v, ymask, x)
        hang_weight = self.hang_weight
        for zsize, zweight, zmask, down in self._zsets(v):
            if zsize > avail:
                break
            ydict = dict(ybase)
            for child, m in down:
                ydict[child] = ydict.get(child, 0) | m
            if cstar >= 0 and cstar not in ydict:
                continue  # the entering up-link's inside edges would stay uncovered
            terms = []
            for child, ym in ydict.items():
                uw = hang_weight[child]
                if uw >= 0:
                    terms.append((child, 2 * ym + MINUS, 2 * ym + PLUS, uw))
                else:
                    want = PLUS if child == cstar else MINUS
                    terms.append((child, 2 * ym + want, -1, 0))
            yield zweight, zmask, terms

    def _child_keys(self, v: int, ymask: int, x: int,
                    into: dict[int, int], subsets: dict[int, list]):
        """Yield ``(child, key)`` for every entry the candidates of (v, Y, x) read.

        They are the keys of ``_candidates``' terms, found per child without
        enumerating the candidates: for child c and each set S of apex links
        of v going down into c with |S| <= avail, the mask ``ybase[c] | S``
        (0 is left out: c's empty entry is read through ``_Plan.zero``).
        ``into`` and ``subsets`` are ``_apex_down(v)``.  When x is
        PLUS, S must leave room for a candidate that sends a link into cstar:
        Y does already, or S does, or a further apex link can within avail
        (one that goes into cstar and not into c, as it must not join S).
        """
        cstar, ybase, avail = self._frame(v, ymask, x)
        free = cstar < 0 or cstar in ybase
        need = 0 if free else into.get(cstar, 0)
        for c in dict.fromkeys([*ybase, *subsets]):
            base = ybase.get(c, 0)
            spare = not free and need & ~into.get(c, 0) != 0
            uw = self.hang_weight[c]
            x_c = PLUS if c == cstar else MINUS
            for size, s in subsets.get(c, ((0, 0),)):
                if size > avail:
                    break
                if not (free or s & need or (spare and size < avail)):
                    continue
                ym = base | s
                if ym == 0:
                    continue
                if uw >= 0:
                    yield c, 2 * ym + MINUS
                    yield c, 2 * ym + PLUS
                else:
                    yield c, 2 * ym + x_c

    def _apex_down(self, v: int) -> tuple[dict[int, int], dict[int, list]]:
        """Per child c of v: the mask of v's apex links that go down into c,
        and the sets of at most k of them as ``(size, mask)``, by size."""
        into: dict[int, int] = {}
        lids_of: dict[int, list[int]] = {}
        for lid in self.apex_ids[v]:
            for child in self.touch[v][lid]:
                into[child] = into.get(child, 0) | (1 << lid)
                lids_of.setdefault(child, []).append(lid)
        subsets = {child: [(size, sum(1 << i for i in combo))
                           for size in range(min(self.k, len(lids)) + 1)
                           for combo in combinations(lids, size)]
                   for child, lids in lids_of.items()}
        return into, subsets

    def _compile(self, v: int, ymask: int, x: int) -> _Plan | None:
        """Plan for the states reachable from (v, Y, x); None when infeasible.

        A depth-first walk over v's subtree with an explicit stack.  On the
        way down, each state requested at a vertex requests, child by child,
        the entries its candidates read (``_child_keys``), without
        enumerating the candidates.  On the way up (post-order), each state
        is added with the candidates whose entries are all feasible, and
        gets its id; a state left with no candidate gets -1 and is left out.
        """
        children = self.idx.children
        links = self.links
        tin, tout = self.idx.tin, self.idx.tout
        plan = _Plan(self.instance.n)
        # per vertex: requested state key 2*Y + x -> the key of the state
        # whose candidates it shares, then -> its id once added
        states: list[dict] = [{} for _ in range(self.instance.n)]
        states[v][2 * ymask + x] = 2 * ymask + x
        stack = [(v, False)]
        while stack:
            u, expanded = stack.pop()
            got = states[u]
            if expanded:
                self._add_vertex(plan, u, got, states)
                for c in children[u]:
                    states[c] = {}  # read only by u's states
                continue
            # Below u, a link of Y is just the path from u down to its endpoint
            # in u's subtree, so states whose Y have the same endpoints there
            # have the same slack and set, and share the first one's candidates.
            shared: dict[tuple, int] = {}
            down = None
            for key in got:
                ym = key >> 1
                ends = [sl.a if tin[u] <= tin[sl.a] <= tout[u] else sl.b
                        for sl in map(links.__getitem__, mask_bits(ym))]
                got[key] = first = shared.setdefault(
                    (tuple(sorted(ends)), key & 1), key)
                if first != key or not self._enters(u, key):
                    continue
                if down is None:
                    down = self._apex_down(u)
                    for c in children[u]:
                        states[c].setdefault(_EMPTY_KEY, None)
                for c, ck in self._child_keys(u, ym, key & 1, *down):
                    states[c].setdefault(ck, None)
            stack.append((u, True))
            stack.extend((c, False) for c in children[u])
        plan.root = states[v][2 * ymask + x]
        return plan if plan.root >= 0 else None

    def _enters(self, v: int, key: int) -> bool:
        """False for a PLUS state at a vertex no up-link enters: infeasible."""
        return (key & 1) == MINUS or self.crossing[v] >= 0

    def _add_vertex(self, plan: _Plan, v: int, got: dict, states) -> None:
        """Replace the entry of every state requested at v by its id."""
        plan.zero[v] = [plan.ze[c] for c in self.idx.children[v]]
        for key, first in got.items():
            if first != key:
                sid = got[first]  # already replaced: dicts keep their order
            elif not self._enters(v, key):
                sid = -1
            else:
                sid = self._append_state(plan, v, key, self._candidates(
                    v, key >> 1, key & 1), states)
            got[key] = sid
            if key == _EMPTY_KEY:
                plan.ze[v] = sid

    @staticmethod
    def _append_state(plan: _Plan, v: int, key: int, cands, states) -> int:
        """Append a state with its feasible candidates; its id, or -1 if none."""
        c0 = len(plan.cand_w)
        for zweight, zmask, terms in cands:
            if (key & 1) == PLUS and any(states[child][ck] < 0
                                         for child, ck, _, _ in terms):
                continue  # only a PLUS state must read PLUS entries
            plan.cand_w.append(zweight)
            plan.cand_z.append(zmask)
            for child, ck, pk, uw in terms:
                plan.term_ze.append(plan.ze[child])
                plan.term_ch.append(states[child][ck])
                plan.term_pl.append(-1 if pk < 0 else states[child][pk])
                plan.term_uw.append(uw)
            plan.term_lo.append(len(plan.term_ze))
        if len(plan.cand_w) == c0:
            return -1
        plan.vert.append(v)
        plan.ykey.append(key)
        plan.cand_lo.append(len(plan.cand_w))
        return len(plan.vert) - 1

    def _restrict(self, cut: list[int]) -> None:
        """Cut the plan down to the current structures, in place; ``cut``
        lists the old ids of the removed search links (see ``drop_uplinks``)."""
        plan = self._plan
        vert, ykey = plan.vert, plan.ykey
        cand_lo, cand_w, cand_z = plan.cand_lo, plan.cand_w, plan.cand_z
        term_lo, term_ze, term_ch = plan.term_lo, plan.term_ze, plan.term_ch
        term_pl, term_uw = plan.term_pl, plan.term_uw
        crossing = self.crossing
        gone = sum(1 << i for i in cut)
        # a mask below the lowest removed id keeps its bits
        low = 1 << min(cut, default=len(self.links) + len(cut))
        top_down = sorted(cut, reverse=True)

        def squeeze(m: int) -> int:
            """Mask m over the old ids, renumbered to the new ones."""
            if m < low:
                return m
            for i in top_down:
                m = (m & ((1 << i) - 1)) | ((m >> (i + 1)) << i)
            return m

        # 1. What survives: a PLUS state goes when the up-link crossing its
        # vertex is gone, and a candidate when its Z holds a removed link.
        # Nothing else goes.  A MINUS state keeps the empty Z.  A PLUS state
        # on a surviving up-link keeps, for each candidate Z, the candidate
        # Z minus the removed links: up-links are disjoint, so no removed
        # link goes down that up-link, and both read the same PLUS entry.
        nst = len(vert)
        live = bytearray(nst)
        keep = bytearray(len(cand_w))
        for s in range(nst):
            if ykey[s] & 1 and crossing[vert[s]] < 0:
                continue
            live[s] = 1
            for c in range(cand_lo[s], cand_lo[s + 1]):
                if not cand_z[c] & gone:
                    keep[c] = 1

        # 2. Top-down: what the root reaches.  A PLUS alternative counts
        # only if its entry is live.  A slot whose key holds a removed link
        # takes the key its first reader asks for.
        stale = {s for s in range(nst) if ykey[s] >> 1 & gone and live[s]}
        reach = bytearray(nst)
        reach[plan.root] = 1
        key: dict[int, int] = {}
        for s in range(nst - 1, -1, -1):
            if not reach[s]:
                continue
            v = vert[s]
            for e in plan.zero[v]:
                reach[e] = 1
            lo, hi = cand_lo[s], cand_lo[s + 1]
            if keep.find(0, lo, hi) < 0:  # all kept: one span of terms
                spans = [(term_lo[lo], term_lo[hi])]
            else:
                spans = [(term_lo[c], term_lo[c + 1])
                         for c in compress(range(lo, hi), keep[lo:hi])]
            read = []
            for a, b in spans:
                read += term_ch[a:b]
                read += [e for e in term_pl[a:b] if e >= 0 and live[e]]
            for e in read:
                reach[e] = 1
            if stale.isdisjoint(read):
                continue
            ys = key[s] >> 1 if s in key else squeeze(ykey[s] >> 1)
            for c in compress(range(lo, hi), keep[lo:hi]):
                a, b = term_lo[c], term_lo[c + 1]
                for e in stale.intersection(term_ch[a:b] + term_pl[a:b]):
                    stale.discard(e)
                    # the links of Y and Z that go down into e's vertex
                    ybase = self._frame(v, ys | squeeze(cand_z[c]), MINUS)[1]
                    key[e] = 2 * ybase.get(vert[e], 0) + (ykey[e] & 1)

        # 3. Renumber in order, in place: every write index trails its read
        # index, and a bound is read before the slot that holds it is
        # written.  new[-1] stays -1, so a PLUS alternative that went maps
        # to -1.
        new = [-1] * (nst + 1)
        ns = nc = 0
        hi = cand_lo[0]
        for s in range(nst):
            lo, hi = hi, cand_lo[s + 1]
            if not reach[s]:
                keep[lo:hi] = bytes(hi - lo)
                continue
            new[s] = ns
            vert[ns] = vert[s]
            if s in key:
                ykey[ns] = key[s]
            else:
                ykey[ns] = squeeze(ykey[s] >> 1) << 1 | ykey[s] & 1
            nc += keep.count(1, lo, hi)
            ns += 1
            cand_lo[ns] = nc
        tkeep = bytearray(b"\x01") * len(term_ch)
        c = keep.find(0)
        while c >= 0:
            tkeep[term_lo[c]:term_lo[c + 1]] = bytes(term_lo[c + 1] - term_lo[c])
            c = keep.find(0, c + 1)
        nt = 0
        for i, c in enumerate(compress(range(len(cand_w)), keep)):
            cand_w[i] = cand_w[c]
            cand_z[i] = squeeze(cand_z[c])
            nt += term_lo[c + 1] - term_lo[c]
            term_lo[i + 1] = nt
        for col in (term_ze, term_ch, term_pl):
            for i, e in enumerate(compress(col, tkeep)):
                col[i] = new[e]
        for i, w in enumerate(compress(term_uw, tkeep)):
            term_uw[i] = w
        for col, size in ((vert, ns), (ykey, ns), (cand_lo, ns + 1),
                          (cand_w, nc), (cand_z, nc), (term_lo, nc + 1),
                          (term_ze, nt), (term_ch, nt), (term_pl, nt),
                          (term_uw, nt)):
            del col[size:]
        if -1 in term_ch:
            raise AssertionError("a kept candidate reads an entry that went")
        plan.zero = [zs if zs is None else [new[e] for e in zs] for zs in plan.zero]
        plan.ze = [new[e] for e in plan.ze]
        plan.root = new[plan.root]


def slack_max(instance: Instance, uplinks: Sequence[UpPath], k: int,
              rho: Fraction, search_links: Sequence[SearchLink]) -> SlackResult:
    """One-shot maximum-slack query; see ComponentSearch for repeated use."""
    rho = Fraction(rho)
    cs = ComponentSearch(instance, uplinks, k, search_links)
    return cs.max_slack(rho.numerator, rho.denominator)
