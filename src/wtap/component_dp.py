"""Maximum-slack k-thin component search.

Given disjoint vertical up-link paths U and a ratio rho = p/q, find a
k-thin set C over the alphabet of the instance's links and the up-links of
U (each a link of its own weight) maximizing

    slack_rho(C) = rho * w(links of U whose path C covers) - w(C).

The table is indexed by triples (v, Y, x): a vertex, the set of chosen links
with exactly one endpoint below v (at most k of them; they all pass through
v), and a flag x telling whether the unique up-link entering the subtree of
v, if any, must have its inside edges covered.  Below v a link of Y is just
the vertical path from v down to its endpoint there, so triples whose Y
links end at the same vertices have the same slack and set.  A state is
therefore keyed by v, the sorted endpoints below v of its Y links, and x.

Which states the root reaches, each one's candidate link sets Z (links with
apex v), the child states each candidate combines and whether it is
feasible do not depend on rho.  ``ComponentSearch`` therefore compiles them
once into a flat plan, listed top-down: vertices in BFS order, the states of
one vertex contiguous, so every state precedes the states it reads; each
probe is then one integer sweep over the plan from its end.  The compile's
listing loop is the one place that says what a state reads, and it lists
each requested state's candidates once.  What the states of one vertex
share (its apex links, the up-links hanging from it, the child toward each
boundary end, each term) is resolved once per vertex.  Each state lists the
empty Z first, with its own boundary, and then the nonempty Z its free
budget k - |ends| allows in one walk that starts from that boundary and
adds one apex link per step.  A term (one child entry a candidate reads) is
stored once per vertex, and a candidate holds the ids of its terms, so a
probe values each of a vertex's distinct terms once and a candidate only
adds up the values of its terms.

States leave the plan one way, in the compile and in drops alike: each
state counts its readers, ``_Plan.cut`` kills at one vertex the candidates
that read a dead state or hold a removed link, and ``_Plan.kill`` cascades
through the counts to every state left with no reader.  The compile ends by
cutting every vertex bottom-up, which kills the infeasible PLUS states and
whatever only they read.  Removing up-links from U, together with their
links in the alphabet, only takes candidates, states and PLUS alternatives
away, and no key names a link; all of them sit at the vertices of the
removed paths, or are read only from there.  So ``drop_uplinks`` cuts only
there, by each removed up-link's own bit, the relative greedy compiles one
plan per solve, and no drop walks the whole plan.  Dead states keep their
places with an empty candidate range; nothing is compacted.

All slack values are integers in units of 1/q: slack * q = p*w(drop) - q*w(C).
Inside the plan, a link set is a bitmask over the positions of the links in
the alphabet the search was built with; an answer is a tuple of links in
position order (drops keep it), each with ``pos``, its current position.
Ties between equal-slack candidates prefer the larger mask, so tables are
deterministic; drops keep the order of the positions, hence of the masks.
The order survives disjoint union, (a | x) against (b | x) ordering as a
against b, and the empty set, mask 0, loses every tie.  A sweep breaks a
tie by composing each tied candidate's set in place from its vertex's
empty-boundary sets and the sets of the entries its terms chose; those
sets come from the picks below, composed in one loop over an explicit
stack.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count
from operator import lt
from typing import Iterable, Iterator, Sequence

from .baseline import UpPath
from .model import BudgetError, Instance, dropped_paths, mask_bits, path_owner

MINUS = 0
PLUS = 1

_EMPTY_KEY = ((), MINUS)  # state key of (v, {}, -)

# Candidates the compile may list before it gives up.  At k = 7,
# gen_random(30, 30, 20, 3) lists 781 330 of them, and n = 40 passes it.
PLAN_CANDIDATE_BUDGET = 1 << 20


class PlanTooLargeError(BudgetError):
    """The component-DP plan would list over ``PLAN_CANDIDATE_BUDGET`` candidates."""


@dataclass(frozen=True)
class SearchLink:
    """A component link; ``pos``, its one identity, is its place in ``links``."""
    a: int
    b: int
    weight: int
    pos: int


@dataclass(frozen=True)
class SlackResult:
    slack: Fraction
    links: tuple[SearchLink, ...]
    drop_indices: tuple[int, ...]
    drop_weight: int
    weight: int


def _zwalk(apex: Sequence[tuple[int, int, tuple]], i: int, left: int, w: int,
           m: int, ends: dict[int, tuple[int, ...]]
           ) -> Iterator[tuple[int, int, dict[int, tuple[int, ...]]]]:
    """Yield each Z made of the links so far (weight w, mask m) and ``left``
    more of the apex links ``apex[i:]``, each ``(bit, weight, legs)``, in
    ``combinations`` order, as ``(w(Z), Z mask, ends)``; ``left`` is at
    least 1 (the compile lists the empty Z itself).

    ``ends`` maps each child to the sorted endpoints below it of the links
    so far, a state's boundary links at the start.  Each step copies it and
    adds one link's legs, so a child first reached by a later link comes
    later, and no map is changed once made.
    """
    for j in range(i, len(apex) - left + 1):
        bit, weight, legs = apex[j]
        step = dict(ends)
        for child, e in legs:
            es = step.get(child)
            step[child] = (e,) if es is None else tuple(sorted(es + (e,)))
        if left == 1:
            yield w + weight, m | bit, step
        else:
            yield from _zwalk(apex, j + 1, left - 1, w + weight, m | bit, step)


class _Plan:
    """The compiled table: flat per-state and per-candidate lists, and the
    distinct terms of each vertex.

    State ``s`` sits at vertex ``vert[s]`` with key ``key[s] = (ends, x)``:
    the sorted endpoints below that vertex of its boundary links, and its
    flag.  Its candidates are ``cand_lo[s]:cand_hi[s]``.  Candidate ``c``
    has weight ``cand_w[c]``, apex-link mask ``cand_z[c]`` (over the
    alphabet the search was built with) and terms ``cand_ids[c]``, a tuple
    of ids into ``terms[v]`` for its state's vertex v.  Term ``(ze, ch, pl,
    uw)`` replaces, for one child of v, the child's empty-boundary entry
    ``ze`` by entry ``ch``, or by entry ``pl`` plus rho * ``uw`` when that is
    at least as large (``pl`` is -1 when there is no such choice, and ``uw``
    then means nothing).  The terms of one vertex are pairwise distinct, and
    as listed each is read by a candidate there.  ``zero[v]`` lists the
    empty-boundary entries (c, {}, -) of v's children.  States come
    top-down, their vertices in BFS order, so each precedes the entries it
    reads, and those of one vertex, ``span[v]``, are contiguous.  State 0 is
    the root's (root, {}, -).

    While the compile lists, ranges are ``cand_lo[s]:cand_lo[s+1]`` and
    ``terms`` and ``zero`` name entries in the order they were first
    requested; ``count_reads`` then names them by their states, splits off
    the ends, so that a candidate can move within its state's range, and
    counts in ``ref[s]`` the readers of each state.  ``cut`` and ``kill``
    take states and candidates away in place, for the compile and for
    drops alike: a dead state has an empty range, and a live one never
    has.  A state listed with no candidate is dead from the start.
    """

    def __init__(self, n: int):
        self.vert: list[int] = []
        self.key: list[tuple[tuple[int, ...], int]] = []
        self.cand_lo = [0]
        self.cand_w: list[int] = []
        self.cand_z: list[int] = []
        self.cand_ids: list[tuple[int, ...]] = []
        self.terms: list[list[tuple[int, int, int, int]]] = [[] for _ in range(n)]
        self.zero: list[list[int]] = [[] for _ in range(n)]
        self.cand_hi: list[int] = []
        self.ref: list[int] = []
        self.span: list[range] = [range(0)] * n

    def count_reads(self, names: Sequence[int]) -> None:
        """Name each entry by its state, split off the range ends and count
        each state's readers; the compile's step after listing.

        ``names[s]`` is the name ``terms`` and ``zero`` give state s while
        the compile lists.  A state's readers are the term ids of live
        candidates whose term reads it as ``ch`` or as a PLUS alternative
        ``pl``, and a pin for the root and for each entry of a ``zero``
        list.  Every listed state but the root is requested by a term or a
        ``zero`` list, so it starts with a reader.  A vertex's (v, {}, -)
        is in its parent's ``zero`` list and keeps the empty Z, so the root
        reaches all of them and their pins never go.
        """
        new = [-1] * (len(names) + 1)  # new[-1] stays -1: no PLUS alternative
        for s, e in enumerate(names):
            new[e] = s
        self.terms = [[(new[ze], new[ch], new[pl], uw) for ze, ch, pl, uw in vterms]
                      for vterms in self.terms]
        self.zero = [[new[e] for e in zs] for zs in self.zero]
        cand_lo = self.cand_lo
        self.cand_hi = cand_hi = cand_lo[1:]
        del cand_lo[-1]
        self.ref = ref = [0] * len(self.vert)
        ref[0] = 1
        for zs in self.zero:
            for e in zs:
                ref[e] += 1
        cand_ids = self.cand_ids
        for v, states in enumerate(self.span):
            if states:
                vterms = self.terms[v]
                uses = [0] * len(vterms)
                lo, hi = cand_lo[states[0]], cand_hi[states[-1]]
                for i in chain.from_iterable(cand_ids[lo:hi]):
                    uses[i] += 1
                for (_, ch, pl, _), m in zip(vterms, uses):
                    ref[ch] += m
                    if pl >= 0:
                        ref[pl] += m

    def _unread(self, v: int, lo: int, hi: int, dead: list[int]) -> None:
        """Take the reads of candidates ``lo:hi``, at vertex v, off the
        counts; push the states that are left with no reader onto ``dead``."""
        ref, vterms = self.ref, self.terms[v]
        for ids in self.cand_ids[lo:hi]:
            for i in ids:
                _, ch, pl, _ = vterms[i]
                ref[ch] -= 1
                if not ref[ch]:
                    dead.append(ch)
                if pl >= 0:
                    ref[pl] -= 1
                    if not ref[pl]:
                        dead.append(pl)

    def kill(self, dead: list[int]) -> None:
        """Kill the states on ``dead`` and, through the counts, every state
        left with no reader.  A state that is dead already is skipped.  The
        cascade runs on ``dead`` as a stack."""
        cand_lo, cand_hi, vert = self.cand_lo, self.cand_hi, self.vert
        while dead:
            s = dead.pop()
            lo, hi = cand_lo[s], cand_hi[s]
            if lo == hi:
                continue
            cand_hi[s] = lo
            self._unread(vert[s], lo, hi, dead)

    def cut(self, v: int, gone: int) -> None:
        """At vertex v, set to -1 the PLUS alternatives into dead states and
        kill the candidates whose Z meets mask ``gone`` or whose term reads
        a dead state, then cascade.  A candidate is killed by moving it past
        its state's live end.  A state whose every candidate reads a dead
        state dies: it is infeasible, which only the compile finds.
        Removing links never takes a state's last candidate, as Z minus
        them is another (``drop_uplinks``).  A dead state with no reader
        left is read by no live candidate, so only the others are looked
        for.
        """
        cand_lo, cand_hi, cand_z, cand_ids = (self.cand_lo, self.cand_hi,
                                              self.cand_z, self.cand_ids)
        cols = (self.cand_w, cand_z, cand_ids)
        vterms = self.terms[v]
        ref = self.ref
        stale = set()  # the terms whose child entry is dead but still read
        for i, (ze, ch, pl, uw) in enumerate(vterms):
            if pl >= 0 and cand_lo[pl] == cand_hi[pl]:
                vterms[i] = (ze, ch, -1, uw)
            if cand_lo[ch] == cand_hi[ch] and ref[ch]:
                stale.add(i)
        if not (gone or stale):
            return
        fresh = stale.isdisjoint
        dead: list[int] = []
        for s in self.span[v]:
            lo, hi = cand_lo[s], cand_hi[s]
            if lo == hi:
                continue
            hits = [c for c in range(lo, hi)
                    if cand_z[c] & gone or stale and not fresh(cand_ids[c])]
            if gone and len(hits) == hi - lo:
                raise AssertionError("a live state lost its last candidate")
            for c in reversed(hits):  # later hits are past the end already
                hi -= 1
                for col in cols:
                    col[c], col[hi] = col[hi], col[c]
            self._unread(v, hi, cand_hi[s], dead)
            cand_hi[s] = hi
        self.kill(dead)


class _Sweep:
    """One probe: every state's value at rho = p/q, link sets on demand.

    ``val[s]`` is state s's slack * q and ``pick[s]`` its best candidate,
    found in one pass from the plan's end, so every state comes after the
    states it reads.  On reaching a vertex v, the pass values each of v's
    distinct terms once, as its best gain over the child's empty-boundary
    entry, and records in ``took[v]`` the entry each term chose; a
    candidate's slack is then its Z's share plus the sum of its terms'
    values.  Link sets are needed only to break ties and to answer, so
    ``_fill`` composes them from the picks and ``took`` when asked, with an
    explicit stack and no call per state.  A tie at state s compares
    candidate masks, each composed in the pass as if it were s's pick: the
    OR of the children's empty-boundary sets, taken once per vertex, plus
    the candidate's Z, with each term's empty-boundary set swapped for the
    set of the entry it took.  ``_fill`` composes only those entries not
    composed yet; the states below s are swept already.  Only
    live candidates are in a state's range, in any order: the larger mask
    wins a tie, and one state's candidates have distinct Z, hence distinct
    masks, so the pick does not depend on it.  A dead state's range
    is empty, and no live state reads it.
    """

    def __init__(self, plan: _Plan, p: int, q: int):
        self.plan = plan
        nst = len(plan.vert)
        self.val = val = [0] * nst
        self.pick = pick = [0] * nst
        self.msk = msk = [None] * nst
        self.took = took = [None] * len(plan.terms)
        fill = self._fill
        cand_lo, cand_hi = plan.cand_lo, plan.cand_hi
        cand_w, cand_z, cand_ids = plan.cand_w, plan.cand_z, plan.cand_ids
        terms, zero, vert = plan.terms, plan.zero, plan.vert
        at = -1
        for s in range(nst - 1, -1, -1):
            lo, hi = cand_lo[s], cand_hi[s]
            if lo == hi:
                continue  # dead
            v = vert[s]
            if v != at:  # a vertex's states are contiguous
                at = v
                zm = None  # the children's empty-boundary sets, at a tie
                zs = 0
                for e in zero[v]:
                    zs += val[e]
                tv = []  # each term's gain over its child's empty-boundary entry
                took[v] = tk = []
                vterms = terms[v]
                for ze, ch, pl, uw in vterms:
                    a = val[ch]
                    if pl >= 0:
                        b = val[pl] + p * uw
                        if b >= a:
                            a, ch = b, pl
                    tv.append(a - val[ze])
                    tk.append(ch)
            if hi - lo == 1:
                sl = zs - q * cand_w[lo]
                for i in cand_ids[lo]:
                    sl += tv[i]
                val[s] = sl
                pick[s] = lo
                continue
            best = best_c = ties = None
            for c in range(lo, hi):
                sl = zs - q * cand_w[c]
                for i in cand_ids[c]:
                    sl += tv[i]
                if best is None or sl > best:
                    best, best_c, ties = sl, c, None
                elif sl == best:
                    if ties is None:
                        ties = [best_c]
                    ties.append(c)
            if ties is not None:
                # Each tied candidate's set, as ``_fill`` would compose it
                # were the candidate s's pick.
                if zm is None:
                    zm = 0
                    for e in zero[v]:
                        if msk[e] is None:
                            fill(e)
                        zm |= msk[e]
                m = -1
                for c in ties:
                    mc = cand_z[c] | zm
                    for i in cand_ids[c]:
                        e = tk[i]
                        if msk[e] is None:
                            fill(e)
                        mc = (mc & ~msk[vterms[i][0]]) | msk[e]
                    if mc > m:
                        best_c, m = c, mc
                msk[s] = m
            val[s] = best
            pick[s] = best_c

    def mask(self, s: int) -> int:
        """The link set of state s, as a mask over the plan's alphabet."""
        self._fill(s)
        return self.msk[s]

    def root(self) -> tuple[int, int]:
        """The plan root's slack * q and link-set mask."""
        return self.val[0], self.mask(0)

    def _fill(self, s: int) -> None:
        """Compose the set of state s and of everything it rests on: its
        pick's apex links, each child's empty-boundary set, and the set of
        the entry each of its terms chose in place of that child's."""
        plan, msk, pick, took = self.plan, self.msk, self.pick, self.took
        cand_z, cand_ids = plan.cand_z, plan.cand_ids
        terms, zero, vert = plan.terms, plan.zero, plan.vert
        stack = [s]
        while stack:
            s = stack[-1]
            if msk[s] is not None:
                stack.pop()
                continue
            miss = False
            c = pick[s]
            v = vert[s]
            m = cand_z[c]
            for e in zero[v]:
                got = msk[e]
                if got is None:
                    stack.append(e)
                    miss = True
                else:
                    m |= got
            tk, vterms = took[v], terms[v]
            for i in cand_ids[c]:
                e = tk[i]
                got = msk[e]
                if got is None:
                    stack.append(e)
                    miss = True
                elif not miss:  # then the zero sets are known
                    m = (m & ~msk[vterms[i][0]]) | got
            if not miss:
                stack.pop()
                msk[s] = m


class ComponentSearch:
    """Reusable DP context for one (instance, U, k); ``drop_uplinks``
    narrows it to fewer up-links.

    It is the one owner of U (``uplinks``), k and the alphabet (``links``),
    and the ratio search reads them from it.  The alphabet is what the
    relative greedy swaps in: the instance's links, then each up-link of U
    as a link of its own weight: link i of the instance at position i,
    up-link i of U at m + i.  The plan's masks count positions in the
    alphabet the search was built with, which ``_alphabet`` maps to the
    links now there.
    """

    def __init__(self, instance: Instance, uplinks: Sequence[UpPath], k: int):
        if k < 1:
            raise ValueError("k must be at least 1")
        self.instance = instance
        self.k = k
        self.idx = instance.index
        self.links = [SearchLink(lk.u, lk.v, lk.weight, pos)
                      for pos, lk in enumerate(instance.links)]
        self._index_uplinks(uplinks)
        self._alphabet = list(self.links)
        m = len(instance.links)
        self._bits = [1 << (m + i) for i in range(len(self.uplinks))]
        self._plan = self._compile()
        self._last: _Sweep | None = None

    def _index_uplinks(self, uplinks: Sequence[UpPath]) -> None:
        """Store U, rebuild the up-link tail of the alphabet ``links`` (its
        instance links are kept), and store ``crossing``, U's
        ``model.path_owner``: for each vertex v, the index of the up-link
        whose path runs through the edge above v, or -1.  Raises ValueError
        unless U is disjoint vertical paths."""
        self.uplinks = list(uplinks)
        m = len(self.instance.links)
        self.links = self.links[:m] + [
            SearchLink(up.top, up.bottom, up.weight, m + i)
            for i, up in enumerate(self.uplinks)]
        self.crossing = path_owner(self.instance, self.uplinks)

    @property
    def states(self) -> int:
        """The plan's live states."""
        plan = self._plan
        return sum(map(lt, plan.cand_lo, plan.cand_hi))

    # ------------------------------------------------------------------
    def max_slack(self, p: int, q: int) -> SlackResult:
        """Best k-thin component at rho = p/q; empty set is always admissible.

        Drop and weight are recomputed from the chosen set and checked
        against the table's slack; the drop is ``model.dropped_paths``, the
        up-links on which the set leaves no edge uncovered."""
        if q <= 0 or p < 0:
            raise ValueError("rho must be a nonnegative rational")
        self._last = sweep = _Sweep(self._plan, p, q)
        num, mask = sweep.root()
        links = self._links(mask)
        weight = sum(sl.weight for sl in links)
        drops = dropped_paths(self.instance, self.crossing, len(self.uplinks),
                              ((sl.a, sl.b) for sl in links))
        drop_weight = sum(self.uplinks[i].weight for i in drops)
        if p * drop_weight - q * weight != num:
            raise AssertionError("table slack disagrees with recomputation")
        return SlackResult(slack=Fraction(num, q), links=links,
                           drop_indices=drops, drop_weight=drop_weight,
                           weight=weight)

    def _links(self, mask: int) -> tuple[SearchLink, ...]:
        """The links of a mask over the plan's alphabet, in position order."""
        return tuple(self._alphabet[i] for i in mask_bits(mask))

    # ------------------------------------------------------------------
    def drop_uplinks(self, indices: Iterable[int]) -> None:
        """Remove the up-links at ``indices`` from U, and their links from
        the alphabet.

        ``links`` becomes the instance's links and then the remaining
        up-links, in their order, each at its new position, and
        ``_alphabet`` maps each surviving up-link's build bit to its new
        link.  Afterwards the object answers every query, ``entries``
        included, as ``ComponentSearch(instance, U', k)`` would, with the
        same states in the same order and the same candidates.

        Only the up-link tail of ``links`` (the instance links'
        ``SearchLink`` objects are kept), ``_alphabet`` and ``crossing`` are
        rebuilt.  The plan is cut in place, as the compile cuts it: for each
        removed up-link, the PLUS states at the vertices of its path below
        its top die first; then ``_Plan.cut`` at the top sets the PLUS
        alternatives into them to -1 and kills the candidates whose Z holds
        the removed up-link's own bit.  A candidate's death takes its reads
        off the counts, and a state left with no reader dies with its
        candidates, so the live states are again exactly those the root
        reaches.  A state of a surviving up-link keeps a candidate, Z minus
        the removed links.

        Counting PLUS alternatives keeps the counts exact, though leaving
        them out would kill the same states: a PLUS state (c, ends, +) is
        read only as an alternative, at the top of the up-link u through
        c's parent edge, and its ends lie at links that go down that edge.
        No other up-link's path holds that edge, so while u stays, each of
        its readers that dies leaves one with the same ends, Z minus the
        removed links; it loses its last reader only when u goes, and then
        it is killed as a state of u's path.
        """
        gone = set(indices)
        if not gone <= set(range(len(self.uplinks))):
            raise IndexError(f"no up-links {sorted(gone)} among {len(self.uplinks)}")
        dropped = [self.uplinks[i] for i in sorted(gone)]
        cut = 0
        for i in gone:
            cut |= self._bits[i]
        self._last = None
        plan, parent = self._plan, self.idx.parent
        key = plan.key
        doomed = []
        for up in dropped:
            v = up.bottom
            while v != up.top:
                doomed.extend(s for s in plan.span[v] if key[s][1] == PLUS)
                v = parent[v]
        plan.kill(doomed)
        for top in dict.fromkeys(up.top for up in dropped):
            plan.cut(top, cut)
        keep = [i for i in range(len(self.uplinks)) if i not in gone]
        self._bits = [self._bits[i] for i in keep]
        self._index_uplinks([self.uplinks[i] for i in keep])
        m = len(self.instance.links)
        for bit, sl in zip(self._bits, self.links[m:]):
            self._alphabet[bit.bit_length() - 1] = sl

    def entries(self) -> Iterator[tuple]:
        """Every live state, in plan order, as (v, endpoints below v of its
        boundary links, x, slack * q, C's links) at the last rho.  No key
        comes twice, so sorting the entries never compares link tuples."""
        sw = self._last
        if sw is None:
            raise RuntimeError("no probe yet: call max_slack first")
        plan = self._plan
        return ((v, ends, x, sw.val[s], self._links(sw.mask(s)))
                for s, (v, (ends, x), lo, hi)
                in enumerate(zip(plan.vert, plan.key, plan.cand_lo, plan.cand_hi))
                if lo < hi)

    # ------------------------------------------------------------------
    def _compile(self) -> _Plan:
        """Plan for the states reachable from (root, {}, -), in two steps.

        1. List: visit the vertices in BFS order.  Each state requested at
           a vertex is appended with every candidate it has.  This loop is
           the one place that says what a state reads.  A candidate adds at
           most k - |ends| apex links Z of v.  When x is PLUS an up-link
           must enter v (else there is no candidate), and when it goes on
           into a child, cstar, some boundary or Z link must go down into
           cstar too.  A term reads one child's entry, keyed (as in
           ``_Plan.key``) by the endpoints below v in that child's subtree
           and by PLUS for cstar, else MINUS.  When an up-link hangs from v
           into that child (it crosses the child's edge and its top is v),
           the child's PLUS entry with the same ends may be taken instead,
           with the up-link's weight as bonus (the term's ``pl``).
           Children no link goes down into have no term.  A term is named
           by its child, the ends below that child and whether that child
           is cstar in a PLUS state; on its first listing it becomes the
           next of v's distinct terms and requests the child entries it
           names (and, before any, the children's empty-boundary entries).
           Entries are named by the order of their first request.  The
           budget is checked at each candidate listed, so one state cannot
           list far past it.

           What v's states share is set up once per vertex: its apex
           links, the children an up-link hangs from v into, cstar, the
           child toward each boundary end as it is asked, and the term ids.
           Each state lists the empty Z first, with its own boundary map,
           the sorted ends below each child of its boundary links, and then
           walks (``_zwalk``) the sizes 1 to min(k - |ends|, |apex|) from
           that map, each in ``combinations`` order; each step copies its
           parent's map and adds one link's legs.  So a state with no free
           budget, or at a vertex with no apex link, lists Z = {} alone and
           starts no walk, and a child first reached by an earlier link
           comes earlier in the map, which orders the state's terms.  The
           states of one vertex that list the same Z hold one int for its
           mask.
        2. Cut: ``count_reads`` names entries by their states and counts
           their readers, and ``_Plan.cut`` runs at each vertex bottom-up,
           killing the candidates that read a dead entry.  A PLUS state
           left with none dies, and so, through the counts, does whatever
           only dead states read.  (A MINUS state reads only MINUS entries,
           which all keep the empty Z.)  The dead stay in place as
           tombstones, as after a drop.

        Listing more than ``PLAN_CANDIDATE_BUDGET`` candidates raises
        ``PlanTooLargeError``.
        """
        budget = PLAN_CANDIDATE_BUDGET
        k, crossing, uplinks = self.k, self.crossing, self.uplinks
        idx = self.idx
        n, children, toward = self.instance.n, idx.children, idx.child_toward
        # Per vertex, the links it is the apex of, as (bit, weight, legs) in
        # alphabet order; legs pair each endpoint below the apex with the
        # child of the apex it lies under.
        apexes: list[list[tuple[int, int, tuple]]] = [[] for _ in range(n)]
        for i, sl in enumerate(self._alphabet):
            apx = idx.lca(sl.a, sl.b)
            apexes[apx].append((1 << i, sl.weight, tuple(
                (toward(apx, e), e) for e in (sl.a, sl.b) if e != apx)))
        plan = _Plan(n)
        cand_lo, cand_w, cand_z = plan.cand_lo, plan.cand_w, plan.cand_z
        cand_ids = plan.cand_ids
        names: list[int] = []  # state -> the name of its entry
        # per vertex: requested key -> entry name, a fresh one on first request
        asked: list[dict | None] = [None] * n
        asked[self.instance.root] = {_EMPTY_KEY: 0}
        fresh = count(1).__next__

        for v in idx.bfs_order:
            hang: dict[int, int] = {}  # child -> weight of the up-link hanging into it
            for c in children[v]:
                asked[c] = defaultdict(fresh)
                u = crossing[c]
                if u >= 0 and uplinks[u].top == v:
                    hang[c] = uplinks[u].weight
            zero = {c: asked[c][_EMPTY_KEY] for c in children[v]}
            plan.zero[v] = list(zero.values())
            vterms = plan.terms[v]
            apex = apexes[v]
            u = crossing[v]
            cstar = -1
            if u >= 0 and uplinks[u].bottom != v:
                cstar = toward(v, uplinks[u].bottom)
            side: dict[int, int] = {}  # boundary end -> the child of v it is under
            # (child, ends below it, child is cstar in a PLUS state) -> term id
            tid: dict[tuple[int, tuple[int, ...], bool], int] = {}
            states = asked[v]
            # one int per distinct Z mask at v; a lone state walks each Z once
            share: dict[int, int] | None = {} if len(states) > 1 else None
            plan.span[v] = range(len(names), len(names) + len(states))
            names.extend(states.values())
            plan.vert.extend([v] * len(states))
            plan.key.extend(states)
            for ends, x in states:
                want = -1
                if x == PLUS:
                    if u < 0:  # no up-link enters v: no candidate
                        cand_lo.append(len(cand_w))
                        continue
                    want = cstar
                ybase: dict[int, tuple[int, ...]] = {}
                for e in ends:
                    if e != v:
                        c = side.get(e)
                        if c is None:
                            c = side[e] = toward(v, e)
                        ybase[c] = ybase.get(c, ()) + (e,)
                most = min(k - len(ends), len(apex))
                walk = ((0, 0, ybase),)  # the empty Z
                if most:
                    walk = chain(walk, *[_zwalk(apex, 0, size, 0, 0, ybase)
                                         for size in range(1, most + 1)])
                for zweight, zmask, ydict in walk:
                    # cstar must get a link, or its up-link stays uncovered
                    if want >= 0 and want not in ydict:
                        continue
                    ids = []
                    for child, ce in ydict.items():
                        key = (child, ce, child == want)
                        i = tid.get(key)
                        if i is None:  # v's next distinct term
                            got, uw = asked[child], hang.get(child)
                            if uw is None:
                                ch = got[ce, PLUS if child == want else MINUS]
                                pl, uw = -1, 0
                            else:
                                ch, pl = got[ce, MINUS], got[ce, PLUS]
                            vterms.append((zero[child], ch, pl, uw))
                            i = tid[key] = len(vterms) - 1
                        ids.append(i)
                    cand_w.append(zweight)
                    if len(cand_w) > budget:
                        raise PlanTooLargeError(
                            f"component-DP plan lists more than the budget "
                            f"of {budget} candidates")
                    cand_z.append(zmask if share is None
                                  else share.setdefault(zmask, zmask))
                    cand_ids.append(tuple(ids))
                cand_lo.append(len(cand_w))
            asked[v] = None  # only v's parent requests v's states

        plan.count_reads(names)
        for v in reversed(idx.bfs_order):
            plan.cut(v, 0)
        return plan
