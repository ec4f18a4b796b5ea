"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every check is exact (integer or rational); each criterion also
asserts its wall-clock budget.

Criterion 4 note: the two baseline equalities at (d=3, M=5) are strict
expected failures.  With an odd number of top nodes the long link's shadow
over the heavier side plus leaf-pair shadows yields a disjoint vertical
cover of weight 31 < 36, so the reference cover is not a cheapest one and
no tie-break can reproduce it; the equalities hold for even d and are
asserted there.
"""

import math
import time
from fractions import Fraction

import pytest

import wtap
from wtap.bench import bench, report_to_json
from wtap.component_dp import ComponentSearch
from wtap.oracle import KThinTable, OracleBudget, link_paths, vertical_edge_mask

from fig_helpers import fig2_reference_cover


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


# ---------------------------------------------------------------- criterion 1
def test_criterion_1_feasibility_always():
    budget_s = 60.0
    t0 = time.perf_counter()
    count = 0
    try:
        for i in range(500):
            n = 1 + (i * 13) % 30
            links = max(1, n // 2 + (i % 5))
            inst = wtap.gen_random(n=n, link_count=links, weight_max=8,
                                   seed=50_000 + i)
            assert wtap.validate(inst) == []
            base = wtap.two_approx_only(inst)
            sol, _ = wtap.solve(inst, 1)
            assert base.covers(inst), f"uplink2 output misses edges (seed {i})"
            assert sol.covers(inst), f"relgreedy output misses edges (seed {i})"
            count += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < budget_s, f"runtime {elapsed:.1f}s over budget"
    except Exception as exc:
        _report(1, False, str(exc))
        raise
    _report(1, True, f"{count} instances covered, "
                     f"{time.perf_counter() - t0:.1f}s < {budget_s:.0f}s")


# ---------------------------------------------------------------- criterion 2
def test_criterion_2_baseline_reproduction():
    budget_s = 120.0
    t0 = time.perf_counter()
    count = 0
    try:
        for i in range(200):
            n = 2 + i % 8  # n <= 9
            inst = wtap.gen_random(n=n, link_count=(i * 5) % 11, weight_max=7,
                                   seed=60_000 + i)
            dp = wtap.cheapest_disjoint_uplink_cover(inst)
            brute_w, _ = wtap.brute_uplink_cover(inst)
            assert dp.weight == brute_w, f"seed {i}: {dp.weight} != {brute_w}"
            opt = wtap.exact_opt(inst)
            assert dp.weight <= 2 * opt.weight, f"seed {i}: 2-approx bound"
            count += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < budget_s
    except Exception as exc:
        _report(2, False, str(exc))
        raise
    _report(2, True, f"{count} instances, DP == brute force and <= 2*OPT, "
                     f"{time.perf_counter() - t0:.1f}s < {budget_s:.0f}s")


# ---------------------------------------------------------------- criterion 3
def test_criterion_3_component_dp_reproduction():
    budget_s = 300.0
    t0 = time.perf_counter()
    accepted = 0
    probe_checks = 0
    oracle_budget = OracleBudget(max_links=12)
    try:
        seed = 0
        while accepted < 200:
            seed += 1
            assert seed < 3000, "instance stream exhausted"
            n = 2 + seed % 8
            inst = wtap.gen_random(n=n, link_count=(seed * 3) % 9,
                                   weight_max=6, seed=70_000 + seed)
            uplinks = list(wtap.cheapest_disjoint_uplink_cover(inst).paths)
            if not uplinks:
                continue
            if len(inst.links) + len(uplinks) > 12:
                continue
            accepted += 1
            w_u = sum(p.weight for p in uplinks)
            for k in (1, 2, 3):
                cs = ComponentSearch(inst, uplinks, k)
                table = KThinTable(inst, uplinks, k, cs.links, oracle_budget)
                oracle = wtap.brute_best_kthin(inst, uplinks, k, cs.links,
                                               oracle_budget)
                # every probe the production search makes, against the table
                probes = []
                max_slack = cs.max_slack

                def recorded(p, q):
                    res = max_slack(p, q)
                    probes.append((p, q, res))
                    return res

                cs.max_slack = recorded
                got = wtap.best_ratio_component(cs)
                cs.max_slack = max_slack
                assert len(probes) == got.probes
                for p, q, res in probes:
                    want, want_mask = table.max_slack(p, q)
                    assert res.slack == want, f"probe {p}/{q} disagrees"
                    assert bool(res.links) == (want_mask != 0)
                probe_checks += len(probes)
                # the reference: full bisection, checking each probe too
                lo = Fraction(0)
                witness = cs.max_slack(1, 1)
                want, _ = table.max_slack(1, 1)
                assert witness.slack == want and witness.links
                probe_checks += 1
                hi = Fraction(witness.weight, witness.drop_weight)
                limit = Fraction(1, w_u * w_u)
                while hi - lo >= limit:
                    mid = (lo + hi) / 2
                    res = cs.max_slack(mid.numerator, mid.denominator)
                    want, want_mask = table.max_slack(mid.numerator,
                                                      mid.denominator)
                    assert res.slack == want, f"probe {mid} disagrees"
                    assert bool(res.links) == (want_mask != 0)
                    probe_checks += 1
                    if res.links and res.slack >= 0:
                        witness = res
                        hi = Fraction(res.weight, res.drop_weight)
                    else:
                        lo = mid
                assert (got.rho, got.links, got.drop_indices) == (
                    hi, witness.links, witness.drop_indices), \
                    f"seed {seed} k={k}: search left full bisection"
                assert got.rho == oracle.rho, \
                    f"seed {seed} k={k}: {got.rho} != {oracle.rho}"
        elapsed = time.perf_counter() - t0
        assert elapsed < budget_s
    except Exception as exc:
        _report(3, False, str(exc))
        raise
    _report(3, True, f"{accepted} instances x k in {{1,2,3}}, "
                     f"{probe_checks} search and reference probes matched "
                     f"exhaustive slack, "
                     f"{time.perf_counter() - t0:.1f}s < {budget_s:.0f}s")


# ---------------------------------------------------------------- criterion 4
FIG2_ROWS = [(3, 5), (4, 10), (6, 100)]


def test_criterion_4_fig2_quantitative():
    budget_s = 60.0
    t0 = time.perf_counter()
    details = []
    try:
        for d, m_val in FIG2_ROWS:
            inst = wtap.gen_fig2(d, m_val)
            analytic_opt = d * m_val + d
            if len(inst.links) <= 18:
                assert wtap.exact_opt(inst).weight == analytic_opt
            base = wtap.two_approx_only(inst)
            sol2, _ = wtap.solve(inst, 1)  # k = 2
            assert sol2.weight == analytic_opt, f"(d={d}) k=2 misses optimum"
            sol1, _ = wtap.solve(inst, 2)  # k = 1
            if d % 2 == 0:
                assert base.weight == 2 * analytic_opt, f"(d={d}) baseline"
                assert sol1.weight == base.weight, f"(d={d}) k=1 must stall"
            details.append(f"d={d}: opt={analytic_opt} base={base.weight} "
                           f"k1={sol1.weight}")
        elapsed = time.perf_counter() - t0
        assert elapsed < budget_s
    except Exception as exc:
        _report(4, False, str(exc))
        raise
    _report(4, True, "; ".join(details) +
            f" (odd-d baseline equalities: see expected failures); "
            f"{time.perf_counter() - t0:.1f}s < {budget_s:.0f}s")


@pytest.mark.xfail(strict=True, reason=(
    "with an odd top-node count the long link's shadow over the heavier side "
    "plus leaf-pair shadows forms a disjoint vertical cover of weight 31 < 36, "
    "so the vertical+pendant reference cover is not a cheapest one"))
def test_criterion_4_odd_d_baseline_equals_twice_optimum():
    inst = wtap.gen_fig2(3, 5)
    assert wtap.two_approx_only(inst).weight == 2 * wtap.exact_opt(inst).weight


@pytest.mark.xfail(strict=True, reason=(
    "the mixed weight-31 baseline at (3,5) still admits improving 1-thin "
    "components (a leaf-pair link drops both its pendant paths), so the "
    "k=1 greedy improves below the baseline"))
def test_criterion_4_odd_d_k1_returns_baseline():
    inst = wtap.gen_fig2(3, 5)
    sol1, _ = wtap.solve(inst, 2)  # k = 1
    assert sol1.weight == wtap.two_approx_only(inst).weight


# ------------------------------------------------------------ criteria 5 & 6
@pytest.fixture(scope="module")
def decomposition_triples():
    triples = []
    seed = 0
    while len(triples) < 300:
        seed += 1
        n = 2 + seed % 11  # n <= 12
        inst = wtap.gen_random(n=n, link_count=(seed * 3) % 12, weight_max=5,
                               seed=80_000 + seed)
        uplinks = list(wtap.cheapest_disjoint_uplink_cover(inst).paths)
        if seed % 2 == 0 and len(inst.links) <= 18:
            f_ids = list(wtap.exact_opt(inst).link_ids)
        else:
            f_ids = list(range(len(inst.links)))
        triples.append((seed, inst, f_ids, uplinks))
    return triples


def test_criterion_5_decomposition_properties(decomposition_triples):
    budget_s = 180.0
    t0 = time.perf_counter()
    runs = 0
    try:
        for seed, inst, f_ids, uplinks in decomposition_triples:
            idx = inst.index
            paths = link_paths(inst)
            w_u = sum(p.weight for p in uplinks)
            for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 3)):
                dec = wtap.decompose(inst, f_ids, uplinks, eps)
                k = dec.k
                w_r = sum(uplinks[i].weight for i in dec.removed)
                assert w_r * eps.denominator <= eps.numerator * w_u
                removed = set(dec.removed)
                covers = []
                for part in dec.parts:
                    assert wtap.is_k_thin(inst, part, k), (seed, eps, part)
                    cover = 0
                    for lid in part:
                        cover |= paths[lid]
                    covers.append(cover)
                drop_total = 0
                for cover in covers:
                    drop_total += sum(
                        p.weight for p in uplinks
                        if vertical_edge_mask(idx, p.top, p.bottom) & ~cover == 0)
                for ui, p in enumerate(uplinks):
                    if ui in removed:
                        continue
                    pmask = vertical_edge_mask(idx, p.top, p.bottom)
                    assert any(pmask & ~cover == 0 for cover in covers), \
                        (seed, eps, ui)
                assert drop_total >= w_u - w_r, (seed, eps)
                runs += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < budget_s
    except Exception as exc:
        _report(5, False, str(exc))
        raise
    _report(5, True, f"{runs} decompositions hold all four properties, "
                     f"{time.perf_counter() - t0:.1f}s < {budget_s:.0f}s")


def test_criterion_6_structural_lemma_suite(decomposition_triples):
    t0 = time.perf_counter()
    checked = 0
    try:
        for seed, inst, f_ids, uplinks in decomposition_triples:
            graph = wtap.build_dependency_graph(inst, f_ids, uplinks)
            rep = wtap.verify_cover_structure(inst, graph)
            assert rep["ok"], (seed, rep["failed"])
            checked += 1
    except Exception as exc:
        _report(6, False, str(exc))
        raise
    _report(6, True, f"{checked} triples pass the structural checks, "
                     f"{time.perf_counter() - t0:.1f}s (shared with criterion 5)")


# ------------------------------------------------------------ criteria 7 & 8
def _bound(eps):
    return Fraction(1694, 1000) + eps  # 1694/1000 >= 1 + ln 2


@pytest.fixture(scope="module")
def guarantee_runs():
    # eps 2/7 (k = 7) is the largest eps whose bound is below 2, where
    # relgreedy <= uplink2 <= 2 * OPT no longer implies it
    def add(label, inst, epses):
        opt = wtap.exact_opt(inst)
        base = wtap.two_approx_only(inst)
        for eps in epses:
            sol, trace = wtap.solve(inst, eps)
            runs.append((label, eps, inst, opt, base, sol, trace))

    runs = []
    for i in range(150):
        n = 2 + i % 8  # n <= 9
        inst = wtap.gen_random(n=n, link_count=(i * 7) % 11, weight_max=6,
                               seed=90_000 + i)
        if len(inst.links) > 18:
            continue
        add(f"seed {i}", inst, (Fraction(1), Fraction(1, 2), Fraction(2, 7)))
    for d in (4, 6):  # uplink2 is exactly 2 * OPT here
        add(f"fig2 d={d}", wtap.gen_fig2(d, 10), (Fraction(2, 7),))
    return runs


def test_criterion_7_approximation_guarantee(guarantee_runs):
    budget_s = 300.0
    t0 = time.perf_counter()
    try:
        assert len(guarantee_runs) >= 300
        low = [r for r in guarantee_runs if _bound(r[1]) < 2]
        assert len(low) >= 150
        beyond_base = 0
        for label, eps, inst, opt, base, sol, trace in guarantee_runs:
            bound = _bound(eps)
            assert sol.weight * bound.denominator <= opt.weight * bound.numerator, \
                f"{label} eps={eps}: {sol.weight} > {bound} * {opt.weight}"
            if base.weight * bound.denominator > opt.weight * bound.numerator:
                beyond_base += 1
        # a greedy that never swaps would fail these runs
        assert beyond_base >= 1
        elapsed = time.perf_counter() - t0
        assert elapsed < budget_s
    except Exception as exc:
        _report(7, False, str(exc))
        raise
    low_eps = ", ".join(sorted({str(r[1]) for r in low}))
    _report(7, True, f"{len(guarantee_runs)} runs within (1+ln2+eps)*OPT "
                     f"(rational bound 1694/1000); the bound is below 2 in "
                     f"the {len(low)} runs at eps {low_eps} (fig2 d=4 and 6 "
                     f"among them), where uplink2 exceeds it in "
                     f"{beyond_base}, {time.perf_counter() - t0:.1f}s < "
                     f"{budget_s:.0f}s")


def test_criterion_8_monotone_improvement(guarantee_runs):
    t0 = time.perf_counter()
    traces = 0
    try:
        for i, eps, inst, opt, base, sol, trace in guarantee_runs:
            assert sol.weight <= base.weight
            prev = trace.initial_u_weight
            prev_ratio = 0
            for it in trace.iterations:
                assert it.ratio <= 1
                # removing up-links only shrinks drops and the alphabet
                assert it.ratio >= prev_ratio
                prev_ratio = it.ratio
                assert it.u_weight_before == prev
                assert it.u_weight_after < it.u_weight_before
                prev = it.u_weight_after
            traces += 1
    except Exception as exc:
        _report(8, False, str(exc))
        raise
    _report(8, True, f"{traces} traces monotone, "
                     f"{time.perf_counter() - t0:.1f}s (shared with criterion 7)")


# ---------------------------------------------------------------- criterion 9
def test_criterion_9_deterministic_reports():
    budget_s = 60.0
    t0 = time.perf_counter()
    config = {
        "instances": [
            {"kind": "random_batch", "count": 10, "n_min": 2, "n_max": 10,
             "weight_max": 8, "seed": 4242},
            {"kind": "fig2", "d": 4, "M": 10},
            {"kind": "fig3", "m": 3},
        ],
        "algorithms": [
            {"name": "uplink2"},
            {"name": "relgreedy", "eps": "1"},
            {"name": "relgreedy", "eps": "1/2"},
        ],
        "oracle": {"max_links": 16},
    }
    try:
        first = report_to_json(bench(config))
        second = report_to_json(bench(config))
        assert first.encode() == second.encode(), "reports differ byte-wise"
        elapsed = time.perf_counter() - t0
        assert elapsed < budget_s
    except Exception as exc:
        _report(9, False, str(exc))
        raise
    _report(9, True, f"two consecutive runs byte-identical "
                     f"({len(first)} bytes), "
                     f"{time.perf_counter() - t0:.1f}s < {budget_s:.0f}s")
