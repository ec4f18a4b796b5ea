"""Relative greedy: examples, trace invariants, desk-scale guarantee."""

from fractions import Fraction

import pytest

import wtap
from wtap.component_dp import ComponentSearch
from wtap.greedy import InvalidEpsilonError, epsilon_to_k


def test_epsilon_to_k():
    assert epsilon_to_k(Fraction(1)) == 2
    assert epsilon_to_k(Fraction(1, 2)) == 4
    assert epsilon_to_k(Fraction(2)) == 1
    assert epsilon_to_k(Fraction(2, 3)) == 3


def test_invalid_epsilon(single_edge):
    with pytest.raises(InvalidEpsilonError):
        wtap.solve(single_edge, 0)
    with pytest.raises(InvalidEpsilonError):
        wtap.solve(single_edge, Fraction(-1, 2))


def test_single_edge_early_stop(single_edge):
    sol, trace = wtap.solve(single_edge, 1)
    assert sol.link_ids == (0,)
    assert sol.weight == 5
    assert trace.stopped_early
    assert trace.iterations == []


def test_star_swap(star_ab):
    sol, trace = wtap.solve(star_ab, 1)
    assert sol.link_ids == (0,)
    assert sol.weight == 3
    assert trace.initial_u_weight == 6
    assert len(trace.iterations) == 1
    assert trace.iterations[0].ratio == Fraction(3, 6)


def test_fig2_k2_reaches_optimum():
    for d, m_val in ((3, 5), (4, 10), (6, 100)):
        inst = wtap.gen_fig2(d, m_val)
        sol, trace = wtap.solve(inst, 1)
        assert sol.weight == d * m_val + d
        assert sol.covers(inst)


def test_fig2_even_d_k1_stays_at_baseline():
    for d, m_val in ((4, 10), (6, 100)):
        inst = wtap.gen_fig2(d, m_val)
        sol, trace = wtap.solve(inst, 2)  # k = 1
        assert sol.weight == wtap.two_approx_only(inst).weight
        assert trace.stopped_early and not trace.iterations


def test_single_vertex():
    inst = wtap.Instance(1, 0, [], [])
    sol, trace = wtap.solve(inst, 1)
    assert sol.link_ids == () and sol.weight == 0


def test_output_and_trace_invariants():
    for seed in range(60):
        inst = wtap.gen_random(n=2 + seed % 10, link_count=(seed * 3) % 12,
                               weight_max=7, seed=7000 + seed)
        baseline = wtap.two_approx_only(inst)
        sol, trace = wtap.solve(inst, 1)
        assert sol.covers(inst)
        assert sol.weight <= baseline.weight
        assert sol.deduped_weight <= sol.weight
        weights = [trace.initial_u_weight]
        potential = trace.initial_u_weight
        for it in trace.iterations:
            assert it.ratio <= 1
            assert it.u_weight_after < it.u_weight_before
            assert it.u_weight_before == weights[-1]
            weights.append(it.u_weight_after)
            new_potential = potential - it.drop_weight + it.component_weight
            assert new_potential <= potential
            potential = new_potential


def test_guarantee_on_exhaustible_instances():
    for seed in range(60):
        inst = wtap.gen_random(n=2 + seed % 8, link_count=(seed * 7) % 10,
                               weight_max=6, seed=7300 + seed)
        opt = wtap.exact_opt(inst)
        for eps in (Fraction(1), Fraction(1, 2)):
            sol, _ = wtap.solve(inst, eps)
            bound = Fraction(1694, 1000) + eps
            assert (sol.weight * bound.denominator
                    <= opt.weight * bound.numerator)


def test_trace_drop_totals_add_up():
    inst = wtap.gen_fig2(4, 10)
    sol, trace = wtap.solve(inst, 1)
    dropped = sum(it.drop_weight for it in trace.iterations)
    final_u = trace.iterations[-1].u_weight_after if trace.iterations else trace.initial_u_weight
    assert dropped == trace.initial_u_weight - final_u


def test_trace_counts_probes_and_states(monkeypatch):
    # every max_slack call is counted, the ratio search that stops the loop too
    calls = 0
    real = ComponentSearch.max_slack

    def counting(self, p, q):
        nonlocal calls
        calls += 1
        return real(self, p, q)

    monkeypatch.setattr(ComponentSearch, "max_slack", counting)
    inst = wtap.gen_random(n=12, link_count=12, weight_max=9, seed=7500)
    runs = []
    for _ in range(2):
        calls = 0
        _, trace = wtap.solve(inst, 1)
        assert trace.iterations and trace.stopped_early
        assert trace.probes == calls
        assert trace.states > 0
        runs.append((calls, trace.probes, trace.states))
    assert runs[0] == runs[1]


def test_one_compile_per_solve(monkeypatch):
    # one plan per solve, cut down after each iteration, gives what a search
    # compiled afresh in every iteration gives
    compiles = 0
    real_compile = ComponentSearch._compile

    def counting(self):
        nonlocal compiles
        compiles += 1
        return real_compile(self)

    def rebuild(self, indices):
        gone = set(indices)
        self.__init__(self.instance,
                      [p for i, p in enumerate(self.uplinks) if i not in gone],
                      self.k)

    monkeypatch.setattr(ComponentSearch, "_compile", counting)
    cases = [(wtap.gen_random(n=6 + seed % 14, link_count=8 + seed % 13,
                              weight_max=9, seed=7600 + seed),
              Fraction(2, 3) if seed % 3 == 0 else 2 if seed % 4 == 0 else 1)
             for seed in range(80)]
    cases += [(wtap.gen_random(n=8, link_count=12, weight_max=9, seed=7700),
               Fraction(1, 2)),
              (wtap.gen_fig2(4, 10), 1), (wtap.gen_fig3(3), 1)]
    iterations = 0
    for inst, eps in cases:
        compiles = 0
        sol, trace = wtap.solve(inst, eps)
        assert compiles == 1
        iterations += len(trace.iterations)
        with monkeypatch.context() as m:
            m.setattr(ComponentSearch, "drop_uplinks", rebuild)
            compiles = 0
            ref_sol, ref_trace = wtap.solve(inst, eps)
        assert compiles == len(ref_trace.iterations) + 1
        assert sol == ref_sol
        assert trace == ref_trace
    assert iterations > 100


def test_two_approx_and_solve_share_one_cover(table_builds):
    # the 2-approximation and the greedy that starts from it compute one
    # cover per instance, and answer as on an instance solved afresh
    iterations = 0
    for seed in range(7800, 7808):
        inst, fresh = (wtap.gen_random(n=14, link_count=14, weight_max=9, seed=seed)
                       for _ in range(2))
        table_builds.clear()
        two = wtap.two_approx_only(inst)
        sol, trace = wtap.solve(inst, 1)
        assert table_builds == [inst]
        assert wtap.solve(fresh, 1) == (sol, trace)  # probes, states, iterations
        assert wtap.two_approx_only(fresh) == two
        assert (wtap.cheapest_disjoint_uplink_cover(fresh)
                == wtap.cheapest_disjoint_uplink_cover(inst))
        assert trace.initial_u_weight == two.weight
        iterations += len(trace.iterations)
    assert iterations > 0
