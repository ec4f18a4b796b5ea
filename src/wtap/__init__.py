"""Weighted tree augmentation solver.

Exact-arithmetic implementation of a relative greedy approximation: a
2-approximate disjoint vertical-path cover, iteratively improved by
best-ratio k-thin components found through dynamic programming, plus the
decomposition machinery used to verify the structural guarantees and
brute-force oracles for desk-scale ground truth.

``import wtap`` loads no submodule.  Each public name, and each submodule
read as an attribute (``wtap.greedy``), is imported on first use (PEP 562),
so a command pays at start-up only for the modules it runs; on hosts that
compile every module from source at each start that is most of the cost.
"""

import importlib

__version__ = "0.1.0"

# the public names, by the submodule that defines them
_EXPORTS = {
    "baseline": ("InfeasibleError", "UpLinkSolution", "UpPath",
                 "cheapest_disjoint_uplink_cover", "uplink_from_link"),
    "component_dp": ("ComponentSearch", "PlanTooLargeError", "SearchLink"),
    "decomposition": ("CoverWitness", "Decomposition", "DependencyGraph",
                      "NotABranchingError", "build_dependency_graph",
                      "compute_cover_witness", "decompose",
                      "verify_cover_structure"),
    "generators": ("gen_fig2", "gen_fig3", "gen_random"),
    "greedy": ("GreedyTrace", "InvalidEpsilonError", "Solution", "epsilon_to_k",
               "solve", "two_approx_only"),
    "io": ("dump", "dumps", "load", "loads"),
    "model": ("BudgetExceededError", "Instance", "Link", "RootedTreeIndex",
              "TableTooLargeError", "ValidationIssue", "VerticalCostTable",
              "WeightOverflowError", "apex", "is_k_thin", "validate",
              "vertical_cost_table"),
    "oracle": ("KThinTable", "OracleBudget", "brute_best_kthin",
               "brute_uplink_cover", "exact_opt"),
    "ratio": ("EmptyUError", "RatioResult", "best_ratio_component", "decide"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "_kernels", "bench", "cli")

__all__ = list(_HOME)


def __getattr__(name):
    # not cached in globals(): each read sees the submodule's current binding
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
