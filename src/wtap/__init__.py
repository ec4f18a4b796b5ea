"""Weighted tree augmentation solver.

Exact-arithmetic implementation of a relative greedy approximation: a
2-approximate disjoint vertical-path cover, iteratively improved by
best-ratio k-thin components found through dynamic programming, plus the
decomposition machinery used to verify the structural guarantees and
brute-force oracles for desk-scale ground truth.
"""

from .baseline import (InfeasibleError, UpLinkSolution, UpPath,
                       cheapest_disjoint_uplink_cover, uplink_from_link)
from .component_dp import ComponentSearch, PlanTooLargeError, SearchLink
from .decomposition import (CoverWitness, Decomposition, DependencyGraph,
                            NotABranchingError, build_dependency_graph,
                            compute_cover_witness, decompose,
                            verify_cover_structure)
from .generators import gen_fig2, gen_fig3, gen_random
from .greedy import (GreedyTrace, InvalidEpsilonError, Solution, epsilon_to_k,
                     solve, two_approx_only)
from .io import dump, dumps, load, loads
from .model import (Instance, Link, RootedTreeIndex, TableTooLargeError,
                    ValidationIssue, VerticalCostTable, WeightOverflowError,
                    apex, is_k_thin, validate, vertical_cost_table)
from .oracle import (BudgetExceededError, KThinTable, OracleBudget,
                     brute_best_kthin, brute_uplink_cover, exact_opt)
from .ratio import EmptyUError, RatioResult, best_ratio_component, decide

__version__ = "0.1.0"

# the names imported above, in order; submodules stay reachable as attributes
__all__ = [
    "InfeasibleError", "UpLinkSolution", "UpPath", "cheapest_disjoint_uplink_cover",
    "uplink_from_link", "ComponentSearch", "PlanTooLargeError", "SearchLink",
    "CoverWitness", "Decomposition", "DependencyGraph", "NotABranchingError",
    "build_dependency_graph", "compute_cover_witness", "decompose",
    "verify_cover_structure", "gen_fig2", "gen_fig3", "gen_random",
    "GreedyTrace", "InvalidEpsilonError", "Solution", "epsilon_to_k", "solve",
    "two_approx_only", "dump", "dumps", "load", "loads", "Instance", "Link",
    "RootedTreeIndex", "TableTooLargeError", "ValidationIssue", "VerticalCostTable",
    "WeightOverflowError", "apex", "is_k_thin", "validate", "vertical_cost_table",
    "BudgetExceededError", "KThinTable", "OracleBudget", "brute_best_kthin",
    "brute_uplink_cover", "exact_opt", "EmptyUError", "RatioResult",
    "best_ratio_component", "decide",
]
