"""Exact-rational tools for flexibility of DP 3-colorings of multigraphs."""

from .covers import (Cover, CoverEnumeration, ListDistribution, full_lists,
                     tight_cover, parse_cover, serialize_cover,
                     straight_cover, trivial_list_distribution, validate)
from .colorings import (distribution_to_multiset, enumerate_colorings,
                        marginal, tree_pack_2cover)
from .discharging import classify, conductively_connected, run_discharging
from .flexibility import (FlexReport, box_distribution, epsilon_star,
                          fractional_packing, framework_feasible)
from .gadgets import (GadgetMatrix, gadget_butterfly, gadget_one_positive,
                      gadget_parallel3, gadget_pendent)
from .graphs import (Multigraph, PotentialAssignment, find_I_subgraph,
                     gen_family, mad, mad_subset_oracle, parse_graph,
                     potential, serialize_graph, sigma)
from .lp import LinearProgram, LpOutcome, solve
from .search import (criticality_check, gap_audit, min_epsilon_over_covers,
                     theorem_check)

__version__ = "0.1.0"

__all__ = [
    "Cover", "CoverEnumeration", "FlexReport", "GadgetMatrix",
    "LinearProgram", "ListDistribution", "LpOutcome", "Multigraph",
    "PotentialAssignment", "box_distribution", "classify",
    "conductively_connected", "criticality_check",
    "distribution_to_multiset", "enumerate_colorings", "epsilon_star",
    "find_I_subgraph", "fractional_packing", "framework_feasible",
    "full_lists", "gadget_butterfly", "gadget_one_positive",
    "gadget_parallel3", "gadget_pendent", "gap_audit", "gen_family", "mad",
    "mad_subset_oracle", "marginal", "min_epsilon_over_covers",
    "parse_cover", "parse_graph", "potential", "run_discharging",
    "serialize_cover", "serialize_graph", "sigma", "solve",
    "straight_cover", "theorem_check", "tight_cover", "tree_pack_2cover",
    "trivial_list_distribution", "validate",
]
