"""Exact Gomory-Hu cut trees with interchangeable construction methods.

Everything computes over exact integer weights; randomized methods are
Las-Vegas (outputs are always certified minimum cuts, only running time
is random).
"""

from .graph import (
    Cut,
    Graph,
    GraphFormatError,
    contract,
    contract_set_to_node,
    cut_cost,
    parse_dimacs,
    write_dimacs,
)
from .maxflow import MinCutResult, WorkCounter, latest_min_cut, min_cut, \
    min_cut_minimal_sink
from .octree import (
    NamedPartition,
    OCTree,
    certified_source_cuts,
    certifying_prefix,
    compose_trees,
    covering_cut_costs,
    flatten_to_star,
    format_oc_tree,
    ordered_cuts,
    remove_leaf,
    splice_trees,
    validate,
)
from .isolating import isolating_cuts, isolating_cuts_with_depth
from .ghtree import (
    GHTree,
    PartitionTree,
    auxiliary_graph,
    gomory_hu_classic,
    gomory_hu_generalized,
)
from .pipeline import (
    AttemptLimitError,
    PipelineStats,
    certified_ordered_cuts,
    cut_less,
    fixed_source_blocks,
    fixed_source_laminar,
    gh_via_oc1,
    gh_via_weak_oc,
    partition_schedule,
    perturb,
    random_subset,
    select_source_oc1,
    select_source_weak,
    source_schedule,
)
from .oracle import (
    BruteCutResult,
    Report,
    brute_all_min_cuts,
    brute_min_cut,
    is_laminar,
    verify_gh_tree,
    verify_oc1,
)

__version__ = "0.1.0"
