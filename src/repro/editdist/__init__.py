"""Tree and string edit distance substrate.

The exact (Zhang–Shasha) tree edit distance used in the refinement step,
edit-mapping recovery, cost models and string edit distance.
"""

from repro.editdist.alignment import alignment_distance
from repro.editdist.bounds import (
    label_lower_bound,
    naive_upper_bound,
    size_lower_bound,
)
from repro.editdist.costs import UNIT_COSTS, CostModel, weighted_costs
from repro.editdist.mapping import (
    EditMapping,
    is_valid_mapping,
    mapping_cost,
    memoized_edit_distance,
    tree_edit_mapping,
)
from repro.editdist.string_ed import string_edit_distance, string_edit_distance_bounded
from repro.editdist.variants import constrained_edit_distance, selkow_edit_distance
from repro.editdist.zhang_shasha import (
    EditDistanceCounter,
    PreparedTree,
    PreparedTreeCache,
    prepare_tree,
    tree_edit_distance,
)

__all__ = [
    "tree_edit_distance",
    "prepare_tree",
    "PreparedTree",
    "PreparedTreeCache",
    "EditDistanceCounter",
    "CostModel",
    "UNIT_COSTS",
    "weighted_costs",
    "EditMapping",
    "tree_edit_mapping",
    "memoized_edit_distance",
    "mapping_cost",
    "is_valid_mapping",
    "string_edit_distance",
    "selkow_edit_distance",
    "constrained_edit_distance",
    "alignment_distance",
    "string_edit_distance_bounded",
    "size_lower_bound",
    "label_lower_bound",
    "naive_upper_bound",
]
