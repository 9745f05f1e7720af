"""The paper's primary contribution: the binary branch embedding.

Branch extraction (2-level and q-level), sparse branch vectors with the L1
``BDist``, edit-distance lower bounds and the positional refinement.  The
inverted file of Algorithm 1 is :mod:`repro.index.inverted`.
"""

from repro.core.branches import (
    BinaryBranch,
    PositionalBranch,
    branches_via_binary_tree,
    iter_branches,
    iter_positional_branches,
)
from repro.core.lower_bounds import branch_lower_bound, positional_lower_bound
from repro.core.positional import (
    PositionalProfile,
    exact_position_matching,
    greedy_interval_matching,
    positional_branch_distance,
    positional_profile,
    search_lower_bound,
)
from repro.core.qlevel import (
    PositionalQLevelBranch,
    QLevelBranch,
    iter_positional_qlevel_branches,
    iter_qlevel_branches,
    qlevel_bound_factor,
)
from repro.core.vectors import BranchVector, branch_distance, branch_vector

__all__ = [
    "BinaryBranch",
    "PositionalBranch",
    "iter_branches",
    "iter_positional_branches",
    "branches_via_binary_tree",
    "QLevelBranch",
    "PositionalQLevelBranch",
    "iter_qlevel_branches",
    "iter_positional_qlevel_branches",
    "qlevel_bound_factor",
    "BranchVector",
    "branch_vector",
    "branch_distance",
    "branch_lower_bound",
    "positional_lower_bound",
    "PositionalProfile",
    "positional_profile",
    "positional_branch_distance",
    "search_lower_bound",
    "greedy_interval_matching",
    "exact_position_matching",
]
