"""repro — similarity evaluation on tree-structured data.

A from-scratch reproduction of Yang, Kalnis & Tung, *Similarity Evaluation
on Tree-structured Data* (SIGMOD 2005): the binary branch embedding of
rooted ordered labeled trees into L1 vector spaces, its lower-bound relation
to the tree edit distance, the positional refinement, and the
filter-and-refine similarity search framework built on them — together with
every substrate the paper depends on (trees, the Zhang–Shasha edit
distance, histogram-filter comparators, synthetic workload generators).

Quickstart
----------
>>> from repro import TreeDatabase, parse_bracket
>>> db = TreeDatabase([parse_bracket("a(b,c)"), parse_bracket("a(b,d)")])
>>> matches, stats = db.range_query(parse_bracket("a(b,c)"), 1)
>>> [index for index, _ in matches]
[0, 1]

The main public names are re-exported here; see the subpackages for the
full API surface:

* :mod:`repro.trees`    — tree substrate (parsing, traversals, binary form);
* :mod:`repro.editdist` — exact edit distance (Zhang–Shasha) and mappings;
* :mod:`repro.core`     — binary branch vectors, distances, lower bounds;
* :mod:`repro.filters`  — BiBranch filter and comparator filters;
* :mod:`repro.search`   — range / k-NN / join query processing;
* :mod:`repro.service`  — concurrent, cached, observable query serving;
* :mod:`repro.datasets` — the paper's synthetic and DBLP-like datasets;
* :mod:`repro.bench`    — the experiment harness behind ``benchmarks/``.
"""

from repro.core.lower_bounds import branch_lower_bound, positional_lower_bound
from repro.core.positional import positional_branch_distance, search_lower_bound
from repro.core.vectors import BranchVector, branch_distance, branch_vector
from repro.editdist.costs import UNIT_COSTS, CostModel, weighted_costs
from repro.editdist.mapping import tree_edit_mapping
from repro.editdist.zhang_shasha import tree_edit_distance
from repro.exceptions import (
    InvalidEditOperationError,
    InvalidTreeError,
    QueryError,
    ReproError,
    TreeParseError,
)
from repro.filters.binary_branch import BinaryBranchFilter, BranchCountFilter
from repro.filters.histogram import HistogramFilter
from repro.filters.traversal_string import TraversalStringFilter
from repro.search.database import TreeDatabase
from repro.service.engine import TreeSearchService
from repro.search.join import similarity_join, similarity_self_join
from repro.search.knn import knn_query
from repro.search.range_query import range_query
from repro.storage import load_forest, load_xml_directory, save_forest
from repro.trees.node import TreeNode
from repro.trees.parse import parse_bracket, to_bracket
from repro.trees.json_io import json_to_tree, parse_json_string, tree_to_json
from repro.trees.xml_io import parse_xml_file, parse_xml_string

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "TreeNode",
    "parse_bracket",
    "to_bracket",
    "parse_xml_string",
    "parse_xml_file",
    "parse_json_string",
    "json_to_tree",
    "tree_to_json",
    "tree_edit_distance",
    "tree_edit_mapping",
    "CostModel",
    "UNIT_COSTS",
    "weighted_costs",
    "BranchVector",
    "branch_vector",
    "branch_distance",
    "branch_lower_bound",
    "positional_lower_bound",
    "positional_branch_distance",
    "search_lower_bound",
    "BinaryBranchFilter",
    "BranchCountFilter",
    "HistogramFilter",
    "TraversalStringFilter",
    "TreeDatabase",
    "TreeSearchService",
    "range_query",
    "knn_query",
    "similarity_self_join",
    "similarity_join",
    "save_forest",
    "load_forest",
    "load_xml_directory",
    "ReproError",
    "TreeParseError",
    "InvalidTreeError",
    "InvalidEditOperationError",
    "QueryError",
]
