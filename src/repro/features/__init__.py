"""The shared feature plane: one-pass signature extraction for a corpus.

Every per-tree artifact the filter-and-refine stack derives — branch
vectors, positional profiles, histograms, traversal strings — is computed
by a single traversal per tree (:func:`extract_features`), interned against
a corpus-wide :class:`Vocabulary`, packed into integer-array vectors
(:class:`PackedVector`), and owned by one :class:`FeatureStore` that the
filters, the database and the serving layer all share.  The plane is
derived state: it is rebuilt from the trees, never read from disk.  See
``docs/FEATURES.md``.
"""

from repro.features.extract import TreeFeatures, extract_features
from repro.features.matrix import FeatureMatrices, MatrixPlane
from repro.features.packed import PackedVector, pack_counts
from repro.features.store import FeatureStore
from repro.features.vocabulary import Vocabulary

__all__ = [
    "FeatureMatrices",
    "FeatureStore",
    "MatrixPlane",
    "PackedVector",
    "TreeFeatures",
    "Vocabulary",
    "extract_features",
    "pack_counts",
]
