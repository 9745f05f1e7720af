"""Ablation: feature-plane + IFI construction vs. direct per-tree extraction.

Algorithm 1 builds all vectors through one extraction pass per tree: the
:class:`~repro.features.store.FeatureStore` interns every branch into one
vocabulary and packs each tree's vector, and the
:class:`~repro.index.inverted.ExtendedInvertedFile` inverts those packed
vectors into posting lists.  The alternative is extracting each tree's
vector and profile independently.  Both must produce identical vectors
(asserted) — the bench compares construction cost and reports the
vocabulary statistics (§4.4's space analysis: the posting counts sum to
one entry per node, so Σ counts = Σ|Ti| and the vocabulary is at most
that).
"""

import time

from repro.core import branch_vector, positional_profile
from repro.datasets import SyntheticSpec, generate_dataset
from repro.features import FeatureStore
from repro.index import ExtendedInvertedFile

from benchmarks.figure_common import current_scale, save_report


def test_ablation_index_construction(benchmark):
    scale = current_scale()
    spec = SyntheticSpec(fanout_mean=4, fanout_stddev=0.5,
                         size_mean=50, size_stddev=2, label_count=8, decay=0.05)
    trees = generate_dataset(spec, count=scale.dataset_size, seed=5)
    timings = {}

    def measure():
        start = time.perf_counter()
        store = FeatureStore((2,)).fit(trees)
        index = ExtendedInvertedFile(store)
        timings["ifi_build"] = time.perf_counter() - start
        vectors_via_store = {
            i: store.packed_vector(i).to_branch_vector(store.vocabulary)
            for i in range(len(trees))
        }

        start = time.perf_counter()
        direct_vectors = {i: branch_vector(t) for i, t in enumerate(trees)}
        timings["direct_vectors"] = time.perf_counter() - start

        start = time.perf_counter()
        profiles = {i: positional_profile(t) for i, t in enumerate(trees)}
        timings["direct_profiles"] = time.perf_counter() - start

        assert vectors_via_store == direct_vectors
        total_nodes = sum(t.size for t in trees)
        posting_counts = sum(
            count
            for entries in index._postings.values()
            for _, count in entries
        )
        assert posting_counts == total_nodes
        assert len(store.vocabulary) <= total_nodes
        timings["vocabulary"] = len(store.vocabulary)
        timings["total_nodes"] = total_nodes
        return timings

    benchmark.pedantic(measure, rounds=1, iterations=1)
    rows = [
        "== Ablation: feature plane + IFI vs direct vector construction ==",
        f"  trees              {len(trees):>10}",
        f"  total nodes        {timings['total_nodes']:>10}",
        f"  vocabulary |Γ|     {timings['vocabulary']:>10}",
        f"  store fit + IFI    {timings['ifi_build']:>10.3f} s",
        f"  direct vectors     {timings['direct_vectors']:>10.3f} s",
        f"  direct profiles    {timings['direct_profiles']:>10.3f} s",
    ]
    save_report("ablation_index_construction", "\n".join(rows))
