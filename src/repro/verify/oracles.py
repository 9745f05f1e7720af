"""The oracle registry: every invariant the system claims, re-checked.

Each oracle audits one class of invariant over a
:class:`~repro.verify.corpus.VerifyCorpus`:

``bound:*``
    Lower-bound **soundness** of every filter against the reference
    Zhang–Shasha distance (Theorems 3.1/4.2 and the ``[4(q−1)+1]·k``
    q-level generalization), plus consistency of the ``refutes`` fast
    paths with the numeric bounds.
``bound:dominance``
    The positional bound dominates both the plain count bound and the
    size difference (the ``SearchLBound`` guarantee), and the exact
    two-constraint matching never *weakens* the bound.
``editdist:metamorphic``
    The reference distance itself, checked without a second
    implementation: ``EDist(T, apply_script(T, k ops)) ≤ k`` by
    construction, symmetry, and identity on clones.
``refine:cutoff-equivalence``
    The budgeted unit-cost kernel keeps its contract against the
    independent memoized forest DP: exact whenever the distance is within
    the budget, strictly above the budget otherwise.
``metric:bdist``
    Metric properties of the binary branch distance (symmetry, identity,
    triangle inequality) — what makes BDist usable inside index structures.
``features:packed-l1``
    The hybrid dict/numpy :class:`~repro.features.packed.PackedVector` L1
    equals the dict-keyed :class:`~repro.core.vectors.BranchVector` L1.
``store:identity``
    Store-backed filter fitting (``fit_from_store`` / ``add_from_store``)
    is bound-identical to legacy per-filter fitting, including after adds.
``storage:roundtrip``
    ``save_database``/``load_database`` round-trips answer-identically with
    zero re-extraction.
``search:completeness``
    Filter-and-refine range/k-NN answers equal brute-force sequential scans.
``search:vectorized-equivalence``
    The corpus-level matrix candidate funnel (:mod:`repro.features.matrix`)
    returns bit-identical answers and identical refined-candidate counts to
    the per-candidate loop — per filter family and through vectorized
    shard workers — including under interleaved adds.
``search:index-completeness``
    Inverted-file candidate generation (:mod:`repro.index`) answers
    exactly like the sequential scan and never refines more candidates
    than the vectorized cascade — single process and through
    index-pinned shard workers, under interleaved adds.
``service:cache-transparency``
    Under interleaved add/query traffic, every answer the (caching,
    selectively-invalidating) service returns equals a cold answer
    computed on a fresh database at the same generation.
``service:shard-equivalence``
    Scatter-gather serving (:mod:`repro.sharding`) over N worker shards
    returns bit-identical answers — member ids, distances, tie order — to
    the single-process path, under interleaved add/query traffic, across
    partitioners and filters.
``shard:knn-optimality``
    The coordinator's merged-frontier k-NN refines *exactly* the
    candidates the single-process Algorithm 2 refines: distributing the
    corpus never gives up the optimal multi-step stopping guarantee.
``obs:funnel-consistency``
    The funnel telemetry (:mod:`repro.obs.funnel`) tells the truth: the
    per-stage survivor counts a traced query reports equal an independent
    sequential recount through the filter's ``funnel_components`` cascade,
    the staged cascade equals the deployed one-pass ``refutes`` path, and
    every funnel satisfies its monotonicity invariants.

Pairwise oracles expose a ``violates(t1, t2)`` predicate, which is what
lets the runner shrink their violations to minimal counterexamples.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.vectors import branch_distance
from repro.core.positional import search_lower_bound
from repro.core.qlevel import qlevel_bound_factor
from repro.editdist.costs import weighted_costs
from repro.editdist.mapping import memoized_edit_distance
from repro.editdist.zhang_shasha import prepare_tree, tree_edit_distance
from repro.exceptions import InvalidParameterError
from repro.features.store import FeatureStore
from repro.filters.base import LowerBoundFilter
from repro.filters.binary_branch import BinaryBranchFilter, BranchCountFilter
from repro.filters.composite import MaxCompositeFilter, SizeDifferenceFilter
from repro.filters.cost_scaled import CostScaledFilter
from repro.filters.histogram import (
    DegreeHistogramFilter,
    HeightHistogramFilter,
    HistogramFilter,
    LabelHistogramFilter,
)
from repro.filters.traversal_string import TraversalStringFilter
from repro.trees.node import TreeNode
from repro.trees.parse import to_bracket
from repro.verify.corpus import TreePair, VerifyCorpus
from repro.verify.report import OracleOutcome, Violation

__all__ = [
    "Oracle",
    "PairOracle",
    "ORACLE_FACTORIES",
    "default_oracle_names",
    "make_oracles",
]

#: numeric slack for float bound comparisons (all distances are integral
#: under unit costs, so anything beyond rounding noise is a real violation)
_EPS = 1e-9

DistanceFn = Callable[[TreePair], float]


class Oracle:
    """One verifiable invariant class; ``run`` tallies it over a corpus."""

    name: str = "abstract"
    description: str = ""

    def run(self, corpus: VerifyCorpus, distance: DistanceFn) -> OracleOutcome:
        """Check the invariant over ``corpus``; ``distance`` memoizes TED."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class PairOracle(Oracle):
    """An oracle whose invariant is a property of one tree pair.

    Subclasses implement :meth:`check_pair`; violations automatically carry
    the :meth:`violates` predicate, making them shrinkable and replayable.
    """

    def check_pair(self, t1: TreeNode, t2: TreeNode) -> Optional[Tuple[str, Dict]]:
        """Return ``(message, details)`` when the pair violates, else None."""
        raise NotImplementedError

    def violates(self, t1: TreeNode, t2: TreeNode) -> bool:
        return self.check_pair(t1, t2) is not None

    def run(self, corpus: VerifyCorpus, distance: DistanceFn) -> OracleOutcome:
        outcome = OracleOutcome(self.name)
        for pair in corpus.pairs:
            outcome.checks += 1
            found = self.check_pair(pair.t1, pair.t2)
            if found is not None:
                message, details = found
                details.setdefault("origin", pair.origin)
                outcome.record(
                    Violation(
                        oracle=self.name,
                        message=message,
                        t1=pair.t1,
                        t2=pair.t2,
                        details=details,
                        predicate=self.violates,
                    )
                )
        return outcome


# ----------------------------------------------------------------------
# bound:* — filter lower-bound soundness
# ----------------------------------------------------------------------
class FilterBoundOracle(PairOracle):
    """``filter.bound(q, d) ≤ EDist`` and ``refutes ⟹ EDist > τ``.

    The filter is exercised exactly as deployed: a fresh instance is fitted
    on the data tree, the query signature comes from :meth:`signature`, and
    both the numeric bound and the range-refutation fast path are compared
    against the reference distance.
    """

    def __init__(self, factory: Callable[[], LowerBoundFilter], label: str) -> None:
        self.factory = factory
        self.name = f"bound:{label}"
        self.description = f"lower-bound soundness of {label}"

    def check_pair(self, t1: TreeNode, t2: TreeNode) -> Optional[Tuple[str, Dict]]:
        flt = self.factory().fit([t2])
        reference = tree_edit_distance(t1, t2)
        bound = flt.bounds(t1)[0]
        if bound > reference + _EPS:
            return (
                f"{flt.name}: bound {bound:g} exceeds EDist {reference:g}",
                {"bound": bound, "edist": reference, "kind": "bound"},
            )
        query_signature = flt.signature(t1)
        data_signature = flt.data_signature(0)
        for threshold in {0.0, 1.0, 2.0, max(0.0, float(int(reference)) - 1.0)}:
            if flt.refutes(query_signature, data_signature, threshold):
                if reference <= threshold + _EPS:
                    return (
                        f"{flt.name}: refutes(τ={threshold:g}) "
                        f"but EDist is {reference:g}",
                        {
                            "threshold": threshold,
                            "edist": reference,
                            "kind": "refutes",
                        },
                    )
        return None

    def run(self, corpus: VerifyCorpus, distance: DistanceFn) -> OracleOutcome:
        outcome = super().run(corpus, distance)
        # metamorphic leg: construction bounds need no reference distance,
        # so they cross-check reference and filter at once
        for pair in corpus.pairs:
            if pair.max_distance is None:
                continue
            outcome.checks += 1
            flt = self.factory().fit([pair.t2])
            bound = flt.bounds(pair.t1)[0]
            if bound > pair.max_distance + _EPS:
                outcome.record(
                    Violation(
                        oracle=self.name,
                        message=(
                            f"{flt.name}: bound {bound:g} exceeds the "
                            f"edit-script length {pair.max_distance}"
                        ),
                        t1=pair.t1,
                        t2=pair.t2,
                        details={
                            "bound": bound,
                            "script_length": pair.max_distance,
                            "kind": "metamorphic",
                            "origin": pair.origin,
                        },
                        predicate=self.violates,
                    )
                )
        return outcome


class CostScaledBoundOracle(PairOracle):
    """Soundness of :class:`CostScaledFilter` against the *weighted* EDist.

    The generic ``bound:*`` oracles compare against the unit-cost distance,
    which is the wrong reference here: the scaled bound may legitimately
    exceed ``EDist_unit`` (that is the point of the scaling).  The contract
    is ``c_min · unit_bound ≤ EDist_general``, so this oracle fits the
    wrapped filter and compares against ``tree_edit_distance`` under the
    same weighted cost model, including the ``refutes`` fast path.
    """

    name = "bound:CostScaled"
    description = "cost-scaled bound soundness vs the weighted edit distance"

    #: deliberately asymmetric so relabel ≠ delete+insert shortcuts show up
    _COSTS = weighted_costs(2.0, 3.0, 1.5)

    def _make_filter(self) -> CostScaledFilter:
        return CostScaledFilter(BinaryBranchFilter(), self._COSTS)

    def check_pair(self, t1: TreeNode, t2: TreeNode) -> Optional[Tuple[str, Dict]]:
        costs = self._COSTS
        flt = self._make_filter().fit([t2])
        reference = tree_edit_distance(t1, t2, costs)
        bound = flt.bounds(t1)[0]
        if bound > reference + _EPS:
            return (
                f"{flt.name}: scaled bound {bound:g} exceeds weighted "
                f"EDist {reference:g}",
                {"bound": bound, "weighted_edist": reference, "kind": "bound"},
            )
        query_signature = flt.signature(t1)
        data_signature = flt.data_signature(0)
        for threshold in (0.0, costs.min_operation_cost, reference - 1.0):
            if threshold < 0:
                continue
            if flt.refutes(query_signature, data_signature, threshold):
                if reference <= threshold + _EPS:
                    return (
                        f"{flt.name}: refutes(τ={threshold:g}) but weighted "
                        f"EDist is {reference:g}",
                        {
                            "threshold": threshold,
                            "weighted_edist": reference,
                            "kind": "refutes",
                        },
                    )
        return None


class DominanceOracle(PairOracle):
    """``SearchLBound`` dominance and exact-matching monotonicity (§4.2).

    The positional bound must be at least ``⌈BDist/[4(q−1)+1]⌉`` and at
    least the size difference; the exact two-constraint matching can only
    match less than the per-dimension approximation, so the exact bound can
    only be equal or larger.
    """

    name = "bound:dominance"
    description = "positional bound dominates count bound and size difference"

    #: exact bipartite matching is O(V·E) per branch — cap the input size
    _EXACT_LIMIT = 14

    def check_pair(self, t1: TreeNode, t2: TreeNode) -> Optional[Tuple[str, Dict]]:
        for q in (2, 3):
            factor = qlevel_bound_factor(q)
            positional = search_lower_bound(t1, t2, q=q)
            count_bound = -(-branch_distance(t1, t2, q=q) // factor)
            size_bound = abs(t1.size - t2.size)
            if positional + _EPS < max(count_bound, size_bound):
                return (
                    f"positional bound {positional} at q={q} below "
                    f"max(count {count_bound}, size {size_bound})",
                    {
                        "q": q,
                        "positional": positional,
                        "count_bound": count_bound,
                        "size_bound": size_bound,
                        "kind": "dominance",
                    },
                )
            if t1.size <= self._EXACT_LIMIT and t2.size <= self._EXACT_LIMIT:
                exact = search_lower_bound(t1, t2, q=q, exact=True)
                if exact + _EPS < positional:
                    return (
                        f"exact positional bound {exact} at q={q} below "
                        f"approximate bound {positional}",
                        {
                            "q": q,
                            "exact": exact,
                            "approximate": positional,
                            "kind": "exact-dominance",
                        },
                    )
        return None


# ----------------------------------------------------------------------
# editdist:metamorphic — the reference distance checked against itself
# ----------------------------------------------------------------------
class EditScriptOracle(PairOracle):
    """Reference-distance sanity: construction bound, symmetry, identity."""

    name = "editdist:metamorphic"
    description = "Zhang–Shasha obeys construction bounds and symmetry"

    def check_pair(self, t1: TreeNode, t2: TreeNode) -> Optional[Tuple[str, Dict]]:
        forward = tree_edit_distance(t1, t2)
        backward = tree_edit_distance(t2, t1)
        if abs(forward - backward) > _EPS:
            return (
                f"EDist not symmetric: {forward:g} vs {backward:g}",
                {"forward": forward, "backward": backward, "kind": "symmetry"},
            )
        if forward < -_EPS:
            return (
                f"EDist negative: {forward:g}",
                {"edist": forward, "kind": "nonnegative"},
            )
        return None

    def run(self, corpus: VerifyCorpus, distance: DistanceFn) -> OracleOutcome:
        outcome = super().run(corpus, distance)
        for pair in corpus.pairs:
            if pair.max_distance is None:
                continue
            outcome.checks += 1
            reference = distance(pair)
            if reference > pair.max_distance + _EPS:
                outcome.record(
                    Violation(
                        oracle=self.name,
                        message=(
                            f"EDist {reference:g} exceeds the edit-script "
                            f"length {pair.max_distance}"
                        ),
                        t1=pair.t1,
                        t2=pair.t2,
                        details={
                            "edist": reference,
                            "script_length": pair.max_distance,
                            "kind": "construction-bound",
                            "origin": pair.origin,
                        },
                    )
                )
        return outcome


# ----------------------------------------------------------------------
# refine:cutoff-equivalence — the budgeted kernel against an independent DP
# ----------------------------------------------------------------------
class RefineCutoffOracle(PairOracle):
    """``tree_edit_distance(..., budget=b)`` keeps its contract.

    With ``d`` from the independent memoized forest DP, every budget
    ``b ∈ {0, 0.5, 1, d−1, d, d+1, ∞}`` must give exactly ``d`` when
    ``d ≤ b`` and some value ``> b`` otherwise.  Small budgets exercise the
    k-strip and the size-gap exit, ``d`` itself the tightest strip that must
    still be exact, and ``∞`` the full DP.
    """

    name = "refine:cutoff-equivalence"
    description = "budgeted Zhang–Shasha is exact within its budget"

    def check_pair(self, t1: TreeNode, t2: TreeNode) -> Optional[Tuple[str, Dict]]:
        reference = memoized_edit_distance(t1, t2)
        a, b = prepare_tree(t1), prepare_tree(t2)
        budgets = (0.0, 0.5, 1.0, reference - 1, reference, reference + 1, math.inf)
        for budget in budgets:
            value = tree_edit_distance(a, b, budget=budget)
            within = reference <= budget
            if value != reference if within else not value > budget:
                expected = f"{reference:g}" if within else f"> {budget:g}"
                return (
                    f"budget {budget:g}: got {value:g}, expected {expected}",
                    {"budget": budget, "value": value, "edist": reference},
                )
        return None


# ----------------------------------------------------------------------
# metric:bdist — BDist is a metric on vectors
# ----------------------------------------------------------------------
class BranchMetricOracle(Oracle):
    """Symmetry, identity and triangle inequality of the L1 branch distance."""

    name = "metric:bdist"
    description = "binary branch distance metric properties"

    def run(self, corpus: VerifyCorpus, distance: DistanceFn) -> OracleOutcome:
        outcome = OracleOutcome(self.name)
        trees = corpus.trees
        for q in (2, 3):
            for i, tree in enumerate(trees):
                outcome.checks += 1
                identity = branch_distance(tree, tree.clone(), q=q)
                if identity != 0:
                    outcome.record(
                        Violation(
                            oracle=self.name,
                            message=f"BDist(T, clone(T)) = {identity} at q={q}",
                            t1=tree,
                            details={"q": q, "index": i, "kind": "identity"},
                        )
                    )
            # deterministic triple sweep: consecutive windows cover every
            # tree while keeping the check count linear in the corpus
            for i in range(len(trees) - 2):
                a, b, c = trees[i], trees[i + 1], trees[i + 2]
                outcome.checks += 1
                ab = branch_distance(a, b, q=q)
                ba = branch_distance(b, a, q=q)
                if ab != ba:
                    outcome.record(
                        Violation(
                            oracle=self.name,
                            message=f"BDist not symmetric at q={q}: {ab} vs {ba}",
                            t1=a,
                            t2=b,
                            details={"q": q, "kind": "symmetry"},
                        )
                    )
                    continue
                bc = branch_distance(b, c, q=q)
                ac = branch_distance(a, c, q=q)
                if ac > ab + bc:
                    outcome.record(
                        Violation(
                            oracle=self.name,
                            message=(
                                f"triangle inequality broken at q={q}: "
                                f"d(a,c)={ac} > d(a,b)+d(b,c)={ab + bc}"
                            ),
                            t1=a,
                            t2=c,
                            details={
                                "q": q,
                                "ab": ab,
                                "bc": bc,
                                "ac": ac,
                                "middle": to_bracket(b),
                                "kind": "triangle",
                            },
                        )
                    )
        return outcome


# ----------------------------------------------------------------------
# features:packed-l1 — packed vectors equal the dict-keyed reference
# ----------------------------------------------------------------------
class PackedVectorOracle(PairOracle):
    """Hybrid packed L1 (dict or numpy merge) equals the BranchVector L1.

    The corpus-wide pass catches vocabulary-growth bugs (shared store, every
    pair); the pairwise predicate rebuilds a minimal one-tree store so the
    violation shrinks and replays in isolation — the query side goes through
    :meth:`FeatureStore.pack_query`, exercising the out-of-vocabulary
    ``extra`` path.
    """

    name = "features:packed-l1"
    description = "PackedVector L1 equals dict-keyed BranchVector L1"

    def check_pair(self, t1: TreeNode, t2: TreeNode) -> Optional[Tuple[str, Dict]]:
        for q in (2, 3):
            store = FeatureStore((q,)).fit([t1])
            packed = store.packed_vector(0, q)
            query = store.pack_query(t2, q)
            got = packed.l1_distance(query)
            expected = branch_distance(t1, t2, q=q)
            if got != expected:
                return (
                    f"packed L1 {got} != reference L1 {expected} at q={q}",
                    {"q": q, "packed": got, "reference": expected},
                )
        return None

    def run(self, corpus: VerifyCorpus, distance: DistanceFn) -> OracleOutcome:
        outcome = super().run(corpus, distance)
        store = FeatureStore((2, 3)).fit(corpus.trees)
        trees = corpus.trees
        for q in (2, 3):
            for i in range(len(trees) - 1):
                outcome.checks += 1
                got = store.packed_vector(i, q).l1_distance(
                    store.packed_vector(i + 1, q)
                )
                expected = branch_distance(trees[i], trees[i + 1], q=q)
                if got != expected:
                    outcome.record(
                        Violation(
                            oracle=self.name,
                            message=(
                                f"store-interned packed L1 {got} != reference "
                                f"{expected} at q={q} (trees {i}, {i + 1})"
                            ),
                            t1=trees[i],
                            t2=trees[i + 1],
                            details={"q": q, "packed": got, "reference": expected},
                            predicate=self.violates,
                        )
                    )
        return outcome


# ----------------------------------------------------------------------
# store:identity — fit_from_store ≡ fit
# ----------------------------------------------------------------------
class StoreIdentityOracle(Oracle):
    """Store-backed signatures produce bit-identical bounds, incl. after add."""

    name = "store:identity"
    description = "fit_from_store/add_from_store bounds equal legacy fit/add"

    def __init__(
        self, factories: Sequence[Tuple[str, Callable[[], LowerBoundFilter]]]
    ) -> None:
        self.factories = list(factories)

    def run(self, corpus: VerifyCorpus, distance: DistanceFn) -> OracleOutcome:
        outcome = OracleOutcome(self.name)
        base = corpus.trees[: max(4, len(corpus.trees) // 2)]
        added = corpus.trees[len(base) : len(base) + 3]
        queries = [pair.t2 for pair in corpus.pairs[:6]]
        for label, factory in self.factories:
            legacy = factory()
            if not legacy.supports_store:
                continue
            legacy.fit(base)
            store = FeatureStore(legacy.required_q_levels() or (2,)).fit(base)
            store_backed = factory().fit_from_store(store)
            phases = [("fit", legacy, store_backed)]
            for tree in added:
                legacy.add(tree)
                store_backed.add_from_store(store, store.add(tree))
            phases.append(("add", legacy, store_backed))
            for phase, flt_a, flt_b in phases:
                for query in queries:
                    outcome.checks += 1
                    bounds_a = flt_a.bounds(query)
                    bounds_b = flt_b.bounds(query)
                    if bounds_a != bounds_b:
                        mismatch = next(
                            (i, a, b)
                            for i, (a, b) in enumerate(zip(bounds_a, bounds_b))
                            if a != b
                        )
                        outcome.record(
                            Violation(
                                oracle=self.name,
                                message=(
                                    f"{label}: store-backed bound differs after "
                                    f"{phase} at tree {mismatch[0]}: "
                                    f"legacy {mismatch[1]:g} vs store {mismatch[2]:g}"
                                ),
                                t1=query,
                                t2=(base + added)[mismatch[0]],
                                details={
                                    "filter": label,
                                    "phase": phase,
                                    "tree_index": mismatch[0],
                                    "legacy": mismatch[1],
                                    "store": mismatch[2],
                                },
                            )
                        )
                        break  # one mismatch per filter/phase is enough signal
        return outcome


# ----------------------------------------------------------------------
# storage:roundtrip — persistence is answer-identical
# ----------------------------------------------------------------------
class RoundTripOracle(Oracle):
    """save/load round-trip: zero re-extraction, identical answers."""

    name = "storage:roundtrip"
    description = "save_database/load_database round-trips answer-identically"

    def run(self, corpus: VerifyCorpus, distance: DistanceFn) -> OracleOutcome:
        import tempfile
        from pathlib import Path

        from repro.search.database import TreeDatabase
        from repro.storage import load_database, save_database

        outcome = OracleOutcome(self.name)
        original = TreeDatabase(list(corpus.trees))
        with tempfile.TemporaryDirectory(prefix="repro-verify-") as tmp:
            path = Path(tmp) / "corpus.trees"
            save_database(original, path)
            loaded = load_database(path)
            outcome.checks += 1
            if loaded.features is None or loaded.features.extraction_passes != 0:
                passes = (
                    None
                    if loaded.features is None
                    else loaded.features.extraction_passes
                )
                outcome.record(
                    Violation(
                        oracle=self.name,
                        message=(
                            "loaded database re-extracted features "
                            f"(extraction_passes={passes})"
                        ),
                        details={"extraction_passes": passes},
                    )
                )
            for pair in corpus.pairs[:8]:
                query = pair.t2
                outcome.checks += 1
                fresh_bounds = original.filter.bounds(query)
                loaded_bounds = loaded.filter.bounds(query)
                if fresh_bounds != loaded_bounds:
                    outcome.record(
                        Violation(
                            oracle=self.name,
                            message="loaded filter bounds differ from original",
                            t1=query,
                            details={
                                "first_mismatch": next(
                                    i
                                    for i, (a, b) in enumerate(
                                        zip(fresh_bounds, loaded_bounds)
                                    )
                                    if a != b
                                ),
                            },
                        )
                    )
                    continue
                outcome.checks += 1
                threshold = 2.0
                if (
                    original.range_query(query, threshold)[0]
                    != loaded.range_query(query, threshold)[0]
                ):
                    outcome.record(
                        Violation(
                            oracle=self.name,
                            message="loaded range answer differs from original",
                            t1=query,
                            details={"threshold": threshold},
                        )
                    )
                outcome.checks += 1
                if original.knn(query, 3)[0] != loaded.knn(query, 3)[0]:
                    outcome.record(
                        Violation(
                            oracle=self.name,
                            message="loaded k-NN answer differs from original",
                            t1=query,
                            details={"k": 3},
                        )
                    )
        return outcome


# ----------------------------------------------------------------------
# search:completeness — filter-and-refine equals sequential scan
# ----------------------------------------------------------------------
class SearchCompletenessOracle(Oracle):
    """Range/k-NN through the filter pipeline equal brute-force answers."""

    name = "search:completeness"
    description = "filtered range/k-NN answers equal sequential ground truth"

    def run(self, corpus: VerifyCorpus, distance: DistanceFn) -> OracleOutcome:
        from repro.search.database import TreeDatabase

        outcome = OracleOutcome(self.name)
        database = TreeDatabase(list(corpus.trees))
        for pair in corpus.pairs[:10]:
            query = pair.t2
            for threshold in (1.0, 3.0):
                outcome.checks += 1
                filtered = database.range_query(query, threshold)[0]
                sequential = database.sequential_range_query(query, threshold)[0]
                if filtered != sequential:
                    outcome.record(
                        Violation(
                            oracle=self.name,
                            message=(
                                f"range(τ={threshold:g}) differs from "
                                f"sequential scan: {len(filtered)} vs "
                                f"{len(sequential)} matches"
                            ),
                            t1=query,
                            details={
                                "threshold": threshold,
                                "filtered": filtered,
                                "sequential": sequential,
                            },
                        )
                    )
            outcome.checks += 1
            k = 3
            filtered_knn = database.knn(query, k)[0]
            sequential_knn = database.sequential_knn(query, k)[0]
            # ties at the k-th distance make the member set ambiguous; the
            # invariant is the sorted distance profile
            if [d for _, d in filtered_knn] != [d for _, d in sequential_knn]:
                outcome.record(
                    Violation(
                        oracle=self.name,
                        message="k-NN distance profile differs from sequential",
                        t1=query,
                        details={
                            "k": k,
                            "filtered": filtered_knn,
                            "sequential": sequential_knn,
                        },
                    )
                )
        return outcome


# ----------------------------------------------------------------------
# service:cache-transparency — cached answers equal cold answers
# ----------------------------------------------------------------------
class ServiceCacheOracle(Oracle):
    """Interleaved add/query: the service never serves a stale answer.

    Replays the corpus's deterministic schedule through a
    :class:`~repro.service.engine.TreeSearchService` with a small result
    cache, and after every step compares each live query's served answer —
    which may come from the selectively-invalidated cache — against a cold
    answer computed on a fresh database at the same generation.
    """

    name = "service:cache-transparency"
    description = "cached answers equal cold answers at every generation"

    #: distinct queries re-validated after each mutation
    _REVALIDATED = 4

    def run(self, corpus: VerifyCorpus, distance: DistanceFn) -> OracleOutcome:
        from repro.search.database import TreeDatabase
        from repro.search.knn import knn_query
        from repro.search.range_query import range_query
        from repro.service.engine import TreeSearchService

        outcome = OracleOutcome(self.name)
        shadow: List[TreeNode] = list(corpus.trees)
        service = TreeSearchService(
            TreeDatabase(list(shadow)), cache_size=64, max_workers=1
        )
        live: List[Tuple[str, TreeNode, float]] = []

        def cold_answer(kind: str, query: TreeNode, parameter: float):
            reference = TreeDatabase(list(shadow))
            if kind == "range":
                return range_query(
                    reference.trees, query, parameter, reference.filter,
                    reference.counter,
                )[0]
            return knn_query(
                reference.trees, query, int(parameter), reference.filter,
                reference.counter,
            )[0]

        def compare(kind: str, query: TreeNode, parameter: float, step: int) -> None:
            outcome.checks += 1
            if kind == "range":
                served = service.range(query, parameter)[0]
            else:
                served = service.knn(query, int(parameter))[0]
            expected = cold_answer(kind, query, parameter)
            if served != expected:
                outcome.record(
                    Violation(
                        oracle=self.name,
                        message=(
                            f"{kind} answer diverged from cold answer at "
                            f"schedule step {step} "
                            f"(generation {service.database.generation})"
                        ),
                        t1=query,
                        details={
                            "step": step,
                            "kind": kind,
                            "parameter": parameter,
                            "served": served,
                            "expected": expected,
                            "generation": service.database.generation,
                        },
                    )
                )

        try:
            for step, entry in enumerate(corpus.service_schedule):
                if entry[0] == "add":
                    tree = entry[1]
                    service.add(tree)
                    shadow.append(tree)
                    # cached entries surviving the selective invalidation
                    # must still match cold answers at the new generation
                    for kind, query, parameter in live[-self._REVALIDATED:]:
                        compare(kind, query, parameter, step)
                else:
                    _, kind, query, parameter = entry
                    compare(kind, query, parameter, step)
                    live.append((kind, query, parameter))
                    # immediately re-issue: the second answer is served from
                    # cache and must be identical
                    compare(kind, query, parameter, step)
        finally:
            service.close()
        return outcome


# ----------------------------------------------------------------------
# service:shard-equivalence / shard:knn-optimality — sharding is invisible
# ----------------------------------------------------------------------
class ShardEquivalenceOracle(Oracle):
    """Sharded scatter-gather answers equal single-process answers.

    Replays the corpus's interleaved add/query schedule through a
    :class:`~repro.sharding.coordinator.ShardedTreeService` at several
    ``(shards, partitioner, filter)`` layouts; every served answer —
    member ids, distances, tie order — must be bit-identical to a cold
    single-process answer computed on a fresh database over the same
    trees with the same filter family.  Adds route through the
    coordinator, so the check also covers post-mutation layouts where
    the workers' vocabularies have diverged from the coordinator's.
    """

    name = "service:shard-equivalence"
    description = "sharded answers equal single-process answers at every step"

    #: layouts under test: both partitioners, an uneven shard count, and
    #: a second filter family (count bound ⇒ different frontier orders)
    _CONFIGS = (
        (2, "round-robin", "bibranch"),
        (3, "size-banded", "bibranch"),
        (2, "round-robin", "bibranchcount"),
    )

    def run(self, corpus: VerifyCorpus, distance: DistanceFn) -> OracleOutcome:
        from repro.search.database import TreeDatabase
        from repro.search.knn import knn_query
        from repro.search.range_query import range_query
        from repro.sharding.coordinator import ShardedTreeService
        from repro.sharding.worker import FILTER_FACTORIES

        outcome = OracleOutcome(self.name)
        for shards, partitioner, filter_name in self._CONFIGS:
            shadow: List[TreeNode] = list(corpus.trees)
            service = ShardedTreeService(
                shadow,
                shards=shards,
                partitioner=partitioner,
                filter_name=filter_name,
                max_workers=1,
            )
            try:
                for step, entry in enumerate(corpus.service_schedule):
                    if entry[0] == "add":
                        service.add(entry[1])
                        shadow.append(entry[1])
                        continue
                    _, kind, query, parameter = entry
                    outcome.checks += 1
                    reference = TreeDatabase(
                        list(shadow), flt=FILTER_FACTORIES[filter_name]()
                    )
                    if kind == "range":
                        served = service.range(query, parameter)[0]
                        expected = range_query(
                            reference.trees, query, parameter,
                            reference.filter, reference.counter,
                        )[0]
                    else:
                        served = service.knn(query, int(parameter))[0]
                        expected = knn_query(
                            reference.trees, query, int(parameter),
                            reference.filter, reference.counter,
                        )[0]
                    if served != expected:
                        outcome.record(
                            Violation(
                                oracle=self.name,
                                message=(
                                    f"{kind} answer over {shards} "
                                    f"{partitioner}/{filter_name} shards "
                                    f"diverged from single-process at "
                                    f"schedule step {step}"
                                ),
                                t1=query,
                                details={
                                    "step": step,
                                    "kind": kind,
                                    "parameter": parameter,
                                    "shards": shards,
                                    "partitioner": partitioner,
                                    "filter": filter_name,
                                    "served": served,
                                    "expected": expected,
                                },
                            )
                        )
            finally:
                service.close()
        return outcome


class ShardKnnOptimalityOracle(Oracle):
    """Distributed k-NN refines exactly the single-process candidate set.

    Algorithm 2's optimality theorem says the multi-step search refines
    the unique minimal candidate set the lower bounds permit.  The
    coordinator's merged-frontier protocol claims to preserve that:
    per-shard frontiers ascend in ``(bound, local)``, the merge heap
    restores the global ``(bound, index)`` order, and the stop test runs
    *before* each refinement.  This oracle replays k-NN queries at
    several ``k`` against both paths and requires identical neighbours
    **and** an identical refined-candidate count — a sharded run that
    refines even one extra tree breaks the guarantee.
    """

    name = "shard:knn-optimality"
    description = "sharded k-NN refines exactly the single-process candidates"

    _CONFIGS = (
        (2, "round-robin", "bibranch"),
        (3, "size-banded", "bibranch"),
    )
    _KS = (1, 2, 4)

    def run(self, corpus: VerifyCorpus, distance: DistanceFn) -> OracleOutcome:
        from repro.search.database import TreeDatabase
        from repro.search.knn import knn_query
        from repro.sharding.coordinator import ShardedTreeService
        from repro.sharding.worker import FILTER_FACTORIES

        outcome = OracleOutcome(self.name)
        trees = list(corpus.trees)
        queries = [pair.t2 for pair in corpus.pairs[:6]]
        for shards, partitioner, filter_name in self._CONFIGS:
            reference = TreeDatabase(
                list(trees), flt=FILTER_FACTORIES[filter_name]()
            )
            service = ShardedTreeService(
                trees,
                shards=shards,
                partitioner=partitioner,
                filter_name=filter_name,
                max_workers=1,
            )
            try:
                for query in queries:
                    for k in self._KS:
                        if k > len(trees):
                            continue
                        outcome.checks += 1
                        served, stats = service.knn(query, k)
                        expected, ref_stats = knn_query(
                            reference.trees, query, k,
                            reference.filter, reference.counter,
                        )
                        problem = None
                        if served != expected:
                            problem = "neighbours differ"
                        elif stats.candidates != ref_stats.candidates:
                            problem = (
                                f"refined {stats.candidates} candidates, "
                                f"single-process refined "
                                f"{ref_stats.candidates}"
                            )
                        if problem is not None:
                            outcome.record(
                                Violation(
                                    oracle=self.name,
                                    message=(
                                        f"knn(k={k}) over {shards} "
                                        f"{partitioner}/{filter_name} shards: "
                                        f"{problem}"
                                    ),
                                    t1=query,
                                    details={
                                        "k": k,
                                        "shards": shards,
                                        "partitioner": partitioner,
                                        "filter": filter_name,
                                        "served": served,
                                        "expected": expected,
                                        "served_candidates": stats.candidates,
                                        "expected_candidates": (
                                            ref_stats.candidates
                                        ),
                                    },
                                )
                            )
            finally:
                service.close()
        return outcome


# ----------------------------------------------------------------------
# search:vectorized-equivalence — matrix kernels equal the loop path
# ----------------------------------------------------------------------
class VectorizedEquivalenceOracle(Oracle):
    """The vectorized candidate funnel is answer- and effort-identical.

    Two legs, both replaying interleaved add/query traffic so the
    incremental plane sync (row appends + vocabulary widening) is on the
    hook, not just the cold build:

    * **single-process**: per filter family, every scheduled range/k-NN
      query is answered twice over the same fitted filter — once with
      ``matrices=None`` (the pure per-candidate reference path) and once
      over :class:`~repro.features.matrix.FeatureMatrices` — and must
      return identical matches **and** an identical refined-candidate
      count (``stats.candidates``), so the matrix cascade prunes exactly
      the loop's refutations, never more, never fewer.  The
      ``BiBranchCount`` family pins the ⌈L1/factor⌉ count bound this
      way: its matrix kernel must order k-NN exactly like the loop.
    * **sharded**: a :class:`~repro.sharding.coordinator.ShardedTreeService`
      pinned to ``candidate_source="vectorized"`` (planes scattered
      zero-copy from shared memory) against a fresh loop-path reference
      database at every schedule step.
    """

    name = "search:vectorized-equivalence"
    description = "matrix candidate generation equals the per-candidate loop"

    _FAMILIES: Sequence[Tuple[str, Callable[[], LowerBoundFilter]]] = (
        ("BiBranch", BinaryBranchFilter),
        ("BiBranchCount", BranchCountFilter),
        ("Histo", HistogramFilter),
        (
            "HistoFolded",
            lambda: HistogramFilter(label_bins=4, degree_bins=4, height_cap=4),
        ),
        ("SizeDiff", SizeDifferenceFilter),
        (
            "Composite",
            lambda: MaxCompositeFilter(
                [BranchCountFilter(), SizeDifferenceFilter(), HistogramFilter()]
            ),
        ),
    )
    _SHARD_CONFIGS = (
        (2, "round-robin", "bibranch"),
        (2, "size-banded", "bibranchcount"),
    )

    def run(self, corpus: VerifyCorpus, distance: DistanceFn) -> OracleOutcome:
        from repro.search.database import TreeDatabase
        from repro.search.knn import knn_query
        from repro.search.range_query import range_query

        outcome = OracleOutcome(self.name)

        def record(message: str, query: TreeNode, details: Dict) -> None:
            outcome.record(
                Violation(
                    oracle=self.name, message=message, t1=query, details=details
                )
            )

        # --- single-process leg: every family, loop vs matrices --------
        for label, factory in self._FAMILIES:
            shadow: List[TreeNode] = list(corpus.trees)
            flt = factory().fit(shadow)
            store = FeatureStore(flt.required_q_levels() or (2,)).fit(shadow)
            matrices = store.matrices()
            for step, entry in enumerate(corpus.service_schedule):
                if entry[0] == "add":
                    shadow.append(entry[1])
                    flt.add(entry[1])
                    store.add(entry[1])
                    continue
                _, kind, query, parameter = entry
                outcome.checks += 1
                if kind == "range":
                    loop_answer, loop_stats = range_query(
                        shadow, query, parameter, flt
                    )
                    fast_answer, fast_stats = range_query(
                        shadow, query, parameter, flt, matrices=matrices
                    )
                else:
                    k = min(int(parameter), len(shadow))
                    loop_answer, loop_stats = knn_query(shadow, query, k, flt)
                    fast_answer, fast_stats = knn_query(
                        shadow, query, k, flt, matrices=matrices
                    )
                problem = None
                if fast_answer != loop_answer:
                    problem = "answers differ"
                elif fast_stats.candidates != loop_stats.candidates:
                    problem = (
                        f"vectorized refined {fast_stats.candidates} "
                        f"candidates, loop refined {loop_stats.candidates}"
                    )
                if problem is not None:
                    record(
                        f"{label} {kind} at schedule step {step}: {problem}",
                        query,
                        {
                            "filter": label,
                            "kind": kind,
                            "step": step,
                            "parameter": parameter,
                            "loop": loop_answer,
                            "vectorized": fast_answer,
                            "loop_candidates": loop_stats.candidates,
                            "vectorized_candidates": fast_stats.candidates,
                        },
                    )

        # --- sharded leg: vectorized workers vs loop reference ----------
        from repro.sharding.coordinator import ShardedTreeService
        from repro.sharding.worker import FILTER_FACTORIES

        for shards, partitioner, filter_name in self._SHARD_CONFIGS:
            shadow = list(corpus.trees)
            service = ShardedTreeService(
                shadow,
                shards=shards,
                partitioner=partitioner,
                filter_name=filter_name,
                max_workers=1,
                candidate_source="vectorized",
            )
            try:
                for step, entry in enumerate(corpus.service_schedule):
                    if entry[0] == "add":
                        service.add(entry[1])
                        shadow.append(entry[1])
                        continue
                    _, kind, query, parameter = entry
                    outcome.checks += 1
                    reference = TreeDatabase(
                        list(shadow), flt=FILTER_FACTORIES[filter_name]()
                    )
                    if kind == "range":
                        served, stats = service.range(query, parameter)
                        expected, ref_stats = range_query(
                            reference.trees, query, parameter,
                            reference.filter, reference.counter,
                        )
                    else:
                        k = min(int(parameter), len(shadow))
                        served, stats = service.knn(query, k)
                        expected, ref_stats = knn_query(
                            reference.trees, query, k,
                            reference.filter, reference.counter,
                        )
                    problem = None
                    if served != expected:
                        problem = "answers differ"
                    elif stats.candidates != ref_stats.candidates:
                        problem = (
                            f"vectorized shards refined {stats.candidates} "
                            f"candidates, loop refined {ref_stats.candidates}"
                        )
                    if problem is not None:
                        record(
                            f"{kind} over {shards} {partitioner}/"
                            f"{filter_name} vectorized shards at schedule "
                            f"step {step}: {problem}",
                            query,
                            {
                                "step": step,
                                "kind": kind,
                                "parameter": parameter,
                                "shards": shards,
                                "partitioner": partitioner,
                                "filter": filter_name,
                                "served": served,
                                "expected": expected,
                                "served_candidates": stats.candidates,
                                "expected_candidates": ref_stats.candidates,
                            },
                        )
            finally:
                service.close()
        return outcome


# ----------------------------------------------------------------------
# search:index-completeness — inverted-file candidates are exact
# ----------------------------------------------------------------------
class IndexCompletenessOracle(Oracle):
    """Inverted-file candidate generation is exact and never over-refines.

    Two legs, both replaying the interleaved add/query schedule so the
    generation-stamped incremental sync is on the hook, not just the
    cold build:

    * **single-process**: per filter family, every scheduled range query
      is answered three ways over the same fitted filter — sequential
      scan (ground truth), vectorized cascade, and index-pruned cascade.
      The index answers must equal the sequential matches exactly (the
      BDist ball may never drop a true result) and must refine **at
      most** as many candidates as the vectorized path (the ball only
      shrinks the cascade's domain).  k-NN answers must
      equal the reference loop bit-for-bit with refined counts exactly
      equal — the lazy :class:`~repro.index.ordering.OrderedBoundStream`
      replays the reference ``(bound, row)`` order, including tie-breaks.
    * **sharded**: a :class:`~repro.sharding.coordinator.ShardedTreeService`
      pinned to ``candidate_source="ifi"`` (each worker builds its own
      index over the shared-memory plane), under both partitioners,
      against a fresh loop-path reference database at every schedule
      step — identical answers, identical refined counts.
    """

    name = "search:index-completeness"
    description = "inverted-file candidates: exact answers, <= vectorized work"

    _FAMILIES: Sequence[Tuple[str, Callable[[], LowerBoundFilter]]] = (
        ("BiBranch", BinaryBranchFilter),
        ("BiBranchCount", BranchCountFilter),
        ("Histo", HistogramFilter),
    )
    _SHARD_CONFIGS = (
        (2, "round-robin", "bibranch"),
        (2, "size-banded", "bibranchcount"),
    )

    def run(self, corpus: VerifyCorpus, distance: DistanceFn) -> OracleOutcome:
        from repro.index import ExtendedInvertedFile
        from repro.search.knn import knn_query
        from repro.search.range_query import range_query
        from repro.search.sequential import sequential_range_query

        outcome = OracleOutcome(self.name)

        def record(message: str, query: TreeNode, details: Dict) -> None:
            outcome.record(
                Violation(
                    oracle=self.name, message=message, t1=query, details=details
                )
            )

        # --- single-process leg: sequential vs vectorized vs index ------
        for label, factory in self._FAMILIES:
            shadow: List[TreeNode] = list(corpus.trees)
            flt = factory().fit(shadow)
            store = FeatureStore(flt.required_q_levels() or (2,)).fit(shadow)
            matrices = store.matrices()
            q = getattr(flt, "q", None)
            if q is not None and q not in store.q_levels:
                q = None
            index = ExtendedInvertedFile(store, q)
            for step, entry in enumerate(corpus.service_schedule):
                if entry[0] == "add":
                    shadow.append(entry[1])
                    flt.add(entry[1])
                    store.add(entry[1])
                    continue  # the index re-syncs at the next probe
                _, query_kind, query, parameter = entry
                outcome.checks += 1
                problem = None
                details: Dict = {
                    "filter": label,
                    "kind": query_kind,
                    "step": step,
                    "parameter": parameter,
                }
                if query_kind == "range":
                    sequential, _ = sequential_range_query(
                        shadow, query, parameter
                    )
                    fast_answer, fast_stats = range_query(
                        shadow, query, parameter, flt, matrices=matrices
                    )
                    indexed, indexed_stats = range_query(
                        shadow, query, parameter, flt,
                        matrices=matrices, index=index,
                    )
                    if indexed != sequential:
                        problem = "range answers differ from sequential"
                        details["sequential"] = sequential
                    elif indexed_stats.candidates > fast_stats.candidates:
                        problem = (
                            f"index refined {indexed_stats.candidates} "
                            f"candidates, vectorized only "
                            f"{fast_stats.candidates}"
                        )
                else:
                    k = min(int(parameter), len(shadow))
                    fast_answer, fast_stats = knn_query(
                        shadow, query, k, flt, matrices=matrices
                    )
                    indexed, indexed_stats = knn_query(
                        shadow, query, k, flt,
                        matrices=matrices, index=index,
                    )
                    if indexed != fast_answer:
                        problem = "knn answers differ from reference"
                    elif indexed_stats.candidates != fast_stats.candidates:
                        problem = (
                            f"index refined {indexed_stats.candidates} "
                            f"candidates, reference refined "
                            f"{fast_stats.candidates}"
                        )
                if problem is not None:
                    details["reference"] = fast_answer
                    details["indexed"] = indexed
                    details["reference_candidates"] = fast_stats.candidates
                    details["indexed_candidates"] = indexed_stats.candidates
                    record(
                        f"{label} {query_kind} at schedule step "
                        f"{step}: {problem}",
                        query,
                        details,
                    )

        # --- sharded leg: index workers vs loop reference ---------------
        from repro.search.database import TreeDatabase
        from repro.sharding.coordinator import ShardedTreeService
        from repro.sharding.worker import FILTER_FACTORIES

        for shards, partitioner, filter_name in self._SHARD_CONFIGS:
            shadow = list(corpus.trees)
            service = ShardedTreeService(
                shadow,
                shards=shards,
                partitioner=partitioner,
                filter_name=filter_name,
                max_workers=1,
                candidate_source="ifi",
            )
            try:
                for step, entry in enumerate(corpus.service_schedule):
                    if entry[0] == "add":
                        service.add(entry[1])
                        shadow.append(entry[1])
                        continue
                    _, query_kind, query, parameter = entry
                    outcome.checks += 1
                    reference = TreeDatabase(
                        list(shadow), flt=FILTER_FACTORIES[filter_name]()
                    )
                    if query_kind == "range":
                        served, stats = service.range(query, parameter)
                        expected, ref_stats = range_query(
                            reference.trees, query, parameter,
                            reference.filter, reference.counter,
                        )
                    else:
                        k = min(int(parameter), len(shadow))
                        served, stats = service.knn(query, k)
                        expected, ref_stats = knn_query(
                            reference.trees, query, k,
                            reference.filter, reference.counter,
                        )
                    problem = None
                    if served != expected:
                        problem = "answers differ"
                    elif stats.candidates > ref_stats.candidates:
                        problem = (
                            f"index shards refined {stats.candidates} "
                            f"candidates, loop refined {ref_stats.candidates}"
                        )
                    if problem is not None:
                        record(
                            f"{query_kind} over {shards} {partitioner}/"
                            f"{filter_name} ifi shards at schedule step "
                            f"{step}: {problem}",
                            query,
                            {
                                "step": step,
                                "kind": query_kind,
                                "parameter": parameter,
                                "shards": shards,
                                "partitioner": partitioner,
                                "filter": filter_name,
                                "served": served,
                                "expected": expected,
                                "served_candidates": stats.candidates,
                                "expected_candidates": ref_stats.candidates,
                            },
                        )
            finally:
                service.close()
        return outcome


# ----------------------------------------------------------------------
# obs:funnel-consistency — telemetry vs independent recount
# ----------------------------------------------------------------------
class FunnelConsistencyOracle(Oracle):
    """Funnel telemetry equals an independent survivor recount.

    For each checked query the oracle collects the funnel the search
    pipeline emits, then recounts every stage sequentially through the
    filter's ``funnel_components`` cascade and independently through the
    deployed one-pass ``refutes`` path.  All three views must agree, and
    the funnel's internal invariants (monotone survivors, refined drawn
    from the last stage, results ⊆ refined) must hold.
    """

    name = "obs:funnel-consistency"
    description = "funnel telemetry equals an independent survivor recount"

    def run(self, corpus: VerifyCorpus, distance: DistanceFn) -> OracleOutcome:
        from repro.obs.funnel import collect_funnels
        from repro.search.knn import knn_query
        from repro.search.range_query import range_query

        outcome = OracleOutcome(self.name)
        trees = list(corpus.trees)
        factories: List[Tuple[str, Callable[[], LowerBoundFilter]]] = [
            ("BiBranch", BinaryBranchFilter),
            (
                "Composite",
                lambda: MaxCompositeFilter(
                    [BranchCountFilter(), SizeDifferenceFilter(), HistogramFilter()]
                ),
            ),
        ]
        queries = [pair.t2 for pair in corpus.pairs[:6]]
        for label, factory in factories:
            flt = factory().fit(trees)
            for query in queries:
                query_signature = flt.signature(query)
                for threshold in (1.0, 3.0):
                    outcome.checks += 1
                    with collect_funnels() as sink:
                        matches, stats = range_query(trees, query, threshold, flt)
                    funnel = sink.funnels[0]
                    problems = funnel.check_invariants()
                    # independent sequential recount through the cascade
                    survivors = list(range(len(trees)))
                    recount: List[int] = []
                    for _, refute in flt.funnel_components():
                        survivors = [
                            index
                            for index in survivors
                            if not refute(
                                query_signature,
                                flt.data_signature(index),
                                threshold,
                            )
                        ]
                        recount.append(len(survivors))
                    # the deployed one-pass refutation path must agree
                    direct = sum(
                        1
                        for index in range(len(trees))
                        if not flt.refutes(
                            query_signature, flt.data_signature(index), threshold
                        )
                    )
                    telemetry = [stage.survivors for stage in funnel.stages]
                    final = recount[-1] if recount else len(trees)
                    if telemetry != recount:
                        problems.append(
                            f"telemetry survivors {telemetry} != recount {recount}"
                        )
                    if direct != final:
                        problems.append(
                            f"one-pass refutes kept {direct}, cascade kept {final}"
                        )
                    if funnel.refined != final:
                        problems.append(
                            f"funnel refined {funnel.refined} != survivors {final}"
                        )
                    if funnel.results != len(matches) or funnel.results != stats.results:
                        problems.append(
                            f"funnel results {funnel.results} != answer "
                            f"{len(matches)}"
                        )
                    if problems:
                        outcome.record(
                            Violation(
                                oracle=self.name,
                                message=(
                                    f"{label} range(τ={threshold:g}) funnel "
                                    f"inconsistent: {problems[0]}"
                                ),
                                t1=query,
                                details={
                                    "filter": label,
                                    "threshold": threshold,
                                    "problems": problems,
                                    "funnel": funnel.to_dict(),
                                },
                            )
                        )
                # k-NN: the funnel must mirror the stats and the answer
                outcome.checks += 1
                k = min(3, len(trees))
                with collect_funnels() as sink:
                    matches, stats = knn_query(trees, query, k, flt)
                funnel = sink.funnels[0]
                problems = funnel.check_invariants()
                if funnel.refined != stats.candidates:
                    problems.append(
                        f"funnel refined {funnel.refined} != stats candidates "
                        f"{stats.candidates}"
                    )
                if funnel.results != len(matches):
                    problems.append(
                        f"funnel results {funnel.results} != answer {len(matches)}"
                    )
                if problems:
                    outcome.record(
                        Violation(
                            oracle=self.name,
                            message=(
                                f"{label} knn(k={k}) funnel inconsistent: "
                                f"{problems[0]}"
                            ),
                            t1=query,
                            details={
                                "filter": label,
                                "k": k,
                                "problems": problems,
                                "funnel": funnel.to_dict(),
                            },
                        )
                    )
        return outcome


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_STORE_FILTERS: List[Tuple[str, Callable[[], LowerBoundFilter]]] = [
    ("BiBranch", BinaryBranchFilter),
    ("BiBranch3", lambda: BinaryBranchFilter(q=3)),
    ("BiBranchCount", BranchCountFilter),
    ("BiBranchCount3", lambda: BranchCountFilter(q=3)),
    ("Histo", HistogramFilter),
    (
        "HistoFolded",
        lambda: HistogramFilter(label_bins=4, degree_bins=4, height_cap=4),
    ),
    ("TraversalSED", TraversalStringFilter),
    ("SizeDiff", SizeDifferenceFilter),
    ("HistoLabel", LabelHistogramFilter),
    ("HistoDegree", DegreeHistogramFilter),
    ("HistoHeight", HeightHistogramFilter),
    (
        "Composite",
        lambda: MaxCompositeFilter(
            [BranchCountFilter(), SizeDifferenceFilter(), HistogramFilter()]
        ),
    ),
]

ORACLE_FACTORIES: Dict[str, Callable[[], Oracle]] = {}
for _label, _factory in _STORE_FILTERS:
    ORACLE_FACTORIES[f"bound:{_label}"] = (
        lambda _f=_factory, _l=_label: FilterBoundOracle(_f, _l)
    )
ORACLE_FACTORIES["bound:CostScaled"] = CostScaledBoundOracle
ORACLE_FACTORIES["bound:dominance"] = DominanceOracle
ORACLE_FACTORIES["editdist:metamorphic"] = EditScriptOracle
ORACLE_FACTORIES["refine:cutoff-equivalence"] = RefineCutoffOracle
ORACLE_FACTORIES["metric:bdist"] = BranchMetricOracle
ORACLE_FACTORIES["features:packed-l1"] = PackedVectorOracle
ORACLE_FACTORIES["store:identity"] = lambda: StoreIdentityOracle(_STORE_FILTERS)
ORACLE_FACTORIES["storage:roundtrip"] = RoundTripOracle
ORACLE_FACTORIES["search:completeness"] = SearchCompletenessOracle
ORACLE_FACTORIES["search:vectorized-equivalence"] = VectorizedEquivalenceOracle
ORACLE_FACTORIES["search:index-completeness"] = IndexCompletenessOracle
ORACLE_FACTORIES["service:cache-transparency"] = ServiceCacheOracle
ORACLE_FACTORIES["service:shard-equivalence"] = ShardEquivalenceOracle
ORACLE_FACTORIES["shard:knn-optimality"] = ShardKnnOptimalityOracle
ORACLE_FACTORIES["obs:funnel-consistency"] = FunnelConsistencyOracle


def default_oracle_names() -> List[str]:
    """Every registered oracle, in registry order."""
    return list(ORACLE_FACTORIES)


def make_oracles(names: Optional[Sequence[str]] = None) -> List[Oracle]:
    """Instantiate oracles by name (all of them by default)."""
    if names is None:
        names = default_oracle_names()
    oracles = []
    for name in names:
        try:
            factory = ORACLE_FACTORIES[name]
        except KeyError:
            raise InvalidParameterError(
                f"unknown oracle {name!r} "
                f"(choose from {', '.join(sorted(ORACLE_FACTORIES))})"
            ) from None
        oracles.append(factory())
    return oracles
