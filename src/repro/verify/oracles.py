"""The oracle registry: every invariant the system claims, re-checked.

Each oracle audits one class of invariant over a
:class:`~repro.verify.corpus.VerifyCorpus`:

``bound:*``
    Lower-bound **soundness** of every filter against the reference
    Zhang–Shasha distance (Theorems 3.1/4.2 and the ``[4(q−1)+1]·k``
    q-level generalization), plus consistency of the ``refutes`` fast
    paths with the numeric bounds.
``bound:dominance``
    The positional bound equals its definition, the smallest range
    ``pr`` with ``PosBDist(pr) ≤ factor·pr`` found by a linear scan, and
    the exact two-constraint matching never *weakens* the bound.
``editdist:metamorphic``
    The reference distance itself, checked without a second
    implementation: ``EDist(T, apply_script(T, k ops)) ≤ k`` by
    construction, symmetry, and identity on clones.
``refine:cutoff-equivalence``
    The budgeted unit-cost kernel keeps its contract against the
    independent memoized forest DP: exact whenever the distance is within
    the budget, strictly above the budget otherwise; budget doubling from
    any valid lower bound is exact.
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
    Filter-and-refine range/k-NN answers equal brute-force sequential scans,
    and k-NN refines exactly the rows optimal stopping cannot skip.
``search:vectorized-equivalence``
    The corpus-level matrix candidate funnel (:mod:`repro.features.matrix`)
    returns bit-identical answers and identical refined-candidate counts to
    the per-candidate loop — per filter family and through vectorized
    shard workers — including under interleaved adds.
``search:index-completeness``
    Inverted-file range candidates (:mod:`repro.index`) answer exactly
    like the sequential scan and never refine more candidates than the
    vectorized cascade, under interleaved adds.
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
    The coordinator's round-based k-NN refines *exactly* the candidates
    the single-process Algorithm 2 refines — counted by the coordinator
    and by the shards' own distance computations: distributing the
    corpus never gives up the optimal multi-step stopping guarantee.
``obs:funnel-consistency``
    The funnel telemetry (:mod:`repro.obs.funnel`) tells the truth: the
    per-stage survivor counts a traced query reports equal an independent
    sequential recount through each composite child's own ``refutes``,
    the staged recount equals the one-pass ``refutes`` path, and
    every funnel satisfies its monotonicity invariants.

Pairwise oracles expose a ``violates(t1, t2)`` predicate, which is what
lets the runner shrink their violations to minimal counterexamples.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.vectors import branch_distance
from repro.core.positional import positional_branch_distance, search_lower_bound
from repro.core.qlevel import qlevel_bound_factor
from repro.editdist.costs import UNIT_COSTS, weighted_costs
from repro.editdist.mapping import memoized_edit_distance
from repro.editdist.zhang_shasha import (
    EditDistanceCounter,
    prepare_tree,
    tree_edit_distance,
)
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
from repro.filters.registry import FILTERS, bibranch_label_filter
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
#: targets of the ``reaches(t) ⟺ bound ≥ t`` check, beside the bound
#: itself and the bound plus 0.5 and 1: fractional ones catch a cap that
#: forgets the bound is an integer
_REACH_TARGETS = (0.0, 0.5, 1.0, 1.5, 2.0)


def _reaches_mismatch(
    flt: LowerBoundFilter, query: object, data: object, bound: float
) -> Optional[Tuple[str, Dict]]:
    """The first target where ``flt.reaches`` disagrees with ``bound ≥ t``."""
    for target in (*_REACH_TARGETS, bound, bound + 0.5, bound + 1.0):
        reached = flt.reaches(query, data, target)
        if reached != (bound >= target):
            return (
                f"{flt.name}: reaches(t={target:g}) is {reached} "
                f"but the bound is {bound:g}",
                {"target": target, "bound": bound, "kind": "reaches"},
            )
    return None


class FilterBoundOracle(PairOracle):
    """``filter.bound(q, d) ≤ EDist``, ``refutes ⟹ EDist > τ`` and
    ``reaches(t) ⟺ bound ≥ t``.

    The filter is exercised exactly as deployed: a fresh instance is fitted
    on the data tree, the query signature comes from :meth:`signature`, and
    both the numeric bound and the range-refutation fast path are compared
    against the reference distance.  The threshold test ``reaches`` is
    compared with the bound itself, on a query signature nothing has read
    yet (a composite's parts then fill as ``reaches`` reads them).
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
        return _reaches_mismatch(flt, flt.signature(t1), data_signature, bound)

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
    same weighted cost model, including the ``refutes`` fast path, and
    checks ``reaches(t) ⟺ bound ≥ t`` on the scaled bound.
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
        return _reaches_mismatch(flt, flt.signature(t1), data_signature, bound)


class DominanceOracle(PairOracle):
    """``SearchLBound`` against its definition, and exact-matching
    monotonicity (§4.2).

    The positional bound must equal the smallest ``pr`` in
    ``[||T1|−|T2||, max(|T1|,|T2|)]`` with ``PosBDist(pr) ≤
    [4(q−1)+1]·pr``, found here by a linear scan that shares nothing with
    the seeded galloping search, for the greedy matching and (on small
    trees) the exact one.  The exact two-constraint matching can only
    match less than the per-dimension approximation, so the exact bound
    can only be equal or larger.
    """

    name = "bound:dominance"
    description = "positional bound equals its definition; exact never weaker"

    #: exact bipartite matching is O(V·E) per branch — cap the input size
    _EXACT_LIMIT = 14

    def check_pair(self, t1: TreeNode, t2: TreeNode) -> Optional[Tuple[str, Dict]]:
        small = t1.size <= self._EXACT_LIMIT and t2.size <= self._EXACT_LIMIT
        for q in (2, 3):
            bounds = {}
            for exact in (False, True) if small else (False,):
                bound = search_lower_bound(t1, t2, q=q, exact=exact)
                reference = self._smallest_range(t1, t2, q, exact)
                if bound != reference:
                    return (
                        f"positional bound {bound} at q={q} (exact={exact}) "
                        f"is not the smallest satisfying range {reference}",
                        {
                            "q": q,
                            "exact": exact,
                            "positional": bound,
                            "reference": reference,
                            "kind": "definition",
                        },
                    )
                bounds[exact] = bound
            if small and bounds[True] < bounds[False]:
                return (
                    f"exact positional bound {bounds[True]} at q={q} below "
                    f"approximate bound {bounds[False]}",
                    {
                        "q": q,
                        "exact": bounds[True],
                        "approximate": bounds[False],
                        "kind": "exact-dominance",
                    },
                )
        return None

    @staticmethod
    def _smallest_range(t1: TreeNode, t2: TreeNode, q: int, exact: bool) -> int:
        factor = qlevel_bound_factor(q)
        high = max(t1.size, t2.size)
        for pr in range(abs(t1.size - t2.size), high):
            if positional_branch_distance(t1, t2, pr, q=q, exact=exact) <= factor * pr:
                return pr
        return high


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
    """The budgeted kernel entries keep their contracts.

    With ``d`` from the independent memoized forest DP, every budget
    ``b ∈ {0, 0.5, 1, d−1, d, d+1, ∞}`` must give exactly ``d`` when
    ``d ≤ b`` and some value ``> b`` otherwise.  Small budgets exercise the
    k-strip and the size-gap exit, ``d`` itself the tightest strip that must
    still be exact, and ``∞`` the full DP.

    :meth:`~repro.editdist.zhang_shasha.EditDistanceCounter.distance_below`
    at the same values as limits must give exactly ``d`` when ``d < limit``
    and some value ``≥ limit`` otherwise — under unit costs, where the
    traversal-string gate runs, and under an asymmetric weighted model,
    which has no gate.  At ``limit = ∞`` with a lower bound
    ``b ∈ {0, d−1, d}`` seeding its budget doubling, it must give exactly
    ``d`` under unit costs.
    """

    name = "refine:cutoff-equivalence"
    description = "budgeted Zhang–Shasha is exact within its budget"

    #: relabel ≠ delete + insert, and fractional distances
    _COSTS = weighted_costs(2.0, 3.0, 1.5)

    def check_pair(self, t1: TreeNode, t2: TreeNode) -> Optional[Tuple[str, Dict]]:
        reference = memoized_edit_distance(t1, t2)
        a, b = prepare_tree(t1), prepare_tree(t2)
        for budget in self._limits(reference):
            value = tree_edit_distance(a, b, budget=budget)
            within = reference <= budget
            if value != reference if within else not value > budget:
                expected = f"{reference:g}" if within else f"> {budget:g}"
                return (
                    f"budget {budget:g}: got {value:g}, expected {expected}",
                    {"budget": budget, "value": value, "edist": reference},
                )
        weighted = memoized_edit_distance(t1, t2, self._COSTS)
        for costs, distance in ((UNIT_COSTS, reference), (self._COSTS, weighted)):
            counter = EditDistanceCounter(costs)
            for limit in self._limits(distance):
                value = counter.distance_below(t1, t2, limit)
                below = distance < limit
                if not (
                    abs(value - distance) <= _EPS if below else value >= limit - _EPS
                ):
                    model = "unit" if costs is UNIT_COSTS else "weighted"
                    expected = f"{distance:g}" if below else f">= {limit:g}"
                    return (
                        f"distance_below({limit:g}), {model} costs: got "
                        f"{value:g}, expected {expected}",
                        {
                            "limit": limit,
                            "value": value,
                            "edist": distance,
                            "costs": model,
                            "kind": "distance-below",
                        },
                    )
        counter = EditDistanceCounter()
        for bound in (0.0, reference - 1, reference):
            value = counter.distance_below(t1, t2, math.inf, bound)
            if value != reference:
                return (
                    f"distance_below(inf, bound={bound:g}): got {value:g}, "
                    f"expected {reference:g}",
                    {
                        "bound": bound,
                        "value": value,
                        "edist": reference,
                        "kind": "doubling",
                    },
                )
        return None

    @staticmethod
    def _limits(distance: float) -> Tuple[float, ...]:
        return (0.0, 0.5, 1.0, distance - 1, distance, distance + 1, math.inf)


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
    """save/load round-trip: one extraction pass per tree, identical answers."""

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
            passes = (
                None if loaded.features is None else loaded.features.extraction_passes
            )
            if passes != len(corpus.trees):
                outcome.record(
                    Violation(
                        oracle=self.name,
                        message=(
                            f"loaded database made {passes} extraction passes "
                            f"over {len(corpus.trees)} trees"
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
    """Range/k-NN through the filter pipeline equal brute-force answers,
    and the k-NN refined count is the minimal one for the filter's bounds."""

    name = "search:completeness"
    description = "filtered range/k-NN answers equal sequential ground truth"

    def run(self, corpus: VerifyCorpus, distance: DistanceFn) -> OracleOutcome:
        from repro.search.database import TreeDatabase

        outcome = OracleOutcome(self.name)
        database = TreeDatabase(list(corpus.trees))
        for pair in corpus.pairs[:10]:
            query = pair.t2
            # fractional τ: the refine limit ⌊τ⌋ + 1 must keep every d ≤ τ
            for threshold in (1.0, 1.5, 2.5, 3.0):
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
            filtered_knn, knn_stats = database.knn(query, k)
            ranked = database.sequential_knn(query, len(database))[0]
            sequential_knn = ranked[:k]
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
            outcome.checks += 1
            distances = [distance for _, distance in sorted(ranked)]
            minimal = _minimal_knn_refines(
                database.filter.bounds(query), distances, k
            )
            if knn_stats.candidates != minimal:
                outcome.record(
                    Violation(
                        oracle=self.name,
                        message=(
                            f"k-NN refined {knn_stats.candidates} trees; "
                            f"optimal stopping refines {minimal}"
                        ),
                        t1=query,
                        details={
                            "k": k,
                            "refined": knn_stats.candidates,
                            "minimal": minimal,
                        },
                    )
                )
        return outcome


def _minimal_knn_refines(
    bounds: Sequence[float], distances: Sequence[float], k: int
) -> int:
    """Rows optimal multi-step k-NN refines over ``bounds``.

    Rows are taken in ``(bound, row)`` order up to the first one with at
    least ``k`` earlier rows at a distance ≤ its bound: the heap is then
    full with a k-th distance ≤ that bound, and every later distance is at
    least the bound, so no later row can enter.
    """
    order = sorted(range(len(bounds)), key=lambda row: (bounds[row], row))
    earlier: List[float] = []
    for position, row in enumerate(order):
        if bisect.bisect_right(earlier, bounds[row]) >= k:
            return position
        bisect.insort(earlier, distances[row])
    return len(order)


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
    coordinator, so the check also covers post-mutation layouts; every
    worker interns its own rows, so the shards' vocabularies differ from
    each other and from the reference database's.
    """

    name = "service:shard-equivalence"
    description = "sharded answers equal single-process answers at every step"

    #: layouts under test: both partitioners, an uneven shard count, and
    #: two more filter families (count bound ⇒ different frontier orders;
    #: the serving filter ⇒ each worker's own histogram planes)
    _CONFIGS = (
        (2, "round-robin", "bibranch"),
        (3, "size-banded", "bibranch"),
        (2, "round-robin", "bibranchcount"),
        (2, "round-robin", "bibranch+label"),
    )

    def run(self, corpus: VerifyCorpus, distance: DistanceFn) -> OracleOutcome:
        from repro.search.database import TreeDatabase
        from repro.search.knn import knn_query
        from repro.search.range_query import range_query
        from repro.sharding.coordinator import ShardedTreeService

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
                        list(shadow), flt=FILTERS[filter_name]()
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


def _shard_distances(service) -> int:
    """Exact distances the service's shard workers have computed so far."""
    return sum(
        int(shard["distance_computations"]) for shard in service.health()["shards"]
    )


def _shard_replay_candidates(service, trees, filter_name, query, k) -> int:
    """Rows ``knn_query`` refines over each shard's rows alone, summed.

    A sharded k-NN runs Algorithm 2 on every shard (``docs/THEORY.md``
    §13), so this is exactly what it refines.  The replay is the loop
    path (no planes) over the layout in the service's ``ShardAssignment``.
    """
    from repro.search.database import TreeDatabase

    total = 0
    for members in service._assignment.by_shard:
        if members:
            replay = TreeDatabase(
                [trees[row] for row in members], flt=FILTERS[filter_name]()
            )
            total += replay.knn(query, min(k, len(members)))[1].candidates
    return total


class ShardKnnOptimalityOracle(Oracle):
    """Each shard refines exactly its own single-process Algorithm 2 rows.

    A sharded k-NN runs Algorithm 2 on every shard over that shard's rows
    and merges the shards' heaps (``docs/THEORY.md`` §13).  Algorithm 2's
    optimality theorem makes each shard's refined set the unique minimal
    one its bounds permit, so this oracle replays ``knn_query`` on every
    shard's rows alone (the layout read from the service's
    ``ShardAssignment``) and requires, at several ``k``, neighbours equal
    to single-process ones, tie members included, **and** a refined count
    equal to the replays' sum — a shard that refines even one extra tree
    breaks it.  The count is taken twice: from the coordinator's
    ``candidates`` and from the shards' own ``distance_computations``
    delta, so a shard that refines rows it does not report fails too.
    """

    name = "shard:knn-optimality"
    description = (
        "sharded k-NN equals single-process; each shard refines exactly "
        "its own Algorithm 2 rows"
    )

    _CONFIGS = (
        (2, "round-robin", "bibranch"),
        (3, "size-banded", "bibranch"),
        (2, "round-robin", "bibranch+label"),
    )
    _KS = (1, 2, 4)

    def run(self, corpus: VerifyCorpus, distance: DistanceFn) -> OracleOutcome:
        from repro.search.database import TreeDatabase
        from repro.sharding.coordinator import ShardedTreeService

        outcome = OracleOutcome(self.name)
        trees = list(corpus.trees)
        queries = [pair.t2 for pair in corpus.pairs[:6]]
        for shards, partitioner, filter_name in self._CONFIGS:
            reference = TreeDatabase(
                list(trees), flt=FILTERS[filter_name]()
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
                        before = _shard_distances(service)
                        served, stats = service.knn(query, k)
                        computed = _shard_distances(service) - before
                        expected = reference.knn(query, k)[0]
                        replayed = _shard_replay_candidates(
                            service, trees, filter_name, query, k
                        )
                        problem = None
                        if served != expected:
                            problem = "neighbours differ from single-process"
                        elif stats.candidates != replayed:
                            problem = (
                                f"refined {stats.candidates} candidates, the "
                                f"per-shard replays refined {replayed}"
                            )
                        elif computed != replayed:
                            problem = (
                                f"shards computed {computed} distances, the "
                                f"per-shard replays refined {replayed}"
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
                                        "shard_distances": computed,
                                        "expected_candidates": replayed,
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
      the loop's refutations, never more, never fewer.  For k-NN the
      matrix path is the lazy :class:`~repro.search.knn.BoundStream` over
      the filter's ordering keys and the loop path the full
      ``(bound, row)`` sort, so the ``BiBranch`` family pins the lazy
      order against the sort and ``BiBranchCount`` pins its ⌈L1/factor⌉
      kernel against the loop.
    * **sharded**: a :class:`~repro.sharding.coordinator.ShardedTreeService`
      (every worker's planes built from its own rows) against a fresh
      loop-path reference database at every schedule step; a k-NN's
      refined count against loop-path replays over each shard's rows,
      since every shard runs its own Algorithm 2.
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
        ("BiBranch+Label", bibranch_label_filter),
    )
    _SHARD_CONFIGS = (
        (2, "round-robin", "bibranch"),
        (2, "size-banded", "bibranchcount"),
        (2, "round-robin", "bibranch+label"),
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

        for shards, partitioner, filter_name in self._SHARD_CONFIGS:
            shadow = list(corpus.trees)
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
                        list(shadow), flt=FILTERS[filter_name]()
                    )
                    if kind == "range":
                        served, stats = service.range(query, parameter)
                        expected, ref_stats = range_query(
                            reference.trees, query, parameter,
                            reference.filter, reference.counter,
                        )
                        expected_candidates = ref_stats.candidates
                    else:
                        k = min(int(parameter), len(shadow))
                        served, stats = service.knn(query, k)
                        expected = knn_query(
                            reference.trees, query, k,
                            reference.filter, reference.counter,
                        )[0]
                        # each shard runs its own Alg. 2 (THEORY.md §13)
                        expected_candidates = _shard_replay_candidates(
                            service, shadow, filter_name, query, k
                        )
                    problem = None
                    if served != expected:
                        problem = "answers differ"
                    elif stats.candidates != expected_candidates:
                        problem = (
                            f"vectorized shards refined {stats.candidates} "
                            f"candidates, loop refined {expected_candidates}"
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
                                "expected_candidates": expected_candidates,
                            },
                        )
            finally:
                service.close()
        return outcome


# ----------------------------------------------------------------------
# search:index-completeness — inverted-file candidates are exact
# ----------------------------------------------------------------------
class IndexCompletenessOracle(Oracle):
    """Inverted-file range candidates are exact and never over-refine.

    Replays the interleaved add/query schedule so the generation-stamped
    incremental sync is on the hook, not just the cold build.  Per filter
    family, every scheduled range query is answered three ways over the
    same fitted filter — sequential scan (ground truth), vectorized
    cascade, and index-pruned cascade.  The index answers must equal the
    sequential matches exactly (the BDist ball may never drop a true
    result) and must refine **at most** as many candidates as the
    vectorized path (the ball only shrinks the cascade's domain).
    """

    name = "search:index-completeness"
    description = "inverted-file candidates: exact answers, <= vectorized work"

    _FAMILIES: Sequence[Tuple[str, Callable[[], LowerBoundFilter]]] = (
        ("BiBranch", BinaryBranchFilter),
        ("BiBranchCount", BranchCountFilter),
        ("Histo", HistogramFilter),
    )

    def run(self, corpus: VerifyCorpus, distance: DistanceFn) -> OracleOutcome:
        from repro.index import ExtendedInvertedFile
        from repro.search.range_query import range_query
        from repro.search.sequential import sequential_range_query

        outcome = OracleOutcome(self.name)
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
                _, query_kind, query, threshold = entry
                if query_kind != "range":
                    continue
                outcome.checks += 1
                sequential, _ = sequential_range_query(shadow, query, threshold)
                fast_answer, fast_stats = range_query(
                    shadow, query, threshold, flt, matrices=matrices
                )
                indexed, indexed_stats = range_query(
                    shadow, query, threshold, flt,
                    matrices=matrices, index=index,
                )
                if indexed != sequential:
                    problem = "range answers differ from sequential"
                elif indexed_stats.candidates > fast_stats.candidates:
                    problem = (
                        f"index refined {indexed_stats.candidates} "
                        f"candidates, vectorized only {fast_stats.candidates}"
                    )
                else:
                    continue
                outcome.record(
                    Violation(
                        oracle=self.name,
                        message=f"{label} range at schedule step {step}: {problem}",
                        t1=query,
                        details={
                            "filter": label,
                            "step": step,
                            "threshold": threshold,
                            "sequential": sequential,
                            "indexed": indexed,
                            "vectorized_candidates": fast_stats.candidates,
                            "indexed_candidates": indexed_stats.candidates,
                        },
                    )
                )
        return outcome


# ----------------------------------------------------------------------
# obs:funnel-consistency — telemetry vs independent recount
# ----------------------------------------------------------------------
class FunnelConsistencyOracle(Oracle):
    """Funnel telemetry equals an independent survivor recount.

    For each checked query the oracle collects the funnel the search
    pipeline emits, then recounts every stage sequentially, child by
    child through each composite child's own ``refutes`` (the filter
    itself for a single filter), and independently through the one-pass
    ``refutes`` path.  All three views must agree, and
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
                    # independent recount, child by child through each
                    # child's own `refutes` (not the cascade under test)
                    signatures = [
                        flt.data_signature(index) for index in range(len(trees))
                    ]
                    if isinstance(flt, MaxCompositeFilter):
                        parts = [
                            (
                                child,
                                query_signature[position],
                                [data[position] for data in signatures],
                            )
                            for position, child in enumerate(flt.filters)
                        ]
                    else:
                        parts = [(flt, query_signature, signatures)]
                    survivors = list(range(len(trees)))
                    recount: List[int] = []
                    for child, child_query, child_data in parts:
                        survivors = [
                            index
                            for index in survivors
                            if not child.refutes(
                                child_query, child_data[index], threshold
                            )
                        ]
                        recount.append(len(survivors))
                    # the one-pass `refutes` must agree
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
                            f"one-pass refutes kept {direct}, recount kept {final}"
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
    ("BiBranch+Label", bibranch_label_filter),
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
