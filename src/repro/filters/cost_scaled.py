"""General-cost filtering (the paper's §2.1 extension remark).

All bounds in this package are stated for the unit-cost edit distance.  The
paper notes the approach "can be easily extended to the general edit
distance measure if there is a lower bound on the cost for each edit
operation": a script of cost ``C`` under a model whose effective operations
cost at least ``c_min`` contains at most ``C / c_min`` operations, so

    EDist_general(T1, T2)  >=  c_min · EDist_unit(T1, T2)
                           >=  c_min · unit_lower_bound(T1, T2).

:class:`CostScaledFilter` wraps any unit-cost filter accordingly, letting
the unchanged search algorithms answer queries under weighted cost models
exactly (verified against a weighted sequential scan in the tests).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from repro.editdist.costs import CostModel
from repro.filters.base import LowerBoundFilter, Signature
from repro.trees.node import TreeNode

if TYPE_CHECKING:
    from repro.features.store import FeatureStore

__all__ = ["CostScaledFilter"]


class CostScaledFilter(LowerBoundFilter[Signature]):
    """Adapt a unit-cost lower-bound filter to a general cost model.

    Parameters
    ----------
    inner:
        Any unit-cost filter (BiBranch, histogram, …).
    costs:
        The cost model whose ``min_operation_cost`` scales the bound.

    >>> from repro.filters import BinaryBranchFilter
    >>> from repro.editdist import weighted_costs
    >>> from repro.trees import parse_bracket
    >>> flt = CostScaledFilter(BinaryBranchFilter(), weighted_costs(2, 2, 2))
    >>> flt = flt.fit([parse_bracket("a(b,c)")])
    >>> flt.bounds(parse_bracket("x(y,z)"))[0] >= 2.0
    True
    """

    def __init__(
        self, inner: LowerBoundFilter[Signature], costs: CostModel
    ) -> None:
        super().__init__()
        self.inner = inner
        self.costs = costs
        self.name = f"{inner.name}*{costs.min_operation_cost:g}"

    @property
    def supports_store(self) -> bool:  # type: ignore[override]
        return self.inner.supports_store

    @property
    def signature_depends_on_index(self) -> bool:  # type: ignore[override]
        return self.inner.signature_depends_on_index

    def required_q_levels(self) -> Tuple[int, ...]:
        return self.inner.required_q_levels()

    def _bind_store(self, store: "FeatureStore") -> None:
        self.inner._bind_store(store)

    def signature(self, tree: TreeNode) -> Signature:
        return self.inner.signature(tree)

    def _index_signature(self, tree: TreeNode) -> Signature:
        return self.inner._index_signature(tree)

    def store_signature(self, store: "FeatureStore", index: int) -> Signature:
        return self.inner.store_signature(store, index)

    def bound(self, query: Signature, data: Signature) -> float:
        return self.inner.bound(query, data) * self.costs.min_operation_cost

    # ``reaches`` keeps the base comparison of the scaled bound: handing
    # the inner filter ``target / c_min`` can round differently from the
    # product at the boundary (``3·0.1 ≥ 3·0.1`` holds, yet
    # ``(3·0.1)/0.1 > 3``), and ``reaches`` must equal ``bound ≥ target``.

    def refutes(self, query: Signature, data: Signature, threshold: float) -> bool:
        """Refute ``EDist_general <= threshold`` via the unit-cost filter.

        ``EDist_general <= t`` implies ``EDist_unit <= t / c_min``, so the
        inner filter may refute at the scaled threshold.
        """
        return self.inner.refutes(
            query, data, threshold / self.costs.min_operation_cost
        )
