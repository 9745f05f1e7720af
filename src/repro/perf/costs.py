"""Per-stage cost accounting: the paper's cost model, measured.

A filter cascade is worth running when, per stage,

    refuted × refine_unit_cost  >  stage_seconds

— the refinements the stage *saved* cost more than the stage itself.
This module joins a :class:`~repro.obs.funnel.FunnelAggregate`'s survivor
counts with the measured per-stage seconds into exactly that ledger:

* :class:`StageCost` — one stage's unit cost (seconds per candidate
  entering), selectivity, and net benefit in seconds (refinements saved,
  priced at the measured refine unit cost, minus the stage's own cost);
* :class:`CascadeCostReport` — one query kind's whole cascade: actual
  seconds (filters + refine), the linear-model *predicted* seconds
  (Σ entered×unit + refined×refine_unit — a self-consistency check), and
  the predicted cost of refining the entire corpus unfiltered, whose
  ratio to the actual seconds is the cascade's measured speedup.

Everything guards empty inputs (zero queries, empty corpus, stages with
no entrants) by reporting 0.0 — cost accounting must never crash the
query path it measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Protocol


class _SupportsToDict(Protocol):
    """What :func:`cost_reports` needs from a funnel aggregate.

    A structural type instead of the concrete
    :class:`~repro.obs.funnel.FunnelAggregate` keeps this module
    importable (and type-checkable) without the obs package.
    """

    def to_dict(self) -> Dict[str, Any]: ...

__all__ = [
    "StageCost",
    "CascadeCostReport",
    "cost_reports",
    "format_cost_reports",
]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


@dataclass
class StageCost:
    """One filter stage's measured economics across an aggregate."""

    name: str
    queries: int
    entered: int
    survivors: int
    seconds: float
    #: measured refine seconds per refined candidate, shared by the cascade
    refine_unit_cost: float

    @property
    def refuted(self) -> int:
        return self.entered - self.survivors

    @property
    def selectivity(self) -> float:
        return _ratio(self.survivors, self.entered)

    @property
    def unit_cost(self) -> float:
        """Seconds this stage spends per candidate entering it."""
        return _ratio(self.seconds, self.entered)

    @property
    def saved_refine_seconds(self) -> float:
        """Refine seconds avoided: refuted candidates × refine unit cost."""
        return self.refuted * self.refine_unit_cost

    @property
    def net_benefit_seconds(self) -> float:
        """Seconds saved minus seconds spent (negative = stage not paying)."""
        return self.saved_refine_seconds - self.seconds

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "queries": self.queries,
            "entered": self.entered,
            "survivors": self.survivors,
            "refuted": self.refuted,
            "selectivity": self.selectivity,
            "seconds": self.seconds,
            "unit_cost_seconds": self.unit_cost,
            "saved_refine_seconds": self.saved_refine_seconds,
            "net_benefit_seconds": self.net_benefit_seconds,
        }


@dataclass
class CascadeCostReport:
    """One query kind's cascade, predicted vs actual."""

    kind: str
    queries: int
    corpus_considered: int
    refined: int
    results: int
    refine_seconds: float
    #: refine attempts the traversal-string gate settled without the DP
    gated: int = 0
    stages: List[StageCost] = field(default_factory=list)

    @property
    def filter_seconds(self) -> float:
        return sum(stage.seconds for stage in self.stages)

    @property
    def actual_seconds(self) -> float:
        """Measured cascade cost: every filter stage plus the refinement."""
        return self.filter_seconds + self.refine_seconds

    @property
    def refine_unit_cost(self) -> float:
        """Measured seconds per refined candidate (0.0 with no refinement)."""
        return _ratio(self.refine_seconds, self.refined)

    @property
    def predicted_seconds(self) -> float:
        """Linear cost model: Σ entered×unit_cost + refined×refine_unit.

        By construction this reproduces the actual seconds when every
        stage's cost is linear in its entrants — deviations flag stages
        whose per-candidate cost assumption does not hold.
        """
        return (
            sum(stage.entered * stage.unit_cost for stage in self.stages)
            + self.refined * self.refine_unit_cost
        )

    @property
    def predicted_unfiltered_seconds(self) -> float:
        """Cost of refining the whole corpus at the measured unit cost."""
        return self.corpus_considered * self.refine_unit_cost

    @property
    def speedup_vs_unfiltered(self) -> float:
        """How many times cheaper the cascade is than refining everything."""
        return _ratio(self.predicted_unfiltered_seconds, self.actual_seconds)

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "queries": self.queries,
            "corpus_considered": self.corpus_considered,
            "refined": self.refined,
            "results": self.results,
            "filter_seconds": self.filter_seconds,
            "refine_seconds": self.refine_seconds,
            "gated": self.gated,
            "actual_seconds": self.actual_seconds,
            "refine_unit_cost_seconds": self.refine_unit_cost,
            "predicted_seconds": self.predicted_seconds,
            "predicted_unfiltered_seconds": self.predicted_unfiltered_seconds,
            "speedup_vs_unfiltered": self.speedup_vs_unfiltered,
            "stages": [stage.to_dict() for stage in self.stages],
        }


def cost_reports(aggregate: _SupportsToDict) -> Dict[str, CascadeCostReport]:
    """Build one :class:`CascadeCostReport` per query kind.

    ``aggregate`` is a :class:`~repro.obs.funnel.FunnelAggregate` (typed
    structurally: only its :meth:`to_dict` schema is consumed, which
    keeps this importable without the obs package at type-check time).
    """
    reports: Dict[str, CascadeCostReport] = {}
    summary = aggregate.to_dict()
    for kind, entry in summary["kinds"].items():
        refine_unit = _ratio(entry["refine_seconds"], entry["refined"])
        report = CascadeCostReport(
            kind=kind,
            queries=entry["queries"],
            corpus_considered=entry["corpus_considered"],
            refined=entry["refined"],
            results=entry["results"],
            refine_seconds=entry["refine_seconds"],
            gated=entry["gated"],
        )
        for cell in entry["stages"]:
            report.stages.append(
                StageCost(
                    name=cell["name"],
                    queries=cell["queries"],
                    entered=cell["entered"],
                    survivors=cell["survivors"],
                    seconds=cell["seconds"],
                    refine_unit_cost=refine_unit,
                )
            )
        reports[kind] = report
    return reports


def format_cost_reports(reports: Dict[str, CascadeCostReport]) -> str:
    """Human-readable cost ledger, one block per query kind."""
    if not reports:
        return "(no funnels collected - nothing to cost)"
    lines: List[str] = []
    for kind in sorted(reports):
        report = reports[kind]
        lines.append(
            f"{kind}: {report.queries} queries over "
            f"{report.corpus_considered} candidates"
        )
        for stage in report.stages:
            lines.append(
                f"  stage {stage.name:<18} "
                f"unit {stage.unit_cost * 1e6:9.3f} us  "
                f"refuted {stage.refuted:>8}  "
                f"saved {stage.saved_refine_seconds:8.4f}s  "
                f"net {stage.net_benefit_seconds:+8.4f}s"
            )
        lines.append(
            f"  refine {'':<17} "
            f"unit {report.refine_unit_cost * 1e6:9.3f} us  "
            f"refined {report.refined:>8}  "
            f"gated {report.gated:>8}  "
            f"spent {report.refine_seconds:8.4f}s"
        )
        lines.append(
            f"  cascade actual {report.actual_seconds:.4f}s · "
            f"predicted {report.predicted_seconds:.4f}s · "
            f"unfiltered {report.predicted_unfiltered_seconds:.4f}s · "
            f"speedup {report.speedup_vs_unfiltered:.1f}x"
        )
    return "\n".join(lines)
