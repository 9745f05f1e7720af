"""Filter-funnel telemetry: who pruned what, per query and per corpus.

The paper's whole efficiency argument is a funnel — corpus → filter
survivors → refined candidates → results — yet an aggregate candidate
count cannot say *which* filter stage did the pruning or whether a change
silently degraded selectivity.  This module records the funnel explicitly:

* :class:`FilterFunnel` — one query's complete funnel: corpus size, one
  :class:`FunnelStage` per filter stage (entered / survivors / seconds),
  then the refinement outcome (refined, results, false positives);
* :func:`record_funnel` — the one place a search path builds its funnel
  record from its finished ``SearchStats``;
* :func:`collect_funnels` — a contextvars-scoped collector; inside the
  ``with`` block every search call records its funnel into the yielded
  :class:`FunnelSink` (and onto its ``SearchStats.funnel``), across thread
  hops when the context is propagated;
* :class:`FunnelAggregate` — corpus-level selectivity statistics folded
  from many funnels, grouped by query kind and stage.

Funnels obey two invariants the CI job and the ``obs:funnel-consistency``
oracle enforce: survivor counts are monotonically non-increasing through
the stages, and the refined set is drawn from the last stage's survivors
(``refined ≤`` last survivors, ``results ≤ refined``).
"""

from __future__ import annotations

import threading
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # import cycle: SearchStats carries a FilterFunnel
    from repro.search.statistics import SearchStats

__all__ = [
    "FunnelStage",
    "FilterFunnel",
    "FunnelSink",
    "FunnelAggregate",
    "collect_funnels",
    "active_sink",
    "record_funnel",
]


@dataclass
class FunnelStage:
    """One filter stage's contribution to a query's funnel."""

    name: str
    #: candidates entering this stage (= previous stage's survivors)
    entered: int
    #: candidates the stage could not refute
    survivors: int
    seconds: float = 0.0

    @property
    def refuted(self) -> int:
        """Candidates this stage pruned."""
        return self.entered - self.survivors

    @property
    def selectivity(self) -> float:
        """Fraction of entrants that survive (0.0 for an empty stage).

        An empty stage (empty corpus, or a cascade that pruned everything
        upstream) has no entrants to select from; reporting 0.0 keeps the
        value a safe ratio — never a ZeroDivisionError, and never the
        misleading "kept 100%" an empty stage used to report.
        """
        return self.survivors / self.entered if self.entered else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "entered": self.entered,
            "survivors": self.survivors,
            "refuted": self.refuted,
            "selectivity": self.selectivity,
            "seconds": self.seconds,
        }


@dataclass
class FilterFunnel:
    """One query's funnel record, from corpus to results."""

    kind: str
    corpus_size: int
    stages: List[FunnelStage] = field(default_factory=list)
    #: candidates handed to the exact edit-distance refinement
    refined: int = 0
    #: candidates confirmed by refinement (the answer size)
    results: int = 0
    refine_seconds: float = 0.0
    #: refine attempts the traversal-string gate settled without the DP
    gated: int = 0
    #: the query parameter (range threshold or k)
    parameter: float = 0.0

    @property
    def false_positives(self) -> int:
        """Refined candidates the exact distance rejected."""
        return self.refined - self.results

    @property
    def survivors(self) -> int:
        """Survivors of the last filter stage (corpus size with no stages)."""
        return self.stages[-1].survivors if self.stages else self.corpus_size

    @property
    def selectivity(self) -> float:
        """End-to-end filter selectivity: last survivors / corpus size.

        0.0 on an empty corpus (a ratio over nothing is no survivors, not
        a division error).
        """
        return self.survivors / self.corpus_size if self.corpus_size else 0.0

    @property
    def filter_seconds(self) -> float:
        """Total seconds spent across the filter stages."""
        return sum(stage.seconds for stage in self.stages)

    def survivor_counts(self) -> List[int]:
        """``[corpus, stage1 survivors, …, refined, results]`` — the funnel."""
        return (
            [self.corpus_size]
            + [stage.survivors for stage in self.stages]
            + [self.refined, self.results]
        )

    def check_invariants(self) -> List[str]:
        """Violated funnel invariants (empty list = consistent record)."""
        problems: List[str] = []
        previous = self.corpus_size
        for stage in self.stages:
            if stage.entered != previous:
                problems.append(
                    f"stage {stage.name!r} entered {stage.entered} but the "
                    f"previous stage left {previous} survivors"
                )
            if stage.survivors > stage.entered:
                problems.append(
                    f"stage {stage.name!r} survivors {stage.survivors} exceed "
                    f"entrants {stage.entered}"
                )
            previous = stage.survivors
        if self.refined > previous:
            problems.append(
                f"refined {self.refined} candidates but only {previous} "
                "survived filtering"
            )
        if self.results > self.refined:
            problems.append(
                f"{self.results} results from only {self.refined} refined "
                "candidates"
            )
        counts = self.survivor_counts()
        if any(b > a for a, b in zip(counts, counts[1:])):
            problems.append(f"survivor counts not monotone: {counts}")
        return problems

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "parameter": self.parameter,
            "corpus_size": self.corpus_size,
            "stages": [stage.to_dict() for stage in self.stages],
            "refined": self.refined,
            "results": self.results,
            "false_positives": self.false_positives,
            "filter_seconds": self.filter_seconds,
            "refine_seconds": self.refine_seconds,
            "gated": self.gated,
            "survivor_counts": self.survivor_counts(),
        }

    def format_table(self) -> str:
        """Human-readable funnel table for one query."""
        rows = [("stage", "entered", "survivors", "refuted", "seconds")]
        rows.append(("corpus", "", f"{self.corpus_size}", "", ""))
        for stage in self.stages:
            rows.append(
                (
                    f"filter:{stage.name}",
                    f"{stage.entered}",
                    f"{stage.survivors}",
                    f"{stage.refuted}",
                    f"{stage.seconds:.6f}",
                )
            )
        rows.append(
            (
                "refine",
                f"{self.refined}",
                f"{self.results}",
                f"{self.false_positives}",
                f"{self.refine_seconds:.6f}",
            )
        )
        widths = [max(len(row[col]) for row in rows) for col in range(5)]
        lines = []
        for index, row in enumerate(rows):
            lines.append(
                "  ".join(cell.ljust(widths[col]) for col, cell in enumerate(row)).rstrip()
            )
            if index == 0:
                lines.append("  ".join("-" * widths[col] for col in range(5)))
        return "\n".join(lines)


class FunnelSink:
    """Thread-safe collector the search functions append funnels to."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.funnels: List[FilterFunnel] = []

    def add(self, funnel: FilterFunnel) -> None:
        with self._lock:
            self.funnels.append(funnel)

    def __len__(self) -> int:
        return len(self.funnels)

    def __iter__(self):
        return iter(list(self.funnels))

    def aggregate(self) -> "FunnelAggregate":
        """Fold every collected funnel into corpus-level statistics."""
        aggregate = FunnelAggregate()
        for funnel in self:
            aggregate.add(funnel)
        return aggregate


#: The active sink of the current execution context (None = not collecting).
_SINK: "ContextVar[Optional[FunnelSink]]" = ContextVar(
    "repro_obs_funnel_sink", default=None
)


def active_sink() -> Optional[FunnelSink]:
    """The context's funnel sink, or ``None`` when collection is off."""
    return _SINK.get()


def record_funnel(
    stats: "SearchStats",
    kind: str,
    parameter: float,
    stages: List[FunnelStage],
    sink: Optional[FunnelSink],
) -> None:
    """Attach the funnel of a finished query to ``stats`` and hand it to ``sink``.

    Corpus size, refined count, results, refine seconds and gated count
    come from ``stats``; ``stages`` are the query's filter stages (none
    for a sequential scan).  Callers decide whether anyone is observing.
    """
    stats.funnel = FilterFunnel(
        kind=kind,
        corpus_size=stats.dataset_size,
        stages=stages,
        refined=stats.candidates,
        results=stats.results,
        refine_seconds=stats.refine_seconds,
        gated=stats.gated,
        parameter=parameter,
    )
    if sink is not None:
        sink.add(stats.funnel)


class collect_funnels:
    """Context manager scoping funnel collection to a block.

    >>> from repro.trees import parse_bracket
    >>> from repro.search.range_query import range_query
    >>> from repro.filters.binary_branch import BinaryBranchFilter
    >>> trees = [parse_bracket("a(b,c)"), parse_bracket("x(y)")]
    >>> with collect_funnels() as sink:
    ...     _ = range_query(trees, parse_bracket("a(b,c)"), 1.0,
    ...                     BinaryBranchFilter().fit(trees))
    >>> sink.funnels[0].corpus_size
    2
    """

    def __init__(self) -> None:
        self.sink = FunnelSink()
        self._token = None

    def __enter__(self) -> FunnelSink:
        self._token = _SINK.set(self.sink)
        return self.sink

    def __exit__(self, *exc_info) -> bool:
        _SINK.reset(self._token)
        return False


@dataclass
class _StageAggregate:
    """Running totals for one (kind, stage position) cell."""

    name: str
    queries: int = 0
    entered: int = 0
    survivors: int = 0
    seconds: float = 0.0

    @property
    def selectivity(self) -> float:
        # 0.0 for an empty cell, mirroring FunnelStage.selectivity
        return self.survivors / self.entered if self.entered else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "queries": self.queries,
            "entered": self.entered,
            "survivors": self.survivors,
            "refuted": self.entered - self.survivors,
            "selectivity": self.selectivity,
            "seconds": self.seconds,
        }


class FunnelAggregate:
    """Corpus-level selectivity statistics folded from many funnels.

    Grouped by query kind (stage layouts differ between range and k-NN
    pipelines), then by stage position.
    """

    def __init__(self) -> None:
        self.queries = 0
        self._kinds: Dict[str, Dict[str, object]] = {}

    def add(self, funnel: FilterFunnel) -> None:
        """Fold one query's funnel into the totals."""
        self.queries += 1
        entry = self._kinds.setdefault(
            funnel.kind,
            {
                "queries": 0,
                "corpus": 0,
                "refined": 0,
                "results": 0,
                "false_positives": 0,
                "refine_seconds": 0.0,
                "gated": 0,
                "stages": [],
            },
        )
        entry["queries"] += 1
        entry["corpus"] += funnel.corpus_size
        entry["refined"] += funnel.refined
        entry["results"] += funnel.results
        entry["false_positives"] += funnel.false_positives
        entry["refine_seconds"] += funnel.refine_seconds
        entry["gated"] += funnel.gated
        stages: List[_StageAggregate] = entry["stages"]
        for position, stage in enumerate(funnel.stages):
            if position == len(stages):
                stages.append(_StageAggregate(stage.name))
            cell = stages[position]
            cell.queries += 1
            cell.entered += stage.entered
            cell.survivors += stage.survivors
            cell.seconds += stage.seconds

    def cost_report(self):
        """Per-stage cost accounting over the folded funnels.

        Joins each stage's survivor counts with its measured seconds into
        per-candidate unit costs and a predicted-vs-actual cascade cost
        comparison; see :func:`repro.perf.costs.cost_reports`.  Returns
        ``{kind: CascadeCostReport}``.
        """
        from repro.perf.costs import cost_reports  # local: perf builds on obs

        return cost_reports(self)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable summary (what ``--funnel-export`` writes)."""
        kinds = {}
        for kind, entry in sorted(self._kinds.items()):
            corpus = entry["corpus"]
            kinds[kind] = {
                "queries": entry["queries"],
                "corpus_considered": corpus,
                "refined": entry["refined"],
                "results": entry["results"],
                "false_positives": entry["false_positives"],
                "refined_fraction": entry["refined"] / corpus if corpus else 0.0,
                "refine_seconds": entry["refine_seconds"],
                "gated": entry["gated"],
                "stages": [cell.to_dict() for cell in entry["stages"]],
            }
        return {"queries": self.queries, "kinds": kinds}

    def format_table(self) -> str:
        """Human-readable aggregate funnel, one block per query kind."""
        if not self.queries:
            return "(no funnels collected)"
        lines: List[str] = []
        summary = self.to_dict()
        for kind, entry in summary["kinds"].items():
            lines.append(
                f"{kind}: {entry['queries']} queries, "
                f"{entry['corpus_considered']} objects considered"
            )
            for cell in entry["stages"]:
                lines.append(
                    f"  filter:{cell['name']:<16} kept {cell['survivors']}"
                    f"/{cell['entered']} "
                    f"(selectivity {cell['selectivity']:.1%}, "
                    f"{cell['seconds']:.4f}s)"
                )
            lines.append(
                f"  refine{'':<17} {entry['results']} results from "
                f"{entry['refined']} refined "
                f"({entry['false_positives']} false positives, "
                f"{entry['refine_seconds']:.4f}s)"
            )
        return "\n".join(lines)
