"""Verification reporting: per-oracle outcomes, violations, JSON snapshots.

Every oracle folds its work into an :class:`OracleOutcome` (checks performed,
violations found, wall time), the run aggregates them in a
:class:`VerifyReport`, and ``snapshot()`` / ``to_json()`` produce the
plain-dict / JSON views the CLI and the CI artifact uploader consume.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.trees.node import TreeNode
from repro.trees.parse import to_bracket

__all__ = ["Violation", "OracleOutcome", "VerifyReport"]

#: Re-evaluates one violation on a substituted pair of trees; drives the
#: shrinker.  Not serialised — repro files carry the oracle name instead.
PairPredicate = Callable[[TreeNode, TreeNode], bool]


@dataclass
class Violation:
    """One broken invariant, with everything needed to reproduce it.

    ``t1``/``t2`` are the trees the oracle failed on (``t2`` may be absent
    for single-tree or stateful checks); ``shrunk1``/``shrunk2`` are filled
    in by the runner when the violation carries a :attr:`predicate`.
    """

    oracle: str
    message: str
    t1: Optional[TreeNode] = None
    t2: Optional[TreeNode] = None
    details: Dict[str, object] = field(default_factory=dict)
    predicate: Optional[PairPredicate] = None
    shrunk1: Optional[TreeNode] = None
    shrunk2: Optional[TreeNode] = None

    @property
    def shrunk_size(self) -> Optional[int]:
        """Total node count of the shrunk counterexample (None if unshrunk)."""
        if self.shrunk1 is None:
            return None
        size = self.shrunk1.size
        if self.shrunk2 is not None:
            size += self.shrunk2.size
        return size

    def to_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "oracle": self.oracle,
            "message": self.message,
            "details": dict(self.details),
        }
        if self.t1 is not None:
            record["t1"] = to_bracket(self.t1)
        if self.t2 is not None:
            record["t2"] = to_bracket(self.t2)
        if self.shrunk1 is not None:
            record["shrunk1"] = to_bracket(self.shrunk1)
            if self.shrunk2 is not None:
                record["shrunk2"] = to_bracket(self.shrunk2)
            record["shrunk_size"] = self.shrunk_size
        return record


@dataclass
class OracleOutcome:
    """One oracle's tally over a corpus."""

    name: str
    checks: int = 0
    violations: List[Violation] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def record(self, violation: Violation) -> None:
        self.violations.append(violation)

    def to_dict(self) -> Dict[str, object]:
        return {
            "checks": self.checks,
            "violations": len(self.violations),
            "seconds": self.seconds,
            "ok": self.ok,
        }


class VerifyReport:
    """Aggregate of one verification run, with plain-dict / JSON views."""

    def __init__(self, seed: int, budget: str) -> None:
        self.seed = seed
        self.budget = budget
        self.outcomes: List[OracleOutcome] = []

    def add(self, outcome: OracleOutcome) -> None:
        self.outcomes.append(outcome)

    @property
    def ok(self) -> bool:
        """True when no oracle found a violation."""
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def checks(self) -> int:
        return sum(outcome.checks for outcome in self.outcomes)

    @property
    def violations(self) -> List[Violation]:
        return [v for outcome in self.outcomes for v in outcome.violations]

    def snapshot(self) -> Dict[str, object]:
        """Point-in-time view as a plain JSON-serialisable dict."""
        return {
            "seed": self.seed,
            "budget": self.budget,
            "ok": self.ok,
            "checks": self.checks,
            "violations": len(self.violations),
            "oracles": {
                outcome.name: outcome.to_dict() for outcome in self.outcomes
            },
            "violation_records": [v.to_dict() for v in self.violations],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """:meth:`snapshot` serialised as JSON."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def format(self) -> str:
        """Human-readable per-oracle table plus violation summaries."""
        width = max((len(o.name) for o in self.outcomes), default=6)
        lines = [
            f"verify seed={self.seed} budget={self.budget}",
            f"{'oracle'.ljust(width)}  {'checks':>7}  {'bad':>4}  seconds",
        ]
        for outcome in self.outcomes:
            lines.append(
                f"{outcome.name.ljust(width)}  {outcome.checks:>7}  "
                f"{len(outcome.violations):>4}  {outcome.seconds:.2f}"
            )
        lines.append(
            f"{'TOTAL'.ljust(width)}  {self.checks:>7}  "
            f"{len(self.violations):>4}  "
            f"{sum(o.seconds for o in self.outcomes):.2f}"
        )
        for violation in self.violations:
            lines.append(f"VIOLATION [{violation.oracle}] {violation.message}")
            if violation.shrunk1 is not None:
                shrunk = to_bracket(violation.shrunk1)
                if violation.shrunk2 is not None:
                    shrunk += f"  vs  {to_bracket(violation.shrunk2)}"
                lines.append(
                    f"  shrunk ({violation.shrunk_size} nodes): {shrunk}"
                )
        return "\n".join(lines)

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violations"
        return (
            f"VerifyReport(seed={self.seed}, budget={self.budget!r}, "
            f"{self.checks} checks, {status})"
        )
