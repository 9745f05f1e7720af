"""The perf ledger: schema-versioned bench records and a noise-aware diff.

A ledger record (``BENCH_<n>.json``) is one machine's measurement of the
declared benchmark suite over a pinned synthetic corpus::

    {
      "format": "repro-bench", "version": 1,
      "label": "BENCH_9", "machine": {...}, "corpus": {...},
      "suites": {"serve_throughput": {...}, "vectorized_filters": {...},
                 "index_candidates": {...}}
    }

:func:`compare_records` walks two records' ``suites`` trees leaf by leaf
and classifies every shared metric by its name and type:

* ``*_seconds`` — wall/CPU time; **lower is better**, gated by the
  relative ``noise`` threshold plus an absolute floor (micro-benchmarks
  jitter; a 2x regression on 50 microseconds is not a signal);
* ``*_qps`` / ``*speedup*`` — rates; **higher is better**, same noise gate;
* integers — deterministic counters (candidate counts, survivors,
  result sizes): any drift beyond ``count_noise`` (default exact) is a
  regression *in either direction*, because on a pinned corpus and seed
  these are behavior, not performance;
* other floats — deterministic ratios (examined fractions); compared
  like counters with a tiny epsilon.

Records measured on different corpora are refused (``ValueError``)
unless explicitly allowed — cross-corpus timings compare nothing.  Records
measured on different machines (their ``machine`` stanzas differ) are
compared, but their time and rate rows cannot fail: a drift beyond the
noise gate is reported as ``unchecked``, since it measures the machines,
not the change.  Only counts and ratios gate such a pair.
"""

from __future__ import annotations

import json
import os
import platform
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "LEDGER_FORMAT",
    "LEDGER_VERSION",
    "ComparisonEntry",
    "LedgerComparison",
    "machine_info",
    "make_record",
    "save_record",
    "load_record",
    "compare_records",
    "format_comparison",
]

LEDGER_FORMAT = "repro-bench"
LEDGER_VERSION = 1

#: absolute floor under which time drift is never a regression (seconds)
TIME_FLOOR_SECONDS = 0.002

#: tolerance for "deterministic" float ratios (guards repr/rounding drift)
_RATIO_EPSILON = 1e-9


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
def machine_info() -> Dict[str, object]:
    """Where a record was measured (context, not compared)."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count() or 0,
    }


def make_record(
    label: str,
    corpus: Dict[str, object],
    suites: Dict[str, Dict[str, object]],
) -> Dict[str, object]:
    """Assemble one schema-versioned ledger record."""
    return {
        "format": LEDGER_FORMAT,
        "version": LEDGER_VERSION,
        "label": label,
        "machine": machine_info(),
        "corpus": dict(corpus),
        "suites": suites,
    }


def save_record(record: Dict[str, object], path: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_record(path: str) -> Dict[str, object]:
    """Read and validate one ledger record (raises ``ValueError`` on junk)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            record = json.load(handle)
    except json.JSONDecodeError as error:
        raise ValueError(f"{path} is not valid JSON: {error}") from error
    if not isinstance(record, dict) or record.get("format") != LEDGER_FORMAT:
        raise ValueError(
            f"{path} is not a {LEDGER_FORMAT!r} ledger record "
            f"(format={record.get('format') if isinstance(record, dict) else None!r})"
        )
    if record.get("version") != LEDGER_VERSION:
        raise ValueError(
            f"{path} has ledger version {record.get('version')!r}, "
            f"this build reads version {LEDGER_VERSION}"
        )
    if not isinstance(record.get("suites"), dict):
        raise ValueError(f"{path} has no 'suites' object")
    return record


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def _leaves(tree: Dict[str, object], prefix: str = "") -> Dict[str, float]:
    """Flatten nested suite dicts to ``dotted.path -> numeric leaf``."""
    flat: Dict[str, float] = {}
    for key in sorted(tree):
        value = tree[key]
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            flat.update(_leaves(value, path))
        elif isinstance(value, bool):
            flat[path] = float(value)
        elif isinstance(value, (int, float)):
            flat[path] = value
    return flat


def _classify(name: str, baseline: float, current: float) -> str:
    leaf = name.rsplit(".", 1)[-1]
    if leaf.endswith("_seconds") or leaf == "seconds":
        return "time"
    if leaf.endswith("_qps") or "speedup" in leaf:
        return "rate"
    if isinstance(baseline, int) and isinstance(current, int):
        return "count"
    return "ratio"


@dataclass
class ComparisonEntry:
    """One metric's verdict."""

    metric: str
    kind: str  # time | rate | count | ratio
    baseline: Optional[float]
    current: Optional[float]
    status: str  # ok | regression | improved | unchecked | new | missing

    def to_dict(self) -> Dict[str, object]:
        return {
            "metric": self.metric,
            "kind": self.kind,
            "baseline": self.baseline,
            "current": self.current,
            "status": self.status,
        }


def _machine_summary(machine: Dict[str, object]) -> str:
    """One-line rendering of a record's ``machine`` provenance block."""
    return (
        f"{machine.get('platform', '?')} "
        f"py{machine.get('python', '?')} "
        f"({machine.get('implementation', '?')}, "
        f"{machine.get('cpu_count', '?')} cpus)"
    )


@dataclass
class LedgerComparison:
    """Every compared metric plus the gate verdict."""

    baseline_label: str
    current_label: str
    noise: float
    count_noise: float
    #: non-empty when the two records were measured on different machines
    machine_caveat: str = ""
    entries: List[ComparisonEntry] = field(default_factory=list)

    @property
    def regressions(self) -> List[ComparisonEntry]:
        return [entry for entry in self.entries if entry.status == "regression"]

    @property
    def improvements(self) -> List[ComparisonEntry]:
        return [entry for entry in self.entries if entry.status == "improved"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> Dict[str, object]:
        return {
            "baseline": self.baseline_label,
            "current": self.current_label,
            "noise": self.noise,
            "count_noise": self.count_noise,
            "machine_caveat": self.machine_caveat,
            "ok": self.ok,
            "regressions": len(self.regressions),
            "improvements": len(self.improvements),
            "entries": [entry.to_dict() for entry in self.entries],
        }


def _verdict(
    kind: str,
    baseline: float,
    current: float,
    noise: float,
    count_noise: float,
) -> str:
    if kind == "time":
        if (
            current > baseline * (1.0 + noise)
            and current - baseline > TIME_FLOOR_SECONDS
        ):
            return "regression"
        if (
            baseline > current * (1.0 + noise)
            and baseline - current > TIME_FLOOR_SECONDS
        ):
            return "improved"
        return "ok"
    if kind == "rate":
        if baseline > current * (1.0 + noise):
            return "regression"
        if current > baseline * (1.0 + noise):
            return "improved"
        return "ok"
    # deterministic counters/ratios: drift in either direction is a
    # behavior change on a pinned corpus — regression unless within the
    # (default zero) count tolerance
    scale = max(abs(baseline), abs(current), 1.0)
    tolerance = count_noise * scale + (_RATIO_EPSILON if kind == "ratio" else 0.0)
    if abs(current - baseline) > tolerance:
        return "regression"
    return "ok"


def compare_records(
    baseline: Dict[str, object],
    current: Dict[str, object],
    noise: float = 0.5,
    count_noise: float = 0.0,
    allow_corpus_mismatch: bool = False,
) -> LedgerComparison:
    """Diff two ledger records with noise-aware thresholds.

    ``noise`` is the relative tolerance for time/rate metrics (0.5 =
    flag only changes beyond 1.5x); ``count_noise`` the relative
    tolerance for deterministic counters (0.0 = exact).
    """
    if noise < 0 or count_noise < 0:
        raise ValueError("noise thresholds must be >= 0")
    if not allow_corpus_mismatch and baseline.get("corpus") != current.get("corpus"):
        raise ValueError(
            "ledger corpus parameters differ "
            f"({baseline.get('corpus')!r} vs {current.get('corpus')!r}); "
            "timings over different corpora are not comparable "
            "(pass allow_corpus_mismatch/--allow-corpus-mismatch to override)"
        )
    baseline_machine = baseline.get("machine") or {}
    current_machine = current.get("machine") or {}
    caveat = ""
    if (
        isinstance(baseline_machine, dict)
        and isinstance(current_machine, dict)
        and baseline_machine != current_machine
    ):
        # cross-machine: counts/ratios still gate exactly, time/rate rows
        # are shown but cannot fail
        caveat = (
            f"baseline on {_machine_summary(baseline_machine)}, "
            f"current on {_machine_summary(current_machine)}"
        )
    comparison = LedgerComparison(
        baseline_label=str(baseline.get("label", "?")),
        current_label=str(current.get("label", "?")),
        noise=noise,
        count_noise=count_noise,
        machine_caveat=caveat,
    )
    base_leaves = _leaves(baseline["suites"])
    current_leaves = _leaves(current["suites"])
    for metric in sorted(set(base_leaves) | set(current_leaves)):
        base_value = base_leaves.get(metric)
        current_value = current_leaves.get(metric)
        if base_value is None:
            comparison.entries.append(
                ComparisonEntry(metric, "new", None, current_value, "new")
            )
            continue
        if current_value is None:
            # a vanished metric means a suite leg silently stopped running
            comparison.entries.append(
                ComparisonEntry(metric, "missing", base_value, None, "regression")
            )
            continue
        kind = _classify(metric, base_value, current_value)
        status = _verdict(kind, base_value, current_value, noise, count_noise)
        if caveat and kind in ("time", "rate") and status != "ok":
            status = "unchecked"
        comparison.entries.append(
            ComparisonEntry(metric, kind, base_value, current_value, status)
        )
    return comparison


def format_comparison(comparison: LedgerComparison, verbose: bool = False) -> str:
    """Human-readable diff; regressions always shown, the rest on demand."""

    def _fmt(value: Optional[float]) -> str:
        if value is None:
            return "-"
        if isinstance(value, float) and not value.is_integer():
            return f"{value:.6g}"
        return f"{value:g}"

    lines = [
        f"perf ledger: {comparison.current_label} vs "
        f"{comparison.baseline_label} "
        f"(noise {comparison.noise:g}, count noise {comparison.count_noise:g})"
    ]
    if comparison.machine_caveat:
        lines.append(f"  NOTE: machines differ — {comparison.machine_caveat}")
    shown: List[Tuple[str, ComparisonEntry]] = []
    for entry in comparison.entries:
        if entry.status == "regression":
            shown.append(("REGRESSION", entry))
        elif verbose or entry.status in ("improved", "unchecked"):
            shown.append((entry.status.upper(), entry))
    for tag, entry in shown:
        lines.append(
            f"  {tag:<10} {entry.metric}  "
            f"{_fmt(entry.baseline)} -> {_fmt(entry.current)} [{entry.kind}]"
        )
    lines.append(
        f"{len(comparison.entries)} metrics compared, "
        f"{len(comparison.regressions)} regression(s), "
        f"{len(comparison.improvements)} improvement(s)"
    )
    return "\n".join(lines)
