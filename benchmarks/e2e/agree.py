"""Compare two sets of end-to-end benchmark runs, one row per workload x metric.

    python3 benchmarks/e2e/agree.py --base a1.json a2.json --head b1.json b2.json

Each file is a ``run.py --out`` record: one workload's, or every workload's
under ``"workloads"``.  Only untraced runs are compared.  For each metric
of BENCHMARK.json a row gives each side's median and quartiles, then:

* ``within-bound``: the head median is no worse than the base median by more
  than the metric's bound, or every head run beats every base run;
* ``worse``: the head median is worse by more than the bound;
* ``unresolved``: the run-to-run spread (interquartile range over median) of
  either side is wider than the bound, so the data cannot tell.

Runs of one workload must have the same input digests on both sides, or the
script refuses to compare them (exit 2).  An ``answers`` row per workload
reports whether runs with equal inputs and op counts gave equal answers.
The exit code is 1 when any row is ``worse``, ``unresolved`` or ``differ``.
With ``--base`` alone the script prints that side's summary and spreads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

Summary = Tuple[float, float, float]


def load_runs(paths: Sequence[str]) -> Dict[str, List[Dict[str, Any]]]:
    """Untraced run records grouped by workload."""
    runs: Dict[str, List[Dict[str, Any]]] = {}
    for path in paths:
        data = json.loads(Path(path).read_text())
        for record in data.get("workloads", {"": data}).values():
            if record.get("trace") == 0:
                runs.setdefault(record["workload"], []).append(record)
    return runs


def summarize(values: Sequence[float]) -> Summary:
    """Median, first and third quartile (as ``statistics.quantiles`` gives)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def spread(summary: Summary) -> float:
    median, q1, q3 = summary
    return (q3 - q1) / median if median else 0.0


def verdict(
    base: Sequence[float], head: Sequence[float], bound: float, better: str
) -> str:
    sign = 1.0 if better == "lower" else -1.0
    if all(sign * (h - b) < 0 for h in head for b in base):
        return "within-bound"
    base_summary, head_summary = summarize(base), summarize(head)
    if max(spread(base_summary), spread(head_summary)) > bound:
        return "unresolved"
    worse_by = sign * (head_summary[0] - base_summary[0]) / base_summary[0]
    return "worse" if worse_by > bound else "within-bound"


def _values(records: List[Dict[str, Any]], metric: str) -> List[float]:
    return [record["metrics"][metric]["value"] for record in records]


def _cell(summary: Summary) -> str:
    median, q1, q3 = summary
    return f"{median:10.4g} [{q1:.4g}, {q3:.4g}]"


def _answers(records: List[Dict[str, Any]]) -> str:
    # a run cut short by --seconds answered a prefix of the ops, so only runs
    # with equal inputs and equal op counts must have equal answers
    answered: Dict[Tuple[str, int], set] = {}
    for record in records:
        key = (record["input_digest"], record["attempted"])
        answered.setdefault(key, set()).add(record["answer_digest"])
    same = all(len(digests) == 1 for digests in answered.values())
    return "same" if same else "differ"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True, help="base run JSONs")
    parser.add_argument("--head", nargs="+", help="head run JSONs")
    args = parser.parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    base = load_runs(args.base)
    head = load_runs(args.head) if args.head else None

    bad = 0
    for workload in sorted(base):
        if head is None:
            for metric in metrics:
                summary = summarize(_values(base[workload], metric["name"]))
                print(
                    f"{workload:<18} {metric['name']:<17} {metric['unit']:<4} "
                    f"{_cell(summary)} spread={spread(summary):.3f} "
                    f"n={len(base[workload])}"
                )
            continue
        if workload not in head:
            print(f"{workload}: no head runs", file=sys.stderr)
            return 2
        inputs = [
            sorted(record["input_digest"] for record in side[workload])
            for side in (base, head)
        ]
        if inputs[0] != inputs[1]:
            print(f"{workload}: input digests differ; not comparing", file=sys.stderr)
            return 2
        for metric in metrics:
            name = metric["name"]
            base_values = _values(base[workload], name)
            head_values = _values(head[workload], name)
            result = verdict(
                base_values, head_values, metric["bound"], metric["better"]
            )
            change = summarize(head_values)[0] / summarize(base_values)[0] - 1
            print(
                f"{workload:<18} {name:<17} {metric['unit']:<4} "
                f"base {_cell(summarize(base_values))}  "
                f"head {_cell(summarize(head_values))}  "
                f"{change:+7.1%}  {result}"
            )
            bad += result != "within-bound"
        answers = _answers(base[workload] + head[workload])
        print(f"{workload:<18} answers {answers}")
        bad += answers != "same"
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
