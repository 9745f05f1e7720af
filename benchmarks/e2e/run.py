"""End-to-end benchmark of the tree similarity search service.

Run from the repository root::

    python3 benchmarks/e2e/run.py --seed 0 --out run.json
    python3 benchmarks/e2e/run.py --workload knn_synthetic --seed 3 --seconds 15
    python3 benchmarks/e2e/run.py --seed 0 --trace 1 --trace-out spans.json

Without ``--workload`` every workload runs, one after another, each in its
own fresh process.  With ``--trace 0`` a run prints every end-to-end metric;
with ``--trace 1`` it prints the per-layer metrics of a traced run.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every op succeeded and every checked answer matched the sequential scan.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]

#: ``run_seconds`` of BENCHMARK.json: the default op time of one run.
DEFAULT_SECONDS = 20.0


def _print_record(record: Dict[str, Any]) -> None:
    name = record["workload"]
    if record["trace"]:
        for metric, value in record["per_layer"].items():
            print(f"{name}.{metric} {value:.6g}")
        for span, row in sorted(record["spans"].items()):
            print(
                f"  span {span:<22} calls={row['calls']:<8} "
                f"total={row['total_s']:.4f}s self={row['self_s']:.4f}s"
            )
    else:
        for metric, entry in record["metrics"].items():
            print(
                f"{name}.{metric} {entry['value']:.6g} {entry['unit']} "
                f"n={entry['samples']} raw={entry['raw']:.6g}"
            )
        print(f"  machine speed: {record['speed']:.3f}x the reference slice time")
        for kind, summary in record["kinds"].items():
            figures = " ".join(
                f"{key}={value:.4g}"
                for key, value in summary.items()
                if key != "samples"
            )
            print(f"  {kind}: n={summary['samples']} {figures}")
    for problem in record["problems"]:
        print(f"{name}: FAILED {problem}", file=sys.stderr)


def _result_line(record: Dict[str, Any], units: Dict[str, str]) -> Dict[str, Any]:
    values = record["per_layer"] if record["trace"] else {
        metric: entry["value"] for metric, entry in record["metrics"].items()
    }
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in values.items()
        },
    }


def _write(path: Optional[str], payload: Any) -> None:
    if path:
        Path(path).write_text(json.dumps(payload, indent=1) + "\n")


def run_one(args: argparse.Namespace) -> int:
    from benchmarks.e2e import client, tracer, workloads

    workload = workloads.WORKLOADS[args.workload]
    try:
        if args.trace:
            record, spans = client.run_traced(workload, args.seed)
            _write(args.trace_out, spans)
            units = dict(tracer.PER_LAYER)
        else:
            record = client.run_untraced(workload, args.seed, args.seconds)
            units = dict(client.END_TO_END)
    finally:
        client.stop_helper_processes()
    _write(args.out, record)
    _print_record(record)
    print(json.dumps(_result_line(record, units)))
    return 0 if record["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, so peak RSS and warm caches stay
    per workload."""
    from benchmarks.e2e.workloads import WORKLOADS

    status = 0
    lines: Dict[str, Dict[str, Any]] = {}
    records: Dict[str, Any] = {}
    spans: Dict[str, Any] = {}
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        parts = []
        for flag, path, collected in (
            ("--out", args.out, records),
            ("--trace-out", args.trace_out, spans),
        ):
            if path:
                parts.append((Path(f"{path}.{name}"), collected))
                command += [flag, str(parts[-1][0])]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        for part, collected in parts:
            if part.exists():
                collected[name] = json.loads(part.read_text())
                part.unlink()
        output = child.stdout.splitlines()
        print("\n".join(output[:-1]), flush=True)
        status = status or child.returncode
        if child.returncode in (0, 1) and output:
            lines[name] = json.loads(output[-1])
    _write(args.out, {"workloads": records})
    _write(args.trace_out, spans)
    print(
        json.dumps(
            {
                "correct": status == 0 and len(lines) == len(WORKLOADS),
                "attempted": sum(line["attempted"] for line in lines.values()),
                "failed": sum(line["failed"] for line in lines.values()),
                "metrics": {
                    f"{name}.{metric}": entry
                    for name, line in lines.items()
                    for metric, entry in line["metrics"].items()
                },
            }
        )
    )
    return status or (0 if len(lines) == len(WORKLOADS) else 1)


def main(argv: Optional[List[str]] = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.e2e.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full run record(s) as JSON")
    parser.add_argument("--trace-out", help="write the traced spans as JSON")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
