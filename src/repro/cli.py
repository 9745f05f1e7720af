"""Command-line interface: ``python -m repro <command> …``.

Commands
--------
``distance``   exact tree edit distance between two bracket trees
``bound``      the paper's lower bounds (count / positional, any q)
``diff``       minimum-cost edit script between two trees
``generate``   synthetic (§5) or DBLP-like datasets to a ``.trees`` file
``stats``      structural summary of a dataset file
``search``     range or k-NN query over a dataset file
``features``   inspect (``features stats``) the shared feature plane
               extracted from a dataset file
``index``      inspect (``index stats``) the inverted-file candidate
               index built over a dataset file's feature plane
``serve-bench``  replay synthetic query traffic through TreeSearchService
``bench``      run (``bench run``) the declared perf-ledger suite to a
               ``BENCH_<n>.json`` record, or diff two records with
               noise-aware regression gates (``bench compare``)
``trace``      run one query fully traced: span tree + filter funnel
``metrics``    dump the process-wide metrics registry (Prometheus text)
``verify``     run the differential/metamorphic oracle harness
``lint``       run the project-invariant static checker (repro.analysis)
``join``       similarity self-join of a dataset file
``convert``    XML/JSON documents -> a ``.trees`` dataset file
``show``       draw a bracket tree
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.bench import average_pairwise_distance
from repro.core.lower_bounds import branch_lower_bound, positional_lower_bound
from repro.core.vectors import branch_distance
from repro.datasets import generate_dblp_dataset, generate_dataset, parse_spec
from repro.editdist import tree_edit_distance, tree_edit_mapping
from repro.filters import DEFAULT_FILTER, FILTERS
from repro.search import knn_query, range_query, similarity_self_join
from repro.sharding.partition import PARTITIONERS
from repro.storage import load_forest, load_xml_directory, save_forest
from repro.trees import dataset_summary, parse_bracket, to_bracket
from repro.trees.json_io import parse_json_string
from repro.trees.xml_io import parse_xml_file
from repro.trees.render import render_tree

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Similarity evaluation on tree-structured data "
        "(SIGMOD 2005 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    distance = commands.add_parser(
        "distance", help="exact tree edit distance between two bracket trees"
    )
    distance.add_argument("tree1")
    distance.add_argument("tree2")

    bound = commands.add_parser("bound", help="edit-distance lower bounds")
    bound.add_argument("tree1")
    bound.add_argument("tree2")
    bound.add_argument("--q", type=int, default=2, help="branch level (>= 2)")

    diff = commands.add_parser("diff", help="minimum-cost edit script")
    diff.add_argument("tree1")
    diff.add_argument("tree2")

    show = commands.add_parser("show", help="draw a bracket tree")
    show.add_argument("tree")

    vector = commands.add_parser(
        "vector", help="print a tree's binary branch vector"
    )
    vector.add_argument("tree")
    vector.add_argument("--q", type=int, default=2)

    generate = commands.add_parser("generate", help="generate a dataset file")
    generate.add_argument("kind", choices=["synthetic", "dblp"])
    generate.add_argument("--out", required=True, help="output .trees file")
    generate.add_argument("--count", type=int, default=100)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument(
        "--spec",
        default="N{4,0.5}N{50,2}L8D0.05",
        help="synthetic spec in the paper's caption notation",
    )

    stats = commands.add_parser("stats", help="summarize a dataset file")
    stats.add_argument("file")
    stats.add_argument(
        "--avg-distance",
        action="store_true",
        help="also estimate the average pairwise edit distance (slow)",
    )

    search = commands.add_parser("search", help="similarity query over a file")
    search.add_argument("file")
    search.add_argument("--query", required=True, help="bracket-notation tree")
    mode = search.add_mutually_exclusive_group(required=True)
    mode.add_argument("--range", type=float, dest="range_threshold")
    mode.add_argument("--knn", type=int, dest="knn_k")
    search.add_argument(
        "--filter", choices=sorted(FILTERS), default=DEFAULT_FILTER
    )
    search.add_argument(
        "--shards",
        type=int,
        default=1,
        help="serve the query scatter-gather over N shard worker processes "
        "(1 = in-process, no workers)",
    )
    search.add_argument(
        "--partitioner",
        choices=sorted(PARTITIONERS),
        default="round-robin",
        help="shard placement policy (used with --shards > 1)",
    )
    search.add_argument(
        "--stats-json",
        action="store_true",
        help="print the SearchStats snapshot as JSON instead of the "
        "human-readable summary",
    )
    search.add_argument(
        "--trace",
        action="store_true",
        help="record spans for the query and print the span tree on stderr",
    )
    search.add_argument(
        "--funnel",
        action="store_true",
        help="collect the filter funnel and print its table on stderr "
        "(with --stats-json the funnel also rides in the JSON)",
    )
    search.add_argument(
        "--cost-report",
        action="store_true",
        help="collect the filter funnel and print the per-stage cost "
        "ledger (unit costs, refinements saved, net benefit) on stderr",
    )
    search.add_argument(
        "--profile",
        metavar="PATH",
        help="sample the query under the span-attributed profiler and "
        "write flamegraph collapsed stacks to PATH (JSON when PATH ends "
        "in .json)",
    )
    search.add_argument(
        "--profile-interval",
        type=float,
        default=0.001,
        help="profiler sampling interval in seconds (0 = every call "
        "event via the deterministic setprofile backend)",
    )

    features = commands.add_parser(
        "features", help="inspect a dataset's shared feature plane"
    )
    features_commands = features.add_subparsers(
        dest="features_command", required=True
    )
    features_stats = features_commands.add_parser(
        "stats", help="summary counters of a dataset file's feature plane"
    )
    features_stats.add_argument("file", help="input .trees dataset file")
    features_stats.add_argument(
        "--q",
        type=int,
        nargs="+",
        default=[2],
        help="branch levels to extract (each >= 2)",
    )

    index_cmd = commands.add_parser(
        "index",
        help="inspect the inverted-file candidate index over a dataset",
    )
    index_commands = index_cmd.add_subparsers(dest="index_command", required=True)
    index_stats = index_commands.add_parser(
        "stats",
        help="structural counters of the inverted file built over a "
        "dataset file's feature plane",
    )
    index_stats.add_argument("file", help="input .trees dataset file")
    index_stats.add_argument(
        "--q", type=int, default=2, help="branch level to index (>= 2)"
    )

    serve_bench = commands.add_parser(
        "serve-bench",
        help="replay synthetic query traffic through TreeSearchService",
    )
    serve_bench.add_argument("file")
    serve_bench.add_argument("--queries", type=int, default=50)
    serve_bench.add_argument(
        "--threshold", type=float, default=2.0, help="range-query radius"
    )
    serve_bench.add_argument("--knn-k", type=int, default=3, dest="k")
    serve_bench.add_argument(
        "--range-fraction",
        type=float,
        default=0.5,
        help="fraction of fresh queries that are range queries (rest k-NN)",
    )
    serve_bench.add_argument(
        "--repeat",
        type=float,
        default=0.5,
        help="fraction of the stream that re-issues an earlier query",
    )
    serve_bench.add_argument(
        "--clients", type=int, default=4, help="concurrent client threads"
    )
    serve_bench.add_argument("--seed", type=int, default=0)
    serve_bench.add_argument(
        "--cache-size", type=int, default=1024, help="result-cache bound (0 = off)"
    )
    serve_bench.add_argument(
        "--filter", choices=sorted(FILTERS), default=DEFAULT_FILTER
    )
    serve_bench.add_argument(
        "--shards",
        type=int,
        default=1,
        help="partition the corpus over N shard worker processes and serve "
        "scatter-gather (1 = single-process TreeSearchService)",
    )
    serve_bench.add_argument(
        "--partitioner",
        choices=sorted(PARTITIONERS),
        default="round-robin",
        help="shard placement policy (used with --shards > 1)",
    )
    serve_bench.add_argument(
        "--json",
        action="store_true",
        help="print the replay report and metrics snapshot as JSON",
    )
    serve_bench.add_argument(
        "--funnel",
        action="store_true",
        help="collect per-query filter funnels and print the aggregate "
        "selectivity table (exits non-zero on a funnel-invariant breach)",
    )
    serve_bench.add_argument(
        "--funnel-export",
        metavar="PATH",
        help="write the aggregated funnel statistics (and any invariant "
        "violations) as JSON to PATH",
    )
    serve_bench.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the service metrics in Prometheus text format to PATH",
    )
    serve_bench.add_argument(
        "--chrome-trace",
        metavar="PATH",
        help="trace the replay and write a chrome://tracing event file",
    )
    serve_bench.add_argument(
        "--cost-report",
        action="store_true",
        help="collect funnels and print the per-stage cost ledger "
        "(with --json the report also rides in the JSON)",
    )

    bench = commands.add_parser(
        "bench",
        help="run or compare the machine-readable perf ledger",
        description="`bench run` executes the declared benchmark suite "
        "(serve throughput, vectorized filters, index candidates) over a "
        "dataset file or a generated synthetic corpus and writes one "
        "schema-versioned BENCH_<n>.json record; `bench compare` diffs "
        "two records with noise-aware thresholds and exits 1 on any "
        "regression (deterministic candidate counts are gated exactly).",
    )
    bench_commands = bench.add_subparsers(dest="bench_command", required=True)
    bench_run = bench_commands.add_parser(
        "run", help="run the declared suite and write a ledger record"
    )
    bench_run.add_argument(
        "file",
        nargs="?",
        help="optional .trees dataset; omitted = generate a synthetic "
        "corpus from --spec/--count/--corpus-seed",
    )
    bench_run.add_argument("--out", required=True, help="output JSON path")
    bench_run.add_argument(
        "--label",
        default=None,
        help="record label (default: the output file's stem)",
    )
    bench_run.add_argument("--queries", type=int, default=40)
    bench_run.add_argument("--threshold", type=float, default=1.5)
    bench_run.add_argument("--knn-k", type=int, default=3, dest="k")
    bench_run.add_argument(
        "--seed", type=int, default=0, help="query-stream seed"
    )
    bench_run.add_argument(
        "--count", type=int, default=120, help="synthetic corpus size"
    )
    bench_run.add_argument(
        "--spec",
        default="N{4,0.5}N{50,2}L8D0.05",
        help="synthetic spec in the paper's caption notation",
    )
    bench_run.add_argument(
        "--corpus-seed", type=int, default=0, help="synthetic corpus seed"
    )
    bench_compare = bench_commands.add_parser(
        "compare",
        help="diff two ledger records; exit 1 on regression",
    )
    bench_compare.add_argument("baseline", help="baseline BENCH_*.json")
    bench_compare.add_argument("current", help="current BENCH_*.json")
    bench_compare.add_argument(
        "--noise",
        type=float,
        default=0.5,
        help="relative tolerance for time/rate metrics (0.5 = flag only "
        "changes beyond 1.5x)",
    )
    bench_compare.add_argument(
        "--count-noise",
        type=float,
        default=0.0,
        help="relative tolerance for deterministic counters (0 = exact)",
    )
    bench_compare.add_argument(
        "--allow-corpus-mismatch",
        action="store_true",
        help="compare records measured over different corpora anyway",
    )
    bench_compare.add_argument(
        "--verbose",
        action="store_true",
        help="show every compared metric, not just regressions",
    )
    bench_compare.add_argument(
        "--json",
        action="store_true",
        help="print the comparison as JSON",
    )

    trace = commands.add_parser(
        "trace",
        help="run one query fully traced: span tree + filter funnel",
        description="Executes a single range or k-NN query with tracing and "
        "funnel collection forced on, then prints the matches, the recorded "
        "span tree and the per-query funnel table.",
    )
    trace.add_argument("file")
    trace.add_argument("--query", required=True, help="bracket-notation tree")
    trace_mode = trace.add_mutually_exclusive_group(required=True)
    trace_mode.add_argument("--range", type=float, dest="range_threshold")
    trace_mode.add_argument("--knn", type=int, dest="knn_k")
    trace.add_argument("--filter", choices=sorted(FILTERS), default=DEFAULT_FILTER)
    trace.add_argument(
        "--chrome-trace",
        metavar="PATH",
        help="also write the spans as a chrome://tracing event file",
    )
    trace.add_argument(
        "--json",
        action="store_true",
        help="print the trace document and funnel records as JSON instead "
        "of the rendered tree/table",
    )

    metrics = commands.add_parser(
        "metrics", help="inspect the process-wide metrics registry"
    )
    metrics_commands = metrics.add_subparsers(dest="metrics_command", required=True)
    metrics_dump = metrics_commands.add_parser(
        "dump",
        help="print the registry in Prometheus text format",
        description="With a dataset FILE, first replays a small seeded "
        "workload through a TreeSearchService registered on the process-wide "
        "registry, so the dump shows live serving series.",
    )
    metrics_dump.add_argument(
        "file", nargs="?", help="optional .trees dataset to generate traffic from"
    )
    metrics_dump.add_argument("--queries", type=int, default=20)
    metrics_dump.add_argument("--seed", type=int, default=0)
    metrics_dump.add_argument(
        "--filter", choices=sorted(FILTERS), default=DEFAULT_FILTER
    )
    metrics_dump.add_argument(
        "--shards",
        type=int,
        default=1,
        help="serve the seeded workload over N shard worker processes and "
        "take a health snapshot, so the dump includes the per-shard "
        "repro_shard_* gauges",
    )
    metrics_dump.add_argument(
        "--json",
        action="store_true",
        help="print the JSON snapshot instead of Prometheus text",
    )

    verify = commands.add_parser(
        "verify",
        help="run the differential/metamorphic oracle harness",
        description="Checks every registered invariant (filter lower-bound "
        "soundness, metric properties, store/storage/service transparency) "
        "over a seeded corpus; violations are shrunk to minimal "
        "counterexamples and written as replayable JSON repro files.",
    )
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument(
        "--budget",
        choices=["small", "medium", "large"],
        default="small",
        help="corpus size / check count preset",
    )
    verify.add_argument(
        "--oracle",
        action="append",
        dest="oracles",
        metavar="NAME",
        help="run only this oracle (repeatable; default: all). "
        "Use --list-oracles to see the registry.",
    )
    verify.add_argument(
        "--list-oracles",
        action="store_true",
        help="print the oracle registry and exit",
    )
    verify.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip counterexample shrinking (faster on failure)",
    )
    verify.add_argument(
        "--repro-dir",
        help="write one replayable JSON repro file per violation here",
    )
    verify.add_argument(
        "--replay",
        metavar="FILE",
        help="re-check a previously written repro file instead of running",
    )
    verify.add_argument(
        "--json",
        action="store_true",
        help="print the report snapshot as JSON",
    )

    lint = commands.add_parser(
        "lint",
        help="run the project-invariant static checker",
        description="AST-based checks of this repository's own contracts: "
        "filter soundness registration, lock discipline, span hygiene, "
        "metric label cardinality, recursion safety, export surfaces, "
        "blanket excepts, and the interprocedural rules built on the "
        "project call graph - lock-order cycles, shard-RPC pickle "
        "safety, versioned-schema drift and the typed-exception "
        "contract. Exits 1 on findings not in the baseline.",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    lint.add_argument(
        "--json", action="store_true", help="emit a machine-readable report"
    )
    lint.add_argument(
        "--baseline",
        default=".repro-lint-baseline.json",
        help="baseline file of grandfathered findings",
    )
    lint.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline (report every finding)",
    )
    lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="record the current findings as the new baseline and exit 0",
    )
    lint.add_argument(
        "--fix-hints",
        action="store_true",
        help="print each finding's fix hint (text reporter only)",
    )
    lint.add_argument(
        "--rules",
        metavar="RL00x[,RL00y]",
        help="run only these rules (comma-separated ids)",
    )
    lint.add_argument(
        "--explain",
        metavar="RL00x",
        help="print one rule's rationale and exit",
    )
    lint.add_argument(
        "--callgraph",
        metavar="FILE",
        help="export the project call graph instead of linting: JSON by "
        "default, Graphviz DOT when FILE ends in .dot, stdout when FILE "
        "is '-'",
    )

    convert = commands.add_parser(
        "convert", help="convert XML/JSON documents to a .trees file"
    )
    convert.add_argument("inputs", nargs="+", help="files or directories")
    convert.add_argument("--format", choices=["xml", "json"], required=True)
    convert.add_argument("--out", required=True)

    join = commands.add_parser("join", help="similarity self-join of a file")
    join.add_argument("file")
    join.add_argument("--threshold", type=float, required=True)
    join.add_argument(
        "--filter", choices=sorted(FILTERS), default=DEFAULT_FILTER
    )
    return parser


def _cmd_distance(args) -> int:
    t1, t2 = parse_bracket(args.tree1), parse_bracket(args.tree2)
    print(f"{tree_edit_distance(t1, t2):g}")
    return 0


def _cmd_bound(args) -> int:
    t1, t2 = parse_bracket(args.tree1), parse_bracket(args.tree2)
    bdist = branch_distance(t1, t2, q=args.q)
    count = branch_lower_bound(t1, t2, q=args.q)
    positional = positional_lower_bound(t1, t2, q=args.q)
    print(f"BDist_q{args.q}: {bdist}")
    print(f"count bound: {count:g}")
    print(f"positional bound: {positional:g}")
    return 0


def _cmd_diff(args) -> int:
    t1, t2 = parse_bracket(args.tree1), parse_bracket(args.tree2)
    mapping = tree_edit_mapping(t1, t2)
    print(f"edit distance: {mapping.cost:g}")
    for operation in mapping.operations():
        print(f"  {operation}")
    return 0


def _cmd_show(args) -> int:
    print(render_tree(parse_bracket(args.tree)))
    return 0


def _cmd_vector(args) -> int:
    from repro.core import branch_vector

    vector = branch_vector(parse_bracket(args.tree), q=args.q)
    for branch, count in sorted(
        vector.counts.items(), key=lambda item: str(item[0])
    ):
        print(f"{count}\t{branch}")
    print(
        f"# {vector.dimensions} distinct branches, |T| = {vector.tree_size}",
        file=sys.stderr,
    )
    return 0


def _cmd_generate(args) -> int:
    if args.kind == "synthetic":
        spec = parse_spec(args.spec)
        trees = generate_dataset(spec, count=args.count, seed=args.seed)
        header = f"synthetic {spec.describe()} count={args.count} seed={args.seed}"
    else:
        trees = generate_dblp_dataset(args.count, seed=args.seed)
        header = f"dblp-like count={args.count} seed={args.seed}"
    written = save_forest(trees, args.out, header=header)
    print(f"wrote {written} trees to {args.out}")
    return 0


def _cmd_stats(args) -> int:
    trees = load_forest(args.file)
    summary = dataset_summary(trees)
    for key, value in summary.items():
        print(f"{key}: {value:g}" if isinstance(value, float) else f"{key}: {value}")
    if args.avg_distance:
        print(f"avg_distance: {average_pairwise_distance(trees):.3f}")
    return 0


def _cmd_search(args) -> int:
    from repro.obs import Tracer, collect_funnels, set_tracer

    trees = load_forest(args.file)
    if not trees:
        print("dataset is empty", file=sys.stderr)
        return 1
    query = parse_bracket(args.query)
    import contextlib

    # the profiler attributes samples to span paths, so profiling turns
    # the tracer on even without --trace (the tree only prints for --trace)
    tracer = set_tracer(Tracer()) if (args.trace or args.profile) else None
    profiler = None
    sink = None
    try:
        with contextlib.ExitStack() as stack:
            if args.funnel or args.cost_report:
                sink = stack.enter_context(collect_funnels())
            if args.profile:
                from repro.obs import SamplingProfiler

                profiler = stack.enter_context(
                    SamplingProfiler(interval=args.profile_interval)
                )
            if args.shards != 1:
                from repro.sharding import ShardedTreeService

                service = stack.enter_context(
                    ShardedTreeService(
                        trees,
                        shards=args.shards,
                        filter_name=args.filter,
                        partitioner=args.partitioner,
                    )
                )
                if args.range_threshold is not None:
                    matches, stats = service.range(query, args.range_threshold)
                else:
                    matches, stats = service.knn(query, args.knn_k)
            else:
                # unfitted filter: the database fits it from its feature
                # store when supported, which is what gives the matrix
                # planes something to scatter from
                from repro.search.database import TreeDatabase

                database = TreeDatabase(trees, flt=FILTERS[args.filter]())
                matrices = database.matrices()
                flt = database.filter
                if args.range_threshold is not None:
                    matches, stats = range_query(
                        trees, query, args.range_threshold, flt,
                        database.counter, matrices=matrices,
                    )
                else:
                    matches, stats = knn_query(
                        trees, query, args.knn_k, flt,
                        database.counter, matrices=matrices,
                    )
    finally:
        if tracer is not None:
            set_tracer(None)
    for index, distance in matches:
        print(f"{index}\t{distance:g}\t{to_bracket(trees[index])}")
    if args.stats_json:
        import json

        if not args.funnel:
            stats.funnel = None  # keep the historic schema unless asked
        print(json.dumps(stats.to_dict(), sort_keys=True))
    else:
        print(
            f"# accessed {stats.candidates}/{stats.dataset_size} "
            f"({stats.accessed_percentage:.1f}%)",
            file=sys.stderr,
        )
    if sink is not None and args.funnel:
        for funnel in sink.funnels:
            print(funnel.format_table(), file=sys.stderr)
    if args.cost_report:
        from repro.perf import format_cost_reports

        print(format_cost_reports(sink.aggregate().cost_report()), file=sys.stderr)
    if profiler is not None:
        import json

        with open(args.profile, "w", encoding="utf-8") as handle:
            if args.profile.endswith(".json"):
                json.dump(profiler.to_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")
            else:
                handle.write(profiler.collapsed() + "\n")
        print(
            f"wrote {profiler.total} profile samples "
            f"({profiler.mode} mode) to {args.profile}",
            file=sys.stderr,
        )
    if tracer is not None and args.trace:
        print(tracer.format_tree(), file=sys.stderr)
    return 0


def _cmd_features(args) -> int:
    from repro.features import FeatureStore

    store = FeatureStore(tuple(args.q)).fit(load_forest(args.file))
    for key, value in store.stats().items():
        print(f"{key}: {value}")
    for family, shape in store.matrices().stats().items():
        print(
            f"matrix.{family}: rows={shape['rows']} width={shape['width']} "
            f"dtype={shape['dtype']} bytes={shape['bytes']}"
        )
    return 0


def _cmd_index(args) -> int:
    from repro.features import FeatureStore
    from repro.index import ExtendedInvertedFile

    store = FeatureStore((args.q,)).fit(load_forest(args.file))
    for key, value in ExtendedInvertedFile(store).stats().items():
        print(f"{key}: {value}")
    return 0


def _cmd_serve_bench(args) -> int:
    import contextlib
    import json

    from repro.obs import Tracer, collect_funnels, set_tracer
    from repro.search.database import TreeDatabase
    from repro.service import (
        TreeSearchService,
        WorkloadSpec,
        format_report,
        generate_workload,
        replay,
    )

    trees = load_forest(args.file)
    if not trees:
        print("dataset is empty", file=sys.stderr)
        return 1
    spec = WorkloadSpec(
        queries=args.queries,
        range_fraction=args.range_fraction,
        threshold=args.threshold,
        k=min(args.k, len(trees)),
        repeat_fraction=args.repeat,
        seed=args.seed,
    )
    workload = generate_workload(trees, spec)
    collecting = args.funnel or args.funnel_export or args.cost_report
    tracer = set_tracer(Tracer()) if args.chrome_trace else None
    sink = None
    health = None
    try:
        with contextlib.ExitStack() as stack:
            if collecting:
                sink = stack.enter_context(collect_funnels())
            if args.shards != 1:
                from repro.sharding import ShardedTreeService

                service = stack.enter_context(
                    ShardedTreeService(
                        trees,
                        shards=args.shards,
                        filter_name=args.filter,
                        partitioner=args.partitioner,
                        max_workers=args.clients,
                    )
                )
            else:
                # unfitted: let the database fit from its feature store so
                # the vectorized candidate path has planes to work with
                database = TreeDatabase(trees, flt=FILTERS[args.filter]())
                service = stack.enter_context(
                    TreeSearchService(
                        database,
                        max_workers=args.clients,
                        cache_size=args.cache_size,
                    )
                )
            _, report = replay(service, workload, clients=args.clients)
            if args.shards != 1:
                # one snapshot after the replay so the gauges (and any
                # imbalance warnings) reflect the full run
                health = service.health()
    finally:
        if tracer is not None:
            set_tracer(None)

    violations = []
    if sink is not None:
        for position, funnel in enumerate(sink.funnels):
            for problem in funnel.check_invariants():
                violations.append(
                    f"query funnel {position} ({funnel.kind}): {problem}"
                )
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(service.metrics.prometheus_text())
        print(f"wrote metrics to {args.metrics_out}", file=sys.stderr)
    if args.chrome_trace:
        with open(args.chrome_trace, "w", encoding="utf-8") as handle:
            json.dump(tracer.to_chrome_trace(), handle)
        print(
            f"wrote {len(tracer.finished_spans())} spans to {args.chrome_trace}",
            file=sys.stderr,
        )
    if args.funnel_export:
        document = {
            "aggregate": sink.aggregate().to_dict(),
            "funnels_collected": len(sink.funnels),
            "invariant_violations": violations,
        }
        with open(args.funnel_export, "w", encoding="utf-8") as handle:
            json.dump(document, handle, sort_keys=True)
        print(f"wrote funnel statistics to {args.funnel_export}", file=sys.stderr)

    cost = sink.aggregate().cost_report() if args.cost_report else None
    if args.json:
        summary = report.to_dict()
        if sink is not None:
            summary["funnel"] = sink.aggregate().to_dict()
        if cost is not None:
            summary["cost_report"] = {
                kind: entry.to_dict() for kind, entry in cost.items()
            }
        if health is not None:
            summary["health"] = health
        print(json.dumps(summary, sort_keys=True))
    else:
        print(format_report(report))
        if args.funnel:
            print(sink.aggregate().format_table())
        if cost is not None:
            from repro.perf import format_cost_reports

            print(format_cost_reports(cost))
        if health is not None:
            for warning in health["warnings"]:
                print(f"shard health: {warning}", file=sys.stderr)
    if violations:
        for violation in violations:
            print(f"funnel invariant violated: {violation}", file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args) -> int:
    import json

    from repro.obs import Tracer, collect_funnels, set_tracer

    trees = load_forest(args.file)
    if not trees:
        print("dataset is empty", file=sys.stderr)
        return 1
    query = parse_bracket(args.query)
    flt = FILTERS[args.filter]().fit(trees)
    tracer = Tracer(sample_rate=1.0)
    set_tracer(tracer)
    try:
        with collect_funnels() as sink:
            if args.range_threshold is not None:
                matches, _ = range_query(trees, query, args.range_threshold, flt)
            else:
                matches, _ = knn_query(trees, query, args.knn_k, flt)
    finally:
        set_tracer(None)
    if args.chrome_trace:
        with open(args.chrome_trace, "w", encoding="utf-8") as handle:
            json.dump(tracer.to_chrome_trace(), handle)
    if args.json:
        print(
            json.dumps(
                {
                    "matches": [[index, distance] for index, distance in matches],
                    "trace": tracer.to_dict(),
                    "funnels": [funnel.to_dict() for funnel in sink.funnels],
                },
                sort_keys=True,
                default=repr,
            )
        )
        return 0
    for index, distance in matches:
        print(f"{index}\t{distance:g}\t{to_bracket(trees[index])}")
    print()
    print(tracer.format_tree())
    for funnel in sink.funnels:
        print()
        print(funnel.format_table())
    if args.chrome_trace:
        print(
            f"\nwrote {len(tracer.finished_spans())} spans to {args.chrome_trace}",
            file=sys.stderr,
        )
    return 0


def _cmd_metrics(args) -> int:
    from repro.obs import get_registry

    registry = get_registry()
    if args.file:
        from repro.search.database import TreeDatabase
        from repro.service import (
            TreeSearchService,
            WorkloadSpec,
            generate_workload,
            replay,
        )

        trees = load_forest(args.file)
        if not trees:
            print("dataset is empty", file=sys.stderr)
            return 1
        spec = WorkloadSpec(
            queries=args.queries, k=min(3, len(trees)), seed=args.seed
        )
        workload = generate_workload(trees, spec)
        if args.shards != 1:
            from repro.sharding import ShardedTreeService

            with ShardedTreeService(
                trees,
                shards=args.shards,
                filter_name=args.filter,
                metrics=registry,
            ) as service:
                replay(service, workload)
                # publish the per-shard repro_shard_* gauges into the dump
                service.health()
        else:
            # unfitted, as serve-bench does: the database fits from its
            # feature store, so the service serves off the matrix planes
            database = TreeDatabase(trees, flt=FILTERS[args.filter]())
            with TreeSearchService(database, metrics=registry) as service:
                replay(service, workload)
    if args.json:
        print(registry.to_json(indent=2))
    else:
        sys.stdout.write(registry.prometheus_text())
    return 0


def _cmd_bench(args) -> int:
    import json
    import os

    from repro.perf import (
        compare_records,
        format_comparison,
        load_record,
        make_record,
        save_record,
    )

    if args.bench_command == "run":
        from repro.bench.suite import run_bench_suite

        if args.file:
            trees = load_forest(args.file)
            corpus: dict = {
                "kind": "file",
                "file": os.path.basename(args.file),
                "trees": len(trees),
            }
        else:
            spec = parse_spec(args.spec)
            trees = generate_dataset(
                spec, count=args.count, seed=args.corpus_seed
            )
            corpus = {
                "kind": "synthetic",
                "spec": args.spec,
                "count": args.count,
                "seed": args.corpus_seed,
            }
        if not trees:
            print("dataset is empty", file=sys.stderr)
            return 1
        corpus.update(
            queries=args.queries,
            threshold=args.threshold,
            k=args.k,
            query_seed=args.seed,
        )
        label = args.label or os.path.splitext(os.path.basename(args.out))[0]
        suites = run_bench_suite(
            trees,
            queries=args.queries,
            threshold=args.threshold,
            k=args.k,
            seed=args.seed,
        )
        save_record(make_record(label, corpus, suites), args.out)
        print(f"wrote ledger record {label} ({len(suites)} suites) to {args.out}")
        return 0

    comparison = compare_records(
        load_record(args.baseline),
        load_record(args.current),
        noise=args.noise,
        count_noise=args.count_noise,
        allow_corpus_mismatch=args.allow_corpus_mismatch,
    )
    if args.json:
        print(json.dumps(comparison.to_dict(), sort_keys=True))
    else:
        print(format_comparison(comparison, verbose=args.verbose))
    return 0 if comparison.ok else 1


def _cmd_verify(args) -> int:
    import json

    from repro.verify.oracles import ORACLE_FACTORIES, make_oracles
    from repro.verify.runner import (
        format_replay,
        replay_repro_file,
        run_verification,
    )

    if args.list_oracles:
        for name in ORACLE_FACTORIES:
            oracle = ORACLE_FACTORIES[name]()
            print(f"{name}: {oracle.description}")
        return 0
    if args.replay:
        violation = replay_repro_file(args.replay)
        print(format_replay(violation))
        return 1 if violation.message else 0
    if args.oracles:
        make_oracles(args.oracles)  # fail fast on unknown names
    report = run_verification(
        seed=args.seed,
        budget=args.budget,
        oracles=args.oracles,
        shrink=not args.no_shrink,
        repro_dir=args.repro_dir,
    )
    if args.json:
        print(json.dumps(report.snapshot(), sort_keys=True, default=repr))
    else:
        print(report.format())
    return 0 if report.ok else 1


def _cmd_convert(args) -> int:
    import os

    trees = []
    for source in args.inputs:
        if os.path.isdir(source):
            pattern = "*.xml" if args.format == "xml" else "*.json"
            if args.format == "xml":
                trees.extend(load_xml_directory(source, pattern))
            else:
                from pathlib import Path

                for path in sorted(Path(source).glob(pattern)):
                    trees.append(parse_json_string(path.read_text()))
        elif args.format == "xml":
            trees.append(parse_xml_file(source))
        else:
            with open(source, "r", encoding="utf-8") as handle:
                trees.append(parse_json_string(handle.read()))
    written = save_forest(trees, args.out, header=f"converted from {args.format}")
    print(f"wrote {written} trees to {args.out}")
    return 0


def _cmd_join(args) -> int:
    trees = load_forest(args.file)
    flt = FILTERS[args.filter]().fit(trees)
    pairs, stats = similarity_self_join(trees, args.threshold, flt)
    for i, j, distance in pairs:
        print(f"{i}\t{j}\t{distance:g}")
    print(
        f"# refined {stats.candidates}/{stats.dataset_size} pairs "
        f"({stats.accessed_percentage:.1f}%)",
        file=sys.stderr,
    )
    return 0


def _cmd_lint(args) -> int:
    from pathlib import Path

    from repro import analysis

    if args.explain:
        try:
            rule = analysis.get_rule(args.explain)
        except KeyError:
            print(f"repro lint: unknown rule {args.explain!r}", file=sys.stderr)
            return 2
        print(f"{rule.rule_id} ({rule.title}) [{rule.severity}]")
        print()
        print(rule.rationale)
        if rule.hint:
            print()
            print(f"fix: {rule.hint}")
        return 0

    if args.callgraph:
        import json as json_module

        project, files, parse_failures = analysis.load_project(
            [Path(p) for p in args.paths], root=Path.cwd()
        )
        if parse_failures:
            for failure in parse_failures:
                print(
                    f"repro lint: {failure.path}:{failure.line}: "
                    f"{failure.message}",
                    file=sys.stderr,
                )
            return 2
        graph = project.callgraph()
        if args.callgraph.endswith(".dot"):
            payload = graph.to_dot()
        else:
            payload = json_module.dumps(graph.to_json(), indent=2, sort_keys=True)
        if args.callgraph == "-":
            print(payload)
        else:
            Path(args.callgraph).write_text(payload + "\n", encoding="utf-8")
            print(
                f"call graph over {len(files)} file(s): "
                f"{len(graph.functions)} functions, {len(graph.edges)} "
                f"edges, {len(graph.cycles())} cycle(s) -> {args.callgraph}",
                file=sys.stderr,
            )
        return 0

    rules = None
    if args.rules:
        try:
            rules = [
                analysis.get_rule(rule_id)
                for rule_id in args.rules.split(",")
                if rule_id.strip()
            ]
        except KeyError as exc:
            print(f"repro lint: unknown rule {exc.args[0]!r}", file=sys.stderr)
            return 2

    run = analysis.analyze_paths(
        [Path(p) for p in args.paths], rules=rules, root=Path.cwd()
    )
    baseline_path = Path(args.baseline)
    if args.write_baseline:
        analysis.Baseline.from_findings(
            run.findings, comment="grandfathered by --write-baseline"
        ).save(baseline_path)
        print(
            f"wrote {len(run.findings)} finding(s) to {baseline_path}",
            file=sys.stderr,
        )
        return 0
    baseline = (
        analysis.Baseline.empty()
        if args.no_baseline
        else analysis.Baseline.load(baseline_path)
    )
    new, grandfathered = analysis.partition(run.findings, baseline)
    if args.json:
        print(analysis.render_json(new, grandfathered, run.suppressed, run.files))
    else:
        print(
            analysis.render_text(
                new,
                grandfathered,
                run.suppressed,
                len(run.files),
                show_hints=args.fix_hints,
            )
        )
    return 1 if new else 0


_HANDLERS = {
    "distance": _cmd_distance,
    "bound": _cmd_bound,
    "diff": _cmd_diff,
    "show": _cmd_show,
    "vector": _cmd_vector,
    "generate": _cmd_generate,
    "stats": _cmd_stats,
    "search": _cmd_search,
    "features": _cmd_features,
    "index": _cmd_index,
    "serve-bench": _cmd_serve_bench,
    "bench": _cmd_bench,
    "trace": _cmd_trace,
    "metrics": _cmd_metrics,
    "verify": _cmd_verify,
    "lint": _cmd_lint,
    "join": _cmd_join,
    "convert": _cmd_convert,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Library errors (bad bracket syntax, invalid specs, missing files) are
    reported on stderr with exit code 2 instead of a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
