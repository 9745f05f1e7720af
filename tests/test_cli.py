"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.storage import load_forest, save_forest
from repro.trees import parse_bracket


@pytest.fixture
def dataset_file(tmp_path):
    path = tmp_path / "data.trees"
    save_forest(
        [parse_bracket(t) for t in ["a(b,c)", "a(b,d)", "x(y)", "a(b,c)"]],
        path,
    )
    return str(path)


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_search_modes_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["search", "f", "--query", "a", "--range", "1", "--knn", "2"]
            )

    @pytest.mark.parametrize("command", ["search", "serve-bench"])
    def test_loop_candidate_source_rejected(self, command):
        args = [command, "f", "--candidate-source", "loop"]
        if command == "search":
            args += ["--query", "a", "--knn", "1"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(args)

    @pytest.mark.parametrize("command", ["search", "serve-bench"])
    def test_vptree_candidate_source_rejected(self, command):
        args = [command, "f", "--candidate-source", "vptree"]
        if command == "search":
            args += ["--query", "a", "--knn", "1"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(args)


class TestDistanceCommands:
    def test_distance(self, capsys):
        assert main(["distance", "a(b,c)", "a(b,d)"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_bound(self, capsys):
        assert main(["bound", "a(b,c)", "a(b,d)"]) == 0
        out = capsys.readouterr().out
        assert "BDist_q2: 4" in out
        assert "positional bound" in out

    def test_bound_q3(self, capsys):
        assert main(["bound", "a(b,c)", "a(b,d)", "--q", "3"]) == 0
        assert "BDist_q3" in capsys.readouterr().out

    def test_diff(self, capsys):
        assert main(["diff", "a(b)", "a(c)"]) == 0
        out = capsys.readouterr().out
        assert "edit distance: 1" in out
        assert "relabel 'b' -> 'c'" in out


class TestGenerateAndStats:
    def test_generate_synthetic(self, tmp_path, capsys):
        out = tmp_path / "synthetic.trees"
        code = main(
            [
                "generate", "synthetic", "--out", str(out),
                "--count", "10", "--spec", "N{3,0.5}N{10,2}L4D0.1",
            ]
        )
        assert code == 0
        assert len(load_forest(out)) == 10

    def test_generate_dblp(self, tmp_path, capsys):
        out = tmp_path / "dblp.trees"
        assert main(["generate", "dblp", "--out", str(out), "--count", "5"]) == 0
        trees = load_forest(out)
        assert len(trees) == 5
        assert trees[0].label in {"article", "inproceedings"}

    def test_generate_deterministic(self, tmp_path):
        a, b = tmp_path / "a.trees", tmp_path / "b.trees"
        main(["generate", "dblp", "--out", str(a), "--count", "5", "--seed", "9"])
        main(["generate", "dblp", "--out", str(b), "--count", "5", "--seed", "9"])
        assert load_forest(a) == load_forest(b)

    def test_stats(self, dataset_file, capsys):
        assert main(["stats", dataset_file]) == 0
        out = capsys.readouterr().out
        assert "count: 4" in out

    def test_stats_with_avg_distance(self, dataset_file, capsys):
        assert main(["stats", dataset_file, "--avg-distance"]) == 0
        assert "avg_distance" in capsys.readouterr().out


class TestSearchAndJoin:
    def test_range_search(self, dataset_file, capsys):
        assert main(
            ["search", dataset_file, "--query", "a(b,c)", "--range", "1"]
        ) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line]
        indices = {int(line.split("\t")[0]) for line in lines}
        assert indices == {0, 1, 3}

    def test_knn_search(self, dataset_file, capsys):
        assert main(
            ["search", dataset_file, "--query", "a(b,c)", "--knn", "2"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len([line for line in lines if line]) == 2

    def test_search_with_histogram_filter(self, dataset_file, capsys):
        assert main(
            [
                "search", dataset_file, "--query", "x(y)",
                "--knn", "1", "--filter", "histogram",
            ]
        ) == 0
        assert capsys.readouterr().out.startswith("2\t0")

    def test_search_empty_dataset(self, tmp_path, capsys):
        empty = tmp_path / "empty.trees"
        empty.write_text("")
        assert main(
            ["search", str(empty), "--query", "a", "--knn", "1"]
        ) == 1

    def test_join(self, dataset_file, capsys):
        assert main(["join", dataset_file, "--threshold", "0"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "0\t3\t0"


class TestErrorHandling:
    def test_bad_bracket_syntax(self, capsys):
        assert main(["distance", "a(b", "a"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_spec(self, tmp_path, capsys):
        code = main(
            ["generate", "synthetic", "--out", str(tmp_path / "x"),
             "--spec", "garbage"]
        )
        assert code == 2

    def test_missing_file(self, capsys):
        assert main(["stats", "/nonexistent/file.trees"]) == 2

    def test_invalid_bound_level(self, capsys):
        assert main(["bound", "a", "b", "--q", "1"]) == 2


class TestConvert:
    def test_convert_xml_files(self, tmp_path, capsys):
        (tmp_path / "a.xml").write_text("<a><b/></a>")
        (tmp_path / "b.xml").write_text("<c/>")
        out = tmp_path / "out.trees"
        assert main(
            ["convert", str(tmp_path), "--format", "xml", "--out", str(out)]
        ) == 0
        assert [t.label for t in load_forest(out)] == ["a", "c"]

    def test_convert_single_json_file(self, tmp_path):
        doc = tmp_path / "doc.json"
        doc.write_text('{"k": [1, 2]}')
        out = tmp_path / "out.trees"
        assert main(
            ["convert", str(doc), "--format", "json", "--out", str(out)]
        ) == 0
        (tree,) = load_forest(out)
        assert tree.label == "{}"

    def test_convert_json_directory(self, tmp_path):
        (tmp_path / "x.json").write_text("[1]")
        (tmp_path / "y.json").write_text("null")
        out = tmp_path / "out.trees"
        assert main(
            ["convert", str(tmp_path), "--format", "json", "--out", str(out)]
        ) == 0
        assert len(load_forest(out)) == 2

    def test_convert_invalid_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<unclosed")
        assert main(
            ["convert", str(bad), "--format", "xml",
             "--out", str(tmp_path / "o")]
        ) == 2


class TestShow:
    def test_show(self, capsys):
        assert main(["show", "a(b,c)"]) == 0
        out = capsys.readouterr().out
        assert "├── b" in out and "└── c" in out


class TestVector:
    def test_vector_output(self, capsys):
        assert main(["vector", "a(b,c)"]) == 0
        captured = capsys.readouterr()
        assert "a(b,ε)" in captured.out
        assert "3 distinct branches" in captured.err

    def test_vector_qlevel(self, capsys):
        assert main(["vector", "a(b)", "--q", "3"]) == 0
        assert "[a,b," in capsys.readouterr().out


class TestSearchStatsJson:
    def test_stats_json_replaces_summary(self, dataset_file, capsys):
        import json

        assert main(
            ["search", dataset_file, "--query", "a(b,c)", "--range", "1",
             "--stats-json"]
        ) == 0
        captured = capsys.readouterr()
        assert "# accessed" not in captured.err
        stats_line = captured.out.splitlines()[-1]
        stats = json.loads(stats_line)
        assert stats["dataset_size"] == 4
        assert stats["results"] == 3
        assert "filter_seconds" in stats

    def test_human_summary_is_default(self, dataset_file, capsys):
        assert main(
            ["search", dataset_file, "--query", "a(b,c)", "--range", "1"]
        ) == 0
        assert "# accessed" in capsys.readouterr().err


class TestServeBench:
    def test_human_report(self, dataset_file, capsys):
        assert main(
            ["serve-bench", dataset_file, "--queries", "20", "--repeat", "0.6",
             "--clients", "2", "--seed", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "result cache" in out
        assert "p99" in out

    def test_json_report(self, dataset_file, capsys):
        import json

        assert main(
            ["serve-bench", dataset_file, "--queries", "15", "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["queries"] == 15
        assert report["metrics"]["cache"]["hits"] >= 0
        assert report["latency"]["p50_seconds"] <= report["latency"]["p99_seconds"]

    def test_empty_dataset(self, tmp_path, capsys):
        empty = tmp_path / "empty.trees"
        empty.write_text("")
        assert main(["serve-bench", str(empty)]) == 1

    def test_serial_client(self, dataset_file, capsys):
        assert main(
            ["serve-bench", dataset_file, "--queries", "8", "--clients", "1",
             "--cache-size", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "serial" in out
        assert "hit rate 0.0%" in out


class TestShardedCli:
    def test_sharded_range_matches_single_process(self, dataset_file, capsys):
        args = ["search", dataset_file, "--query", "a(b,c)", "--range", "1"]
        assert main(args) == 0
        single = capsys.readouterr().out
        assert main(args + ["--shards", "2"]) == 0
        assert capsys.readouterr().out == single

    def test_sharded_knn_matches_single_process(self, dataset_file, capsys):
        args = ["search", dataset_file, "--query", "a(b,c)", "--knn", "3"]
        assert main(args) == 0
        single = capsys.readouterr().out
        assert main(args + ["--shards", "2", "--partitioner", "size-banded"]) == 0
        assert capsys.readouterr().out == single

    def test_invalid_shard_count_errors_cleanly(self, dataset_file, capsys):
        assert main(
            ["search", dataset_file, "--query", "a", "--knn", "1",
             "--shards", "0"]
        ) == 2

    def test_unknown_partitioner_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["search", "f", "--query", "a", "--knn", "1",
                 "--partitioner", "hash-ring"]
            )

    def test_serve_bench_sharded(self, dataset_file, capsys):
        assert main(
            ["serve-bench", dataset_file, "--queries", "10", "--shards", "2",
             "--clients", "2", "--seed", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "throughput" in out

    def test_serve_bench_sharded_funnel_export(self, dataset_file, tmp_path, capsys):
        import json

        export = tmp_path / "funnel.json"
        assert main(
            ["serve-bench", dataset_file, "--queries", "8", "--shards", "2",
             "--funnel-export", str(export)]
        ) == 0
        document = json.loads(export.read_text())
        assert document["invariant_violations"] == []
        assert document["funnels_collected"] > 0


class TestFeaturesCommands:
    def test_build_and_stats(self, dataset_file, tmp_path, capsys):
        out_path = str(tmp_path / "plane.json")
        assert main(["features", "build", dataset_file, "--out", out_path]) == 0
        assert "wrote feature plane for 4 trees" in capsys.readouterr().out
        assert main(["features", "stats", out_path]) == 0
        out = capsys.readouterr().out
        assert "trees: 4" in out
        assert "extraction_passes: 0" in out

    def test_build_multiple_q_levels(self, dataset_file, tmp_path, capsys):
        out_path = str(tmp_path / "plane.json")
        code = main(
            ["features", "build", dataset_file, "--out", out_path, "--q", "2", "3"]
        )
        assert code == 0
        assert "q_levels=[2, 3]" in capsys.readouterr().out

    def test_build_invalid_q_level_errors_cleanly(self, dataset_file, tmp_path):
        code = main(
            ["features", "build", dataset_file,
             "--out", str(tmp_path / "x.json"), "--q", "1"]
        )
        assert code == 2

    def test_stats_rejects_foreign_file(self, dataset_file):
        assert main(["features", "stats", dataset_file]) == 2

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["features"])


class TestVerify:
    def test_list_oracles(self, capsys):
        assert main(["verify", "--list-oracles"]) == 0
        out = capsys.readouterr().out
        assert "bound:BiBranch" in out
        assert "service:cache-transparency" in out

    def test_single_oracle_human_report(self, capsys):
        assert main(["verify", "--oracle", "metric:bdist"]) == 0
        out = capsys.readouterr().out
        assert "verify seed=0 budget=small" in out
        assert "metric:bdist" in out
        assert "TOTAL" in out

    def test_json_report(self, capsys):
        import json

        assert main(
            ["verify", "--oracle", "bound:SizeDiff", "--json", "--seed", "4"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["seed"] == 4
        assert report["oracles"]["bound:SizeDiff"]["checks"] > 0

    def test_unknown_oracle_fails_fast(self, capsys):
        assert main(["verify", "--oracle", "bound:nope"]) == 2
        assert "unknown oracle" in capsys.readouterr().err

    def test_unknown_budget_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "--budget", "galactic"])

    def test_replay_fixed_repro_file(self, tmp_path, capsys):
        import json

        path = tmp_path / "violation.json"
        path.write_text(
            json.dumps(
                {
                    "format": "repro-verify",
                    "version": 1,
                    "oracle": "bound:BiBranchCount",
                    "message": "stale report",
                    "t1": "a(b,c)",
                    "t2": "a(b,c)",
                }
            )
        )
        assert main(["verify", "--replay", str(path)]) == 0
        assert "no longer violates" in capsys.readouterr().out


class TestBenchLedger:
    def _run(self, tmp_path, name, **overrides):
        out = str(tmp_path / name)
        args = [
            "bench", "run", "--out", out,
            "--count", "20", "--queries", "4",
            "--spec", "N{3,0.5}N{15,2}L6D0.05",
        ]
        for flag, value in overrides.items():
            args.extend([f"--{flag}", str(value)])
        assert main(args) == 0
        return out

    def test_run_emits_schema_versioned_record(self, tmp_path, capsys):
        import json

        out = self._run(tmp_path, "BENCH_A.json")
        with open(out, encoding="utf-8") as handle:
            record = json.load(handle)
        assert record["format"] == "repro-bench"
        assert record["version"] == 1
        assert record["label"] == "BENCH_A"
        assert set(record["suites"]) == {
            "serve_throughput", "vectorized_filters", "index_candidates"
        }
        assert "wrote" in capsys.readouterr().out

    def test_self_compare_exits_zero(self, tmp_path, capsys):
        out = self._run(tmp_path, "BENCH_A.json")
        assert main(["bench", "compare", out, out]) == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_injected_regression_exits_nonzero(self, tmp_path, capsys):
        import json

        baseline = self._run(tmp_path, "BENCH_A.json")
        with open(baseline, encoding="utf-8") as handle:
            record = json.load(handle)
        for metrics in record["suites"].values():
            for key, value in metrics.items():
                if isinstance(value, int) and not isinstance(value, bool):
                    metrics[key] = value + 17
        worse = tmp_path / "BENCH_B.json"
        worse.write_text(json.dumps(record))
        assert main(["bench", "compare", baseline, str(worse)]) == 1
        assert "regression" in capsys.readouterr().out

    def test_compare_json_output(self, tmp_path, capsys):
        import json

        out = self._run(tmp_path, "BENCH_A.json")
        capsys.readouterr()  # drain the `bench run` status line
        assert main(["bench", "compare", out, out, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["regressions"] == 0

    def test_corpus_mismatch_refused(self, tmp_path, capsys):
        baseline = self._run(tmp_path, "BENCH_A.json")
        other = self._run(tmp_path, "BENCH_B.json", **{"corpus-seed": "9"})
        assert main(["bench", "compare", baseline, other]) == 2
        assert "corpus" in capsys.readouterr().err

    def test_garbage_baseline_exits_two(self, tmp_path, capsys):
        junk = tmp_path / "junk.json"
        junk.write_text("{\"format\": \"other\"}")
        current = self._run(tmp_path, "BENCH_A.json")
        assert main(["bench", "compare", str(junk), current]) == 2
        assert capsys.readouterr().err


class TestCostReportAndProfile:
    def test_search_cost_report_on_stderr(self, dataset_file, capsys):
        assert main(
            ["search", dataset_file, "--query", "a(b,c)", "--range", "1",
             "--cost-report"]
        ) == 0
        err = capsys.readouterr().err
        assert "speedup" in err
        assert "BiBranch" in err

    def test_search_profile_writes_collapsed_stacks(self, dataset_file,
                                                    tmp_path, capsys):
        out = tmp_path / "profile.txt"
        assert main(
            ["search", dataset_file, "--query", "a(b,c)", "--range", "1",
             "--profile", str(out), "--profile-interval", "0"]
        ) == 0
        assert "profile samples" in capsys.readouterr().err
        lines = out.read_text().strip().splitlines()
        assert lines
        for line in lines:
            stack, _, count = line.rpartition(" ")
            assert stack and int(count) > 0

    def test_search_profile_json_document(self, dataset_file, tmp_path):
        import json

        out = tmp_path / "profile.json"
        assert main(
            ["search", dataset_file, "--query", "a(b,c)", "--knn", "2",
             "--profile", str(out), "--profile-interval", "0"]
        ) == 0
        document = json.loads(out.read_text())
        assert document["format"] == "repro-profile"
        assert document["total_samples"] > 0

    def test_serve_bench_cost_report_and_health(self, dataset_file, capsys):
        assert main(
            ["serve-bench", dataset_file, "--queries", "8", "--shards", "2",
             "--cost-report", "--json"]
        ) == 0
        import json

        report = json.loads(capsys.readouterr().out)
        assert "cost_report" in report
        assert len(report["health"]["shards"]) == 2


class TestMetricsShards:
    def test_dump_includes_shard_health_gauges(self, dataset_file, capsys):
        assert main(
            ["metrics", "dump", dataset_file, "--queries", "6", "--shards", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert 'repro_shard_trees{shard="0"}' in out
        assert 'repro_shard_trees{shard="1"}' in out
        assert "repro_shard_stage_seconds" in out

    def test_single_shard_dump_serves_matrix_planes(
        self, dataset_file, monkeypatch, capsys
    ):
        import repro.service

        served = []

        class RecordingService(repro.service.TreeSearchService):
            def __init__(self, database, **kwargs):
                super().__init__(database, **kwargs)
                served.append(database)

        monkeypatch.setattr(repro.service, "TreeSearchService", RecordingService)
        assert main(["metrics", "dump", dataset_file, "--queries", "6"]) == 0
        assert len(served) == 1
        assert served[0].matrices() is not None
