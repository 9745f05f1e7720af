"""Self-tests of the end-to-end benchmark.

Run from the repository root with ``PYTHONPATH=src python -m pytest
benchmarks/e2e``; tier-1 does not collect them.  Workloads run here at a
tiny scale: the client functions take corpus sizes and op counts through
the :class:`~benchmarks.e2e.workloads.Workload` they are given.
"""

from __future__ import annotations

import dataclasses
import json
import os
from multiprocessing import resource_tracker
from pathlib import Path

import pytest

from benchmarks.e2e import agree, client, run, tracer, workloads
from benchmarks.e2e.workloads import WORKLOADS, build_inputs
from repro import to_bracket

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def tiny(name: str) -> workloads.Workload:
    sizes = {"synthetic": 12, "dblp": 60}
    return dataclasses.replace(
        WORKLOADS[name],
        corpus_size=sizes[WORKLOADS[name].corpus],
        ops=workloads.MIN_OPS,
        k=2,
    )


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_input_digest_follows_the_seed(name):
    workload = tiny(name)
    first = build_inputs(workload, 0).digest
    assert build_inputs(workload, 0).digest == first
    assert build_inputs(workload, 1).digest != first


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_completes_with_correct_answers(name):
    record = client.run_untraced(tiny(name), 0, 0.0)
    assert record["correct"], record["problems"]
    assert record["failed"] == 0
    assert record["attempted"] == workloads.MIN_OPS
    for metric, _ in client.END_TO_END:
        assert record["metrics"][metric]["value"] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_queries_are_fresh_objects(name):
    inputs = build_inputs(tiny(name), 0)
    corpus = {to_bracket(tree) for tree in inputs.corpus}
    ops = list(inputs.stream)
    assert len(ops) == workloads.MIN_OPS
    brackets = [to_bracket(op.tree) for op in ops]
    assert not corpus & set(brackets)
    # mixed_rw_dblp sends each of its 10 range and 10 k-NN reads twice
    repeats = 20 if name == "mixed_rw_dblp" else 0
    assert len(set(brackets)) == len(brackets) - repeats


class _OneWrongAnswer:
    """The real service, except that a request served twice gets a k-NN
    answer one edit too far (the answer check re-serves one)."""

    def __init__(self, workload, corpus):
        self.inner = client.open_service(workload, corpus)
        self.served = {}  # id -> request, held so that ids are not reused

    def execute(self, request):
        matches, stats = self.inner.execute(request)
        if id(request) in self.served:
            return [(index, distance + 1) for index, distance in matches], stats
        self.served[id(request)] = request
        return matches, stats

    def add(self, tree):
        return self.inner.add(tree)

    def close(self):
        self.inner.close()


def test_a_wrong_answer_fails_the_run():
    record = client.run_untraced(
        tiny("knn_synthetic"), 0, 0.0, make_service=_OneWrongAnswer
    )
    assert not record["correct"]
    assert record["failed"] == 1
    assert "differs from the sequential scan" in record["problems"][0]


@pytest.mark.parametrize("name", ["mixed_rw_dblp", "sharded_dblp"])
def test_traced_run_restores_every_wrapped_attribute(name):
    targets = tracer.wrap_targets()
    before = [(owner, attr, vars(owner).get(attr)) for owner, attr, _, _ in targets]
    record, spans = client.run_traced(tiny(name), 0)
    assert all(vars(owner).get(attr) is value for owner, attr, value in before)
    assert record["correct"], record["problems"]
    assert list(record["per_layer"]) == [metric for metric, _ in tracer.PER_LAYER]
    assert record["per_layer"]["trace.coverage"] > 0.9
    assert spans and all(span["end"] >= span["start"] for span in spans)


def test_no_helper_process_outlives_a_sharded_run():
    client.run_untraced(tiny("sharded_dblp"), 0, 0.0)
    tracker = resource_tracker._resource_tracker
    pid = tracker._pid
    assert pid is not None  # the shared-memory planes started it
    client.stop_helper_processes()
    assert tracker._pid is None
    with pytest.raises(ChildProcessError):  # already waited for
        os.waitpid(pid, os.WNOHANG)


def test_traced_and_untraced_runs_give_the_same_answers():
    workload = tiny("mixed_rw_dblp")
    traced, _ = client.run_traced(workload, 3)
    plain = client.run_untraced(workload, 3, 0.0)
    assert traced["answer_digest"] == plain["answer_digest"]
    assert traced["per_layer"]["search.candidates"] > 0


def test_percentile_needs_ten_samples_beyond_it():
    assert client.percentile(range(100), 0.9) == pytest.approx(89.5)
    assert client.percentile(range(20), 0.5) == pytest.approx(9.5)
    assert client.percentile([7.0] * 100, 0.9) == pytest.approx(7.0)
    with pytest.raises(ValueError):
        client.percentile(range(99), 0.9)
    with pytest.raises(ValueError):
        client.percentile(range(19), 0.5)


def test_self_time_subtracts_the_union_of_children():
    parent = ["p", 0.0, 10.0, None, 0, 0]
    spans = [
        parent,
        ["a", 1.0, 4.0, parent, 0, 0],
        ["b", 3.0, 6.0, parent, 0, 0],  # overlaps a: a scatter thread
    ]
    assert tracer.self_times(spans)[id(parent)] == pytest.approx(5.0)


def test_agree_verdicts():
    assert agree.verdict([10, 10, 10.5], [10.2, 10.4, 10.1], 0.1, "lower") == (
        "within-bound"
    )
    assert agree.verdict([10, 10, 10.5], [13, 13, 13.2], 0.1, "lower") == "worse"
    assert agree.verdict([10, 10, 10.5], [8, 8, 7.5], 0.1, "higher") == "worse"
    assert agree.verdict([10, 20, 30], [15, 25, 35], 0.1, "lower") == "unresolved"
    assert agree.verdict([10, 20, 30], [1, 2, 3], 0.1, "lower") == "within-bound"


def test_benchmark_json_matches_the_code():
    spec = json.loads(BENCHMARK.read_text())
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        client.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        tracer.PER_LAYER
    )
    setup_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound for m in spec["end_to_end"])
