"""Candidate-generation work across the three sources.

Not a paper figure — a harness entry for the sublinear candidate index
(`repro.index`).  The same selective range-query stream is answered
three ways over the same fitted filter:

* **loop** / **vectorized**: both consult every corpus row per query
  (one in Python, one through the matrix planes);
* **ifi**: the extended inverted file touches only the posting lists of
  the query's own branches plus a norm-sorted prefix.

The assertions encode the subsystem's contract: answers and refined
candidates bit-identical to the loop reference, and — the sublinearity
headline — the index examines **< 50 % of the corpus rows** per query
at selective thresholds on the 5000-tree corpus.  The
`search:index-completeness` oracle checks exactness across far more
configurations; this driver pins the *work saved*.
"""

import time

from benchmarks.figure_common import save_report
from repro.datasets import SyntheticSpec, generate_dataset
from repro.filters.binary_branch import BinaryBranchFilter
from repro.search.database import TreeDatabase
from repro.search.range_query import range_query

# a wide label alphabet is the regime the inverted file is built for:
# posting lists stay short because few rows share the query's branches
SPEC = SyntheticSpec(
    fanout_mean=4, fanout_stddev=0.5, size_mean=20, size_stddev=2,
    label_count=48, decay=0.05,
)

SIZES = (1500, 5000)
THRESHOLD = 1.0
QUERY_COUNT = 8
MAX_EXAMINED_FRACTION = 0.5


def _run_stream(trees, queries, flt, counter, *, matrices=None, index=None):
    answers = []
    candidates = 0
    examined = 0
    started = time.perf_counter()
    for query in queries:
        matches, stats = range_query(
            trees, query, THRESHOLD, flt, counter,
            matrices=matrices, index=index,
        )
        answers.append(matches)
        candidates += stats.candidates
        examined += index.last_examined if index is not None else len(trees)
    return answers, candidates, examined, time.perf_counter() - started


def test_index_candidate_pruning(benchmark):
    lines = [
        "Candidate-generation work per source (range queries, "
        f"threshold {THRESHOLD:g}, {QUERY_COUNT} queries)",
        "",
        f"{'trees':>6}  {'source':<10}  {'examined/query':>14}  "
        f"{'fraction':>8}  {'refined':>7}  {'seconds':>8}",
    ]
    fractions = {}
    rerun = None
    for size in SIZES:
        trees = generate_dataset(SPEC, count=size, seed=31)
        queries = trees[:QUERY_COUNT]
        database = TreeDatabase(list(trees), flt=BinaryBranchFilter())
        flt, counter = database.filter, database.counter
        matrices = database.matrices()
        assert matrices is not None

        streams = {
            "loop": {},
            "vectorized": {"matrices": matrices},
            "ifi": {"index": database.candidate_index()},
        }
        reference = None
        for source, kwargs in streams.items():
            answers, candidates, examined, seconds = _run_stream(
                trees, queries, flt, counter, **kwargs
            )
            if reference is None:
                reference = (answers, candidates)
            # exactness first: pruning must never change the answer
            assert (answers, candidates) == reference
            fraction = examined / (size * QUERY_COUNT)
            fractions[(size, source)] = fraction
            lines.append(
                f"{size:>6}  {source:<10}  {examined / QUERY_COUNT:>14.1f}  "
                f"{fraction:>8.1%}  {candidates:>7}  {seconds:>8.3f}"
            )
            if size == SIZES[-1] and source == "ifi":
                rerun = (trees, queries, kwargs)

    save_report("index_candidates", "\n".join(lines))

    fraction = fractions[(SIZES[-1], "ifi")]
    assert fraction < MAX_EXAMINED_FRACTION, (
        f"ifi examined {fraction:.1%} of the {SIZES[-1]}-tree corpus "
        f"(sublinearity claim needs < {MAX_EXAMINED_FRACTION:.0%})"
    )

    trees, queries, kwargs = rerun
    benchmark.pedantic(
        lambda: _run_stream(trees, queries, flt, counter, **kwargs),
        rounds=3, iterations=1,
    )
