"""repro.verify — the differential & metamorphic oracle harness.

The paper's value proposition is a chain of provable invariants: the binary
branch distance over 5 lower-bounds the unit-cost tree edit distance
(Theorem 4.2), q-level branches obey the ``[4(q-1)+1]·k`` bound, and the
positional refinement tightens but never exceeds soundness.  The layers
added on top of the core algorithms — the shared feature plane, the packed
vectors, the serving cache, save/load persistence — each claim to be
*transparent*: faster, but answer-identical.

This package checks all of it systematically.  A seedable corpus generator
(:mod:`repro.verify.corpus`) produces trees and pairs with
construction-time ground truth (``k`` random edit operations bound the
distance by ``k``); a registry of oracles (:mod:`repro.verify.oracles`)
re-derives every invariant over the corpus; failing pairs are shrunk to
minimal counterexamples (:mod:`repro.verify.shrink`) and emitted as
replayable JSON repro files; and the whole run is summarised in a
:class:`~repro.verify.report.VerifyReport` with per-oracle pass/violation
counts (:mod:`repro.verify.runner`).

Entry points: ``repro verify --seed --budget --oracle`` on the command
line, :func:`run_verification` from code, and the pytest bridge in
``tests/verify/`` (small budget in tier-1, large budget in CI).
"""

from repro.verify.corpus import BUDGETS, TreePair, VerifyCorpus, build_corpus
from repro.verify.oracles import ORACLE_FACTORIES, default_oracle_names, make_oracles
from repro.verify.report import OracleOutcome, VerifyReport, Violation
from repro.verify.runner import (
    load_repro_file,
    replay_repro_file,
    run_verification,
    save_repro_file,
)
from repro.verify.shrink import shrink_pair, shrink_tree

__all__ = [
    "BUDGETS",
    "TreePair",
    "VerifyCorpus",
    "build_corpus",
    "ORACLE_FACTORIES",
    "default_oracle_names",
    "make_oracles",
    "OracleOutcome",
    "VerifyReport",
    "Violation",
    "run_verification",
    "save_repro_file",
    "load_repro_file",
    "replay_repro_file",
    "shrink_pair",
    "shrink_tree",
]
