"""The candidate-index name the benchmark harness imports.

The extended inverted file is the only candidate index, so the contract
and its implementation are one class; this module keeps the published
``repro.index.base.CandidateIndex`` import path pointing at it.
"""

from __future__ import annotations

from repro.index.inverted import ExtendedInvertedFile as CandidateIndex

__all__ = ["CandidateIndex"]
