"""Exception hierarchy for the repro library."""

from __future__ import annotations

__all__ = [
    "ReproError",
    "TreeParseError",
    "InvalidTreeError",
    "InvalidEditOperationError",
    "QueryError",
    "InvalidParameterError",
    "SignatureMismatchError",
    "FilterStateError",
    "ShardError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class TreeParseError(ReproError, ValueError):
    """A tree could not be parsed from its textual representation."""


class InvalidTreeError(ReproError, ValueError):
    """A tree violates a structural precondition of an algorithm."""


class InvalidEditOperationError(ReproError, ValueError):
    """An edit operation cannot be applied to the given tree."""


class QueryError(ReproError, ValueError):
    """A similarity query was issued with invalid parameters."""


class InvalidParameterError(ReproError, ValueError):
    """A structural parameter (branch level, index id, …) is out of range."""


class SignatureMismatchError(ReproError, ValueError):
    """Two per-tree signatures live in incomparable embedding spaces.

    Raised when comparing branch vectors or positional profiles built with
    different branch levels ``q``, or packed vectors interned against
    different vocabularies.
    """


class FilterStateError(ReproError, RuntimeError):
    """A filter was used outside its fit → add/bounds lifecycle."""


class ShardError(ReproError, RuntimeError):
    """A shard worker process failed or the scatter protocol broke down."""
