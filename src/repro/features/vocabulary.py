"""Shared integer vocabulary for branch keys.

Every derived artifact in the feature plane that refers to a branch — packed
vectors, matrix plane columns, the candidate index — speaks in small
integer dimension ids instead of repeating the (hash-heavy, tuple-shaped)
branch keys.  One :class:`Vocabulary` is shared across a whole corpus, so
identical branches in different trees intern to the same id and packed
vectors become directly comparable integer arrays.

Branch keys from different q levels may share a vocabulary: 2-level
:class:`~repro.core.branches.BinaryBranch` triples and q-level
:class:`~repro.core.qlevel.QLevelBranch` tuples are distinct hashables, so
their ids never collide.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Tuple

__all__ = ["Vocabulary"]

BranchKey = Hashable


class Vocabulary:
    """An append-only intern table: branch key ↔ dense integer id.

    Ids are assigned in first-seen order starting at 0; the table never
    forgets or reassigns, so ids embedded in packed vectors stay valid for
    the vocabulary's lifetime.

    >>> vocabulary = Vocabulary()
    >>> vocabulary.intern("a(b,c)")
    0
    >>> vocabulary.intern("a(b,c)")
    0
    >>> vocabulary.lookup("a(b,c)"), vocabulary.lookup("unseen")
    (0, None)
    >>> vocabulary.key(0)
    'a(b,c)'
    """

    __slots__ = ("_ids", "_keys")

    def __init__(self) -> None:
        self._ids: Dict[BranchKey, int] = {}
        self._keys: List[BranchKey] = []

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: BranchKey) -> bool:
        return key in self._ids

    def __iter__(self) -> Iterator[BranchKey]:
        return iter(self._keys)

    def intern(self, key: BranchKey) -> int:
        """Id of ``key``, assigning the next free id on first sight."""
        ids = self._ids
        value = ids.get(key)
        if value is None:
            value = len(self._keys)
            ids[key] = value
            self._keys.append(key)
        return value

    def lookup(self, key: BranchKey):
        """Id of ``key`` or ``None`` — never grows the table (query-safe)."""
        return self._ids.get(key)

    def key(self, dimension: int) -> BranchKey:
        """Inverse mapping: the branch key of a dimension id."""
        return self._keys[dimension]

    def items(self) -> Iterator[Tuple[BranchKey, int]]:
        """``(key, id)`` pairs in id order."""
        return ((key, index) for index, key in enumerate(self._keys))

    def __repr__(self) -> str:
        return f"Vocabulary({len(self)} keys)"
