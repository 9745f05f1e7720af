"""String (Levenshtein) edit distance.

Two roles in the reproduction:

* it is the substrate of the *q-gram* filtering analogy that motivates the
  binary branch embedding (paper §1, §3.4), and
* the Guha et al. (SIGMOD 2002) baseline filter lower-bounds the tree edit
  distance by the string edit distance of preorder/postorder label sequences
  (:mod:`repro.filters.traversal_string`); the same bound gates k-NN
  and range refines (:func:`traversal_strings_exceed`).
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Optional, Sequence, Tuple

__all__ = [
    "string_edit_distance",
    "string_edit_distance_bounded",
    "traversal_strings_exceed",
]


def string_edit_distance(a: Sequence, b: Sequence) -> int:
    """Unit-cost Levenshtein distance between two sequences.

    Classic two-row dynamic program, ``O(|a||b|)`` time, ``O(min)`` space.

    >>> string_edit_distance("kitten", "sitting")
    3
    >>> string_edit_distance("kitten", "kitten")
    0
    >>> string_edit_distance(list("abc"), list("abd"))
    1
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, item_a in enumerate(a, start=1):
        current = [i] + [0] * len(b)
        for j, item_b in enumerate(b, start=1):
            cost = 0 if item_a == item_b else 1
            current[j] = min(
                previous[j] + 1,  # delete
                current[j - 1] + 1,  # insert
                previous[j - 1] + cost,  # substitute / keep
            )
        previous = current
    return previous[-1]


def string_edit_distance_bounded(
    a: Sequence, b: Sequence, bound: int
) -> Optional[int]:
    """Levenshtein distance, decided against ``bound``.

    Returns the distance when it is ``<= bound``, otherwise ``None``.  A
    length gap above ``bound`` answers at once.  A shared prefix and suffix
    are then dropped, since an optimal alignment matches them at no cost,
    so near-identical sequences leave little to compare.  The distance of
    the rest comes from the bit-parallel program of Myers (J. ACM 1999) in
    Hyyrö's edit-distance form (2001): one column of the DP per symbol of
    the longer sequence, held as two bit vectors over the shorter one, so
    a pair costs ``O(max(|a|, |b|))`` integer operations instead of
    ``|a|·|b|`` cell updates.  :func:`string_edit_distance` stays the
    plain-DP reference.
    """
    if bound < 0 or abs(len(a) - len(b)) > bound:
        return None
    start, end_a, end_b = 0, len(a), len(b)
    while start < end_a and start < end_b and a[start] == b[start]:
        start += 1
    while end_a > start and end_b > start and a[end_a - 1] == b[end_b - 1]:
        end_a -= 1
        end_b -= 1
    a, b = a[start:end_a], b[start:end_b]
    if len(a) > len(b):
        a, b = b, a
    if not a:
        distance = len(b)
    else:
        # bit i of peq[x]: a[i] == x; pv / mv: the +1 / −1 vertical deltas
        # of the current column, whose last row is the distance so far
        peq: Dict[Hashable, int] = {}
        for i, item in enumerate(a):
            peq[item] = peq.get(item, 0) | (1 << i)
        last = 1 << (len(a) - 1)
        mask = (last << 1) - 1
        pv, mv, distance = mask, 0, len(a)
        for item in b:
            eq = peq.get(item, 0)
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | ~(xh | pv)
            mh = pv & xh
            if ph & last:
                distance += 1
            elif mh & last:
                distance -= 1
            ph = (ph << 1) | 1  # row 0 of the DP rises by one per column
            pv = ((mh << 1) | ~(xv | ph)) & mask
            mv = ph & xv
    return distance if distance <= bound else None


def traversal_strings_exceed(
    query: Tuple[Sequence, Sequence],
    data: Tuple[Sequence, Sequence],
    threshold: float,
) -> bool:
    """Whether ``max(SED(pre), SED(post)) > threshold`` for two trees.

    ``query`` and ``data`` are ``(preorder, postorder)`` label sequences.
    The distances are integers, so both are decided at
    ``floor(threshold)`` (:func:`string_edit_distance_bounded`), postorder
    first, and the test stops at the first one above it.
    ``threshold = inf`` is never exceeded; a negative one always is, since
    every distance is ``≥ 0``.

    >>> traversal_strings_exceed(("ab", "ba"), ("ac", "ca"), 0.5)
    True
    >>> traversal_strings_exceed(("ab", "ba"), ("ac", "ca"), 1)
    False
    """
    if math.isinf(threshold):
        return threshold < 0
    bound = math.floor(threshold)
    return (
        string_edit_distance_bounded(query[1], data[1], bound) is None
        or string_edit_distance_bounded(query[0], data[0], bound) is None
    )
