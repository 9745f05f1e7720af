"""Positional binary branch distance and the optimistic bound search (§4.2).

Beyond branch *counts*, the positions of branches carry structural evidence:
by Proposition 4.1, in any edit mapping of cost ≤ ``l`` a node of ``T1`` can
only map to a node of ``T2`` whose preorder (and postorder) number differs by
at most ``l``.  The *positional binary branch distance* therefore only lets
two identical branches cancel out when their positions are within a range
``pr``:

    PosBDist(T1, T2, pr) = Σ_j (b1j + b2j − 2 |Mmax(T1, T2, j, pr)|)

and Proposition 4.2 gives:  ``PosBDist(T1, T2, l) > 5·l  ⟹  EDist > l``.

``SearchLBound`` turns this refutation test into a numeric lower bound: the
smallest ``pr`` with ``PosBDist(pr) ≤ 5·pr`` lower-bounds the edit distance,
and it always dominates both ``⌈BDist/5⌉`` and the size difference.

**Mmax approximation.**  The paper stores, per branch, the preorder position
sequence and the postorder position sequence *independently sorted*, and
computes ``|Mmax|`` from them in linear time.  We do the same: a two-pointer
greedy maximum matching on each dimension (optimal for the one-dimensional
``|x − y| ≤ pr`` constraint because the compatibility graph is an interval
bigraph), then ``min`` of the two sizes.  Relative to the exact matching
under *both* constraints simultaneously this can only be larger, hence
``PosBDist`` can only be smaller, hence the lower bound stays **sound** —
any over-match weakens but never breaks the filter.  An exact bipartite
matcher (Kuhn's algorithm) is provided for validation (``exact=True``).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Hashable, List, Sequence, Tuple, Union

from repro.core.branches import iter_positional_branches
from repro.core.qlevel import iter_positional_qlevel_branches, qlevel_bound_factor
from repro.exceptions import SignatureMismatchError
from repro.trees.node import TreeNode

__all__ = [
    "PositionalProfile",
    "positional_profile",
    "greedy_interval_matching",
    "exact_position_matching",
    "positional_branch_distance",
    "positional_refutes",
    "search_lower_bound",
]

BranchKey = Hashable


class PositionalProfile:
    """Per-tree positional index: branch → sorted position sequences.

    This is the per-record slice of the extended inverted file of
    Algorithm 1 — for every branch, the number of occurrences plus the
    ascending preorder and postorder position lists.
    """

    __slots__ = ("pre_positions", "post_positions", "pairs", "tree_size", "q")

    def __init__(
        self,
        pre_positions: Dict[BranchKey, List[int]],
        post_positions: Dict[BranchKey, List[int]],
        pairs: Dict[BranchKey, List[Tuple[int, int]]],
        tree_size: int,
        q: int,
    ) -> None:
        self.pre_positions = pre_positions
        self.post_positions = post_positions
        self.pairs = pairs
        self.tree_size = tree_size
        self.q = q

    def count(self, branch: BranchKey) -> int:
        """Occurrences of ``branch`` in the tree."""
        positions = self.pre_positions.get(branch)
        return 0 if positions is None else len(positions)

    @property
    def branches(self) -> List[BranchKey]:
        """The distinct branches of the tree."""
        return list(self.pre_positions)

    def __repr__(self) -> str:
        return (
            f"PositionalProfile(q={self.q}, branches={len(self.pre_positions)}, "
            f"tree_size={self.tree_size})"
        )


def positional_profile(tree: TreeNode, q: int = 2) -> PositionalProfile:
    """Build the positional branch profile of a tree in one traversal."""
    if q == 2:
        items = iter_positional_branches(tree)
    else:
        qlevel_bound_factor(q)
        items = iter_positional_qlevel_branches(tree, q)
    pre: Dict[BranchKey, List[int]] = defaultdict(list)
    post: Dict[BranchKey, List[int]] = defaultdict(list)
    pairs: Dict[BranchKey, List[Tuple[int, int]]] = defaultdict(list)
    size = 0
    for positional in items:
        size += 1
        pre[positional.branch].append(positional.pre)
        post[positional.branch].append(positional.post)
        pairs[positional.branch].append((positional.pre, positional.post))
    for positions in pre.values():
        positions.sort()
    for positions in post.values():
        positions.sort()
    return PositionalProfile(dict(pre), dict(post), dict(pairs), size, q)


def greedy_interval_matching(
    a: Sequence[int], b: Sequence[int], pr: int
) -> int:
    """Maximum matching size between sorted sequences with ``|x−y| ≤ pr``.

    Two-pointer greedy; optimal because compatibility intervals are sorted
    on both sides (matching in an interval bigraph is solved greedily).
    Linear in ``len(a) + len(b)``.
    """
    i = j = matched = 0
    len_a, len_b = len(a), len(b)
    while i < len_a and j < len_b:
        delta = a[i] - b[j]
        if -pr <= delta <= pr:
            matched += 1
            i += 1
            j += 1
        elif delta < -pr:
            i += 1
        else:
            j += 1
    return matched


def exact_position_matching(
    pairs_a: Sequence[Tuple[int, int]],
    pairs_b: Sequence[Tuple[int, int]],
    pr: int,
) -> int:
    """Exact maximum matching under *both* position constraints.

    ``(pre, post)`` occurrence ``u`` may match occurrence ``v`` iff
    ``|pre_u − pre_v| ≤ pr`` and ``|post_u − post_v| ≤ pr``.  Kuhn's
    augmenting-path algorithm; only used for validation and experiments
    (O(V·E) per branch), never on the hot path.
    """
    adjacency: List[List[int]] = []
    for pre_a, post_a in pairs_a:
        row = [
            idx
            for idx, (pre_b, post_b) in enumerate(pairs_b)
            if abs(pre_a - pre_b) <= pr and abs(post_a - post_b) <= pr
        ]
        adjacency.append(row)
    match_b: List[int] = [-1] * len(pairs_b)

    def try_augment(u: int, visited: List[bool]) -> bool:
        for v in adjacency[u]:
            if visited[v]:
                continue
            visited[v] = True
            if match_b[v] == -1 or try_augment(match_b[v], visited):
                match_b[v] = u
                return True
        return False

    matched = 0
    for u in range(len(pairs_a)):
        if try_augment(u, [False] * len(pairs_b)):
            matched += 1
    return matched


def positional_branch_distance(
    p1: Union[TreeNode, PositionalProfile],
    p2: Union[TreeNode, PositionalProfile],
    pr: int,
    q: int = 2,
    exact: bool = False,
) -> int:
    """``PosBDist(T1, T2, pr)`` (Definition 6).

    Accepts trees or prebuilt :class:`PositionalProfile` objects.  With
    ``exact=True`` the true two-constraint maximum matching is used instead
    of the paper's linear-time approximation (see module docstring).

    >>> from repro.trees import parse_bracket
    >>> t1, t2 = parse_bracket("a(b,c)"), parse_bracket("a(b,c)")
    >>> positional_branch_distance(t1, t2, pr=0)
    0
    """
    profile1 = p1 if isinstance(p1, PositionalProfile) else positional_profile(p1, q)
    profile2 = p2 if isinstance(p2, PositionalProfile) else positional_profile(p2, q)
    if profile1.q != profile2.q:
        raise SignatureMismatchError("profiles built with different branch levels")
    total = 0
    keys = set(profile1.pre_positions) | set(profile2.pre_positions)
    for key in keys:
        count1 = profile1.count(key)
        count2 = profile2.count(key)
        if count1 == 0 or count2 == 0:
            total += count1 + count2
            continue
        if exact:
            matched = exact_position_matching(
                profile1.pairs[key], profile2.pairs[key], pr
            )
        else:
            matched_pre = greedy_interval_matching(
                profile1.pre_positions[key], profile2.pre_positions[key], pr
            )
            matched_post = greedy_interval_matching(
                profile1.post_positions[key], profile2.post_positions[key], pr
            )
            matched = min(matched_pre, matched_post)
        total += count1 + count2 - 2 * matched
    return total


def _split_branches(
    profile1: PositionalProfile, profile2: PositionalProfile, exact: bool
) -> Tuple[int, int, List[Tuple[Any, ...]]]:
    """Split ``PosBDist`` into its range-free and range-dependent parts.

    Returns ``(constant, count_distance, shared)``.  ``constant`` counts
    the occurrences of branches only one tree holds, which add to
    ``PosBDist`` at every range; ``count_distance`` is ``BDist``; and
    ``shared`` holds, per branch both trees hold, what matching it at a
    range needs (both trees' sorted preorder and postorder positions, or
    with ``exact`` their ``(pre, post)`` pairs) followed by its total
    occurrence count.
    """
    pre1, pre2 = profile1.pre_positions, profile2.pre_positions
    constant = 0
    count_distance = 0
    shared: List[Tuple[Any, ...]] = []
    for key, positions in pre1.items():
        other = pre2.get(key)
        if other is None:
            constant += len(positions)
            continue
        count_distance += abs(len(positions) - len(other))
        total = len(positions) + len(other)
        if exact:
            shared.append((profile1.pairs[key], profile2.pairs[key], total))
        else:
            shared.append(
                (
                    positions,
                    other,
                    profile1.post_positions[key],
                    profile2.post_positions[key],
                    total,
                )
            )
    for key, positions in pre2.items():
        if key not in pre1:
            constant += len(positions)
    return constant, count_distance + constant, shared


def _distance_exceeds(
    constant: int,
    shared: List[Tuple[Any, ...]],
    pr: int,
    budget: float,
    exact: bool,
) -> bool:
    """``PosBDist(pr) > budget`` over a :func:`_split_branches` split.

    The capped form of Proposition 4.2's test, and its one definition:
    every branch adds ``c1 + c2 − 2·|M| ≥ 0``, so the running sum only
    grows and the walk stops at the branch that carries it past
    ``budget``.
    """
    distance = constant
    if distance > budget:
        return True
    if exact:
        for pairs1, pairs2, total in shared:
            distance += total - 2 * exact_position_matching(pairs1, pairs2, pr)
            if distance > budget:
                return True
        return False
    for seq_pre1, seq_pre2, seq_post1, seq_post2, total in shared:
        matched = greedy_interval_matching(seq_pre1, seq_pre2, pr)
        matched_post = greedy_interval_matching(seq_post1, seq_post2, pr)
        if matched_post < matched:
            matched = matched_post
        distance += total - 2 * matched
        if distance > budget:
            return True
    return False


def positional_refutes(
    p1: PositionalProfile, p2: PositionalProfile, pr: int, exact: bool = False
) -> bool:
    """Proposition 4.2 at one range: ``PosBDist(pr) > [4(q−1)+1]·pr``.

    True proves ``EDist > pr``.  One distance evaluation, stopped as soon
    as the sum passes the budget; :func:`search_lower_bound` runs the
    same test at every range it probes.

    >>> from repro.trees import parse_bracket
    >>> a = positional_profile(parse_bracket("a(b,c)"))
    >>> b = positional_profile(parse_bracket("x(y,z)"))
    >>> positional_refutes(a, b, 1), positional_refutes(a, b, 2)
    (True, False)
    """
    if p1.q != p2.q:
        raise SignatureMismatchError("profiles built with different branch levels")
    constant, _, shared = _split_branches(p1, p2, exact)
    return _distance_exceeds(
        constant, shared, pr, qlevel_bound_factor(p1.q) * pr, exact
    )


def search_lower_bound(
    p1: Union[TreeNode, PositionalProfile],
    p2: Union[TreeNode, PositionalProfile],
    q: int = 2,
    exact: bool = False,
) -> int:
    """The optimistic edit-distance bound ``pr_opt`` (function SearchLBound).

    The smallest positional range ``pr`` in ``[||T1|−|T2||, max(|T1|,|T2|)]``
    satisfying ``PosBDist(pr) ≤ [4(q−1)+1]·pr``; that value lower-bounds
    ``EDist(T1, T2)``.  The predicate is monotone because ``PosBDist`` is
    non-increasing and the right-hand side increasing in ``pr``.

    The search starts at ``max(size difference, ⌈BDist/factor⌉)``:
    ``PosBDist(pr) ≥ BDist`` for every ``pr`` (positions only constrain
    the matching), so no ``pr`` below ``⌈BDist/factor⌉`` satisfies the
    predicate.  From there it gallops upward (``+1, +2, +4, …``) and
    binary-searches the last gap, which by monotonicity finds the same
    smallest ``pr`` as a binary search over the whole range
    (``docs/THEORY.md`` §4).  The result therefore dominates the plain
    count bound and the size difference by construction.

    >>> from repro.trees import parse_bracket
    >>> search_lower_bound(parse_bracket("a(b,c)"), parse_bracket("a(b,c)"))
    0
    """
    profile1 = p1 if isinstance(p1, PositionalProfile) else positional_profile(p1, q)
    profile2 = p2 if isinstance(p2, PositionalProfile) else positional_profile(p2, q)
    if profile1.q != profile2.q:
        raise SignatureMismatchError("profiles built with different branch levels")
    factor = qlevel_bound_factor(profile1.q)

    # The branches unique to one tree contribute a constant to PosBDist for
    # every pr; split it off once and keep only the shared branches' position
    # sequences for the per-pr matching work (the search evaluates PosBDist
    # O(log) times, so this hoisting matters on the query path).  The same
    # walk sums the count distance BDist that seeds the search.
    constant, count_distance, shared = _split_branches(profile1, profile2, exact)

    def satisfied(pr: int) -> bool:
        return not _distance_exceeds(constant, shared, pr, factor * pr, exact)

    low = max(
        abs(profile1.tree_size - profile2.tree_size),
        -(-count_distance // factor),
    )
    if satisfied(low):
        return low
    # invariant: satisfied(high) is true — at pr = max sizes every pair of
    # identical branches is within range, so PosBDist = BDist ≤ factor·high
    # (BDist ≤ |T1| + |T2| ≤ 2·high ≤ factor·high for factor ≥ 2).
    high = max(profile1.tree_size, profile2.tree_size)
    # gallop: satisfied(low) is false; find a satisfied probe above it
    step = 1
    while True:
        probe = min(low + step, high)
        if probe == high or satisfied(probe):
            break
        low = probe
        step *= 2
    # the answer lies in (low, probe]; satisfied(probe) holds
    result = probe
    low += 1
    high = probe - 1
    while low <= high:
        mid = (low + high) // 2
        if satisfied(mid):
            result = mid
            high = mid - 1
        else:
            low = mid + 1
    return result
