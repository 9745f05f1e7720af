"""The Zhang–Shasha tree edit distance (SIAM J. Comput. 1989).

This is the paper's *refinement-step* distance — the exact edit distance
``EDist(T1, T2)`` between rooted ordered labeled trees with relabel, insert
and delete operations allowed anywhere in the tree.

Complexity: ``O(|T1||T2| · min(depth,leaves)(T1) · min(depth,leaves)(T2))``
time and ``O(|T1||T2|)`` space — exactly the costs the paper's filters are
designed to avoid paying for every database object.

The implementation follows the classic formulation:

1. number nodes in postorder;
2. compute ``lml(i)``, the postorder number of the leftmost leaf descendant
   of node ``i``;
3. the *keyroots* are the highest nodes of each distinct left path;
4. for every keyroot pair, run the forest-distance dynamic program, recording
   subtree distances in the ``treedist`` table as they become available.

Unit costs run one integer kernel without per-cell cost callbacks.  It takes
a *budget* ``k`` — the largest distance the caller still cares about — and
returns the exact distance whenever that distance is ``≤ k``, otherwise some
value ``> k``.  Three things make it cheaper than the textbook DP:

* a leaf keyroot's ``treedist`` row (or column) has the closed form
  ``TED(x, T) = |T| − 1 + [label(x) ∉ T]``, so the forest DP runs only over
  pairs of non-leaf keyroots;
* each keyroot pair runs with its shorter span as the rows, DP border rows
  come from list slices, and rows are built with C-level list operations
  around one tight ``zip`` loop;
* with a finite budget that is small next to the trees (:func:`_bands`),
  the *k-strip* (Touzet, CPM 2005) applies: keyroot pairs whose spans
  start more than ``k`` apart are skipped, and only cells with
  ``|i₁ − j₁| ≤ k`` and ``|dᵢ − dⱼ| ≤ k`` are evaluated; every other cell
  stays pinned above any real distance.  ``docs/THEORY.md`` proves both
  exact.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.editdist.costs import UNIT_COSTS, CostModel
from repro.editdist.string_ed import traversal_strings_exceed
from repro.exceptions import InvalidParameterError
from repro.obs import tracing
from repro.trees.node import Label, TreeNode

__all__ = [
    "tree_edit_distance",
    "PreparedTree",
    "prepare_tree",
    "PreparedTreeCache",
    "EditDistanceCounter",
]


class PreparedTree:
    """Postorder-flattened tree: the arrays the Zhang–Shasha DP consumes.

    Preparing a tree once and reusing it across many distance computations
    (as the refinement step of a similarity query does) avoids re-walking the
    tree structure per pair.  ``labels`` is the postorder label sequence;
    ``pre_labels`` the preorder one, which together with it feeds the
    traversal-string gate of :meth:`EditDistanceCounter.distance_below`.
    """

    __slots__ = ("labels", "pre_labels", "lml", "keyroots", "size")

    def __init__(
        self,
        labels: List[Label],
        lml: List[int],
        keyroots: List[int],
        pre_labels: List[Label],
    ) -> None:
        self.labels = labels
        self.pre_labels = pre_labels
        self.lml = lml
        self.keyroots = keyroots
        self.size = len(labels)


def prepare_tree(tree: TreeNode) -> PreparedTree:
    """Flatten a tree into the postorder arrays used by the DP."""
    nodes = list(tree.iter_postorder())
    index = {id(node): i for i, node in enumerate(nodes)}
    labels = [node.label for node in nodes]
    lml = [0] * len(nodes)
    for i, node in enumerate(nodes):
        first = node.first_child
        lml[i] = i if first is None else lml[index[id(first)]]
    # keyroot = the largest postorder index among nodes sharing a leftmost leaf
    highest: Dict[int, int] = {}
    for i, left in enumerate(lml):
        highest[left] = i
    keyroots = sorted(highest.values())
    pre_labels = [node.label for node in tree.iter_preorder()]
    return PreparedTree(labels, lml, keyroots, pre_labels)


def _bands(k: int, n: int, m: int) -> bool:
    """Whether the k-strip pays at budget ``k`` on an ``n``×``m`` pair.

    The strip keeps at most ``2k + 1`` cells of a DP row and skips keyroot
    pairs whose spans start far apart, at the price of per-row bookkeeping.
    Measured on §5 synthetic pairs (27–33 nodes) the full DP catches up
    near ``k ≈ 0.45·min(n, m)``, on DBLP records (9–15 nodes) near
    ``k ≈ 0.3·min(n, m)``; the rule stays at or below both crossovers
    (``docs/PERF.md``).
    """
    return 3 * k < min(n, m)


def _leaf_table(label: Label, labels: List[Label], lml: List[int]) -> List[int]:
    """``TED(x, T[j])`` for one node ``x`` labelled ``label`` and every
    subtree ``T[j]`` of a prepared tree: ``|T[j]| − 1 + [label ∉ T[j]]``.

    ``T[j]`` spans postorder ``lml[j]..j``, so ``label`` occurs in it iff
    its last occurrence at or before ``j`` is at or after ``lml[j]``.
    """
    table = []
    last = -1
    for j, (own, left) in enumerate(zip(labels, lml)):
        if own == label:
            last = j
        table.append(j - left + (last < left))
    return table


def _fill_leaf_keyroots(
    a: PreparedTree, b: PreparedTree, rows: List[List[int]], mirror: List[List[int]]
) -> None:
    """Closed-form ``rows[x]`` (and ``mirror[·][x]``) for every leaf keyroot
    ``x`` of ``a``, against every subtree of ``b``."""
    tables: Dict[Label, List[int]] = {}
    for x in a.keyroots:
        if a.lml[x] == x:
            label = a.labels[x]
            if label not in tables:
                tables[label] = _leaf_table(label, b.labels, b.lml)
            table = tables[label]
            rows[x] = table[:]
            for mirror_row, value in zip(mirror, table):
                mirror_row[x] = value


def _inner_spans(tree: PreparedTree) -> List[Tuple[int, int, List[int], List[Label]]]:
    """``(keyroot, lml, lml offsets, labels)`` over the span of every
    non-leaf keyroot: what one side of a forest DP reads."""
    spans = []
    for kr in tree.keyroots:
        left = tree.lml[kr]
        if left != kr:
            offsets = [lml - left for lml in tree.lml[left : kr + 1]]
            spans.append((kr, left, offsets, tree.labels[left : kr + 1]))
    return spans


def _distance_unit(
    a: PreparedTree, b: PreparedTree, budget: float
) -> Tuple[float, bool, int]:
    """Budgeted unit-cost Zhang–Shasha: ``(value, banded, dp_pairs)``.

    ``value`` is the exact distance when that is ``≤ budget``, otherwise
    some value ``> budget``; ``banded`` tells whether the k-strip ran and
    ``dp_pairs`` counts the keyroot pairs whose forest DP ran.
    """
    n, m = a.size, b.size
    gap = abs(n - m)
    if gap > budget:
        return float(gap), False, 0  # |n − m| ≤ TED: nothing to refine
    # "infinity": above every forest distance of the pair (all ≤ n + m)
    big = n + m + 1
    banded = budget < big and _bands(int(budget), n, m)
    k = int(budget) if banded else big

    # treedist[i][j] = TED(T1[i], T2[j]) and mirror[j][i] = the same value,
    # so every keyroot pair can run its DP with the shorter span as rows
    treedist = [[big] * m for _ in range(n)]
    mirror = [[big] * n for _ in range(m)]
    _fill_leaf_keyroots(a, b, treedist, mirror)
    _fill_leaf_keyroots(b, a, mirror, treedist)
    if n == 1 or m == 1:
        return float(treedist[n - 1][m - 1]), False, 0

    spans2 = _inner_spans(b)
    ramp = list(range(max(n, m) + 1))
    pairs = 0
    for span1 in _inner_spans(a):
        kr1, l1 = span1[0], span1[1]
        for span2 in spans2:
            kr2, l2 = span2[0], span2[1]
            if banded and abs(l1 - l2) > k:
                continue  # the nodes left of both spans differ by > k
            pairs += 1
            # rows walk the row side's span, columns the other side's
            if kr1 - l1 <= kr2 - l2:
                rl, rkr = l1, kr1
                _, cl, offsets, span_labels = span2
                last = kr2 - l2 + 1
                table, cross, lml, labels = treedist, mirror, a.lml, a.labels
            else:
                rl, rkr = l2, kr2
                _, cl, offsets, span_labels = span1
                last = kr1 - l1 + 1
                table, cross, lml, labels = mirror, treedist, b.lml, b.labels
            # row di evaluates dj in [di + lo_shift, di + hi_shift]:
            # |i₁ − j₁| ≤ k and |di − dj| ≤ k (one of them binds per side);
            # |shift| ≤ k keeps hi_shift ≥ 0, so a row is never empty
            shift = rl - cl
            lo_shift = -k + max(shift, 0)
            hi_shift = k + min(shift, 0)
            lo, hi = 1, last
            # forest distances fd[di][dj]; fd[0][0] = empty vs empty
            fd0 = ramp[: last + 1]
            fd = [fd0]
            above = fd0
            for di in range(1, rkr - rl + 2):
                if banded:
                    lo = max(di + lo_shift, 1)
                    if lo > last:
                        break  # the strip has left the matrix for good
                    hi = min(di + hi_shift, last)
                i1 = rl + di - 1
                tdrow = table[i1]
                left1 = lml[i1]
                if lo == 1:
                    row = [di]
                    prev = di
                    offs, labs, diags = offsets, span_labels, above
                else:
                    row = [di] + [big] * (lo - 1)
                    prev = big
                    offs = offsets[lo - 1 : hi]
                    labs = span_labels[lo - 1 : hi]
                    diags = above[lo - 1 : hi]
                append = row.append
                j1 = cl + lo - 1
                if left1 != rl:
                    # i₁'s subtree lies whole inside the forest: match it
                    # as a unit against each whole subtree (treedist)
                    base = fd[left1 - rl]
                    ups, subs = above[lo : hi + 1], tdrow[j1 : cl + hi]
                    for up, off, sub in zip(ups, offs, subs):
                        if up < prev:
                            prev = up
                        prev += 1  # min(delete i₁, insert j₁)
                        sub += base[off]
                        if sub < prev:
                            prev = sub
                        append(prev)
                else:
                    label1 = labels[i1]
                    for up, diag, off, sub, label2 in zip(
                        above[lo : hi + 1], diags, offs, tdrow[j1 : cl + hi], labs
                    ):
                        if up < prev:
                            prev = up
                        prev += 1
                        if off:
                            sub += fd0[off]
                            if sub < prev:
                                prev = sub
                        else:  # both forests are whole trees: relabel step
                            if label2 != label1:
                                diag += 1
                            if diag < prev:
                                prev = diag
                            tdrow[j1] = prev
                            cross[j1][i1] = prev
                        append(prev)
                        j1 += 1
                if hi < last:
                    row += [big] * (last - hi)
                fd.append(row)
                above = row
    return float(treedist[n - 1][m - 1]), banded, pairs


def _distance_general(a: PreparedTree, b: PreparedTree, costs: CostModel) -> float:
    """General-cost Zhang–Shasha DP."""
    lml1, lml2 = a.lml, b.lml
    labels1, labels2 = a.labels, b.labels
    n, m = a.size, b.size
    delete, insert, relabel = costs.delete, costs.insert, costs.relabel
    treedist = [[0.0] * m for _ in range(n)]
    for kr1 in a.keyroots:
        l1 = lml1[kr1]
        rows = kr1 - l1 + 2
        for kr2 in b.keyroots:
            l2 = lml2[kr2]
            cols = kr2 - l2 + 2
            fd = [[0.0] * cols for _ in range(rows)]
            for dj in range(1, cols):
                fd[0][dj] = fd[0][dj - 1] + insert(labels2[l2 + dj - 1])
            for di in range(1, rows):
                fd[di][0] = fd[di - 1][0] + delete(labels1[l1 + di - 1])
            for di in range(1, rows):
                i1 = l1 + di - 1
                row = fd[di]
                above = fd[di - 1]
                label1 = labels1[i1]
                left1 = lml1[i1]
                whole_left = left1 == l1
                tdrow = treedist[i1]
                del_cost = delete(label1)
                for dj in range(1, cols):
                    j1 = l2 + dj - 1
                    label2 = labels2[j1]
                    best = above[dj] + del_cost
                    other = row[dj - 1] + insert(label2)
                    if other < best:
                        best = other
                    if whole_left and lml2[j1] == l2:
                        other = above[dj - 1] + relabel(label1, label2)
                        if other < best:
                            best = other
                        row[dj] = best
                        tdrow[j1] = best
                    else:
                        other = fd[left1 - l1][lml2[j1] - l2] + tdrow[j1]
                        if other < best:
                            best = other
                        row[dj] = best
    return treedist[n - 1][m - 1]


def tree_edit_distance(
    t1: "TreeNode | PreparedTree",
    t2: "TreeNode | PreparedTree",
    costs: CostModel = UNIT_COSTS,
    budget: float = math.inf,
) -> float:
    """Tree edit distance ``EDist(T1, T2)``, exact up to ``budget``.

    Accepts either :class:`~repro.trees.node.TreeNode` roots or
    :class:`PreparedTree` objects (prepare once when computing many
    distances against the same tree).

    The result is the exact distance whenever that distance is
    ``≤ budget``, and otherwise some value ``> budget`` — all a range
    query (``budget = τ``) or a full k-NN heap (``budget`` = the current
    k-th distance) needs to decide.  The default budget is unbounded.
    General cost models always compute the full distance.

    >>> from repro.trees import parse_bracket
    >>> tree_edit_distance(parse_bracket("a(b,c)"), parse_bracket("a(b,d)"))
    1.0
    >>> tree_edit_distance(parse_bracket("a"), parse_bracket("a(b,c,d)"), budget=1) > 1
    True
    """
    a = t1 if isinstance(t1, PreparedTree) else prepare_tree(t1)
    b = t2 if isinstance(t2, PreparedTree) else prepare_tree(t2)
    return _distance(a, b, costs, budget)[0]


def _distance(
    a: PreparedTree, b: PreparedTree, costs: CostModel, budget: float
) -> Tuple[float, bool, int]:
    """Dispatch on the cost model: ``(value, banded, dp_pairs)``."""
    if math.isnan(budget):
        raise InvalidParameterError("distance budget must not be NaN")
    if costs.is_unit:
        return _distance_unit(a, b, budget)
    pairs = len(a.keyroots) * len(b.keyroots)
    return _distance_general(a, b, costs), False, pairs


class PreparedTreeCache:
    """Bounded, thread-safe identity cache of :class:`PreparedTree` forms.

    Entries are keyed by ``id(tree)`` but also *hold a strong reference to
    the tree itself*, so an id can never be recycled by a new object while
    its entry is alive (caching bare ids is unsound: CPython reuses the
    addresses of garbage-collected objects).  The stored tree is compared
    with ``is`` on lookup as a second line of defense.  Eviction is LRU so
    long-running services cannot grow the cache without bound.
    """

    def __init__(self, maxsize: int = 4096) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: "OrderedDict[int, Tuple[TreeNode, PreparedTree]]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, tree: TreeNode) -> PreparedTree:
        """Return the prepared form of ``tree``, preparing it on a miss."""
        key = id(tree)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] is tree:
                self._entries.move_to_end(key)
                return entry[1]
        prepared = prepare_tree(tree)
        with self._lock:
            self._entries[key] = (tree, prepared)
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return prepared

    def clear(self) -> None:
        """Drop every cached entry."""
        with self._lock:
            self._entries.clear()


class EditDistanceCounter:
    """Counting wrapper used by the benchmark harness.

    Tracks how many exact edit-distance computations were performed — the
    paper's core efficiency metric is precisely how many of these a filter
    avoids — and caches prepared trees in a bounded identity cache.  Pass a
    shared :class:`PreparedTreeCache` to let several counters (e.g. one per
    in-flight query of a service) reuse each other's preparation work.

    Attributes
    ----------
    calls:
        Distance requests, :meth:`distance` and :meth:`distance_below`
        alike — a refined row counts once however it was decided.
    rungs:
        The budgeted attempts of :meth:`distance_below`: one per request
        with a finite limit, one per doubling step with ``limit = inf``.
    gated:
        The rungs its traversal-string gate settled without running
        Zhang–Shasha (a subset of ``rungs``).
    """

    def __init__(
        self,
        costs: CostModel = UNIT_COSTS,
        cache: Optional[PreparedTreeCache] = None,
        cache_size: int = 4096,
    ) -> None:
        self.costs = costs
        self.calls = 0
        self.gated = 0
        self.rungs = 0
        self._prepared = cache if cache is not None else PreparedTreeCache(cache_size)

    @property
    def cache(self) -> PreparedTreeCache:
        """The prepared-tree cache (shareable across counters)."""
        return self._prepared

    def prepared(self, tree: TreeNode) -> PreparedTree:
        """Return (and cache) the prepared form of ``tree``."""
        return self._prepared.get(tree)

    def distance(
        self, t1: TreeNode, t2: TreeNode, budget: float = math.inf
    ) -> float:
        """Distance with call counting and preparation caching.

        Exact up to ``budget`` — see :func:`tree_edit_distance`.
        """
        self.calls += 1
        return self._kernel(self.prepared(t1), self.prepared(t2), budget)

    def _kernel(self, a: PreparedTree, b: PreparedTree, budget: float) -> float:
        """One Zhang–Shasha run at ``budget``, in an ``editdist.zhang_shasha``
        span that carries the budget when tracing is on."""
        if not tracing.enabled():  # keep the hot path allocation-free
            return _distance(a, b, self.costs, budget)[0]
        with tracing.span(
            "editdist.zhang_shasha",
            n1=a.size,
            n2=b.size,
            budget=budget if budget < math.inf else None,
        ) as sp:
            result, banded, pairs = _distance(a, b, self.costs, budget)
            sp.set(distance=result, banded=banded, dp_pairs=pairs)
        return result

    def _gated(self, a: PreparedTree, b: PreparedTree, budget: int) -> bool:
        """One rung: whether Guha et al.'s traversal-string bound shows the
        distance exceeds ``budget`` (``docs/THEORY.md`` §12)."""
        self.rungs += 1
        if traversal_strings_exceed(
            (a.pre_labels, a.labels), (b.pre_labels, b.labels), budget
        ):
            self.gated += 1
            return True
        return False

    def distance_below(
        self, t1: TreeNode, t2: TreeNode, limit: float, bound: float = 0.0
    ) -> float:
        """The distance when it is ``< limit``, otherwise some value ``≥ limit``.

        What Alg. 2's heap asks of a row: a full heap admits only a
        distance strictly below its k-th (``limit``).  A range query asks
        the same at ``limit = ⌊τ⌋ + 1``.  Unit-cost distances are
        integers, so that is the exact distance up to the budget
        ``b = ceil(limit) − 1``.  Guha et al.'s ``max(SED(pre), SED(post))
        ≤ EDist`` bound, decided at ``b``, first settles the row without
        the DP when it exceeds ``b`` (``docs/THEORY.md`` §12).

        With ``limit = inf`` (a heap not yet full) the distance is found
        by budget doubling from ``bound``, any lower bound of it (the
        row's filter bound): rungs at ``B = max(1, bound, |n − m|)``, then
        ``2B + 1``, each one gate and, unless the gate settles it, one
        budgeted kernel run, until a run returns a value ``≤ B`` (exact)
        or the k-strip stops paying (:func:`_bands`), when one unbudgeted
        run decides.  Every rung is exact below its budget, so the result
        is exact whatever ``bound`` is (``docs/THEORY.md`` §10).

        A request counts once in ``calls`` however many rungs it takes;
        each rung counts in ``rungs``, each gate-settled one in ``gated``,
        and each kernel run opens one ``editdist.zhang_shasha`` span.
        Other cost models have no integer gap, so they run
        :meth:`distance` at ``limit`` — already exact below it.
        """
        if not self.costs.is_unit:
            return self.distance(t1, t2, limit)
        a = self.prepared(t1)
        b = self.prepared(t2)
        if math.isfinite(limit):
            budget = math.ceil(limit) - 1
            if self._gated(a, b, budget):
                self.calls += 1
                return float(budget + 1)
            return self.distance(t1, t2, budget)
        n, m = a.size, b.size
        budget = max(1, abs(n - m))
        if bound > budget:
            budget = math.ceil(min(bound, n + m))
        while _bands(budget, n, m):
            if not self._gated(a, b, budget):
                value = self._kernel(a, b, budget)
                if value <= budget:
                    self.calls += 1
                    return value
            budget = 2 * budget + 1
        return self.distance(t1, t2)

    def reset(self) -> None:
        """Zero the call counters (the preparation cache is kept)."""
        self.calls = 0
        self.gated = 0
        self.rungs = 0
