"""RL009/RL010: interprocedural concurrency and RPC-serialization rules.

Both rules run on the project :class:`~repro.analysis.callgraph.CallGraph`
plus the :mod:`~repro.analysis.dataflow` summaries, so they see a lock
acquired in one file and re-taken through a call chain ending in another —
the class of bug the per-function rules of PR 5 structurally cannot.

**RL009 (lock-order)** builds the project's lock-acquisition graph: an
edge ``A -> B`` means lock ``B`` is acquired (directly, or by anything the
code under ``A`` transitively calls) while ``A`` is held.  A cycle in that
graph is a deadlock waiting for the right thread interleaving.  The same
held-set machinery flags locks held across *blocking* calls — a pipe
``send``/``recv``, a ``Condition.wait`` on a different lock, a
``Future.result``, a thread ``join``, a ``SharedMemory`` attach — which
stall every thread queued on the lock for as long as the peer takes.

**RL010 (rpc-pickle-safety)** traces what reaches a shard pipe.  The
sharding protocol's contract (``docs/SHARDING.md``) is that only the flat
query encoding crosses a ``Connection`` — strings, numbers, tuples/dicts
of them.  A recursive :class:`TreeNode` would re-introduce the
deep-recursion pickling the encoding exists to avoid; a lambda, lock, open
handle or executor simply does not pickle and fails only at runtime, on
the first query that takes that code path.  The rule classifies every
expression flowing into a conn-like ``.send(...)`` (through local aliases,
and through the parameters of helpers like ``_call``/``_scatter`` whose
arguments end up on the wire) and flags provably-unsafe shapes; unknown
values stay silent — unresolved is not evidence.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.callgraph import CallGraph, FunctionInfo
from repro.analysis.dataflow import (
    CallUnderLocks,
    LockAcquisition,
    lock_constructor_kinds,
    lock_events,
    lock_identity,
    parameter_names,
    reaching_assignments,
    resolve_name,
)
from repro.analysis.engine import ModuleInfo, ProjectModel
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register

__all__ = ["LockOrderRule", "ProjectRule", "RpcPickleSafetyRule"]


class ProjectRule(Rule):
    """A rule whose findings are computed once per project, then replayed.

    ``check`` still yields per module (the engine's pragma/suppression
    pass is per-module), but the analysis runs exactly once per
    :class:`ProjectModel` and is memoized on the rule instance.
    """

    def check(self, module: ModuleInfo, project: ProjectModel) -> Iterator[Finding]:
        for finding in self._memoized(project):
            if finding.path == module.display_path:
                yield finding

    def _memoized(self, project: ProjectModel) -> List[Finding]:
        cached = getattr(self, "_cache", None)
        if cached is not None and cached[0] is project:
            return cached[1]
        findings = list(self._analyze(project))
        self._cache = (project, findings)
        return findings

    def _analyze(self, project: ProjectModel) -> Iterator[Finding]:
        raise NotImplementedError

    def project_finding(
        self,
        info: FunctionInfo,
        line: int,
        message: str,
        hint: str = "",
    ) -> Finding:
        return Finding(
            rule=self.rule_id,
            severity=self.severity,
            path=info.module.display_path,
            line=line,
            message=message,
            symbol=info.qualname,
            hint=hint or self.hint,
        )


# ----------------------------------------------------------------------
# RL009: lock order and blocking calls under locks
# ----------------------------------------------------------------------

#: Method names whose call may block on a peer/thread, not just the CPU.
_BLOCKING_METHODS = {
    "send": "Connection.send",
    "recv": "Connection.recv",
    "result": "Future.result",
    "wait": "wait",
    "join": "join",
}

#: Constructors that attach OS resources and can block on the kernel.
_BLOCKING_CONSTRUCTORS = {"SharedMemory"}

#: ``.join()`` is blocking only on thread/process-like receivers —
#: ``", ".join(parts)`` and ``os.path.join`` are the common impostors.
_JOINABLE_RECEIVER = re.compile(r"thread|proc|worker|child", re.IGNORECASE)

#: Call-graph edge kinds trusted for interprocedural lock propagation.
#: "attr" edges are wildcard over-approximations (every method of that
#: name); they stay in the graph for export but would make the deadlock
#: and blocking reports noise, so the summaries only follow edges whose
#: callee is structurally determined.
_SUMMARY_KINDS = frozenset({"direct", "self", "module", "constructor"})


def _blocking_description(call: ast.Call, class_name: str) -> Optional[Tuple[str, Optional[str]]]:
    """``(description, receiver lock identity)`` when ``call`` may block."""
    func = call.func
    if isinstance(func, ast.Name):
        if func.id in _BLOCKING_CONSTRUCTORS:
            return f"{func.id}()", None
        return None
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr in _BLOCKING_CONSTRUCTORS:
        return f"{func.attr}()", None
    label = _BLOCKING_METHODS.get(func.attr)
    if label is None:
        return None
    if label == "join":
        if not _JOINABLE_RECEIVER.search(_dotted(func.value)):
            return None
        return "join()", None
    receiver = lock_identity(func.value, class_name)
    if label == "wait":
        base = func.value
        shown = base.attr if isinstance(base, ast.Attribute) else (
            base.id if isinstance(base, ast.Name) else "?"
        )
        return f"{shown}.wait()", receiver
    return f"{label}()", receiver


class _FunctionSummary:
    """Per-function lock facts RL009 folds over the call graph."""

    __slots__ = ("info", "acquisitions", "calls", "blocking")

    def __init__(self, info: FunctionInfo) -> None:
        self.info = info
        self.acquisitions: List[LockAcquisition] = []
        self.calls: List[CallUnderLocks] = []
        #: directly blocking calls: (description, receiver lock id, line)
        self.blocking: List[Tuple[str, Optional[str], int]] = []


@register
class LockOrderRule(ProjectRule):
    """RL009: no lock-acquisition cycles; no blocking calls under a lock."""

    rule_id = "RL009"
    title = "lock-order"
    severity = "error"
    rationale = (
        "The serving stack holds ~14 locks across service, obs, features "
        "and sharding. Two threads taking the same pair of locks in "
        "opposite orders deadlock on the right interleaving - and only "
        "under production concurrency, never in single-threaded tests. "
        "The acquisition graph is built interprocedurally over the call "
        "graph, so a lock taken in service/engine.py and re-taken through "
        "a call chain into sharding/coordinator.py still forms an edge. "
        "The same machinery flags locks held across blocking calls (pipe "
        "send/recv, Condition.wait on another lock, Future.result, "
        "join, SharedMemory attach): one slow peer then stalls every "
        "thread queued on that lock."
    )
    hint = (
        "impose a global acquisition order (document it where the locks "
        "are constructed), or narrow the critical section so the second "
        "lock/blocking call happens after release; if holding the lock "
        "across the call is the design (e.g. a lock that exists to "
        "serialize a pipe), suppress with `# repro-lint: disable=RL009` "
        "and a comment saying so"
    )

    def _analyze(self, project: ProjectModel) -> Iterator[Finding]:
        graph: CallGraph = project.callgraph()
        summaries: Dict[str, _FunctionSummary] = {}
        for key, info in graph.functions.items():
            summary = _FunctionSummary(info)
            summary.acquisitions, summary.calls = lock_events(
                info.node, info.class_name
            )
            for call in summary.calls:
                described = _blocking_description(call.call, info.class_name)
                if described is not None:
                    summary.blocking.append(
                        (described[0], described[1], call.line)
                    )
            summaries[key] = summary

        lock_kinds: Dict[str, str] = {}
        for module in project.modules:
            lock_kinds.update(lock_constructor_kinds(module.tree))

        edge_targets = self._edge_targets(graph)
        acquires_star = self._acquires_fixpoint(graph, summaries, edge_targets)
        blocking_star = self._blocking_fixpoint(graph, summaries, edge_targets)

        yield from self._cycle_findings(
            graph, summaries, edge_targets, acquires_star, lock_kinds
        )
        yield from self._blocking_findings(
            summaries, edge_targets, blocking_star
        )

    @staticmethod
    def _edge_targets(graph: CallGraph) -> Dict[Tuple[str, int], List[str]]:
        """``(caller key, line) -> callee keys`` for summary-grade edges."""
        out: Dict[Tuple[str, int], List[str]] = {}
        for edge in graph.edges:
            if edge.kind in _SUMMARY_KINDS:
                out.setdefault((edge.caller, edge.line), []).append(edge.callee)
        return out

    @staticmethod
    def _acquires_fixpoint(
        graph: CallGraph,
        summaries: Dict[str, _FunctionSummary],
        edge_targets: Dict[Tuple[str, int], List[str]],
    ) -> Dict[str, Set[str]]:
        """Locks each function may acquire, transitively through calls."""
        acquires: Dict[str, Set[str]] = {
            key: {a.lock for a in summary.acquisitions}
            for key, summary in summaries.items()
        }
        callees: Dict[str, Set[str]] = {}
        for (caller, _line), targets in edge_targets.items():
            callees.setdefault(caller, set()).update(targets)
        changed = True
        while changed:
            changed = False
            for key, summary_callees in callees.items():
                bucket = acquires.setdefault(key, set())
                before = len(bucket)
                for callee in summary_callees:
                    bucket.update(acquires.get(callee, ()))
                if len(bucket) != before:
                    changed = True
        return acquires

    @staticmethod
    def _blocking_fixpoint(
        graph: CallGraph,
        summaries: Dict[str, _FunctionSummary],
        edge_targets: Dict[Tuple[str, int], List[str]],
    ) -> Dict[str, Dict[str, Tuple[str, ...]]]:
        """``function -> {blocking description -> shortest call chain}``.

        A chain is the sequence of callee qualnames between the function
        and the actual blocking call (empty for direct sites).
        """
        blocking: Dict[str, Dict[str, Tuple[str, ...]]] = {}
        for key, summary in summaries.items():
            blocking[key] = {
                description: () for description, _recv, _line in summary.blocking
            }
        callees: Dict[str, Set[str]] = {}
        for (caller, _line), targets in edge_targets.items():
            callees.setdefault(caller, set()).update(targets)
        changed = True
        while changed:
            changed = False
            for key, summary_callees in callees.items():
                mine = blocking.setdefault(key, {})
                for callee in summary_callees:
                    callee_qualname = summaries[callee].info.qualname if (
                        callee in summaries
                    ) else callee
                    for description, chain in blocking.get(callee, {}).items():
                        if len(chain) >= 3:
                            continue  # deep chains add noise, not signal
                        extended = (callee_qualname,) + chain
                        current = mine.get(description)
                        if current is None or len(extended) < len(current):
                            mine[description] = extended
                            changed = True
        return blocking

    def _cycle_findings(
        self,
        graph: CallGraph,
        summaries: Dict[str, _FunctionSummary],
        edge_targets: Dict[Tuple[str, int], List[str]],
        acquires_star: Dict[str, Set[str]],
        lock_kinds: Dict[str, str],
    ) -> Iterator[Finding]:
        #: (held, acquired) -> (function info, line, via qualname or "")
        witnesses: Dict[Tuple[str, str], Tuple[FunctionInfo, int, str]] = {}
        order: Dict[str, Set[str]] = {}

        def note(held: str, acquired: str, info: FunctionInfo, line: int, via: str) -> None:
            order.setdefault(held, set()).add(acquired)
            witnesses.setdefault((held, acquired), (info, line, via))

        for key, summary in summaries.items():
            for acquisition in summary.acquisitions:
                for held in acquisition.held_before:
                    if held != acquisition.lock:
                        note(
                            held, acquisition.lock, summary.info,
                            acquisition.line, "",
                        )
                    elif lock_kinds.get(acquisition.lock, "Lock") not in (
                        "RLock", "Condition"
                    ):
                        # direct re-entry on a non-reentrant lock
                        yield self.project_finding(
                            summary.info,
                            acquisition.line,
                            f"non-reentrant lock {acquisition.lock} is "
                            "re-acquired while already held",
                        )
            for call in summary.calls:
                if not call.held:
                    continue
                for callee in edge_targets.get((key, call.line), ()):
                    callee_summary = summaries.get(callee)
                    via = (
                        callee_summary.info.qualname
                        if callee_summary is not None
                        else callee
                    )
                    for acquired in acquires_star.get(callee, ()):
                        for held in call.held:
                            if held != acquired:
                                note(held, acquired, summary.info, call.line, via)

        for cycle in _digraph_cycles(order):
            arcs = []
            witness: Optional[Tuple[FunctionInfo, int, str]] = None
            for position, held in enumerate(cycle):
                acquired = cycle[(position + 1) % len(cycle)]
                site = witnesses.get((held, acquired))
                if site is None:
                    continue
                info, line, via = site
                if witness is None:
                    witness = site
                arc = f"{held} -> {acquired} in {info.qualname}"
                if via:
                    arc += f" (via {via})"
                arcs.append(arc)
            if witness is None:
                continue
            info, line, _via = witness
            yield self.project_finding(
                info,
                line,
                "lock-order cycle: " + "; ".join(arcs),
            )

    def _blocking_findings(
        self,
        summaries: Dict[str, _FunctionSummary],
        edge_targets: Dict[Tuple[str, int], List[str]],
        blocking_star: Dict[str, Dict[str, Tuple[str, ...]]],
    ) -> Iterator[Finding]:
        for key, summary in summaries.items():
            reported: Set[Tuple[int, str]] = set()
            # direct blocking sites under a held lock
            for call in summary.calls:
                if not call.held:
                    continue
                described = _blocking_description(
                    call.call, summary.info.class_name
                )
                if described is None:
                    continue
                description, receiver = described
                effective = [
                    lock for lock in call.held if lock != receiver
                ] if receiver is not None else list(call.held)
                if receiver is not None and receiver in call.held:
                    # waiting on the lock you hold is the condition-variable
                    # pattern (wait releases it); only other locks matter
                    pass
                if not effective:
                    continue
                marker = (call.line, description)
                if marker in reported:
                    continue
                reported.add(marker)
                yield self.project_finding(
                    summary.info,
                    call.line,
                    f"lock {', '.join(sorted(effective))} held across "
                    f"blocking {description}",
                )
            # calls into functions that (transitively) block
            for call in summary.calls:
                if not call.held:
                    continue
                if _blocking_description(
                    call.call, summary.info.class_name
                ) is not None:
                    continue  # already reported as a direct site
                for callee in edge_targets.get((key, call.line), ()):
                    for description, chain in sorted(
                        blocking_star.get(callee, {}).items()
                    ):
                        callee_qualname = (
                            summaries[callee].info.qualname
                            if callee in summaries
                            else callee
                        )
                        path = " -> ".join((callee_qualname,) + chain)
                        marker = (call.line, description)
                        if marker in reported:
                            continue
                        reported.add(marker)
                        yield self.project_finding(
                            summary.info,
                            call.line,
                            f"lock {', '.join(sorted(call.held))} held "
                            f"across call to {callee_qualname}, which "
                            f"reaches blocking {description} ({path})",
                        )
                        break  # one finding per callee is enough


def _digraph_cycles(order: Dict[str, Set[str]]) -> List[List[str]]:
    """Elementary cycles of the lock-order digraph via SCC decomposition.

    Each SCC with more than one node (the digraph has no self-edges by
    construction) is reported once, as a canonical rotation starting from
    its smallest node, walking greedily through in-SCC successors.
    """
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    counter = [0]
    sccs: List[List[str]] = []

    for root in sorted(order):
        if root in index:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, child_index = work[-1]
            if child_index == 0:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            children = sorted(order.get(node, ()))
            advanced = False
            while child_index < len(children):
                child = children[child_index]
                child_index += 1
                if child not in index:
                    work[-1] = (node, child_index)
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    sccs.append(sorted(component))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])

    cycles: List[List[str]] = []
    for component in sccs:
        members = set(component)
        cycle = [component[0]]
        while True:
            successors = sorted(
                node for node in order.get(cycle[-1], ()) if node in members
            )
            next_node = next(
                (node for node in successors if node not in cycle),
                None,
            )
            if next_node is None:
                break
            cycle.append(next_node)
        cycles.append(cycle)
    return cycles


# ----------------------------------------------------------------------
# RL010: pickle safety of shard RPC payloads
# ----------------------------------------------------------------------

#: Calls whose result is a recursive TreeNode (never wire-safe).
_TREE_CALLS = frozenset(
    {"parse_bracket", "json_to_tree", "parse_json_string", "parse_xml_string",
     "TreeNode", "random_tree"}
)

#: Constructors whose instances do not pickle (locks, handles, pools, shm).
_UNPICKLABLE_CALLS = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore", "Event",
     "open", "SharedMemory", "Thread", "Process", "ThreadPoolExecutor",
     "ProcessPoolExecutor", "Pipe"}
)


def _dotted(expr: ast.expr) -> str:
    parts: List[str] = []
    current = expr
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
    return ".".join(reversed(parts))


def _is_conn_send(call: ast.Call) -> bool:
    func = call.func
    if not isinstance(func, ast.Attribute) or func.attr != "send":
        return False
    receiver = _dotted(func.value)
    return any("conn" in part for part in receiver.split(".") if part)


class _SendScan:
    """What one function contributes to the send-flow analysis."""

    __slots__ = ("sites", "env", "params")

    def __init__(self, info: FunctionInfo) -> None:
        self.sites: List[ast.Call] = []
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call) and _is_conn_send(node):
                self.sites.append(node)
        self.env = reaching_assignments(info.node) if self.sites else {}
        self.params = parameter_names(info.node)


@register
class RpcPickleSafetyRule(ProjectRule):
    """RL010: only flat picklable encodings reach a shard pipe."""

    rule_id = "RL010"
    title = "rpc-pickle-safety"
    severity = "error"
    rationale = (
        "The shard protocol ships queries as (kind, bracket, parameter) "
        "tuples precisely so that no recursive TreeNode is ever pickled "
        "(deep trees overflow the pickler the same way they overflow "
        "naive traversals) and nothing process-bound - locks, open "
        "handles, executors, shared-memory segments, closures - crosses "
        "the pipe. A tree or lock reaching Connection.send works on "
        "every shallow test corpus and then fails (or hangs the worker "
        "protocol) on the first production-shaped payload. The check is "
        "interprocedural: helpers whose parameters end up on the wire "
        "(coordinator _call/_scatter) are send sites for their callers."
    )
    hint = (
        "encode the payload flat before sending (as ShardedTreeService "
        "does in sharding/coordinator.py): brackets for trees, primitives for "
        "parameters; keep process-bound objects on their own side of "
        "the pipe"
    )

    def _analyze(self, project: ProjectModel) -> Iterator[Finding]:
        graph: CallGraph = project.callgraph()
        scans: Dict[str, _SendScan] = {
            key: _SendScan(info) for key, info in graph.functions.items()
        }
        #: (function key, parameter index) whose value reaches a send
        send_params: Set[Tuple[str, int]] = set()
        findings: List[Finding] = []

        # direct send sites: classify every argument expression
        for key, scan in scans.items():
            info = graph.functions[key]
            for site in scan.sites:
                for argument in site.args:
                    findings.extend(
                        self._classify_site(
                            info, site, argument, scan, send_params, key
                        )
                    )

        # interprocedural: arguments at call sites of send-reaching params
        edge_targets: Dict[Tuple[str, int], List[str]] = {}
        for edge in graph.edges:
            edge_targets.setdefault((edge.caller, edge.line), []).append(
                edge.callee
            )
        changed = True
        seen_sites: Set[Tuple[str, int, int]] = set()
        while changed:
            changed = False
            for key, info in graph.functions.items():
                scan = scans[key]
                for node in ast.walk(info.node):
                    if not isinstance(node, ast.Call):
                        continue
                    for callee in edge_targets.get((key, node.lineno), ()):
                        callee_info = graph.functions.get(callee)
                        if callee_info is None:
                            continue
                        offset = 1 if (
                            callee_info.class_name
                            and isinstance(node.func, ast.Attribute)
                        ) else 0
                        for position, argument in enumerate(node.args):
                            target = (callee, position + offset)
                            if target not in send_params:
                                continue
                            marker = (key, node.lineno, position)
                            if marker in seen_sites:
                                continue
                            seen_sites.add(marker)
                            before = len(send_params)
                            findings.extend(
                                self._classify_site(
                                    info, node, argument, scan,
                                    send_params, key,
                                    via=callee_info.qualname,
                                )
                            )
                            if len(send_params) != before:
                                changed = True
        for finding in findings:
            yield finding

    def _classify_site(
        self,
        info: FunctionInfo,
        site: ast.Call,
        argument: ast.expr,
        scan: _SendScan,
        send_params: Set[Tuple[str, int]],
        key: str,
        via: str = "",
    ) -> List[Finding]:
        findings: List[Finding] = []
        for reason, node in self._bad_values(argument, scan, send_params, key):
            suffix = f" (payload of {via})" if via else ""
            findings.append(
                self.project_finding(
                    info,
                    node.lineno if hasattr(node, "lineno") else site.lineno,
                    f"{reason} reaches Connection.send{suffix}; shard RPC "
                    "payloads must be flat picklable encodings",
                )
            )
        return findings

    def _bad_values(
        self,
        expr: ast.expr,
        scan: _SendScan,
        send_params: Set[Tuple[str, int]],
        key: str,
        depth: int = 5,
    ) -> Iterator[Tuple[str, ast.expr]]:
        if depth < 0:
            return
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            for element in expr.elts:
                yield from self._bad_values(
                    element, scan, send_params, key, depth - 1
                )
            return
        if isinstance(expr, ast.Dict):
            for value in expr.values:
                if value is not None:
                    yield from self._bad_values(
                        value, scan, send_params, key, depth - 1
                    )
            return
        if isinstance(expr, ast.Starred):
            yield from self._bad_values(
                expr.value, scan, send_params, key, depth - 1
            )
            return
        if isinstance(expr, ast.Lambda):
            yield "a lambda (closures do not pickle)", expr
            return
        if isinstance(expr, (ast.GeneratorExp,)):
            yield "a generator (generators do not pickle)", expr
            return
        if isinstance(expr, ast.Call):
            name = (
                expr.func.attr
                if isinstance(expr.func, ast.Attribute)
                else expr.func.id if isinstance(expr.func, ast.Name) else ""
            )
            if name in _TREE_CALLS:
                yield (
                    f"a recursive TreeNode (result of {name}())", expr
                )
            elif name in _UNPICKLABLE_CALLS:
                yield f"an unpicklable {name}() object", expr
            return
        if isinstance(expr, ast.Attribute):
            identity = lock_identity(expr, "")
            if identity is not None:
                yield f"a lock ({_dotted(expr)})", expr
            return
        if isinstance(expr, ast.Name):
            if expr.id in scan.env:
                for value in resolve_name(expr.id, scan.env):
                    yield from self._bad_values(
                        value, scan, send_params, key, depth - 1
                    )
            elif expr.id in scan.params:
                # the value comes from our caller: mark the parameter as a
                # send path so call sites get checked instead
                send_params.add((key, scan.params.index(expr.id)))
            return
