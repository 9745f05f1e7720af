"""RL011: writer/loader agreement on the versioned ``"repro-*"`` schemas.

Every persistent artifact in this repository is a JSON (or JSON-sidecar)
document stamped with a ``"format": "repro-<thing>"`` marker and a
``"version"`` integer — feature planes, traces, profiles, bench ledgers,
indexes, workloads.  Writers and loaders live in the same module by
convention but drift independently: a writer grows a key the loader never
reads (dead weight that bloats every artifact), or a loader starts reading
a key no writer emits (a latent ``KeyError``/silent-``None`` that only
fires on artifacts written after the reader shipped — the classic
cross-version bug).

The rule anchors on the format marker itself: a dict literal carrying
``"format": "repro-*"`` marks its enclosing function as a *writer*; a
``payload.get("format")`` / ``payload["format"]`` access (plus the
comparison that names the expected format string) marks a *loader*.  From
each anchor it collects the key vocabulary: written keys are the string
dict-literal keys across the writer function, its same-module transitive
callees, and — when the writer is a method — its same-class siblings
(serializer classes assemble records in one method and write the envelope
in another); read keys are the string subscripts and ``.get`` calls
across the loader's *whole module* — loaders hand the decoded payload to
sibling consumers (``compare_records``, ``format_replay``) that a
callee-closure of the loader cannot see.  The two vocabularies must match
per format, with one asymmetry: a writer dict that merges ``**expr`` has
a knowingly incomplete key set, so read-but-never-written is not judged
for that format (written-but-never-read still is).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.astutils import parent_chain
from repro.analysis.callgraph import CallGraph, FunctionInfo
from repro.analysis.engine import ModuleInfo, ProjectModel
from repro.analysis.findings import Finding
from repro.analysis.registry import register
from repro.analysis.rules.interprocedural import ProjectRule

__all__ = ["SchemaDriftRule"]

#: Keys every envelope carries; present on both sides by construction.
_ENVELOPE_KEYS = frozenset({"format", "version"})


def _module_string_constants(tree: ast.Module) -> Dict[str, str]:
    """Top-level ``NAME = "literal"`` bindings (schema markers live here)."""
    out: Dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant):
            if isinstance(node.value.value, str):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        out[target.id] = node.value.value
    return out


def _string_value(
    expr: Optional[ast.expr], constants: Dict[str, str]
) -> Optional[str]:
    """A compile-time string: literal, or module-level constant name."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    if isinstance(expr, ast.Name):
        return constants.get(expr.id)
    if isinstance(expr, ast.Attribute):
        return constants.get(expr.attr)
    return None


def _enclosing_function(node: ast.AST) -> Optional[ast.AST]:
    for ancestor in parent_chain(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return ancestor
    return None


class _Anchor:
    """One writer or loader anchor: the function plus its anchor line."""

    __slots__ = ("info", "line", "version", "has_splat")

    def __init__(
        self,
        info: FunctionInfo,
        line: int,
        version: Optional[int],
        has_splat: bool = False,
    ) -> None:
        self.info = info
        self.line = line
        self.version = version
        #: the anchor dict merges ``**expr`` — its key set is knowingly
        #: incomplete, so read-but-never-written cannot be judged
        self.has_splat = has_splat


@register
class SchemaDriftRule(ProjectRule):
    """RL011: dict keys written at the writer match keys read at the loader."""

    rule_id = "RL011"
    title = "schema-drift"
    severity = "error"
    rationale = (
        "Every persistent artifact carries a 'format': 'repro-*' marker "
        "and a version. Writers and loaders drift independently: a key "
        "written but never read is dead weight in every artifact on disk "
        "(the bench ledger is written per-run); a key read but never "
        "written is a latent KeyError or silent None default that only "
        "fires on artifacts produced by a different version of the code "
        "- precisely the failure the "
        "version stamp exists to prevent. The rule cross-checks the key "
        "vocabulary of each writer (dict-literal keys, through its "
        "same-module helpers) against its loader (.get/[...] string "
        "accesses) per format marker."
    )
    hint = (
        "add the missing key to the writer dict (bumping the schema "
        "version if old artifacts must still load), or delete the stale "
        "key/access on the other side; keep writer and loader key "
        "vocabularies identical per format"
    )

    def _analyze(self, project: ProjectModel) -> Iterator[Finding]:
        graph: CallGraph = project.callgraph()
        writers: Dict[str, List[_Anchor]] = {}
        readers: Dict[str, List[_Anchor]] = {}
        for module in project.modules:
            constants = _module_string_constants(module.tree)
            for node in ast.walk(module.tree):
                self._scan_node(node, constants, graph, writers, readers)
        for format_name in sorted(set(writers) & set(readers)):
            yield from self._cross_check(
                format_name, writers[format_name], readers[format_name], graph
            )

    # -- anchor discovery ------------------------------------------------
    def _scan_node(
        self,
        node: ast.AST,
        constants: Dict[str, str],
        graph: CallGraph,
        writers: Dict[str, List[_Anchor]],
        readers: Dict[str, List[_Anchor]],
    ) -> None:
        if isinstance(node, ast.Dict):
            format_name, version = self._writer_marker(node, constants)
            if format_name is not None:
                anchor = self._anchor_for(
                    node, graph, version,
                    has_splat=any(key is None for key in node.keys),
                )
                if anchor is not None:
                    writers.setdefault(format_name, []).append(anchor)
        format_name = self._reader_marker(node, constants)
        if format_name is not None:
            anchor = self._anchor_for(node, graph, None)
            if anchor is not None:
                readers.setdefault(format_name, []).append(anchor)

    @staticmethod
    def _writer_marker(
        node: ast.Dict, constants: Dict[str, str]
    ) -> Tuple[Optional[str], Optional[int]]:
        format_name: Optional[str] = None
        version: Optional[int] = None
        for key, value in zip(node.keys, node.values):
            key_str = _string_value(key, constants)
            if key_str == "format":
                candidate = _string_value(value, constants)
                if candidate is not None and candidate.startswith("repro-"):
                    format_name = candidate
            elif key_str == "version":
                if isinstance(value, ast.Constant) and isinstance(
                    value.value, int
                ):
                    version = value.value
        return format_name, version

    def _reader_marker(
        self, node: ast.AST, constants: Dict[str, str]
    ) -> Optional[str]:
        """A comparison of a ``format`` access against a ``repro-*`` string."""
        if not isinstance(node, ast.Compare) or len(node.comparators) != 1:
            return None
        sides = [node.left, node.comparators[0]]
        access = next((s for s in sides if self._is_format_access(s)), None)
        if access is None:
            return None
        other = sides[1] if access is sides[0] else sides[0]
        value = _string_value(other, constants)
        if value is not None and value.startswith("repro-"):
            return value
        return None

    @staticmethod
    def _is_format_access(expr: ast.expr) -> bool:
        if isinstance(expr, ast.Subscript):
            index = expr.slice
            return isinstance(index, ast.Constant) and index.value == "format"
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
            if expr.func.attr == "get" and expr.args:
                first = expr.args[0]
                return isinstance(first, ast.Constant) and first.value == "format"
        return False

    @staticmethod
    def _anchor_for(
        node: ast.AST,
        graph: CallGraph,
        version: Optional[int],
        has_splat: bool = False,
    ) -> Optional[_Anchor]:
        fn = _enclosing_function(node)
        if fn is None:
            return None
        info = graph.function_for(fn)
        if info is None:
            return None
        return _Anchor(info, node.lineno, version, has_splat)

    # -- key vocabulary and cross-check ---------------------------------
    def _cross_check(
        self,
        format_name: str,
        writers: List[_Anchor],
        readers: List[_Anchor],
        graph: CallGraph,
    ) -> Iterator[Finding]:
        written: Dict[str, Tuple[_Anchor, int]] = {}
        read: Dict[str, Tuple[_Anchor, int]] = {}
        for anchor in writers:
            for key, line in self._written_keys(anchor, graph):
                written.setdefault(key, (anchor, line))
        for anchor in readers:
            for key, line in self._read_keys(anchor, graph):
                read.setdefault(key, (anchor, line))
        version = next(
            (a.version for a in writers if a.version is not None), None
        )
        tag = f"{format_name} v{version}" if version is not None else format_name
        for key in sorted(set(written) - set(read) - _ENVELOPE_KEYS):
            anchor, line = written[key]
            yield self.project_finding(
                anchor.info,
                line,
                f"schema {tag}: key {key!r} is written but no loader of "
                "this format ever reads it",
            )
        if not any(anchor.has_splat for anchor in writers):
            for key in sorted(set(read) - set(written) - _ENVELOPE_KEYS):
                anchor, line = read[key]
                yield self.project_finding(
                    anchor.info,
                    line,
                    f"schema {tag}: key {key!r} is read but no writer of "
                    "this format ever emits it",
                )

    def _closure(self, anchor: _Anchor, graph: CallGraph) -> List[FunctionInfo]:
        """The anchor, its same-module transitive callees, and — for a
        method — its same-class siblings: serializer classes routinely
        assemble payload records in one method and write the envelope in
        another (``Baseline.from_findings`` vs ``Baseline.save``)."""
        roots = [anchor.info]
        if anchor.info.class_name:
            for info in graph.functions.values():
                if (
                    info.module is anchor.info.module
                    and info.class_name == anchor.info.class_name
                    and info is not anchor.info
                ):
                    roots.append(info)
        out = list(roots)
        for root in roots:
            for key in graph.transitive_callees(root.key):
                info = graph.functions.get(key)
                if info is not None and info.module is anchor.info.module:
                    out.append(info)
        return out

    def _written_keys(
        self, anchor: _Anchor, graph: CallGraph
    ) -> Iterator[Tuple[str, int]]:
        for info in self._closure(anchor, graph):
            for node in ast.walk(info.node):
                if isinstance(node, ast.Dict):
                    for key in node.keys:
                        if isinstance(key, ast.Constant) and isinstance(
                            key.value, str
                        ):
                            yield key.value, node.lineno
                elif isinstance(node, ast.Subscript) and isinstance(
                    node.ctx, ast.Store
                ):
                    index = node.slice
                    if isinstance(index, ast.Constant) and isinstance(
                        index.value, str
                    ):
                        yield index.value, node.lineno

    def _read_keys(
        self, anchor: _Anchor, graph: CallGraph
    ) -> Iterator[Tuple[str, int]]:
        # module-wide: consumers of the decoded payload live beside the
        # loader but are not its callees (the loader returns to them)
        for node in ast.walk(anchor.info.module.tree):
            if isinstance(node, ast.Subscript) and isinstance(
                node.ctx, ast.Load
            ):
                index = node.slice
                if isinstance(index, ast.Constant) and isinstance(
                    index.value, str
                ):
                    yield index.value, node.lineno
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in {"get", "pop"} and node.args:
                    first = node.args[0]
                    if isinstance(first, ast.Constant) and isinstance(
                        first.value, str
                    ):
                        yield first.value, node.lineno
