"""RL012: the typed-exception contract.

The repository's error taxonomy (``repro/exceptions.py``) is part of the
public API: callers are told to catch ``SignatureMismatchError`` when
feature planes disagree, ``FilterStateError`` when a filter is driven out
of protocol, ``ShardError`` when a shard worker fails.
That contract only holds if every class in the taxonomy is *real*:

* **documented** — a docstring saying when it is raised (the docs build
  and ``--explain`` both quote it);
* **exported** — listed in its module's ``__all__`` (RL007 keeps the list
  honest; this rule requires the name to be on it at all);
* **raised somewhere** — an exception class nobody raises is dead API
  surface that callers write handlers for in vain;
* **never silently swallowed** — ``except FooError: pass`` turns a typed,
  documented failure into silent corruption, which on the serving hot
  path means wrong similarity results rather than a clean 500.

The rule finds the taxonomy by ancestry (every analyzed class that
derives, transitively and by name, from ``ReproError``), so fixture and
future subsystem exceptions are held to the same contract automatically.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.astutils import string_elements
from repro.analysis.engine import ClassInfo, ProjectModel
from repro.analysis.findings import Finding
from repro.analysis.registry import register
from repro.analysis.rules.interprocedural import ProjectRule

__all__ = ["ExceptionContractRule"]

#: The root of the typed-exception taxonomy.
_ROOT = "ReproError"


def _module_all(tree: ast.Module) -> Optional[Set[str]]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names = string_elements(node.value)
            if names is not None:
                return set(names)
    return None


def _raised_names(project: ProjectModel) -> Set[str]:
    """Every class name that appears in a ``raise``/``raise from`` statement."""
    out: Set[str] = set()
    for module in project.modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name):
                out.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                out.add(exc.attr)
    return out


def _handler_names(handler: ast.ExceptHandler) -> List[str]:
    """The exception class names one ``except`` clause catches."""
    node = handler.type
    if node is None:
        return []
    nodes = node.elts if isinstance(node, ast.Tuple) else [node]
    names: List[str] = []
    for item in nodes:
        if isinstance(item, ast.Name):
            names.append(item.id)
        elif isinstance(item, ast.Attribute):
            names.append(item.attr)
    return names


def _swallows(handler: ast.ExceptHandler) -> bool:
    """True when the handler body does nothing observable with the error."""
    for statement in handler.body:
        if isinstance(statement, ast.Pass):
            continue
        if isinstance(statement, ast.Expr) and isinstance(
            statement.value, ast.Constant
        ):
            continue  # docstring/ellipsis placeholder
        if isinstance(statement, ast.Continue):
            continue
        return False
    return True


@register
class ExceptionContractRule(ProjectRule):
    """RL012: typed exceptions are documented, exported, raised, not dropped."""

    rule_id = "RL012"
    title = "exception-contract"
    severity = "error"
    rationale = (
        "The ReproError taxonomy is API: callers catch "
        "SignatureMismatchError, FilterStateError or "
        "ShardError by name and trust what the docs say "
        "about when each fires. An undocumented or unexported subclass "
        "is a contract nobody can read; one that is never raised is "
        "dead surface callers guard against in vain; and `except "
        "FooError: pass` converts a typed failure into silent "
        "corruption - on the serving path that means wrong similarity "
        "results instead of a clean error response."
    )
    hint = (
        "give the exception a docstring saying when it is raised, list "
        "it in __all__, raise it from the code path it describes, and "
        "make every handler either recover meaningfully or re-raise"
    )

    def _analyze(self, project: ProjectModel) -> Iterator[Finding]:
        taxonomy = project.subclasses_of(_ROOT)
        taxonomy_names = {info.name for info in taxonomy} | {_ROOT}
        # an intermediate base (subclassed within the taxonomy) need not be
        # raised directly — its concrete subclasses carry that obligation
        bases: Set[str] = set()
        for info in taxonomy:
            bases.update(
                name for name in project.ancestry(info) if name in taxonomy_names
            )
        raised = _raised_names(project)
        exports: Dict[int, Optional[Set[str]]] = {}
        for info in taxonomy:
            module = info.module
            if id(module) not in exports:
                exports[id(module)] = _module_all(module.tree)
            yield from self._class_findings(
                info, raised, exports[id(module)], is_base=info.name in bases
            )
        for module in project.modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.ExceptHandler):
                    continue
                caught = [
                    name for name in _handler_names(node)
                    if name in taxonomy_names
                ]
                if caught and _swallows(node):
                    yield Finding(
                        rule=self.rule_id,
                        severity=self.severity,
                        path=module.display_path,
                        line=node.lineno,
                        message=(
                            f"handler silently swallows "
                            f"{', '.join(sorted(caught))}; typed failures "
                            "must be handled or re-raised"
                        ),
                        symbol=", ".join(sorted(caught)),
                        hint=self.hint,
                    )

    def _class_findings(
        self,
        info: ClassInfo,
        raised: Set[str],
        module_exports: Optional[Set[str]],
        is_base: bool,
    ) -> Iterator[Finding]:
        line = info.node.lineno
        if ast.get_docstring(info.node) is None:
            yield self._taxonomy_finding(
                info, line,
                f"exception {info.name} has no docstring; the taxonomy is "
                "API and each class must say when it is raised",
            )
        if module_exports is not None and info.name not in module_exports:
            yield self._taxonomy_finding(
                info, line,
                f"exception {info.name} is not exported via __all__",
            )
        if info.name not in raised and not is_base:
            yield self._taxonomy_finding(
                info, line,
                f"exception {info.name} is defined but never raised",
            )

    def _taxonomy_finding(
        self, info: ClassInfo, line: int, message: str
    ) -> Finding:
        return Finding(
            rule=self.rule_id,
            severity=self.severity,
            path=info.module.display_path,
            line=line,
            message=message,
            symbol=info.name,
            hint=self.hint,
        )
