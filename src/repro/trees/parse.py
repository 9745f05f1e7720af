"""Bracket-notation parsing and serialization for trees.

The library's canonical text format is the *bracket notation* common in the
tree-edit-distance literature::

    a(b(c,d),e)

i.e. a label followed by an optional parenthesized, comma-separated list of
child subtrees.  Labels may be quoted with double quotes to include the
special characters ``( ) , "`` (a backslash escapes a quote or backslash
inside a quoted label).

The format round-trips: ``parse_bracket(to_bracket(t)) == t``.
"""

from __future__ import annotations

import re
from typing import List

from repro.exceptions import TreeParseError
from repro.trees.node import TreeNode

__all__ = ["parse_bracket", "to_bracket", "parse_forest", "forest_to_bracket"]

_SPECIAL = set("(),\"")

#: a label needs quoting when it is empty or holds a special character or
#: whitespace (``re``'s ``\s`` agrees with ``str.isspace`` on every code
#: point)
_NEEDS_QUOTING = re.compile(r'[(),"\s]')


def _needs_quoting(label: str) -> bool:
    return label == "" or _NEEDS_QUOTING.search(label) is not None


def _quote(label: str) -> str:
    escaped = label.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def to_bracket(tree: TreeNode) -> str:
    """Serialize a tree to bracket notation.

    >>> to_bracket(TreeNode("a", [TreeNode("b"), TreeNode("c")]))
    'a(b,c)'
    """
    parts: List[str] = []
    # Iterative serialization: emit tokens via an explicit stack of
    # (node, None) for "open" events and (None, text) for literal text.
    stack: List[object] = [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        node = item
        label = node.label if isinstance(node.label, str) else str(node.label)
        parts.append(_quote(label) if _needs_quoting(label) else label)
        if node.children:
            parts.append("(")
            stack.append(")")
            children = node.children
            for i in range(len(children) - 1, -1, -1):
                stack.append(children[i])
                if i > 0:
                    stack.append(",")
    return "".join(parts)


def forest_to_bracket(forest: List[TreeNode]) -> str:
    """Serialize a forest as a comma-separated list of bracket trees."""
    return ",".join(to_bracket(tree) for tree in forest)


class _Tokenizer:
    """Splits a bracket string into labels and punctuation tokens."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def error(self, message: str) -> TreeParseError:
        return TreeParseError(f"{message} (at position {self.pos})")

    def peek(self) -> str:
        self._skip_ws()
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def take_punct(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def take_label(self) -> str:
        self._skip_ws()
        text, pos = self.text, self.pos
        if pos >= len(text):
            raise self.error("expected a label, found end of input")
        if text[pos] == '"':
            return self._take_quoted()
        start = pos
        while pos < len(text) and text[pos] not in _SPECIAL and not text[pos].isspace():
            pos += 1
        if pos == start:
            raise self.error(f"expected a label, found {text[pos]!r}")
        self.pos = pos
        return text[start:pos]

    def _take_quoted(self) -> str:
        text = self.text
        pos = self.pos + 1  # skip opening quote
        out: List[str] = []
        while pos < len(text):
            ch = text[pos]
            if ch == "\\":
                if pos + 1 >= len(text):
                    raise self.error("dangling escape in quoted label")
                out.append(text[pos + 1])
                pos += 2
            elif ch == '"':
                self.pos = pos + 1
                return "".join(out)
            else:
                out.append(ch)
                pos += 1
        raise self.error("unterminated quoted label")


def _parse_subtree(tokens: _Tokenizer) -> TreeNode:
    label = tokens.take_label()
    node = TreeNode(label)
    if tokens.peek() == "(":
        tokens.take_punct()
        # children parsed iteratively with an explicit stack of open nodes
        _parse_children(tokens, node)
    return node


def _parse_children(tokens: _Tokenizer, parent: TreeNode) -> None:
    stack = [parent]
    while stack:
        current = stack[-1]
        child = TreeNode(tokens.take_label())
        current.add_child(child)
        nxt = tokens.peek()
        if nxt == "(":
            tokens.take_punct()
            stack.append(child)
            continue
        while True:
            nxt = tokens.peek()
            if nxt == ",":
                tokens.take_punct()
                break
            if nxt == ")":
                tokens.take_punct()
                stack.pop()
                if not stack:
                    return
                continue
            raise tokens.error(f"expected ',' or ')', found {nxt!r}")
    raise tokens.error("unbalanced parentheses")  # pragma: no cover


def parse_bracket(text: str) -> TreeNode:
    """Parse a single tree from bracket notation.

    >>> parse_bracket("a(b(c,d),e)").size
    5
    """
    tokens = _Tokenizer(text)
    tree = _parse_subtree(tokens)
    if tokens.peek() != "":
        raise tokens.error("trailing input after tree")
    return tree


def parse_forest(text: str) -> List[TreeNode]:
    """Parse a comma-separated list of bracket trees."""
    tokens = _Tokenizer(text)
    forest = [_parse_subtree(tokens)]
    while tokens.peek() == ",":
        tokens.take_punct()
        forest.append(_parse_subtree(tokens))
    if tokens.peek() != "":
        raise tokens.error("trailing input after forest")
    return forest
