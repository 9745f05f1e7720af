"""Unit tests for bracket notation parsing/serialization."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import TreeParseError
from repro.trees import (
    TreeNode,
    forest_to_bracket,
    parse_bracket,
    parse_forest,
    to_bracket,
)
from repro.trees.parse import _needs_quoting

_SPECIAL = set('(),"')


def _needs_quoting_reference(label):
    """The per-character predicate the compiled search replaced."""
    return label == "" or any(ch in _SPECIAL or ch.isspace() for ch in label)


#: labels made of what quoting must protect: the special characters, a
#: backslash and Unicode whitespace, plus two zero-width characters that
#: ``isspace`` rejects and so must stay unquoted
_tricky_labels = st.text(
    alphabet=st.sampled_from(
        list('(),"\\ab')
        + ["\t", "\n", "\x0b", "\x1c", "\x85", "\xa0", "\u1680", "\u2003",
           "\u2028", "\u3000", "\u200b", "\ufeff"]
    ),
    max_size=6,
)


class TestParse:
    def test_single_node(self):
        tree = parse_bracket("a")
        assert tree.label == "a"
        assert tree.is_leaf

    def test_nested(self):
        tree = parse_bracket("a(b(c,d),e)")
        assert tree.size == 5
        assert [n.label for n in tree.iter_preorder()] == ["a", "b", "c", "d", "e"]

    def test_whitespace_tolerated(self):
        tree = parse_bracket(" a ( b , c ) ")
        assert [c.label for c in tree.children] == ["b", "c"]

    def test_multichar_labels(self):
        tree = parse_bracket("article(author,title)")
        assert tree.label == "article"

    def test_quoted_labels(self):
        tree = parse_bracket('"a(b)"("x,y")')
        assert tree.label == "a(b)"
        assert tree.children[0].label == "x,y"

    def test_quoted_label_with_escapes(self):
        tree = parse_bracket(r'"say \"hi\" \\now"')
        assert tree.label == 'say "hi" \\now'

    def test_deep_nesting_no_recursion_error(self):
        depth = 3000
        text = "x(" * depth + "x" + ")" * depth
        tree = parse_bracket(text)
        assert tree.size == depth + 1

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "a(b",
            "a(b,)",
            "a(,b)",
            "a)b",
            "a(b))",
            "a b",
            '"unterminated',
            '"dangling\\',
            "(a)",
        ],
    )
    def test_invalid_inputs(self, bad):
        with pytest.raises(TreeParseError):
            parse_bracket(bad)


class TestSerialize:
    def test_simple(self):
        assert to_bracket(parse_bracket("a(b,c)")) == "a(b,c)"

    def test_leaf(self):
        assert to_bracket(TreeNode("a")) == "a"

    def test_quoting_applied(self):
        tree = TreeNode("a,b", [TreeNode('q"q')])
        text = to_bracket(tree)
        assert parse_bracket(text) == tree

    def test_quoting_predicate_matches_the_reference_on_every_code_point(self):
        mismatches = [
            hex(code)
            for code in range(sys.maxunicode + 1)
            if _needs_quoting(chr(code)) != _needs_quoting_reference(chr(code))
        ]
        assert mismatches == []
        assert _needs_quoting("") and _needs_quoting("ab c")
        assert not _needs_quoting("ab_c")

    @given(
        root=_tricky_labels,
        children=st.lists(_tricky_labels, max_size=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_tricky_labels_round_trip(self, root, children):
        tree = TreeNode(root, [TreeNode(label) for label in children])
        text = to_bracket(tree)
        assert parse_bracket(text) == tree
        assert to_bracket(parse_bracket(text)) == text

    def test_non_string_labels_stringified(self):
        tree = TreeNode(1, [TreeNode(2)])
        assert to_bracket(tree) == "1(2)"

    @pytest.mark.parametrize(
        "text",
        [
            "a",
            "a(b)",
            "a(b,c,d)",
            "a(b(c(d(e))))",
            "root(x(y,z),x(y,z),w)",
            'a("weird (label)",b)',
        ],
    )
    def test_round_trip(self, text):
        tree = parse_bracket(text)
        assert parse_bracket(to_bracket(tree)) == tree


class TestForest:
    def test_parse_forest(self):
        forest = parse_forest("a(b),c,d(e,f)")
        assert [t.label for t in forest] == ["a", "c", "d"]
        assert forest[2].size == 3

    def test_forest_round_trip(self):
        forest = parse_forest("a(b),c")
        assert parse_forest(forest_to_bracket(forest)) == forest

    def test_single_tree_forest(self):
        assert len(parse_forest("a(b,c)")) == 1

    def test_trailing_garbage_rejected(self):
        with pytest.raises(TreeParseError):
            parse_forest("a(b),")
