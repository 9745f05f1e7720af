"""Persistence for tree collections.

Tree datasets are stored as plain text: one bracket-notation tree per line
(blank lines and ``#`` comments ignored).  The format is portable,
diff-friendly, and — unlike pickling the linked node structure — safe for
arbitrarily deep trees.  A loader for directories of XML documents covers
the paper's XML-repository use case.

:func:`save_database` / :func:`load_database` persist a whole
:class:`~repro.search.database.TreeDatabase` as its forest file alone.
The feature plane is derived state: a loaded database extracts it from the
forest exactly as ``TreeDatabase(trees)`` does, one pass per tree.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, List, Optional, Union

from repro.exceptions import TreeParseError
from repro.trees.node import TreeNode
from repro.trees.parse import parse_bracket, to_bracket
from repro.trees.xml_io import parse_xml_file

__all__ = [
    "save_forest",
    "load_forest",
    "load_xml_directory",
    "save_database",
    "load_database",
]

PathLike = Union[str, os.PathLike]


def save_forest(
    trees: Iterable[TreeNode],
    path: PathLike,
    header: Optional[str] = None,
) -> int:
    """Write trees to ``path`` in bracket notation, one per line.

    Returns the number of trees written.

    >>> import tempfile, os
    >>> from repro.trees import parse_bracket
    >>> path = os.path.join(tempfile.mkdtemp(), "demo.trees")
    >>> save_forest([parse_bracket("a(b,c)")], path, header="demo")
    1
    >>> load_forest(path)
    [TreeNode('a', 2 children, size=3)]
    """
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        for tree in trees:
            handle.write(to_bracket(tree))
            handle.write("\n")
            count += 1
    return count


def load_forest(path: PathLike) -> List[TreeNode]:
    """Read a bracket-notation tree collection written by :func:`save_forest`.

    Raises :class:`~repro.exceptions.TreeParseError` with the offending line
    number when a line cannot be parsed.
    """
    trees: List[TreeNode] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                trees.append(parse_bracket(text))
            except TreeParseError as exc:
                raise TreeParseError(
                    f"{path}:{line_number}: {exc}"
                ) from exc
    return trees


def save_database(database, path: PathLike, header: Optional[str] = None) -> int:
    """Persist a :class:`~repro.search.database.TreeDatabase` to disk.

    Writes the database's forest to ``path`` with :func:`save_forest`;
    returns the number of trees written.
    """
    return save_forest(database.trees, path, header=header)


def load_database(path: PathLike, flt=None, **database_options):
    """Restore a database written by :func:`save_database`.

    Reads the forest and builds ``TreeDatabase(trees, flt, **options)``,
    which extracts the feature plane from the trees; no other file next
    to the forest (such as a ``<path>.features.json``) is read.
    """
    from repro.search.database import TreeDatabase

    return TreeDatabase(load_forest(path), flt, **database_options)


def load_xml_directory(
    directory: PathLike,
    pattern: str = "*.xml",
    **xml_options,
) -> List[TreeNode]:
    """Parse every XML file under ``directory`` (sorted by name) into trees.

    ``xml_options`` are forwarded to
    :func:`repro.trees.xml_io.xml_to_tree` (``include_attributes``,
    ``include_text``, ``max_text``).
    """
    root = Path(directory)
    if not root.is_dir():
        raise FileNotFoundError(f"not a directory: {directory}")
    return [
        parse_xml_file(str(path), **xml_options)
        for path in sorted(root.glob(pattern))
    ]
