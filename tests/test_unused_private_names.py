"""Every private module-level name in ``src/qmhd`` is read somewhere in
``src/qmhd``: a function, class or constant whose name starts with ``_``
(dunder names aside) that nothing reads is a helper a simplification left
behind.

A name counts as read when some module loads it, by name or as an
attribute, outside its own definition.  The check reads the source only,
like ``test_unused_imports.py``.
"""

import ast
import os
from collections import Counter

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "qmhd")


def _reads(node: ast.AST) -> Counter:
    """How often each name is loaded under ``node``, by name or as an attribute."""
    counts = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            counts[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            counts[n.attr] += 1
    return counts


def _private_definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """The module's top-level private functions, classes and constants, each
    with its defining statement."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        found += [(name, node) for name in names if name.startswith("_") and not name.startswith("__")]
    return found


def unread_private_names(paths: list[str]) -> set[str]:
    """``module:name`` of each private top-level name defined in ``paths``
    that none of them reads outside its own definition."""
    trees = {}
    for path in paths:
        with open(path) as fh:
            trees[path] = ast.parse(fh.read(), path)
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    unread = set()
    for path, tree in trees.items():
        for name, node in _private_definitions(tree):
            own = _reads(node)[name] if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else 0
            if reads[name] - own <= 0:
                unread.add(f"{os.path.basename(path)}:{name}")
    return unread


def test_every_private_name_is_read():
    paths = sorted(os.path.join(SRC, f) for f in os.listdir(SRC) if f.endswith(".py"))
    assert unread_private_names(paths) == set()


def test_the_guard_sees_an_unread_private_name(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "import math\n"
        "_USED = 2\n"
        "_DEAD: int = 3\n"
        "__version__ = '1'\n"
        "def _helper(x):\n    return _USED * x\n"
        "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
        "class _Record:\n    pass\n"
        "def _read_as_attribute():\n    pass\n"
        "def public(r):\n    return _helper(r.x) + math.pi + r._read_as_attribute\n"
    )
    assert unread_private_names([str(path)]) == {"mod.py:_DEAD", "mod.py:_recursive", "mod.py:_Record"}
