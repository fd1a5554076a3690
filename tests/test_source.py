"""No test-only surface in ``src/``: the program itself uses every
module-level function and class of the package.

Something in ``src/``, ``scripts/`` or ``perfbench/`` other than the
definition itself must refer to each one, as a name, an attribute or an
imported name.  A function decorated by a function of its own module (the
``@_family`` builders of ``regret``) is registered there, which counts as a
use.  A helper that only the tests call belongs in the tests."""

import ast
import collections
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROGRAM_DIRS = ("src", "scripts", "perfbench")


def _names(node: ast.AST) -> collections.Counter:
    """Every name, attribute and imported name referred to under ``node``."""
    out: collections.Counter = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def test_every_module_level_definition_is_used_by_the_program():
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for d in PROGRAM_DIRS
        for path in sorted((ROOT / d).rglob("*.py"))
    }
    used = sum((_names(tree) for tree in trees.values()), collections.Counter())
    unused = []
    for path in sorted((ROOT / "src" / "heterodro").glob("*.py")):
        tree = trees[path]
        own = {
            node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            registered = any(
                isinstance(dec, ast.Name) and dec.id in own for dec in node.decorator_list
            )
            # references inside the definition (recursion) do not count
            if not registered and used[node.name] <= _names(node)[node.name]:
                unused.append(f"{path.stem}.{node.name}")
    assert unused == []
