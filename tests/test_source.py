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


def _package_trees() -> dict[Path, ast.Module]:
    return {
        path: ast.parse(path.read_text(), str(path))
        for path in sorted((ROOT / "src" / "heterodro").glob("*.py"))
    }


def test_every_module_level_import_is_read():
    unread = []
    for path, tree in _package_trees().items():
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in read:
                        unread.append(f"{path.stem}: {bound}")
    assert unread == []


def test_measures_alone_convert_a_measures_tuples():
    """Outside ``measures.py`` a measure's atoms are read as arrays through
    ``FiniteMeasure.arrays``, which converts them once; no ``np.asarray``,
    ``np.array`` or ``np.fromiter`` takes ``.support`` or ``.weights``."""
    converters = {"asarray", "array", "fromiter"}
    found = []
    for path, tree in _package_trees().items():
        if path.name == "measures.py":
            continue
        for call in ast.walk(tree):
            if not (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr in converters
                and isinstance(call.func.value, ast.Name)
                and call.func.value.id == "np"
            ):
                continue
            for arg in (*call.args, *call.keywords):
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.Attribute) and sub.attr in ("support", "weights"):
                        found.append(f"{path.stem}:{call.lineno} np.{call.func.attr}(...{sub.attr})")
    assert found == []
