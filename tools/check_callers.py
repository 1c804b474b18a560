"""Caller scan: ``src/`` definitions referenced only from ``tests/``.

Parses every Python file under ``src/`` and lists each function, method
and class it defines whose name is referenced nowhere else in the
program: not in ``src/`` outside the definition's own body, and not in
``benchmarks/``, ``examples/``, ``perfbench/`` or ``tools/``.  Such a
definition is surface kept for tests alone.

A reference is a name read (``foo``), an attribute access (``x.foo``),
an imported name, or a string constant equal to the name (``getattr``
and registry access); the strings of ``__all__`` lists do not count.
A definition under a registering decorator (``@experiment(...)``: any
but the built-in descriptors, caches and ``@dataclass``) has its
decorator as caller.  Names are
matched bare, so a method counts as called when any object's attribute
of that name is read.  That over-approximates callers, never under.
Dunder methods are skipped: the language calls them.

Run from anywhere: ``python tools/check_callers.py``.  Prints one
``module:Qualname`` per line and exits non-zero if any are found.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE_DIR = "src"
#: Program directories besides ``src/`` whose references count as callers.
CALLER_DIRS = ("benchmarks", "examples", "perfbench", "tools")
#: Decorators that only wrap or shape a definition; any other one registers it.
DESCRIPTORS = {"property", "staticmethod", "classmethod", "abstractmethod", "lru_cache", "dataclass"}


def _python_files(*dirs: str) -> list[Path]:
    files: list[Path] = []
    for name in dirs:
        files.extend(sorted((REPO_ROOT / name).rglob("*.py")))
    return files


def _module_name(path: Path) -> str:
    parts = path.relative_to(REPO_ROOT / SOURCE_DIR).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _definitions(tree: ast.Module):
    """Yield ``(qualname, name, node)`` for module-level functions and
    classes and for the methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name, node
        elif isinstance(node, ast.ClassDef):
            yield node.name, node.name, node
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item.name, item


def _registered(node: ast.AST) -> bool:
    """Whether a decorator other than a built-in descriptor wraps ``node``."""
    for decorator in getattr(node, "decorator_list", ()):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name not in DESCRIPTORS:
            return True
    return False


def _all_strings(tree: ast.Module) -> set[int]:
    """ids of the string constants listed in ``__all__`` assignments."""
    skipped: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                skipped.update(id(c) for c in ast.walk(node) if isinstance(c, ast.Constant))
    return skipped


def _references(tree: ast.Module) -> list[tuple[str, int]]:
    """Every ``(name, line)`` the module reads, imports or spells as a string."""
    skipped = _all_strings(tree)
    refs: list[tuple[str, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            refs.append((node.name.rsplit(".", 1)[-1], node.lineno))
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
            and id(node) not in skipped
        ):
            refs.append((node.value, node.lineno))
    return refs


def uncalled_definitions() -> list[str]:
    """``module:Qualname`` of every ``src/`` definition with no caller
    outside ``tests/``, sorted."""
    refs: dict[str, list[tuple[Path, int]]] = {}
    trees: dict[Path, ast.Module] = {}
    for path in _python_files(SOURCE_DIR, *CALLER_DIRS):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if path.is_relative_to(REPO_ROOT / SOURCE_DIR):
            trees[path] = tree
        for name, line in _references(tree):
            refs.setdefault(name, []).append((path, line))

    unused = []
    for path, tree in trees.items():
        for qualname, name, node in _definitions(tree):
            if (name.startswith("__") and name.endswith("__")) or _registered(node):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            callers = [
                (where, line)
                for where, line in refs.get(name, [])
                if where != path or line not in own
            ]
            if not callers:
                unused.append(f"{_module_name(path)}:{qualname}")
    return sorted(unused)


def main() -> int:
    """Print every test-only definition; 0 iff there are none."""
    unused = uncalled_definitions()
    for qualname in unused:
        print(qualname)
    if not unused:
        print("callers OK: every src/ definition has a caller outside tests/")
    return 1 if unused else 0


if __name__ == "__main__":
    sys.exit(main())
