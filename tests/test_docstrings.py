"""Docstring coverage on the public serving-stack API.

CI enforces pydocstyle (ruff ``D`` rules) on ``repro.rram``,
``repro.serve`` and ``repro.dist``; this AST walk keeps the
missing-docstring core of that contract (D100-D104) inside the tier-1
suite, where it runs without ruff installed: every module and every
public class/function/method in those packages must carry a docstring.
The walk also covers ``repro.pim``, which ruff still exempts from ``D``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
PACKAGES = ("rram", "serve", "dist", "pim")


def _module_files():
    for package in PACKAGES:
        yield from sorted((SRC / package).rglob("*.py"))


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _missing_in(node, where: str) -> list[str]:
    """Public defs under ``node`` (module or class) lacking docstrings."""
    missing = []
    for child in node.body:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not _is_public(child.name):
                continue
            label = f"{where}.{child.name}"
            if ast.get_docstring(child) is None:
                missing.append(label)
            if isinstance(child, ast.ClassDef):
                missing.extend(_missing_in(child, label))
    return missing


@pytest.mark.parametrize(
    "path", list(_module_files()), ids=lambda p: str(p.relative_to(SRC))
)
def test_public_api_is_documented(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    rel = path.relative_to(SRC.parent)
    assert ast.get_docstring(tree) is not None, f"{rel}: missing module docstring"
    missing = _missing_in(tree, str(rel))
    assert missing == [], f"undocumented public API: {missing}"
