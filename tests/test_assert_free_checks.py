"""Invariant checks stay assert-free in the packages CI runs under -O.

``python -O`` strips every ``assert`` statement, so an invariant rule
written as one checks nothing in CI's optimized step.  This test walks
the syntax tree of every module of those packages and fails on an
``assert`` inside a function named ``check_*`` or ``_check_*``, nested
functions included: each rule must ``raise`` (``AssertionError`` or
``ValueError``) explicitly.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List

import repro

#: The packages whose tests CI also runs with asserts stripped.
OPTIMIZED_PACKAGES = (
    "memory", "blindi", "btree", "core", "cluster", "cache", "wal",
    "tuning", "engine", "exec",
)

CHECK_PREFIXES = ("check_", "_check_")


def asserts_in_checks(source: str) -> List[int]:
    """Line numbers of the asserts inside a ``check_*`` / ``_check_*``
    function of ``source``, or inside any function nested in one."""
    found: List[int] = []

    def visit(node: ast.AST, in_check: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, in_check or child.name.startswith(CHECK_PREFIXES))
            elif isinstance(child, ast.Assert) and in_check:
                found.append(child.lineno)
            else:
                visit(child, in_check)

    visit(ast.parse(source), False)
    return found


def test_finder_sees_nested_and_method_asserts():
    source = (
        "class Rep:\n"
        "    def check_invariants(self):\n"
        "        def walk(p):\n"
        "            assert p >= 0\n"
        "        walk(0)\n"
        "    def _check_tree(self, slot):\n"
        "        assert slot >= 0\n"
        "    def search(self, key):\n"
        "        assert key\n"
        "def helper():\n"
        "    assert True\n"
    )
    assert asserts_in_checks(source) == [4, 7]


def test_invariant_checks_hold_without_asserts():
    src = Path(repro.__file__).parent
    offenders = []
    for package in OPTIMIZED_PACKAGES:
        for path in sorted((src / package).rglob("*.py")):
            offenders += [
                f"{path.relative_to(src.parent)}:{line}"
                for line in asserts_in_checks(path.read_text())
            ]
    assert offenders == []
