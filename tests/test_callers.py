"""Every top-level function and class in ``src/hypstab`` must have a caller
in the program: a name for it somewhere in ``src/hypstab`` (outside
``__init__.py`` and outside its own definition), ``scripts/`` or
``perfbench/``.  A helper that only the tests and the package exports use
is dead code.  The files are parsed, never imported or changed."""
from __future__ import annotations

import ast
from collections import defaultdict
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hypstab"

# The paper's lemmas linking a destabilizing weight vector to the singularity
# it forces, kept until certificate checking uses them (ROADMAP item 8).
AWAITING_CALLERS = {"m0_threshold", "mult_lower_bound_from_weights", "rank_of_q"}


def _mentions(tree: ast.AST) -> list[tuple[str, int]]:
    """Every name the code refers to, with its line: identifiers, attributes,
    imported names and the parts of dotted strings (the benchmark tracer
    names its wrap points as strings)."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            out.extend((part, node.lineno) for part in node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.extend((part, node.lineno) for part in node.value.split("."))
    return out


@cache
def uncalled() -> frozenset[str]:
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    program = sources + sorted((ROOT / "scripts").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    where = defaultdict(list)
    for path in program:
        for name, line in _mentions(ast.parse(path.read_text(encoding="utf-8"))):
            where[name].append((path, line))
    missing = set()
    for path in sources:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = range(node.lineno, node.end_lineno + 1)
                if all(other == path and line in own for other, line in where[node.name]):
                    missing.add(node.name)
    return frozenset(missing)


def test_every_helper_has_a_caller():
    assert uncalled() <= AWAITING_CALLERS, sorted(uncalled() - AWAITING_CALLERS)


def test_awaiting_list_is_current():
    # A lemma that gains a caller, or is deleted, leaves the list.
    assert uncalled() == AWAITING_CALLERS
