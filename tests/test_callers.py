"""Everything defined in ``src/hypstab`` must have a caller in the program:
``src/hypstab`` (outside ``__init__.py``), ``scripts/`` or ``perfbench/``.

- A top-level function or class must be named somewhere outside its own
  definition.
- A method or property of a top-level class must be read as an attribute
  (``.name``) somewhere outside its own definition.  Attributes are matched
  by name alone, so a method shares its callers with every other attribute
  of that name.
- An operator dunder (``__matmul__``, ``__radd__``, ``__lt__``, ...) must
  have its operator node somewhere outside its own definition, and
  ``__float__``, ``__int__``, ``__len__`` and ``__abs__`` a call of that
  builtin.  The dunders the language calls implicitly (``IMPLICIT``) are
  exempt; any other dunder counts as uncalled until ``REACHED_BY`` names
  what reaches it.

A helper that only the tests and the package exports use is dead code.  The
files are parsed, never imported or changed."""
from __future__ import annotations

import ast
from collections import defaultdict
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hypstab"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

IMPLICIT = frozenset(
    {"__init__", "__post_init__", "__str__", "__repr__", "__eq__", "__hash__", "__iter__"}
)
_BINARY = {
    "Add": "add", "Sub": "sub", "Mult": "mul", "MatMult": "matmul", "Div": "truediv",
    "FloorDiv": "floordiv", "Mod": "mod", "Pow": "pow", "LShift": "lshift",
    "RShift": "rshift", "BitAnd": "and", "BitOr": "or", "BitXor": "xor",
}
_OTHER = {
    "USub": "neg", "UAdd": "pos", "Invert": "invert",
    "Lt": "lt", "LtE": "le", "Gt": "gt", "GtE": "ge", "NotEq": "ne",
}
# The operator node, or the builtin call, that reaches each dunder.
REACHED_BY = (
    {f"__{side}{name}__": op for op, name in _BINARY.items() for side in ("", "r", "i")}
    | {f"__{name}__": op for op, name in _OTHER.items()}
    | {f"__{name}__": f"{name}()" for name in ("float", "int", "len", "abs")}
)


def _mentions(tree: ast.AST) -> tuple[list[tuple[str, int]], ...]:
    """Every name the code refers to, with its line: identifiers, attributes,
    imported names and the parts of dotted strings (the benchmark tracer
    names its wrap points as strings); apart, the attributes alone; and the
    operators and builtin calls that reach dunders, as ``REACHED_BY`` names
    them."""
    names, attributes, operators = [], [], []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign, ast.UnaryOp)):
            operators.append((type(node.op).__name__, node.lineno))
        elif isinstance(node, ast.Compare):
            operators.extend((type(op).__name__, node.lineno) for op in node.ops)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            operators.append((f"{node.func.id}()", node.lineno))
        elif isinstance(node, ast.Name):
            names.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            names.append((node.attr, node.lineno))
            attributes.append((node.attr, node.lineno))
        elif isinstance(node, ast.alias):
            names.extend((part, node.lineno) for part in node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.extend((part, node.lineno) for part in node.value.split("."))
    return names, attributes, operators


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


@cache
def uncalled() -> frozenset[str]:
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    program = sources + sorted((ROOT / "scripts").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    named, read, reached = defaultdict(list), defaultdict(list), defaultdict(list)
    for path in program:
        mentions = _mentions(ast.parse(path.read_text(encoding="utf-8")))
        for uses, found in zip((named, read, reached), mentions):
            for name, line in found:
                uses[name].append((path, line))

    def only_inside(node: ast.AST, path: Path, uses: list) -> bool:
        own = range(node.lineno, node.end_lineno + 1)
        return all(other == path and line in own for other, line in uses)

    missing = set()
    for path in sources:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, DEFINITIONS):
                continue
            if only_inside(node, path, named[node.name]):
                missing.add(node.name)
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if not isinstance(member, DEFINITIONS[:2]) or member.name in IMPLICIT:
                        continue
                    if _is_dunder(member.name):
                        uses = reached[REACHED_BY.get(member.name)]
                    else:
                        uses = read[member.name]
                    if only_inside(member, path, uses):
                        missing.add(f"{node.name}.{member.name}")
    return frozenset(missing)


def test_every_helper_has_a_caller():
    assert not uncalled(), sorted(uncalled())
