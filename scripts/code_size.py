#!/usr/bin/env python3
"""Lines and code lines of each ``src/hypstab`` module, and the totals.

A code line holds at least one token of a statement that is not a bare
string.  So comments, docstrings (and any other string standing alone as a
statement) and blank lines are not code; a multi-line token in code, such as
a long string argument, counts every line it spans.  Tokens come from
:mod:`tokenize`, so the count does not depend on formatting inside a line.

Usage: python scripts/code_size.py [ROOT]

ROOT is the checkout to count (default: the one holding this script), so
that two trees can be compared with the same counter.
"""
from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            statement.append(token)
        elif token.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if any(t.type != tokenize.STRING for t in statement):
                lines.update(n for t in statement for n in range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def main(root: Path) -> int:
    modules = sorted((root / "src" / "hypstab").glob("*.py"))
    rows = []
    for path in modules:
        source = path.read_text(encoding="utf-8")
        rows.append((path.name, len(source.splitlines()), code_lines(source)))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}} {'lines':>6} {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<{width}} {lines:>6} {code:>6}")
    return 0


if __name__ == "__main__":
    here = Path(__file__).resolve().parent.parent
    sys.exit(main(Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else here))
