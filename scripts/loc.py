#!/usr/bin/env python3
"""Count the code lines of planwise's modules, with the standard library only.

Run from the repository root:

    python3 scripts/loc.py                     # every module of src/planwise
    python3 scripts/loc.py src/planwise/cli.py # some files or directories

A code line is a non-blank line that holds a token other than a comment or a
docstring; a token spanning several lines (a bracketed expression's string,
say) makes each of them a code line. Blank lines, comments and docstrings
count for nothing, so trimming prose never reads as removed code. Prints
each file's count, then the total.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """``(line, column)`` where each module, class or function docstring starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    docstrings = docstring_starts(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in SKIPPED or (token.type == tokenize.STRING and token.start in docstrings):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def python_files(paths: list[Path]) -> list[Path]:
    files = []
    for path in paths:
        files += sorted(path.glob("*.py")) if path.is_dir() else [path]
    return files


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path, default=[ROOT / "src" / "planwise"],
                        help="Python files or directories (default: src/planwise)")
    args = parser.parse_args(argv)
    total = 0
    for path in python_files(args.paths):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {os.path.relpath(path)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
