"""Count the code lines of each module of a package directory.

A line counts when it holds a token other than a comment, a line break
(NL or NEWLINE), an INDENT, DEDENT or ENDMARKER, or a module, class or
function docstring; a token that spans lines (a multi-line string) holds
each of them.  Blank lines, comment lines and docstrings thus count for
nothing, which makes the total a measure of code, not of prose.

    python scripts/code_lines.py [package_dir]   # default: src/grwsim
"""
from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

#: token types that never make a line count
SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """``(line, column)`` of each module, class or function docstring."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                starts.add((body[0].value.lineno, body[0].value.col_offset))
    return starts


def code_lines(source: str) -> int:
    """Code lines of one module's ``source``."""
    docstrings = _docstring_starts(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIPPED or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", default="src/grwsim", type=Path)
    args = parser.parse_args(argv)
    modules = sorted(args.package.rglob("*.py"))
    if not modules:
        print(f"no Python modules under {args.package}", file=sys.stderr)
        return 1
    total = 0
    for path in modules:
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path.relative_to(args.package)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
