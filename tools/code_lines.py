"""Count code lines of Python modules: no docstrings, comments or blanks.

A line counts when it holds part of a token other than a comment, and is
not inside the docstring of a module, class or function.  So a statement
wrapped over three lines counts three, and a string that is not a
docstring counts in full.  The counts assume the code is wrapped at 88
columns, as the package is.

    python tools/code_lines.py [PATH ...]

prints one line per module under each PATH (a file or a directory; `src`
by default) and the total.  It only reports: there is no threshold.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, _SCOPES) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in one module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    total = 0
    for root in [Path(p) for p in argv or ["src"]]:
        files = [root] if root.is_file() else sorted(root.rglob("*.py"))
        for path in files:
            n = code_lines(path.read_text())
            total += n
            print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
