"""Count the lines of Python source files, in three ways.

Per file and in total it prints:

- ``lines``: every line;
- ``outside docstrings``: the lines that no docstring spans (a module's,
  class's or function's first statement, when it is a string);
- ``code``: those lines that are neither blank nor only a comment. This is
  the count that the size gates of this repository use.

Docstrings are found with the standard library's ``ast`` alone, so the
counts need nothing installed. Run from the root of the repository::

    python scripts/src_lines.py               # src/tblsim/*.py
    python scripts/src_lines.py FILE [FILE ...]
"""

from __future__ import annotations

import ast
import glob
import sys


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers (1-based) that the docstrings of ``tree`` span."""
    spanned: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            spanned.update(range(first.lineno, first.end_lineno + 1))
    return spanned


def counts(source: str) -> tuple[int, int, int]:
    """``(lines, outside docstrings, code)`` of one file's ``source``."""
    lines = source.splitlines()
    docs = docstring_lines(ast.parse(source))
    outside = [text for k, text in enumerate(lines, 1) if k not in docs]
    code = [text for text in outside if text.strip() and not text.strip().startswith("#")]
    return len(lines), len(outside), len(code)


def main(paths: list[str]) -> None:
    paths = paths or sorted(glob.glob("src/tblsim/*.py"))
    if not paths:
        sys.exit("no files to count (run from the root of the repository, or name the files)")
    total = [0, 0, 0]
    print(f"{'lines':>7} {'outside':>7} {'code':>7}  file")
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            row = counts(fh.read())
        total = [t + r for t, r in zip(total, row)]
        print(f"{row[0]:7d} {row[1]:7d} {row[2]:7d}  {path}")
    print(f"{total[0]:7d} {total[1]:7d} {total[2]:7d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
