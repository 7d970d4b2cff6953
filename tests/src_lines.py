"""Count the lines of the runtime package: all lines, and code lines.

A code line is one that is not blank, not only a comment and not part of a
docstring (the leading string of a module, class or function).  Run from the
repository root:

    python3 tests/src_lines.py [DIR]

DIR defaults to ``src/windubins``.  Prints one row per module and a total.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(all lines, code lines) of one module's source."""
    skip = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in (
            tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER,
        ):
            continue
        for line in range(tok.start[0], tok.end[0] + 1):
            if line not in skip:
                code.add(line)
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    root = pathlib.Path(argv[1] if len(argv) > 1 else "src/windubins")
    total_all = total_code = 0
    for path in sorted(root.glob("*.py")):
        n_all, n_code = count(path.read_text(encoding="utf-8"))
        total_all += n_all
        total_code += n_code
        print(f"{path.name:<16} {n_all:5d} {n_code:5d}")
    print(f"{'total':<16} {total_all:5d} {total_code:5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
