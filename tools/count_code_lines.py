"""Count the lines and the code lines of mhd1d's modules.

A code line is a non-blank line that holds a token outside comments and
docstrings (the string that opens a module, class or function body). A
string that is not a docstring counts on every line it spans.

    python3 tools/count_code_lines.py [DIR]

prints, for each ``*.py`` file of DIR (default ``src/mhd1d``), its lines and
code lines, then the totals.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mhd1d"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The lines that the docstrings of tree's module, classes and
    functions span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(line for line in range(tok.start[0], tok.end[0] + 1)
                        if line not in docstrings)
    return len(source.splitlines()), len(code)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    src = Path(argv[0]) if argv else SRC
    total = [0, 0]
    for path in sorted(src.glob("*.py")):
        lines, code = count(path.read_text())
        total[0] += lines
        total[1] += code
        print(f"{path.name:24s} {lines:6d} {code:6d}")
    print(f"{'total':24s} {total[0]:6d} {total[1]:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
