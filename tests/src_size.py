"""Size of the ``qfalab`` package: lines and lines of code per module.

Run from the root of a source checkout:

    python3 tests/src_size.py

For each module under ``src/qfalab`` it prints its line count, as ``wc
-l`` gives it, and its lines of code: the lines that hold a token of code,
so neither blank lines, comment lines nor the lines of a docstring (the
string that opens a module, class or function body); then both totals.
The name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qfalab"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers every docstring in ``tree`` spans."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """How many lines of ``source`` hold a token of code outside a docstring."""
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docs)


def main() -> int:
    total_lines = total_code = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines, code = source.count("\n"), code_lines(source)
        total_lines += lines
        total_code += code
        print(f"{path.name:<20} {lines:>6} {code:>6}")
    print(f"{'total':<20} {total_lines:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
