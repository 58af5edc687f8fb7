"""Count a package's lines of code, module by module.

    python tools/count_code.py [PACKAGE_DIR]

A line of code holds at least one token that is not a comment: blank lines,
comment lines and docstrings (the string that opens a module, class or
function body) are left out, and a statement written over several lines
counts each of them. PACKAGE_DIR defaults to ``src/qsep`` of this checkout.
One line per module, ``path<TAB>count`` with paths relative to PACKAGE_DIR
in sorted order, then ``total<TAB>count``.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from io import StringIO
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qsep"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines of source that hold code, docstrings and comments aside."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(StringIO(source).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING and tok.start[0] in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    total = 0
    for path in sorted(package.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.relative_to(package).as_posix()}\t{count}")
    print(f"total\t{total}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
