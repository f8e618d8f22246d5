"""Count speclap's source lines: the size ROADMAP aim 2 tracks.

A code line is a line of `src/speclap/*.py` that holds a token of code:
blank lines, comment lines and the lines of docstrings (a string literal
that is the first statement of a module, class or function) are not
counted. Prints one line per file and the total.

Usage: python benchmarks/sloc.py [source directory, default src/speclap]
"""

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path):
    """Number of code lines in one Python file."""
    with open(path, "rb") as f:
        rows = {row for tok in tokenize.tokenize(f.readline) if tok.type not in _NOT_CODE
                for row in range(tok.start[0], tok.end[0] + 1)}
    for node in ast.walk(ast.parse(Path(path).read_bytes())):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                rows -= set(range(first.lineno, first.end_lineno + 1))
    return len(rows)


def main():
    src = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1] / "src" / "speclap"
    total = 0
    for path in sorted(src.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:>6} {path.name}")
    print(f"{total:>6} total")


if __name__ == "__main__":
    main()
