"""Lines and code lines of each ``src/ghzsim`` module, and their totals.

A code line holds at least one token that is not a comment or a docstring;
blank lines, comment lines and docstring lines are not code.  Docstrings are
found with ``ast`` (the first statement of a module, class or function body,
when it is a string literal) and every other token with ``tokenize``, so a
line that carries code and a comment counts as code.  Prints a Markdown
table.  Run from the repository root, optionally naming another checkout to
count, such as a copy of the parent commit:

    python tests/src_lines.py [ROOT]

pytest does not collect this file: its name does not start with ``test_``.
"""

import ast
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Tokens that never make a line code on their own.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_starts(tree: ast.AST) -> set:
    """The (line, column) where each docstring of ``tree`` starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def count(path: Path) -> tuple:
    """(lines, code lines) of one Python source file."""
    source = path.read_text()
    docstrings = _docstring_starts(ast.parse(source))
    code = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
                continue
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv) -> int:
    root = Path(argv[1]) if len(argv) > 1 else ROOT
    rows = [(path.name, *count(path)) for path in sorted((root / "src" / "ghzsim").glob("*.py"))]
    print("| module | lines | code lines |\n|---|---:|---:|")
    for name, lines, code in rows:
        print(f"| {name} | {lines} | {code} |")
    print(f"| total | {sum(r[1] for r in rows)} | {sum(r[2] for r in rows)} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
