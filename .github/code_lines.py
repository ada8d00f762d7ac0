"""Append one line to the step summary with the lines and code lines of each
``src/mixlm`` module, then the totals; print it as well.

A code line is one that holds a token other than a comment and is not part
of a docstring (the first statement of a module, class or function when it
is a string).  Usage: ``python3 .github/code_lines.py``; the summary file
is ``$GITHUB_STEP_SUMMARY`` when that is set.
"""

import ast
import io
import os
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code - docstring_lines(ast.parse(source)))


def main() -> None:
    package = Path(__file__).resolve().parent.parent / "src" / "mixlm"
    parts, totals = [], [0, 0]
    for path in sorted(package.rglob("*.py")):
        lines, code = count(path.read_text())
        totals[0] += lines
        totals[1] += code
        parts.append(f"`{path.relative_to(package).as_posix()}` {lines}/{code}")
    line = (f"src/mixlm lines/code lines: {totals[0]}/{totals[1]} in all; "
            + ", ".join(parts) + "\n")
    print(line, end="")
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as fh:
            fh.write(line)


if __name__ == "__main__":
    main()
