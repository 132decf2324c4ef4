"""Print the code lines of each glevy module and their total.

    python3 tools/code_lines.py [SRC]

reads every ``glevy/*.py`` under the source directory SRC (default ``src``
of this checkout) and prints ``<module> <lines>`` per module, then
``total <lines>``.  A code line holds at least one token that is not a
comment: blank lines and comment lines are not counted, and neither are the
lines of a module, class or function docstring, found by ``ast``.  A
multi-line statement counts each of its lines.  The count reports only; no
check reads it.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# tokens that are no code of their own
LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of lines of ``text`` with a code token, docstrings excluded."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    package = Path(args[0] if args else ROOT / "src") / "glevy"
    modules = sorted(package.glob("*.py"))
    if not modules:
        print(f"no glevy modules under {package}", file=sys.stderr)
        return 1
    counts = {path.stem: code_lines(path.read_text(encoding="utf-8")) for path in modules}
    counts["total"] = sum(counts.values())
    try:
        sys.stdout.write("".join(f"{name} {count}\n" for name, count in counts.items()))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (e.g. head); not an error of ours
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
