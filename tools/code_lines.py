"""Print the code lines of each glevy module and their total, or compare two trees.

    python3 tools/code_lines.py [SRC [BASE]]

reads every ``glevy/*.py`` under the source directory SRC (default ``src``
of this checkout) and prints ``<module> <lines>`` per module, then
``total <lines>``.  Given a second source directory BASE, it prints
``<module> <base> <head> <delta>`` instead, SRC being the head: per module
of either tree (0 lines where a tree has no such module), then the total,
with the delta signed (``+3``, ``-2``, ``0``).  A code line holds at least
one token that is not a comment: blank lines and comment lines are not
counted, and neither are the lines of a module, class or function
docstring, found by ``ast``.  A multi-line statement counts each of its
lines.  The count reports only; no check reads it.
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


def module_lines(src: str | Path) -> dict[str, int] | None:
    """Each module's code lines under ``src``, None if it holds no glevy module."""
    modules = sorted((Path(src) / "glevy").glob("*.py"))
    if not modules:
        print(f"no glevy modules under {Path(src) / 'glevy'}", file=sys.stderr)
        return None
    return {path.stem: code_lines(path.read_text(encoding="utf-8")) for path in modules}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    trees = [module_lines(src) for src in args or [ROOT / "src"]]
    if None in trees:
        return 1
    if len(trees) == 1:
        (counts,) = trees
        lines = [f"{name} {count}" for name, count in counts.items()]
        lines.append(f"total {sum(counts.values())}")
    else:
        head, base = trees
        rows = [(name, base.get(name, 0), head.get(name, 0)) for name in sorted(head | base)]
        rows.append(("total", sum(base.values()), sum(head.values())))
        lines = [f"{name} {b} {h} {f'{h - b:+d}' if h - b else 0}" for name, b, h in rows]
    try:
        sys.stdout.write("".join(line + "\n" for line in lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (e.g. head); not an error of ours
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
