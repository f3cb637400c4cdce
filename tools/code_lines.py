"""Count the code lines of each module of src/paramres.

A code line holds at least one token that is not a comment and lies
outside every docstring (module, class and function); blank lines,
comment lines and docstring lines do not count.

    python tools/code_lines.py [directory]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in a Python source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0] if args else Path(__file__).parent.parent / "src" / "paramres")
    counts = {path.stem: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(root.glob("*.py"))}
    for name, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{name:<14}{n:>6}")
    print(f"{'total':<14}{sum(counts.values()):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
