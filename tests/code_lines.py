"""Count the code lines of each module of ``src/spinlens`` and their total.

A code line holds a token that is not a comment or a line break, by
``tokenize``; the lines of module, class and function docstrings do not
count. A string token spanning several lines counts every line it spans.
``--against REF`` prints each module's count at the git ref REF (its
``src/spinlens/<module>`` read with ``git show``; 0 where it did not exist)
beside the working tree's and the difference.

    python tests/code_lines.py
    python tests/code_lines.py --against HEAD~1
"""

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spinlens"

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """The lines of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def at_ref(ref: str) -> dict:
    """The code lines of each module of the package at the git ref ``ref``."""
    root = PACKAGE.parent.parent
    git = ["git", "-C", str(root)]
    names = subprocess.run(git + ["ls-tree", "--name-only", f"{ref}:src/spinlens"],
                           capture_output=True, text=True, check=True).stdout.split()
    return {name: code_lines(subprocess.run(
        git + ["show", f"{ref}:src/spinlens/{name}"],
        capture_output=True, text=True, check=True).stdout)
        for name in names if name.endswith(".py")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REF",
                        help="also print each module's count at this git ref")
    args = parser.parse_args(argv)
    counts = {path.name: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(PACKAGE.glob("*.py"))}
    if args.against is None:
        for name, count in counts.items():
            print(f"{name:16} {count:5}")
        print(f"{'total':16} {sum(counts.values()):5}")
        return 0
    try:
        before = at_ref(args.against)
    except subprocess.CalledProcessError as exc:
        parser.error(f"cannot read src/spinlens at {args.against!r}: {exc.stderr.strip()}")
    print(f"{'':16} {args.against[:7]:>7} {'now':>7} {'change':>7}")
    for name in sorted(counts.keys() | before.keys()):
        old, new = before.get(name, 0), counts.get(name, 0)
        print(f"{name:16} {old:7} {new:7} {new - old:+7}")
    old, new = sum(before.values()), sum(counts.values())
    print(f"{'total':16} {old:7} {new:7} {new - old:+7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
