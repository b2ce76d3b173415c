"""Size of the library source: non-blank lines, tokens and AST nodes.

Prints one row per module of ``src/umbral_stats`` and a total row.  Tokens
are those of :mod:`tokenize`, leaving out NL, NEWLINE, INDENT, DEDENT,
COMMENT and ENDMARKER, so that layout and comments do not count; AST nodes
are the nodes :func:`ast.walk` visits in the module's parse tree.  Standard
library only, and pytest does not collect this file.  Run from anywhere::

    python tests/src_size.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "umbral_stats"
SKIPPED = {
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.COMMENT,
    tokenize.ENDMARKER,
}


def size(text: str) -> tuple[int, int, int]:
    """(non-blank lines, tokens, AST nodes) of one module's source."""
    lines = sum(1 for line in text.splitlines() if line.strip())
    tokens = sum(
        1
        for tok in tokenize.generate_tokens(io.StringIO(text).readline)
        if tok.type not in SKIPPED
    )
    nodes = sum(1 for _ in ast.walk(ast.parse(text)))
    return lines, tokens, nodes


def main() -> None:
    rows = [(path.name, size(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))]
    rows.append(("total", tuple(map(sum, zip(*(counts for _, counts in rows))))))
    print(f"{'module':22}{'lines':>8}{'tokens':>8}{'nodes':>8}")
    for name, (lines, tokens, nodes) in rows:
        print(f"{name:22}{lines:8}{tokens:8}{nodes:8}")


if __name__ == "__main__":
    main()
