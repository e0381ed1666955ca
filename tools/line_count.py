"""Line count of src/fanscheme, the size figure CHANGES.md tracks.

    python3 tools/line_count.py

For each module, and in total, prints raw lines and code lines: lines
that are not blank and not wholly inside a comment or a docstring.
"""

import ast
import io
import pathlib
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent / "src" / "fanscheme"
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}
DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def counts(source):
    """(raw lines, code lines) of one module's source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOC_OWNERS) and ast.get_docstring(node) is not None:
            lines -= set(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(source.splitlines()), len(lines)


rows = [(p.name, *counts(p.read_text(encoding="utf-8")))
        for p in sorted(ROOT.glob("*.py"))]
rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
print("%-20s %6s %6s" % ("module", "raw", "code"))
for row in rows:
    print("%-20s %6d %6d" % row)
