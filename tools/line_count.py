"""Line count of src/fanscheme, the size figure CHANGES.md tracks.

    python3 tools/line_count.py [REV]

For each module, and in total, prints raw lines and code lines: lines
that are not blank and not wholly inside a comment or a docstring.  With
a git revision REV, it also reads each module at REV (git show) and
prints REV's code lines and the change from them; a module missing on
one side counts 0 there.
"""

import ast
import io
import pathlib
import subprocess
import sys
import tokenize

REPO = pathlib.Path(__file__).resolve().parent.parent
ROOT = REPO / "src" / "fanscheme"
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


def git(*args):
    done = subprocess.run(["git", "-C", str(REPO), *args],
                          capture_output=True, text=True)
    if done.returncode:
        sys.exit(done.stderr.strip())
    return done.stdout


def code_at(rev):
    """{module name: code lines} of src/fanscheme at a git revision."""
    paths = git("ls-tree", "--name-only", rev, "src/fanscheme/").split()
    return {pathlib.PurePosixPath(p).name: counts(git("show", rev + ":" + p))[1]
            for p in paths if p.endswith(".py")}


sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(ROOT.glob("*.py"))}
rows = [(name, *counts(text)) for name, text in sources.items()]
if len(sys.argv) > 1:
    rev = sys.argv[1]
    old = code_at(rev)
    rows += [(name, 0, 0) for name in sorted(old) if name not in sources]
    rows = [(*r, old.get(r[0], 0), r[2] - old.get(r[0], 0)) for r in rows]
    rows.append(("total", *(sum(r[i] for r in rows) for i in range(1, 5))))
    print("%-20s %6s %6s %8s %7s" % ("module", "raw", "code", rev[:8], "change"))
    for row in rows:
        print("%-20s %6d %6d %8d %+7d" % row)
else:
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print("%-20s %6s %6s" % ("module", "raw", "code"))
    for row in rows:
        print("%-20s %6d %6d" % row)
