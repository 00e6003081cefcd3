"""Fingerprint of one checkout: its code size and its outputs.

Prints the code lines of each module under `src/treeshift/`, leaving out
blank, comment and docstring lines, then their total; then one digest
of (argv, exit code, stdout, stderr) for every job of the `sweep` and
`heavy` workloads of `perfbench/workloads.py` at seeds 1-3, each job run
in this process through `treeshift.cli.main`. Run it in two checkouts
and diff the two outputs: a change that keeps every output the same
shows only in the line counts.

    python tests/fingerprint.py > after.txt

It imports the package and the workloads of the checkout it lies in,
whatever is installed. pytest does not collect it.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import json
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
WORKLOADS = ("sweep", "heavy")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(path: Path) -> int:
    """Lines that hold a token of code, docstrings not counted."""
    source = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def job_digest(main, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    record = json.dumps([argv, code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode()).hexdigest()[:16]


def main() -> None:
    total = 0
    for path in sorted((ROOT / "src" / "treeshift").glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"lines {path.name} {count}")
    print(f"lines total {total}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from treeshift.cli import main as cli_main
    from workloads import jobs_for

    for name in WORKLOADS:
        for seed in SEEDS:
            for i, argv in enumerate(jobs_for(name, seed)):
                print(name, seed, i, job_digest(cli_main, argv), " ".join(argv))


if __name__ == "__main__":
    main()
