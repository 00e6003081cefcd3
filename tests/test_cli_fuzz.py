"""Fuzz of the CLI flag grammar: every argv gets an exit code the README defines.

Each example runs `cli.main` in-process on one drawn command line:
every subcommand, all three formats, matrices with at most five
symbols (well-formed row strings, ragged rows or bad characters, JSON
with entries other than 0 and 1, and junk), arities 0 to 5, depths
from -1 up, seed lists and continued-fraction terms. Exit 0 and 1 write
nothing to stderr; exit 2, a refused input, writes one `error: ` line.
A JSON report, exit 0 or 1, is the text `json.dumps(..., indent=2)`
gives for the value it parses to.
Values are passed as `--flag=value`, so a value such as `-1,2` is never
read as an option.
"""

import contextlib
import io
import json
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from treeshift import cli

FORMATS = ("table", "csv", "json")
JUNK = "01 ,;[]{}\"'-+.eE9x@\t"


@st.composite
def matrices(draw):
    d = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(("rows", "ragged", "json", "junk")))
    if kind == "rows":
        bits = draw(st.lists(st.lists(st.sampled_from("01"), min_size=d, max_size=d),
                             min_size=d, max_size=d))
        if draw(st.booleans()):
            # ones on a permutation: no zero row or column, so the matrix is valid
            for i, j in enumerate(draw(st.permutations(range(d)))):
                bits[i][j] = "1"
        return ",".join(map("".join, bits))
    if kind == "ragged":
        rows = draw(st.lists(st.text("012a ", min_size=0, max_size=6), min_size=1, max_size=6))
        return ",".join(rows)
    if kind == "json":
        entry = st.one_of(
            st.integers(-2, 3), st.booleans(), st.none(), st.floats(-2, 2), st.text("01", max_size=2)
        )
        rows = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=1, max_size=d))
        return json.dumps(rows)
    return draw(st.text(JUNK, max_size=12))


def int_list(values):
    return st.lists(values, min_size=0, max_size=5).map(lambda xs: ",".join(map(str, xs)))


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(("analyze", "table", "golden", "kary", "sturmian")))
    argv = [command, f"--format={draw(st.sampled_from(FORMATS))}"]
    if command == "analyze":
        argv += [
            f"--matrix={draw(matrices())}",
            f"--arity={draw(st.integers(0, 5))}",
            f"--depth={draw(st.integers(-1, 25))}",
        ]
        if draw(st.booleans()):
            argv.append("--exact")
    elif command in ("table", "golden"):
        argv.append(f"--depth={draw(st.integers(-1, 25))}")
    elif command == "kary":
        argv.append(f"--arity={draw(int_list(st.integers(0, 5)))}")
        if draw(st.booleans()):
            argv.append(f"--matrix={draw(matrices())}")
        if draw(st.booleans()):
            argv.append(f"--depth={draw(st.integers(-1, 12))}")
    else:
        argv += [
            f"--mode={draw(st.sampled_from(('lex', 'random')))}",
            f"--depth={draw(st.integers(-1, 12))}",
            f"--blocks={draw(st.integers(-1, 13))}",
            f"--seed={draw(int_list(st.integers(-(2**70), 2**70)))}",
        ]
        if draw(st.booleans()):
            argv.append(f"--alpha-cf={draw(int_list(st.integers(-2, 6)))}")
    return argv


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argvs())
def test_cli_exit_codes_and_stderr(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert time.perf_counter() - start < 2.0, argv
    assert code in (0, 1, 2), argv
    lines = err.getvalue().splitlines()
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
    else:
        assert lines == [], (argv, lines)
        if argv[1] == "--format=json":
            text = out.getvalue()
            assert text == json.dumps(json.loads(text), indent=2) + "\n", argv
