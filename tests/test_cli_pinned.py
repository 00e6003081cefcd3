"""Every subcommand's output pinned byte for byte.

`data/cli_pinned.json` holds the exit code, stdout and stderr of each
argv in COMMANDS: every subcommand in all three formats, plus the input
errors that exit 2. A change that must keep every output regenerates it
from the package of its parent commit, here called PARENT:

    mkdir old && git archive PARENT src | tar -x -C old
    PYTHONPATH=old/src python tests/test_cli_pinned.py > tests/data/cli_pinned.json

Argparse usage errors are left out: their line wrapping follows the
terminal width. Every call in a process shares one parser, so the
commands are also replayed in one process in shuffled orders. The
numpy-free commands are replayed under every other CPython 3.10-3.13
found on PATH as well, and must print the same bytes there, and four
commands must print the same bytes under two hash seeds. Every JSON
report, here and in each replay, must be the text that interpreter's
`json.dumps(..., indent=2)` gives for the value it parses to.
"""

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import treeshift
from treeshift.cli import main

PINNED = Path(__file__).with_name("data") / "cli_pinned.json"
FORMATS = ("table", "csv", "json")
ALPHA_CF = "0,3" + ",1" * 30

_PER_FORMAT = [
    ["analyze", "-m", "11,10"],
    ["analyze", "-m", "011,111,101"],
    ["analyze", "-m", "110,101,001"],
    ["analyze", "-m", "11,01"],
    ["analyze", "-m", "0001,0001,0111,1100"],
    ["analyze", "-m", "010,001,110"],
    ["analyze", "-m", "011,111,101", "-n", "12", "--exact"],
    ["analyze", "-m", "11,10", "-k", "3", "-n", "7"],
    ["table"],
    ["table", "-n", "10"],
    ["golden"],
    ["golden", "-n", "6"],
    ["golden", "-n", "22"],
    ["kary"],
    ["kary", "-k", "3,2", "-n", "6"],
    ["sturmian", "-n", "8", "--blocks", "4"],
    ["sturmian", "-n", "10"],
    ["sturmian", "-n", "7", "--blocks", "2"],  # 255 nodes: the longest label row shown whole
    ["sturmian", "--mode", "random", "-n", "8", "--blocks", "4", "--seed", "1,2,3"],
    ["sturmian", "-n", "6", "--blocks", "3", "--alpha-cf", ALPHA_CF],
]

_ERRORS = [
    ["analyze", "-m", "1x,10"],
    ["analyze", "-m", "11,10", "-n", "21", "--exact"],
    ["golden", "-n", "3"],
    ["kary", "-n", "800"],
    ["sturmian", "--blocks", "-1"],
    ["sturmian", "-n", "6", "--alpha-cf", "0,3,1,1"],
]

COMMANDS = [argv + ["--format", fmt] for argv in _PER_FORMAT for fmt in FORMATS] + _ERRORS


def capture(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


# read at collection; run as a script, this module writes the file instead
ENTRIES = [] if __name__ == "__main__" else json.loads(PINNED.read_text())


def test_pinned_file_covers_the_command_set():
    assert [entry["argv"] for entry in ENTRIES] == COMMANDS


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: " ".join(e["argv"]))
def test_output_matches_pinned_bytes(entry):
    assert capture(entry["argv"]) == entry


def reads_back(stdout: str) -> bool:
    """Whether a JSON report is `json.dumps(..., indent=2)` of what it parses to."""
    return stdout == json.dumps(json.loads(stdout), indent=2) + "\n"


@pytest.mark.parametrize(
    "argv", [argv for argv in COMMANDS if "json" in argv], ids=lambda argv: " ".join(argv)
)
def test_json_report_is_json_dumps_of_its_value(argv):
    result = capture(argv)
    assert result["code"] in (0, 1)
    assert reads_back(result["stdout"])


@pytest.mark.parametrize("seed", [1, 2])
def test_shuffled_replay_in_one_process_matches_pinned_bytes(seed):
    # the parser is shared by every call in a process, so no call may
    # leave state behind for the next: the errors are shuffled in among
    # the valid commands, and each output must still be its pin
    entries = random.Random(seed).sample(ENTRIES, len(ENTRIES))
    errors = [entry["code"] == 2 for entry in entries]
    assert any(a and not b for a, b in zip(errors, errors[1:]))
    assert [capture(entry["argv"]) for entry in entries] == entries


def test_help_wraps_to_the_columns_of_each_call(monkeypatch):
    # help text is formatted when it is printed, so it reads COLUMNS at
    # call time although the parser was built before
    def help_at(columns: int) -> str:
        monkeypatch.setenv("COLUMNS", str(columns))
        result = capture(["analyze", "--help"])
        assert result["code"] == 0 and result["stderr"] == ""
        return result["stdout"]

    narrow, wide = help_at(50), help_at(150)
    assert narrow != wide
    assert len(narrow.splitlines()) > len(wide.splitlines())
    assert help_at(50) == narrow


# analyze, table, golden and kary import no numpy, nor does lex sturmian
# in table and CSV format, whose census runs on the word graph; the added
# matrix's log p(3) came out one ulp apart where the builtin sum
# compensated (3.12+)
NUMPY_FREE = [
    argv
    for argv in COMMANDS
    if argv[0] in ("analyze", "table", "golden", "kary")
    or (argv[0] == "sturmian" and "random" not in argv and "json" not in argv)
] + [["analyze", "-m", "001,110,100", "--format", "json"]]

_REPLAY = """
import contextlib, io, json, sys
from treeshift.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    if "json" in argv and code != 2:
        text = out.getvalue()
        assert text == json.dumps(json.loads(text), indent=2) + "\\n", f"{argv}: not json.dumps bytes"
    results.append({"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
json.dump(results, sys.stdout)
"""


def other_interpreters() -> dict[str, str]:
    """CPython 3.10-3.13 on PATH, other than the running version, that run."""
    found = {}
    for minor in range(10, 14):
        name = f"python3.{minor}"
        path = shutil.which(name)
        if path is None or sys.version_info[:2] == (3, minor):
            continue
        probe = subprocess.run(
            [path, "-c", "import sys; print(sys.version_info[:2])"], capture_output=True, text=True, timeout=60
        )
        if probe.returncode == 0 and probe.stdout.strip() == f"(3, {minor})":
            found[name] = path
    return found


def test_numpy_free_commands_print_the_same_bytes_on_other_pythons():
    interpreters = other_interpreters()
    if not interpreters:
        pytest.skip("no other CPython 3.10-3.13 on PATH")
    expected = [capture(argv) for argv in NUMPY_FREE]
    env = dict(os.environ, PYTHONPATH=str(Path(treeshift.__file__).parents[1]))
    differing = {}
    for name, path in interpreters.items():
        result = subprocess.run(
            [path, "-c", _REPLAY],
            input=json.dumps(NUMPY_FREE),
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, f"{name}: {result.stderr}"
        replayed = json.loads(result.stdout)
        assert len(replayed) == len(expected), name
        differing[name] = [" ".join(e["argv"]) for e, r in zip(expected, replayed) if e != r]
    assert differing == {name: [] for name in interpreters}


# The factor oracle is a frozenset of str, whose iteration order follows
# the hash seed, so no output may depend on that order.
HASH_SEED_COMMANDS = [
    ["sturmian", "-n", "14", "--format", "json"],
    ["sturmian", "--mode", "random", "-n", "10", "--seed", "0,1,2", "--format", "json"],
    ["analyze", "-m", "011,111,101", "--format", "json"],
    ["table", "--format", "csv"],
]


def test_outputs_do_not_depend_on_the_hash_seed():
    expected = [capture(argv) for argv in HASH_SEED_COMMANDS]
    assert [entry["code"] for entry in expected] == [0] * len(HASH_SEED_COMMANDS)
    env = dict(os.environ, PYTHONPATH=str(Path(treeshift.__file__).parents[1]))
    for seed in ("0", "1"):
        result = subprocess.run(
            [sys.executable, "-c", _REPLAY],
            input=json.dumps(HASH_SEED_COMMANDS),
            env=dict(env, PYTHONHASHSEED=seed),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, f"PYTHONHASHSEED={seed}: {result.stderr}"
        assert json.loads(result.stdout) == expected, f"PYTHONHASHSEED={seed}"


if __name__ == "__main__":
    json.dump([capture(argv) for argv in COMMANDS], sys.stdout, indent=1)
    sys.stdout.write("\n")
