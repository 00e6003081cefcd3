"""Command-line interface: exit codes, formats, determinism."""

import contextlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treeshift import cli, recurrence, spectral
from treeshift.cli import main
from treeshift.matrix import TransitionMatrix
from treeshift.oracle import LabeledTree

GOLDEN = "11,10"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# analyze


def test_analyze_golden_passes(capsys):
    code, out, err = run_cli(capsys, "analyze", "-m", GOLDEN)
    assert code == 0
    assert err == ""
    assert "pass" in out
    assert "FAIL" not in out


def test_analyze_json_payload(capsys):
    code, out, _ = run_cli(capsys, "analyze", "-m", GOLDEN, "-n", "8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["spectral"]["radius"] - 1.618033988749895) < 1e-9
    assert payload["series"]["arity"] == 2
    assert len(payload["series"]["p_log"]) == 9


def test_analyze_csv_has_header(capsys):
    code, out, _ = run_cli(capsys, "analyze", "-m", GOLDEN, "-n", "4", "--format", "csv")
    assert code == 0
    assert out.startswith("n,p_log,h_n,a_n,h_acc,h2_n")


def test_analyze_exact_within_limit(capsys):
    code, out, _ = run_cli(capsys, "analyze", "-m", GOLDEN, "-n", "10", "--exact")
    assert code == 0
    assert "deviation" in out


@pytest.mark.parametrize("arity, depth", [(2, 1022), (3, 645), (10**6, 50)])
def test_analyze_exact_at_deep_levels(capsys, arity, depth):
    # 1022 and 645 are the deepest levels TreeParams allows at arities 2 and 3
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "analyze", "-m", GOLDEN, "-k", str(arity), "-n", str(depth), "--exact", "--format", "json"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0, err
    assert json.loads(out)["exact_log_deviation"] <= 1e-14


def test_analyze_exact_refuses_a_fallback_past_the_node_budget(capsys, monkeypatch):
    # brackets this narrow round apart at every level, and the fallback
    # would build integers past the depth-20 binary tree
    monkeypatch.setattr(recurrence, "CERTIFY_BITS", 8)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "analyze", "-m", GOLDEN, "-n", "30", "--exact")
    assert time.perf_counter() - start < 5.0
    assert code == 2
    assert out == ""
    assert err == "error: exact level 21 at arity 2 has more than 2097151 nodes\n"


def test_analyze_reducible_skips_verdicts(capsys):
    code, out, _ = run_cli(capsys, "analyze", "-m", "110,101,001")
    assert code == 0
    assert "FAIL" not in out


def test_analyze_tied_classes_answer_fast(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "analyze", "-m", "11,01", "--format", "json")
    assert time.perf_counter() - start < 1.0
    assert code == 0, err
    spectral = json.loads(out)["spectral"]
    assert spectral["radius"] == 1.0
    assert spectral["right"] == [1.0, 0.0]
    assert spectral["left"] == [0.0, 1.0]
    assert math.isinf(spectral["ratio"])


def test_analyze_depth_past_float_range(capsys):
    code, out, err = run_cli(capsys, "analyze", "-m", GOLDEN, "-n", "1100")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "n + 1 <= 1023" in err


def test_analyze_log_count_overflow_refused(capsys):
    # below the scale limit, log p(n) itself reaches inf at level 1022
    ones = ",".join(["11111111"] * 8)
    code, out, err = run_cli(capsys, "analyze", "-m", ones, "-n", "1022", "--format", "json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "log p(1022)" in err


@pytest.mark.parametrize(
    "matrix, arity, bound", [("011,100,100", "4", "0.606504"), ("010,001,110", "6", "0.749866")]
)
def test_analyze_checks_the_upper_bound_at_its_arity(capsys, matrix, arity, bound):
    # the binary bound, 0.519860 and 0.562399, is below their tree
    # entropies at these arities
    code, out, err = run_cli(capsys, "analyze", "-m", matrix, "-k", arity)
    assert (code, err) == (0, "")
    assert f"upper bound {bound}" in out
    assert "verdict tree_entropy <= upper_bound + 0.01: pass" in out


def test_analyze_reads_the_row_sums_once(capsys, monkeypatch):
    # the row-sum window, the `row sums` line and the JSON value share one read
    calls = []
    row_sums = TransitionMatrix.row_sums
    monkeypatch.setattr(TransitionMatrix, "row_sums", lambda self: calls.append(self) or row_sums(self))
    code, _, _ = run_cli(capsys, "analyze", "-m", "011,111,101", "-n", "6")
    assert (code, len(calls)) == (0, 1)


def test_analyze_single_symbol_leaves_h2_undefined(capsys):
    # one symbol: p(n) = 1, so log p(n) = 0 and h2(n) = log log p(n) / n has no value
    code, out, err = run_cli(capsys, "analyze", "-m", "1")
    assert (code, err) == (0, "")
    assert out.splitlines()[5].endswith("h2(15) ")
    code, out, _ = run_cli(capsys, "analyze", "-m", "1", "--format", "csv")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "n,p_log,h_n,a_n,h_acc,h2_n,log_x_1"
    assert [line.split(",")[5] for line in lines[1:]] == [""] * 16
    code, out, _ = run_cli(capsys, "analyze", "-m", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["series"]["h2"] == [None] * 16


@pytest.mark.parametrize(
    "argv, message",
    [
        (("analyze", "-m", "[1"), "invalid JSON matrix"),
        (("analyze", "-m", "[]"), "non-empty array of arrays"),
        (("sturmian", "--mode", "random", "--seed", ","), "--seed expects at least one integer"),
        (("kary", "-k", "1"), "every arity must be at least 2"),
        # an empty term list is refused, not read as the Fibonacci slope
        (("sturmian", "--depth=12", "--alpha-cf="), "--alpha-cf expects at least one integer"),
        # lex mode ignores a valid seed list but refuses a malformed one
        (("sturmian", "-n", "3", "--seed", "abc"), "--seed expects comma-separated integers"),
        (("sturmian", "-n", "3", "--seed=,"), "--seed expects at least one integer"),
    ],
)
def test_bad_input_exits_2_with_one_error_line(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_singular_class_solve_exits_2_with_one_error_line(capsys, monkeypatch):
    # no valid matrix is known to reach a singular class solve; force one
    solve = spectral._solve
    monkeypatch.setattr(spectral, "_solve", lambda a, b: solve([[0.0]], [1.0]))
    code, out, err = run_cli(capsys, "analyze", "-m", "111,110,001")
    assert (code, out) == (2, "")
    assert err.startswith("error: singular") and err.count("\n") == 1


def test_analyze_bad_matrix(capsys):
    code, _, err = run_cli(capsys, "analyze", "-m", "1x,10")
    assert code == 2
    assert err != ""


def test_analyze_zero_row_matrix(capsys):
    code, _, err = run_cli(capsys, "analyze", "-m", "00,11")
    assert code == 2
    assert err != ""


def test_matrix_from_file(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text("[[1, 1], [1, 0]]\n")
    code, out, _ = run_cli(capsys, "analyze", "-m", f"@{path}", "-n", "6")
    assert code == 0
    path_rows = tmp_path / "m.txt"
    path_rows.write_text("11\n10\n")
    code2, out2, _ = run_cli(capsys, "analyze", "-m", f"@{path_rows}", "-n", "6")
    assert code2 == 0
    assert out == out2


@pytest.mark.parametrize("depth, from_file", [(3, False), (3000, False), (100_000, True)])
def test_nested_json_matrix_exits_2_with_one_error_line(capsys, tmp_path, depth, from_file):
    # json recurses out at a depth that differs between Python versions
    # (3000 levels parse on 3.13 and fail on 3.11); every depth past a
    # row gets the same refusal
    text = "[" * depth + "1" + "]" * depth
    if from_file:
        path = tmp_path / "deep.json"
        path.write_text(text)
        text = f"@{path}"
    code, out, err = run_cli(capsys, "analyze", "-m", text)
    assert (code, out, err) == (2, "", "error: invalid JSON matrix: nested too deeply\n")


@contextlib.contextmanager
def int_digit_limit(limit):
    """The interpreter's int digit limit set to `limit` (None: left as it is)."""
    if limit is None:
        yield
        return
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        pytest.skip("this interpreter has no int digit limit to lift")
    saved = sys.get_int_max_str_digits()
    set_limit(limit)
    try:
        yield
    finally:
        set_limit(saved)


@pytest.mark.parametrize("digit_limit", [None, 0])
def test_json_entry_past_the_digit_limit_exits_2_with_a_short_error_line(capsys, digit_limit):
    # int() refuses 5,001 digits where a limit is set (3.11 on), and a
    # limit of 0 stands for an interpreter without one: both read alike
    text = "[[1" + "0" * 5000 + "]]"
    with int_digit_limit(digit_limit):
        code, out, err = run_cli(capsys, "analyze", "-m", text)
    expected = "error: entry <integer of 5001 digits> is not 0 or 1 (row 1, column 1)\n"
    assert (code, out, err) == (2, "", expected)


@pytest.mark.parametrize("digit_limit", [None, 0])
@pytest.mark.parametrize(
    "argv, flag",
    [
        (("sturmian", "-n", "3", "--alpha-cf", "0,2,{}"), "--alpha-cf"),
        (("sturmian", "-n", "3", "--seed", "1,{}"), "--seed"),
        (("sturmian", "--mode", "random", "-n", "3", "--seed", "{}"), "--seed"),
        (("kary", "-k", "2,{}"), "--arity"),
    ],
    ids=["alpha-cf", "lex-seed", "random-seed", "kary-arity"],
)
def test_int_term_past_the_digit_limit_is_named_by_its_digit_count(capsys, argv, flag, digit_limit):
    # one line naming the flag and the term's size, on every interpreter,
    # without int()'s advice to raise the limit
    term = "1" * 5000
    with int_digit_limit(digit_limit):
        code, out, err = run_cli(capsys, *(a.format(term) for a in argv))
    assert (code, out, err) == (2, "", f"error: {flag} term of 5000 digits is past the limit of 4300\n")


@pytest.mark.parametrize("digit_limit", [None, 0])
@pytest.mark.parametrize(
    "argv, flag",
    [
        (("analyze", "-m", GOLDEN, "-k"), "-k/--arity"),
        (("analyze", "-m", GOLDEN, "-n"), "-n/--depth"),
        (("table", "-n"), "-n/--depth"),
        (("golden", "-n"), "-n/--depth"),
        (("kary", "-n"), "-n/--depth"),
        (("sturmian", "-n"), "-n/--depth"),
        (("sturmian", "--blocks"), "--blocks"),
    ],
    ids=["analyze-arity", "analyze-depth", "table-depth", "golden-depth", "kary-depth",
         "sturmian-depth", "sturmian-blocks"],
)
def test_int_option_past_the_digit_limit_is_named_by_its_digit_count(capsys, argv, flag, digit_limit):
    # argparse's usage line and one error line naming the value's size,
    # where `type=int` echoed all 5,000 digits as an invalid int value
    with int_digit_limit(digit_limit):
        code, out, err = run_cli(capsys, *argv, "-" + "1" * 5000)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: treeshift {argv[0]} ")
    assert err.endswith(
        f"\ntreeshift {argv[0]}: error: argument {flag}: "
        "integer of 5000 digits is past the limit of 4300\n"
    )
    assert len(err) < 400


@pytest.mark.parametrize("value", ["x", "1.5", ""])
def test_int_option_keeps_argparse_text_for_other_bad_values(capsys, value):
    code, out, err = run_cli(capsys, "analyze", "-m", GOLDEN, "-k", value)
    assert (code, out) == (2, "")
    assert err.startswith("usage: treeshift analyze ")
    assert err.endswith(f"\ntreeshift analyze: error: argument -k/--arity: invalid int value: {value!r}\n")


def test_int_option_at_the_digit_limit_is_read(capsys):
    code, out, err = run_cli(capsys, "analyze", "-m", GOLDEN, "-k", "9" * 4300)
    assert (code, out) == (2, "")
    assert err.startswith("error: arity <integer of 4300 digits> is too large: ")


def test_int_term_at_the_digit_limit_is_read():
    # 4,300 digits convert; one more, with a sign and separators, does not
    assert cli._parse_int_list("2," + "9" * 4300, "--seed") == [2, 10**4300 - 1]
    with pytest.raises(ValueError, match="^--seed term of 4301 digits is past the limit of 4300$"):
        cli._parse_int_list(" -" + "9_" * 4300 + "9 ", "--seed")


FLOAT_OVERFLOW = 2**1024 - 2**970


@pytest.mark.parametrize(
    "command", [("analyze", "-m", GOLDEN, "-k"), ("kary", "-k", "3,")], ids=["analyze", "kary"]
)
@pytest.mark.parametrize("arity, digits", [(FLOAT_OVERFLOW, 309), (10**400, 401)], ids=["309", "401"])
def test_arity_past_the_float_range_is_refused_by_its_digit_count(capsys, command, arity, digits):
    # no depth would do, so the arity itself is refused, and named by its size
    argv = list(command)
    argv[-1] += str(arity)
    code, out, err = run_cli(capsys, *argv)
    expected = (
        f"error: arity <integer of {digits} digits> is too large: the entropy scale"
        " arity ** (n + 1) must fit in a float, which no depth n >= 0 allows\n"
    )
    assert (code, out, err) == (2, "", expected)


def test_arity_of_over_40_digits_is_named_in_the_depth_refusal(capsys):
    code, out, err = run_cli(capsys, "analyze", "-m", GOLDEN, "-k", str(10**40), "-n", "7")
    assert (code, out) == (2, "")
    assert err.startswith("error: depth 7 is too deep for arity <integer of 41 digits>: ")
    assert err.endswith("so n + 1 <= 7\n")
    code, out, err = run_cli(capsys, "kary", "-k", f"2,{10**40 - 1}", "-n", "7")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: depth 7 is too deep for arity {10**40 - 1}: ")


def test_long_string_entry_exits_2_with_a_short_error_line(capsys):
    # a JSON string entry is named by its type and repr length, not echoed
    code, out, err = run_cli(capsys, "analyze", "-m", '[["' + "x" * 3000 + '"]]')
    expected = "error: entry <str whose repr has 3002 characters> is not 0 or 1 (row 1, column 1)\n"
    assert (code, out, err) == (2, "", expected)


def test_matrix_file_that_is_not_utf8_is_named_in_one_error_line(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff11\n10\n")
    code, out, err = run_cli(capsys, "analyze", "-m", f"@{path}")
    expected = f"error: matrix file {path} is not UTF-8 text: byte 0xff at position 0\n"
    assert (code, out, err) == (2, "", expected)


@pytest.mark.parametrize("body", [b"[[1,1],[1,0]]", b"11\n10\n"], ids=["json", "rows"])
def test_matrix_file_with_a_byte_order_mark_reads_as_without(capsys, tmp_path, body):
    path = tmp_path / "m.txt"
    path.write_bytes(body)
    plain = run_cli(capsys, "analyze", "-m", f"@{path}")
    path.write_bytes(b"\xef\xbb\xbf" + body)
    assert run_cli(capsys, "analyze", "-m", f"@{path}") == plain
    assert plain[0] == 0


@pytest.mark.parametrize("body", [b"\xef", b"\xef\xbb", b"\xef\xbb11\n10\n"])
def test_matrix_file_with_part_of_a_byte_order_mark_is_not_utf8(capsys, tmp_path, body):
    path = tmp_path / "bad.txt"
    path.write_bytes(body)
    code, out, err = run_cli(capsys, "analyze", "-m", f"@{path}")
    expected = f"error: matrix file {path} is not UTF-8 text: byte 0xef at position 0\n"
    assert (code, out, err) == (2, "", expected)


def test_matrix_file_missing(capsys, tmp_path):
    code, _, err = run_cli(capsys, "analyze", "-m", f"@{tmp_path/'absent.txt'}")
    assert code == 2
    assert err != ""


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "-m", GOLDEN, "-n", "4"),
        ("table",),
        ("golden",),
        ("kary", "-k", "2,3", "-n", "6"),
        ("sturmian", "-n", "6", "--blocks", "3"),
    ],
    ids=lambda argv: argv[0],
)
def test_out_writes_file(capsys, tmp_path, argv):
    for fmt in ("table", "csv", "json"):
        target = tmp_path / f"report.{fmt}"
        code, out, _ = run_cli(capsys, *argv, "--format", fmt, "--out", str(target))
        assert (code, out) == (0, ""), fmt
        code2, direct, _ = run_cli(capsys, *argv, "--format", fmt)
        assert target.read_text() == direct, fmt


@pytest.mark.parametrize("name", ["", "missing/report.csv"], ids=["directory", "missing-directory"])
def test_out_to_an_unwritable_path_exits_2_with_one_error_line(capsys, tmp_path, name):
    code, out, err = run_cli(capsys, "analyze", "-m", GOLDEN, "-n", "4", "--out", str(tmp_path / name))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# table


def test_table_passes_and_is_stable(capsys):
    code, first, _ = run_cli(capsys, "table")
    assert code == 0
    assert "overall: pass" in first
    code2, second, _ = run_cli(capsys, "table")
    assert code2 == 0
    assert first == second


def test_table_json(capsys):
    code, out, _ = run_cli(capsys, "table", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 15
    for row in payload["rows"]:
        assert row["base_entropy"]["ok"], row["name"]
        assert row["tree_entropy"]["ok"], row["name"]
        assert row["upper_bound"]["ok"], row["name"]
        assert row["order_ok"], row["name"]
    assert payload["plastic"]["all_ok"]
    assert payload["all_ok"]


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 16


# ---------------------------------------------------------------------------
# golden


def test_golden_all_checks_pass(capsys):
    code, out, _ = run_cli(capsys, "golden")
    assert code == 0
    assert "FAIL" not in out


GOLDEN_CHECKS = [
    "scalar/vector exact agreement",
    "oracle agreement n <= 3",
    "q alternation",
    "h rounds to 0.509",
    "c = exp(h/2) rounds to 1.28975",
    "h2 within 0.01 of log 2",
    "b = 1/q* rounds to 0.6823278",
    "A prefix 1,4,25,1681,5317636",
    "power bounds hold",
]


@pytest.mark.parametrize("depth", range(4, 13))
def test_golden_shallow_depths_exit_zero(capsys, depth):
    # the published figures are checked on limits, not on depth-n
    # estimates, so even the shallowest report decides every check
    code, out, _ = run_cli(capsys, "golden", "-n", str(depth))
    assert code == 0
    checks = [line for line in out.splitlines() if line.startswith("check ")]
    assert checks == [f"check {name}: pass" for name in GOLDEN_CHECKS]


def test_golden_checks_all_pass_at_every_depth(capsys):
    for depth in [*range(4, 41), 1022]:
        code, out, err = run_cli(capsys, "golden", "-n", str(depth), "--format", "json")
        assert (code, err) == (0, ""), depth
        checks = json.loads(out)["checks"]
        assert [c["check"] for c in checks] == GOLDEN_CHECKS, depth
        assert all(c["ok"] is True for c in checks), depth


def test_golden_figure_checks_do_not_depend_on_the_depth(capsys):
    # the b figure, which the depth-n estimate 1/q(n) first meets within
    # 0.0005 at depth 13, is decided the same way on either side of it
    for depth in (12, 13):
        code, out, _ = run_cli(capsys, "golden", "-n", str(depth))
        assert code == 0
        assert "check b = 1/q* rounds to 0.6823278: pass" in out
        assert "n/a" not in out


def test_golden_runs_the_q_map_once(capsys, monkeypatch):
    calls = []
    golden_q = recurrence.golden_q

    def counted(n_max):
        calls.append(n_max)
        return golden_q(n_max)

    monkeypatch.setattr(recurrence, "golden_q", counted)
    monkeypatch.setattr(cli, "golden_q", counted)
    for depth, limit_depth in ((4, 100), (100, 100), (150, 150)):
        calls.clear()
        code, _, _ = run_cli(capsys, "golden", "-n", str(depth))
        assert (code, calls) == (0, [limit_depth])


@pytest.mark.parametrize(
    "figure, x, expected",
    [
        ("0.509", 0.5088988068894924, True),
        ("0.508", 0.5088988068894924, False),
        ("0.5", 0.5, True),
        # 0.125 and 0.375 are floats: exact ties round half to even
        ("0.12", 0.125, True),
        ("0.38", 0.375, True),
        ("0.13", 0.125, False),
        # the binary value is rounded, not its shortest decimal text:
        # 2.675 as a float lies below the tie and 0.0005 above it
        ("2.67", 2.675, True),
        ("2.68", 2.675, False),
        ("0.001", 0.0005, True),
        ("0.000", 0.0005, False),
        ("1.28975", 1.2897512927198123, True),
        ("1.28976", 1.2897512927198123, False),
    ],
)
def test_rounds_to_is_exact_half_even_rounding_of_the_float(figure, x, expected):
    assert cli._rounds_to(x, figure) is expected


@pytest.mark.parametrize("depth", [22, 50, 100, 1022])
def test_golden_deep_depths_pass_quickly(capsys, depth):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "golden", "-n", str(depth), "--format", "json")
    elapsed = time.perf_counter() - t0
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert all(c["ok"] is True for c in payload["checks"])
    assert len(payload["q"]) == depth + 1
    assert elapsed < 1.0, f"golden -n {depth} took {elapsed:.2f}s"


def test_golden_depth_past_the_float_scale_is_refused(capsys):
    code, out, err = run_cli(capsys, "golden", "-n", "1023")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


def test_golden_builds_big_integers_only_to_depth_15(capsys, monkeypatch):
    import treeshift.cli as cli

    depths = []
    real_run = cli.run

    def spy(fn):
        def counted(n_max):
            depths.append(n_max)
            return fn(n_max)

        return counted

    def exact_spy(M, params, mode="logdomain"):
        if mode == "exact":
            depths.append(params.n_max)
        return real_run(M, params, mode)

    monkeypatch.setattr(cli, "golden_counts", spy(cli.golden_counts))
    monkeypatch.setattr(cli, "golden_zero_rooted_counts", spy(cli.golden_zero_rooted_counts))
    monkeypatch.setattr(cli, "run", exact_spy)
    code, _, _ = run_cli(capsys, "golden", "-n", "1022")
    assert code == 0
    assert depths == [15, 15, 15]


def test_golden_reads_the_exact_series_once(capsys, monkeypatch):
    # every level's integers come from one read of `exact`, which fills them
    calls = []
    exact_level = recurrence.exact_level
    monkeypatch.setattr(recurrence, "exact_level", lambda *a: calls.append(a) or exact_level(*a))
    code, _, _ = run_cli(capsys, "golden")
    assert (code, len(calls)) == (0, 1)


def test_golden_depth_floor(capsys):
    code, _, err = run_cli(capsys, "golden", "-n", "3")
    assert code == 2
    assert err != ""


# ---------------------------------------------------------------------------
# kary


def test_kary_defaults(capsys):
    code, out, _ = run_cli(capsys, "kary")
    assert code == 0
    assert "monotone" in out
    assert "FAIL" not in out


def test_kary_fixed_depth(capsys):
    code, out, _ = run_cli(capsys, "kary", "-k", "2,3", "-n", "6")
    assert code == 0


def test_kary_depth_past_float_range(capsys):
    code, out, err = run_cli(capsys, "kary", "-n", "800")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "arity 3" in err and "n + 1 <= 646" in err


def test_kary_builds_one_tree_params_per_arity(capsys, monkeypatch):
    # the automatic depth comes from node_count, not from a TreeParams
    built = []
    init = recurrence.TreeParams.__init__
    monkeypatch.setattr(
        recurrence.TreeParams, "__init__", lambda self, *a: built.append(a) or init(self, *a)
    )
    code, _, _ = run_cli(capsys, "kary", "-k", "2,3,4,5")
    assert code == 0
    assert built == [(2, 13), (3, 9), (4, 7), (5, 6)]


def test_kary_bad_arity_list(capsys):
    code, _, err = run_cli(capsys, "kary", "-k", "2,x")
    assert code == 2
    assert err != ""


# ---------------------------------------------------------------------------
# sturmian


def test_sturmian_lex_deterministic(capsys):
    code, first, _ = run_cli(capsys, "sturmian", "-n", "8", "--blocks", "4")
    assert code == 0
    code2, second, _ = run_cli(capsys, "sturmian", "-n", "8", "--blocks", "4")
    assert first == second


def test_sturmian_random_seeded(capsys):
    args = ("sturmian", "--mode", "random", "-n", "8", "--blocks", "4", "--seed", "1,2")
    code, first, _ = run_cli(capsys, *args)
    assert code == 0
    code2, second, _ = run_cli(capsys, *args)
    assert first == second
    code3, other, _ = run_cli(
        capsys, "sturmian", "--mode", "random", "-n", "8", "--blocks", "4", "--seed", "3"
    )
    assert other != first


def test_sturmian_random_builds_one_factor_oracle_per_report(capsys, monkeypatch):
    import treeshift.cli as cli
    import treeshift.sturmian as sturmian

    built = []
    real = sturmian.build_factor_oracle

    def counted(params, length):
        built.append(params)
        return real(params, length)

    # the CLI binds the name itself, and the labeler reads the module's
    monkeypatch.setattr(cli, "build_factor_oracle", counted)
    monkeypatch.setattr(sturmian, "build_factor_oracle", counted)
    args = ("sturmian", "--mode", "random", "-n", "8", "--blocks", "2", "--seed", "1,2,3")
    code, _, _ = run_cli(capsys, *args)
    assert code == 0
    assert len(built) == 1


def _count_expansions(monkeypatch) -> list:
    from treeshift.oracle import WordGraph

    calls = []
    real = WordGraph.expand

    def counted(graph, arity, depth, coins=None):
        calls.append(depth)
        return real(graph, arity, depth, coins)

    monkeypatch.setattr(WordGraph, "expand", counted)
    return calls


@pytest.mark.parametrize("fmt, expansions", [("csv", 0), ("table", 0), ("json", 1)])
def test_sturmian_lex_expands_its_word_graph_only_for_json(capsys, monkeypatch, fmt, expansions):
    calls = _count_expansions(monkeypatch)
    code, out, _ = run_cli(capsys, "sturmian", "-n", "10", "--blocks", "4", "--format", fmt)
    assert code == 0 and out
    assert len(calls) == expansions


@pytest.mark.parametrize("fmt", ["csv", "table", "json"])
def test_sturmian_random_expands_the_word_graph_once_per_seed(capsys, monkeypatch, fmt):
    # a random tree's labels are the graph expanded with its coins, read in every format
    calls = _count_expansions(monkeypatch)
    args = ("--mode", "random", "-n", "10", "--blocks", "4", "--seed", "1,2,3", "--format", fmt)
    code, out, _ = run_cli(capsys, "sturmian", *args)
    assert code == 0 and out
    assert calls == [10, 10, 10]


def test_sturmian_random_walks_the_word_graph_once_for_all_seeds(capsys, monkeypatch):
    # the seeds share one factor oracle, which walks the graph once, when it is built
    from treeshift import sturmian

    walks = []
    real = sturmian._word_graph

    def counted(oracle, depth):
        walks.append(depth)
        return real(oracle, depth)

    monkeypatch.setattr(sturmian, "_word_graph", counted)
    args = ("--mode", "random", "-n", "16", "--blocks", "4", "--seed", "1,2,3", "--format", "csv")
    code, out, _ = run_cli(capsys, "sturmian", *args)
    assert code == 0 and len(out.splitlines()) == 4
    assert walks == [16]


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_sturmian_lex_walks_the_word_graph_once(capsys, monkeypatch, fmt):
    # the tree takes the graph its factor oracle walked
    from treeshift import sturmian

    walks = []
    real = sturmian._word_graph

    def counted(oracle, depth):
        walks.append(depth)
        return real(oracle, depth)

    monkeypatch.setattr(sturmian, "_word_graph", counted)
    code, out, _ = run_cli(capsys, "sturmian", "-n", "16", "--blocks", "4", "--format", fmt)
    assert code == 0 and out
    assert walks == [16]


@pytest.mark.parametrize("depth", [25, 20000])
def test_sturmian_random_json_past_the_depth_cap_names_the_depth(capsys, depth):
    # the depth is checked before the label cap, which would build and
    # print a label count of up to thousands of digits
    start = time.perf_counter()
    args = ("--mode", "random", "-n", str(depth), "--format", "json")
    code, out, err = run_cli(capsys, "sturmian", *args)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (2, "", f"error: depth {depth} is above the cap of 24\n")


def test_sturmian_random_json_past_the_label_cap_is_refused_before_labeling(capsys, monkeypatch):
    # JSON keeps every seed's labels, so two depth-24 trees pass the cap of one
    def labeling(params, length):
        raise AssertionError("labeling began")

    monkeypatch.setattr(cli, "build_factor_oracle", labeling)
    args = ("--mode", "random", "-n", "24", "--seed", "0,1", "--format", "json")
    code, out, err = run_cli(capsys, "sturmian", *args)
    assert (code, out) == (2, "")
    assert err == (
        f"error: a JSON report of 2 trees of depth 24 holds {2 * (2**25 - 1)} labels, "
        f"past the cap of {2**25}\n"
    )


def test_sturmian_lex_csv_at_the_depth_cap_within_budget(capsys):
    import tracemalloc

    args = ("sturmian", "-n", "24", "--blocks", "4", "--format", "csv")
    run_cli(capsys, "sturmian", "-n", "4", "--format", "csv")  # loads numpy
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, *args)
    elapsed = time.perf_counter() - start
    tracemalloc.start()
    try:
        run_cli(capsys, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and out.startswith("n,p_tau\n0,2\n")
    # the 33.5M labels of the tree would take 32 MiB on their own
    assert elapsed < 0.25
    assert peak < 8 * 2**20


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_labels_other_than_0_and_1_are_refused(fmt):
    assert cli._labels(LabeledTree(2, 1, bytes([0, 1, 1])), fmt) == "011"
    with pytest.raises(UnicodeDecodeError):
        cli._labels(LabeledTree(2, 1, bytes([0, 2, 1])), fmt)


def test_sturmian_custom_slope(capsys):
    # a deep convergent, so the q^2 error bound survives the harvest window
    terms = "0,3" + ",1" * 30
    code, out, _ = run_cli(capsys, "sturmian", "-n", "6", "--blocks", "3", "--alpha-cf", terms)
    assert code == 0


def test_sturmian_coarse_slope_rejected(capsys):
    code, _, err = run_cli(capsys, "sturmian", "-n", "6", "--alpha-cf", "0,3,1,1")
    assert code == 2
    assert "ambiguous" in err


def test_sturmian_negative_blocks(capsys):
    code, _, err = run_cli(capsys, "sturmian", "--blocks", "-1")
    assert code == 2
    assert err != ""


def test_sturmian_depth_cap(capsys):
    code, _, err = run_cli(capsys, "sturmian", "-n", "30")
    assert code == 2
    assert err != ""


@pytest.mark.parametrize("mode", ["lex", "random"])
def test_sturmian_depth_cap_is_refused_before_the_harvest(capsys, monkeypatch, mode):
    # an oracle sized to this depth would hold every factor up to it
    import treeshift.sturmian as sturmian

    def harvest(params, length):
        raise AssertionError("harvest began")

    monkeypatch.setattr(cli, "build_factor_oracle", harvest)
    monkeypatch.setattr(sturmian, "build_factor_oracle", harvest)
    code, out, err = run_cli(capsys, "sturmian", "--mode", mode, "-n", "100000")
    assert (code, out, err) == (2, "", "error: depth 100000 is above the cap of 24\n")


@pytest.mark.parametrize("depth", ["4", "12", "24"])
def test_sturmian_slope_with_late_runs_labels(capsys, depth):
    # its factors of length 21 all appear only by symbol 1,083, and each
    # tree's oracle harvests as far as its depth needs
    terms = "0,2,1,1,1,1,1,50" + ",1" * 40
    code, out, err = run_cli(capsys, "sturmian", "-n", depth, "--alpha-cf", terms)
    assert (code, err) == (0, "")
    assert f"mode lex, depth {depth} " in out


SLOPE_PAST_DIGIT_LIMIT = "error: --alpha-cf gives a slope whose denominator passes the limit of 4300 digits\n"


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_sturmian_slope_past_the_digit_limit_is_refused(capsys, fmt):
    # each term is under the limit, the denominator of their convergent is not
    big = "9" * 3000
    code, out, err = run_cli(capsys, "sturmian", "-n", "3", "--alpha-cf", f"0,{big},{big}", "--format", fmt)
    assert (code, out, err) == (2, "", SLOPE_PAST_DIGIT_LIMIT)


def test_sturmian_slope_at_the_digit_limit_labels(capsys):
    # [0; 2, 1, ..., 1, a] with the largest last term a whose convergent's
    # denominator keeps 4,300 digits, and the next one
    head = [0, 2] + [1] * 30
    q_prev, q = 0, 1
    for term in head[1:]:
        q_prev, q = q, term * q + q_prev
    last = (10**4300 - 1 - q_prev) // q
    terms = ",".join(map(str, head))
    code, out, err = run_cli(capsys, "sturmian", "-n", "3", "--alpha-cf", f"{terms},{last}", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["alpha"][1] == last * q + q_prev == 10**4300 - 1 - (10**4300 - 1 - q_prev) % q
    code, out, err = run_cli(capsys, "sturmian", "-n", "3", "--alpha-cf", f"{terms},{last + 1}")
    assert (code, out, err) == (2, "", SLOPE_PAST_DIGIT_LIMIT)


def test_sturmian_slope_past_the_harvest_budget_is_refused(capsys):
    # the first 1 comes near symbol 10^9, so no harvest holds the factor "1"
    terms = "0,1000000000" + ",1" * 40
    code, out, err = run_cli(capsys, "sturmian", "-n", "4", "--alpha-cf", terms)
    assert (code, out) == (2, "")
    assert err == (
        "error: harvesting the factors up to length 5 of the slope would pass "
        "the budget of 65536 symbols\n"
    )


# ---------------------------------------------------------------------------
# parser level


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2


def test_unknown_flag(capsys):
    assert main(["analyze", "-m", GOLDEN, "--bogus"]) == 2


def test_missing_required_matrix(capsys):
    assert main(["analyze"]) == 2


# ---------------------------------------------------------------------------
# JSON writer and the lazy forms

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(10**1000, 10**1100) | st.integers(-(10**1100), -(10**1000)),
    st.floats(),  # NaN and infinities included
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308]),
    # quotes, backslashes, control characters, non-ASCII and lone surrogates
    st.text(st.characters(blacklist_categories=()) | st.sampled_from('"\\\x00\x1f\x7f\n')),
)
# a series: floats and nulls, all finite or not
FLOAT_LISTS = st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.none()) | st.lists(
    st.floats() | st.none()
)
JSON_VALUES = st.recursive(
    SCALARS | FLOAT_LISTS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30,
)


@given(JSON_VALUES)
def test_json_writer_gives_the_bytes_of_json_dumps(value):
    assert cli._json_text(value) == json.dumps(value, indent=2) + "\n"


@given(st.lists(FLOAT_LISTS, min_size=1, max_size=3).map(tuple))
def test_json_writer_gives_the_bytes_of_json_dumps_on_series(value):
    assert cli._json_text({"series": value}) == json.dumps({"series": value}, indent=2) + "\n"


def test_json_writer_refuses_what_json_dumps_refuses_and_keys_other_than_str():
    for value in ([{"a": {1, 2}}], b"x"):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            cli._json_text(value)
    # json.dumps would write the key as "1"; no payload has such a key
    with pytest.raises(TypeError):
        cli._json_text({"a": [{1: 2}]})


def test_analyze_json_builds_no_csv_rows(capsys, monkeypatch):
    def fail(*args):
        pytest.fail("the JSON form built the CSV rows")

    monkeypatch.setattr(cli, "_series_csv", fail)
    code, out, err = run_cli(capsys, "analyze", "-m", "011,111,101", "--exact", "--format", "json")
    assert (code, err) == (0, "")
    assert len(json.loads(out)["series"]["p_log"]) == 16


# ---------------------------------------------------------------------------
# as a program


def _as_program(*argv: str) -> subprocess.CompletedProcess:
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, "-m", "treeshift.cli", *argv], env=env, capture_output=True, timeout=60
    )


def test_the_module_runs_as_a_program_with_its_exit_codes(capsys):
    # `python -m treeshift.cli` exits with main's status and prints its bytes
    code, out, err = run_cli(capsys, "analyze", "-m", GOLDEN)
    result = _as_program("analyze", "-m", GOLDEN)
    assert (result.returncode, result.stdout, result.stderr) == (code, out.encode(), err.encode())
    assert (code, err) == (0, "")
    result = _as_program("analyze", "-m", "1x")
    assert (result.returncode, result.stdout) == (2, b"")
    assert result.stderr.startswith(b"error: ") and result.stderr.count(b"\n") == 1
