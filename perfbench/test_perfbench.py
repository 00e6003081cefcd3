"""Tests of the benchmark's own code: checkers, census, tracer, speed, workloads.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np
import pytest

import treeshift.cli as cli
from checks import block_counts, check, labels_array
from run import judge
from speed import Sampler
from tracer import Tracer, self_times
from treeshift.sturmian import SturmianParams, label_tree_random, tree_complexity
from workloads import components, is_chained, is_tied, is_unshifted_periodic, jobs_for, to_array


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def edit_json(text, change):
    payload = json.loads(text)
    change(payload)
    return json.dumps(payload)


ANALYZE = ["analyze", "-m", "10,01", "-n", "8", "--exact", "--format", "json"]
GOLDEN = ["golden", "--format", "json"]
RANDOM = ["sturmian", "--mode", "random", "-n", "8", "--seed", "3,4", "--blocks", "4",
          "--format", "json"]
LEX = ["sturmian", "-n", "10", "--blocks", "3", "--alpha-cf", "0,2,1,3,1,2,1,1,2,3,1,2,2,1",
       "--format", "csv"]
TABLE = ["table", "--format", "json"]
KARY = ["kary", "-m", "011,111,101", "--format", "json"]


def set_radius(p):
    p["spectral"]["radius"] = 1.000001


def set_deviation(p):
    p["exact_log_deviation"] = 1e-6


def bump_prefix(p):
    p["p_prefix"][3] = str(int(p["p_prefix"][3]) + 1)


def fail_check(p):
    p["checks"][0]["ok"] = False


def shift_q(p):
    p["q"][12] *= 1 + 1e-6


def shift_golden_entropy(p):
    p["h_acc"] += 1e-6


def bump_p_tau(p):
    p["seeds"][1]["p_tau"][2] += 1


def fail_row(p):
    p["rows"][0]["upper_bound"]["ok"] = False
    p["all_ok"] = False


def shift_entropy(p):
    p["rows"][1]["h_acc"] += 1e-6


@pytest.mark.parametrize("argv, corrupt", [
    (ANALYZE, set_radius),
    (ANALYZE, set_deviation),
    (GOLDEN, bump_prefix),
    (GOLDEN, fail_check),
    (GOLDEN, shift_q),
    (GOLDEN, shift_golden_entropy),
    (RANDOM, bump_p_tau),
    (TABLE, fail_row),
    (KARY, shift_entropy),
])
def test_checker_rejects_corrupted_json(argv, corrupt):
    code, out = run(argv)
    assert code == 0
    assert check(argv, code, out) == []
    assert check(argv, code, edit_json(out, corrupt)) != []


@pytest.mark.parametrize("argv, cell", [
    (["analyze", "-m", "011,111,101", "--format", "csv"], 1),
    (["analyze", "-m", "011,111,101", "--format", "table"], 1),
    (["kary", "-m", "11,10", "--format", "csv"], 2),
    (["table", "--format", "csv"], 4),
    (LEX, 1),
])
def test_checker_rejects_corrupted_text(argv, cell):
    code, out = run(argv)
    assert code == 0
    assert check(argv, code, out) == []
    lines = out.splitlines()
    last = lines[-1].split(",")
    value = last[cell]
    last[cell] = str(int(value) + 1) if value.isdigit() else repr(float(value) * 1.001)
    assert check(argv, code, "\n".join(lines[:-1] + [",".join(last)]) + "\n") != []


def test_checker_rejects_failed_exit_code():
    code, out = run(GOLDEN)
    assert check(GOLDEN, 1, out) == ["exit code 1"]
    assert check(GOLDEN, None, "") == ["exit code None"]


def test_checker_flags_the_tied_radius():
    argv = ["analyze", "-m", "11,01", "--format", "json"]
    out = json.dumps({"spectral": {"radius": 1.000001000001}, "exact_log_deviation": None,
                      "series": {"p_log": []}})
    assert any("radius" in p for p in check(argv, 0, out))


STALLED_RUN = {"code": 2, "stdout": "", "error": None,
               "stderr": "error: power iteration stalled after 1000000 iterations "
                         "(relative residual 2.000e-12)\n"}


def test_only_the_known_stall_is_excused():
    tied = ["analyze", "-m", "110,011,001", "--format", "json"]
    plain = ["analyze", "-m", "011,111,101", "--format", "json"]
    wrong = json.dumps({"spectral": {"radius": 1.000001}, "exact_log_deviation": None,
                        "series": {"p_log": [0.0] * 16}})
    cases = [
        (tied, STALLED_RUN, [], True),
        (tied, STALLED_RUN, [0], False),  # a repeat printed something else
        (tied, dict(STALLED_RUN, code=0, stderr="", stdout=wrong), [], False),
        (tied, dict(STALLED_RUN, stderr="error: bad matrix\n"), [], False),
        (plain, STALLED_RUN, [], False),
    ]
    for argv, output, differs, correct in cases:
        failed, ok, lines = judge([argv], {"outputs": [output], "differs": differs})
        assert failed == [0] and len(lines) == 1
        assert ok is correct, (argv, output, differs)


def test_numpy_census_matches_the_package():
    params = SturmianParams.fibonacci()
    for seed in (0, 5):
        tree = label_tree_random(params, 9, seed)
        labels = np.frombuffer(tree.labels, dtype=np.uint8)
        assert block_counts(labels, 9, 6) == tree_complexity(tree, 6)
    rng = random.Random(1)
    text = "".join(rng.choice("01") for _ in range(2**8 - 1))
    assert block_counts(labels_array(text), 7, 3)[0] == 2


def test_tracer_covers_import_sites_and_restores_them():
    originals = dict(cli.HANDLERS), cli.tree_complexity, cli.parse_matrix
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.HANDLERS["sturmian"] is not originals[0]["sturmian"]
        code, _ = run(RANDOM)
    finally:
        tracer.uninstall()
    assert code == 0
    assert (dict(cli.HANDLERS), cli.tree_complexity, cli.parse_matrix) == originals
    names = [s[0] for s in tracer.spans]
    assert names.count("cli.main") == 1
    assert names.count("cli.cmd_sturmian") == 1
    assert names.count("sturmian.label_tree_random") == 2
    assert names.count("oracle.blocks_in_tree") == 2 * (4 + 1)
    assert tracer.counters["sturmian.nodes_labeled"] == 2 * (2**9 - 1)
    roots = sum(s[2] - s[1] for s in tracer.spans if s[3] < 0)
    assert sum(self_times(tracer.spans)) == pytest.approx(roots)
    assert all(t >= 0 for t in self_times(tracer.spans))


def test_workloads_are_seeded_and_classified():
    assert jobs_for("sweep", 7) == jobs_for("sweep", 7)
    assert jobs_for("heavy", 7) != jobs_for("heavy", 8)
    sweep = jobs_for("sweep", 7)
    matrices = [to_array(j[2]) for j in sweep if j[0] == "analyze"]
    assert len(matrices) == 152
    tied = [a for a in matrices if is_tied(a)]
    assert len(tied) == 1 and is_chained(tied[0])
    periodic = [a for a in matrices if is_unshifted_periodic(a)]
    assert len(periodic) == 1 and len(periodic[0]) == 4
    heavy = jobs_for("heavy", 7)
    assert [j[0] for j in heavy] == ["golden"] + ["analyze"] * 3 + ["sturmian"] * 2
    for job in heavy[1:4]:
        assert len(components(to_array(job[2]))) == 1
    assert not is_chained(to_array("10,01")) and is_tied(to_array("10,01"))
    # 0 -> {1, 2} -> 0 has period 2 and radius sqrt 2; the loop at 3 makes the gcd 1
    assert is_unshifted_periodic(to_array("0110,1000,1000,1101"))
    assert not is_unshifted_periodic(to_array("011,100,100"))


def test_normalised_time_uses_the_samples_around_a_run():
    s = Sampler()
    s.at, s.speed = [0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 0.5, 0.5, 0.5, 1.0]
    # 1.7 s of CPU, 0.2 s of it in samples; the samples at 1, 2 and 3 s count
    assert s.normalised((1.2, 0.1), (2.9, 0.3)) == pytest.approx(1.5 * 0.5)
    # a run with no sample inside still takes its neighbours
    assert s.normalised((3.1, 0.3), (3.2, 0.3)) == pytest.approx(0.1 * 0.75)


def test_sampler_samples_inside_a_run_and_leaves_its_time_out():
    s = Sampler()
    s.start()
    try:
        begin = s.mark()
        total = 0
        while s.mark()[0] - begin[0] < 0.2:
            total += sum(range(1000))
        end = s.mark()
    finally:
        s.pause()
    assert len(s.at) >= 5
    assert end[1] - begin[1] > 0
    assert 0 < s.normalised(begin, end) < end[0] - begin[0] + 1.0
