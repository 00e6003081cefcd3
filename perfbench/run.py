"""treeshift benchmark: run one workload from a seed and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
./src. Each call runs the workload's jobs (perfbench/workloads.py) in
a fresh interpreter (perfbench/worker.py) in a closed loop, one job
after another, with cold imports timed in further fresh interpreters
between them as set-up, checks every output against the benchmark's
own computation (perfbench/checks.py), prints the argv list and every
metric by name with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones, from spans recorded by perfbench/tracer.py. Children
always cache bytecode, under .bench_build/pycache, so that set-up is
timed with warm caches; BLAS is pinned to one thread so that a job uses
at most one core.

A job's time is the median of its runs, each run measured in CPU time
and scaled to the host's unloaded speed by perfbench/speed.py; set-up
is the median of its cold imports, scaled the same way, which the
worker spreads over the whole run. On a shared host the same code runs
1.3 to 2 times slower for stretches of seconds to minutes, in CPU time
as much as in wall time, so neither the fastest nor the median raw time
of a run repeats from one run to the next; scaled times do. The jobs are
single-threaded and write to memory, so on an unloaded host their CPU
time is their wall time. Raw wall times are printed beside the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
from tracer import LAYERS, layer_metrics
from workloads import (WARMUP, WORKLOADS, is_chained, is_tied, is_unshifted_periodic,
                       jobs_for, to_array)

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 15
WORKER_TIMEOUT_S = 170
# The message of treeshift.spectral.NoConvergence, which cli.main turns into exit 2.
STALLED = "power iteration stalled"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("TREESHIFT_PRECISION", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def known_defect(argv, o) -> bool:
    """Whether a failure is the one the seed code is known to make.

    Two kinds of valid matrix make power iteration over the whole matrix
    stall: chained strong components with the same top radius (a
    defective Perron eigenvalue) and a periodic top class iterated
    without the +I shift. On these inputs, and only there, exit 2 with
    the NoConvergence message is the known failure. It is timed and
    counts as failed but leaves `correct` true; any other failure on
    the same inputs, such as a wrong radius, turns `correct` false.
    """
    if argv[0] != "analyze" or o["code"] != 2 or o["error"] or STALLED not in o["stderr"]:
        return False
    a = to_array(checks.flags(argv)["m"])
    return (is_tied(a) and is_chained(a)) or is_unshifted_periodic(a)


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it."""
    ranked = sorted(times)
    i = len(ranked) - 11
    return ranked[i], 100.0 * (i + 1) / len(ranked), len(ranked)


def expected_calls(argv, out: str) -> dict[str, int]:
    """Calls one successful job must make into the traced functions."""
    f = checks.flags(argv)
    cmd = f["cmd"]
    want = {"cli.main": 1}
    if cmd == "analyze":
        want.update({"matrix.parse_matrix": 1, "spectral.analyze_matrix": 1,
                     "recurrence.run": 2 if f.get("exact") else 1})
    elif cmd == "kary":
        want.update({"matrix.parse_matrix": 1,
                     "recurrence.run": len(f.get("k", "2,3,4,5").split(","))})
    elif cmd == "table":
        rows = table_rows(f.get("format", "table"), out) + 1  # plus the worked example
        want.update({"matrix.parse_matrix": rows, "spectral.analyze_matrix": rows,
                     "recurrence.run": rows})
    elif cmd == "golden":
        want.update({"matrix.parse_matrix": 1, "recurrence.run": 2,
                     "recurrence.golden_power_bounds": 1, "oracle.enumerate_configs": 4})
    elif cmd == "sturmian":
        depth = int(f.get("n", 15))
        trees = len(f.get("seed", "0").split(",")) if f.get("mode") == "random" else 1
        labeler = "sturmian.label_tree_" + ("random" if f.get("mode") == "random" else "lex")
        want.update({labeler: trees,
                     "oracle.blocks_in_tree": trees * (min(int(f.get("blocks", 6)), depth) + 1)})
    return want


def table_rows(fmt: str, out: str) -> int:
    if fmt == "json":
        return len(json.loads(out)["rows"])
    lines = out.splitlines()
    if fmt == "csv":
        return len(lines) - 1
    return lines.index("") - 2  # title and header precede the rows


def count_mismatches(jobs, traced, outputs) -> list[str]:
    """Span counts of the traced pass against expected_calls, per job."""
    seen: dict[tuple[int, str], int] = {}
    for s in traced["spans"]:
        name = s[0].split(":")[0]
        seen[s[4], name] = seen.get((s[4], name), 0) + 1
    problems = []
    for i, argv in enumerate(jobs):
        if traced["codes"][i] != 0:
            continue
        for name, n in expected_calls(argv, outputs[i]["stdout"]).items():
            if seen.get((i, name), 0) != n:
                problems.append(f"job {i + 1} {name}: {seen.get((i, name), 0)} spans, {n} expected")
    return problems


def judge(jobs, result) -> tuple[list[int], bool, list[str]]:
    """Indices of failed jobs, correct, and one line per failed job.

    A job fails when its first output fails a check, when it raised or
    wrote to stderr, or when a repeat printed something else.
    """
    failed, correct, lines = [], True, []
    differs = set(result["differs"])
    for i, (argv, o) in enumerate(zip(jobs, result["outputs"])):
        problems = checks.check(argv, o["code"], o["stdout"])
        if o["error"]:
            problems.append("raised " + o["error"].strip().splitlines()[-1])
        elif o["stderr"].strip():
            problems.append(o["stderr"].strip().splitlines()[-1])
        if i in differs:
            problems.append("a repeat printed other output")
        if problems:
            failed.append(i)
            defect = known_defect(argv, o) and i not in differs
            correct = correct and defect
            lines.append(f"FAIL job {i + 1}{' (known defect)' if defect else ''}: "
                         + " ".join(argv) + " -- " + "; ".join(problems))
    return failed, correct, lines


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(".sharing"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "treeshift" / "cli.py").is_file():
        print(f"error: no treeshift sources under {ROOT / 'src'}; "
              "run from the root of a treeshift checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    env = child_env()

    jobs = jobs_for(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs "
          f"(python {platform.python_version()}, numpy {np.__version__})")
    print("warm-up argv: " + " ".join(WARMUP))
    for i, job in enumerate(jobs):
        print(f"argv {i + 1}: " + " ".join(job))

    spec = {"jobs": jobs, "warmup": WARMUP, "seconds": args.seconds, "trace": bool(args.trace),
            "setup_samples": 0 if args.trace else SETUP_SAMPLES}
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(spec),
                          env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout)

    traced = result["traced"]
    runs = [len(t) + (1 if traced else 0) for t in result["walls"]]
    failed_jobs, correct, fail_lines = judge(jobs, result)
    for line in fail_lines:
        print(line)
    # Counted per job of one pass, not per run: how many repeats fit in the
    # run depends on the host's speed, and the outputs are judged per job.
    attempted, failed = len(jobs), len(failed_jobs)
    print(f"runs: {min(runs)} to {max(runs)} per job, {sum(runs)} job runs; "
          f"first pass {result['first_pass_wall']:.3f} s wall")

    metrics = {}
    if not args.trace:
        typical = [statistics.median(t) for t in result["times"]]
        metrics = {
            "wall_s": (sum(typical), "s"),
            "job_p50_s": (statistics.median(typical), "s"),
            "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
            "setup_s": (statistics.median(result["setup"]), "s"),
        }
        for name, (value, unit) in metrics.items():
            print(f"metric {name} = {value:.6g} {unit}")
        raw = [statistics.median(t) for t in result["walls"]]
        print(f"raw wall time, not host-normalised: pass {sum(raw):.6g} s, job p50 "
              f"{statistics.median(raw):.6g} s, set-up median "
              f"{statistics.median(result['setup_walls']):.6g} s; "
              f"{result['speed_samples']} speed samples")
        print(f"metric job_count = {len(jobs)} jobs per pass")
        if len(jobs) >= 20:
            value, pct, n = tail(typical)
            print(f"metric job_tail_s = {value:.6g} s (p{pct:.1f} of {n} jobs, 10 beyond)")
        else:
            print(f"metric job_tail_s = n/a ({len(jobs)} jobs per pass, fewer than 20)")
        print(f"metric failed_ratio = {len(failed_jobs) / len(jobs):.6g} "
              f"({len(failed_jobs)}/{len(jobs)} jobs)")
    else:
        for name, value in layer_metrics(traced["spans"], traced["counters"], traced["wall"]).items():
            metrics[name] = (value, unit_of(name))
        metrics["cli.out_bytes"] = (traced["out_bytes"], "bytes")
        metrics["trace_overhead_s"] = (traced["wall"] - result["first_pass_wall"], "s")
        mismatches = count_mismatches(jobs, traced, result["outputs"])
        metrics["trace.count_mismatches"] = (len(mismatches), "count")
        for line in mismatches:
            print("span count mismatch: " + line)
        accounted = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS) + metrics["untraced_s"][0]
        print(f"accounting: layer self times + untraced_s = {accounted:.6f} s, "
              f"traced wall_s = {traced['wall']:.6f} s")
        for name, (value, unit) in metrics.items():
            print(f"metric {name} = {value:.6g} {unit}")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
