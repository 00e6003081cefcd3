"""Run one workload's jobs in a fresh interpreter and report as JSON.

Reads {"jobs", "warmup", "seconds", "trace", "setup_samples"} from stdin
and writes its report as JSON to stdout. Jobs run one after another
through `treeshift.cli.main(argv)`, stdout and stderr captured. After
an untimed warm-up job, every job runs in whole passes over the list,
as many as fit in `seconds` (judged by the first pass) but at least two,
so that every long job runs the same number of times and never once. After the first
pass, jobs that took under SHORT_S also run EXTRA more times per pass,
interleaved in a cycle between the jobs of the pass, so that their runs
are spread over the whole run. While the passes run, perfbench/speed.py
samples the host's speed, and each job run is reported as its
speed-normalised CPU time. Between jobs, `setup_samples` cold imports
of treeshift.cli, each in a fresh interpreter, are spread evenly over
the run. With trace on there are exactly two passes, no speed samples
and no imports: the second pass is traced.
Only the first outputs of each job are kept; repeats record whether
theirs matched.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import resource
import subprocess
import sys
import time
import traceback

import treeshift.cli as cli
from speed import Sampler
from tracer import Tracer

SHORT_S = 0.05
EXTRA = 4
# Times the import in CPU time, then the host's speed right after it, so
# that nothing the probe itself loads is loaded before the import.
IMPORT_PROBE = (
    "import time; w = time.perf_counter(); t = time.thread_time(); import treeshift.cli; "
    "t = time.thread_time() - t; w = time.perf_counter() - w; "
    "import speed; print(t * speed.measure(), w)"
)
SAMPLER = Sampler()


def import_seconds() -> tuple[float, float]:
    """One cold `import treeshift.cli` in a fresh interpreter (this one's env):
    its speed-normalised CPU time and its wall time."""
    SAMPLER.pause()
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                         capture_output=True, text=True, timeout=60).stdout
    SAMPLER.resume()
    normalised, wall = out.split()
    return float(normalised), float(wall)


def run_job(argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    begin, start = SAMPLER.mark(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception:  # a raising job is a failed job, not a failed benchmark
        code, error = None, traceback.format_exc(limit=4)
    elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue(), error, (begin, SAMPLER.mark())


def kept(r: tuple) -> tuple:
    """What a run keeps after its output is compared: wall time and CPU marks."""
    return r[0], r[5]


def main() -> None:
    spec = json.load(sys.stdin)
    jobs = spec["jobs"]
    samples = spec["setup_samples"]
    run_job(spec["warmup"])
    if not spec["trace"]:
        SAMPLER.start()

    start = time.perf_counter()
    setup: list[tuple[float, float]] = []

    def probe_if_due() -> None:
        due = len(setup) * spec["seconds"] / max(samples, 1)
        if len(setup) < samples and time.perf_counter() - start >= due:
            setup.append(import_seconds())

    first = []
    for argv in jobs:
        probe_if_due()
        first.append(run_job(argv))
    runs = [[kept(r)] for r in first]
    first_pass_wall = sum(r[0] for r in first)
    differs = set()

    def repeat(i: int, argv) -> tuple:
        r = run_job(argv)
        if r[1:4] != first[i][1:4]:
            differs.add(i)
        return r

    traced = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
        traced_start = time.perf_counter()
        codes = []
        for i, argv in enumerate(jobs):
            tracer.job = i
            codes.append(repeat(i, argv)[1])
        wall = time.perf_counter() - traced_start
        tracer.uninstall()
        traced = {"wall": wall, "spans": tracer.spans, "counters": dict(tracer.counters),
                  "codes": codes, "out_bytes": sum(len(r[2].encode()) for r in first)}
    else:
        short = [i for i, r in enumerate(first) if r[0] < SHORT_S]
        per_slot = EXTRA * len(short) / len(jobs)
        later_pass = time.perf_counter() - start + EXTRA * sum(first[i][0] for i in short)
        cycle = itertools.cycle(short)
        owed = 0.0
        for _ in range(max(2, round(spec["seconds"] / later_pass)) - 1):
            for i, argv in enumerate(jobs):
                probe_if_due()
                runs[i].append(kept(repeat(i, argv)))
                owed += per_slot
                while owed >= 1:
                    j = next(cycle)
                    runs[j].append(kept(repeat(j, jobs[j])))
                    owed -= 1
        while len(setup) < samples:
            setup.append(import_seconds())
        SAMPLER.pause()
    json.dump({
        "times": None if spec["trace"] else [
            [SAMPLER.normalised(*marks) for _, marks in job_runs] for job_runs in runs],
        "walls": [[wall for wall, _ in job_runs] for job_runs in runs],
        "first_pass_wall": first_pass_wall,
        "setup": [s[0] for s in setup],
        "setup_walls": [s[1] for s in setup],
        "speed_samples": len(SAMPLER.speed),
        "differs": sorted(differs),
        "traced": traced,
        "outputs": [
            {"code": r[1], "stdout": r[2], "stderr": r[3], "error": r[4]} for r in first
        ],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }, sys.stdout)


if __name__ == "__main__":
    main()
