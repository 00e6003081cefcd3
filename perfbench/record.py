"""Run every workload on several seeds and record the results as JSON.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/baseline.json

Runs perfbench/run.py once per workload and seed with tracing off, then
once per workload with tracing on, one run at a time, from the current
directory, and appends the result as one set to the `--out` file (made
if missing), so that repeated calls collect sets to compare. A set
keeps every run's final JSON line and FAIL lines and, per workload and
end-to-end metric, the median, the quartiles and the quartile spread as
a share of the median.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    notes = [line for line in proc.stdout.splitlines() if line.startswith("FAIL ")]
    return {"workload": workload, "seed": seed, "trace": trace, "result": result, "fail_lines": notes}


def summary(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / statistics.median(values)}
    return out


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    seeds = seed_range(args.seeds)
    seconds = bench["run_seconds"]
    out = Path(args.out)
    record = json.loads(out.read_text()) if out.exists() else {
        "python": platform.python_version(), "machine": platform.machine(),
        "run_seconds": seconds, "sets": []}
    current = {"seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in seeds:
            runs.append(run(workload, seed, seconds, 0))
            print(workload, seed, json.dumps(runs[-1]["result"]["metrics"]), flush=True)
        traced = run(workload, seeds[0], seconds, 1)
        current["workloads"][workload] = {
            "summary": summary(runs), "runs": runs, "traced_run": traced,
        }
        for name, s in current["workloads"][workload]["summary"].items():
            print(f"{workload} {name}: median {s['median']:.6g} spread {s['spread']:.3f}", flush=True)
    record["sets"].append(current)
    out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
