"""Independent checks of each job's output.

Each checker recomputes what it can with the benchmark's own numpy and
integer code: spectral radii from `numpy.linalg.eigvals`, log-domain
counts from a numpy recurrence, golden-mean prefixes from the two
scalar recurrences, and Sturmian block counts from a hash-consed numpy
census of the labels. `check(argv, code, stdout)` returns a list of
problems; an empty list means the output is right.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import spectral_radius, to_array

RADIUS_RTOL = 1e-9
SERIES_RTOL = 1e-9
DEVIATION_MAX = 1e-9
# table, csv and the table format print six decimals
PRINTED_ATOL = 1e-6
# the matrix of `treeshift golden`
GOLDEN_MATRIX = "11,10"


def flags(argv: list[str]) -> dict:
    """The subcommand under "cmd" and every flag value (True for switches)."""
    out = {"cmd": argv[0]}
    i = 1
    while i < len(argv):
        key = argv[i].lstrip("-")
        if i + 1 < len(argv) and not argv[i + 1].startswith("-"):
            out[key] = argv[i + 1]
            i += 2
        else:
            out[key] = True
            i += 1
    return out


def close(value: float, truth: float, rtol: float) -> bool:
    return abs(value - truth) <= rtol * max(abs(truth), 1.0)


# ---------------------------------------------------------------------------
# counting recurrences


def log_counts(a: np.ndarray, arity: int, depth: int) -> np.ndarray:
    """log x_i(n) for n = 0..depth, rows by level, from x_i(0) = 1."""
    succ = a > 0
    logs = np.zeros((depth + 1, len(a)))
    for n in range(depth):
        prev = logs[n]
        shifted = np.where(succ, prev, -np.inf)
        top = shifted.max(axis=1)
        total = np.exp(shifted - top[:, None]).sum(axis=1)
        logs[n + 1] = arity * (top + np.log(total))
    return logs


def log_totals(a: np.ndarray, arity: int, depth: int) -> np.ndarray:
    logs = log_counts(a, arity, depth)
    top = logs.max(axis=1)
    return top + np.log(np.exp(logs - top[:, None]).sum(axis=1))


def h_acc(a: np.ndarray, arity: int, depth: int) -> float:
    p = log_totals(a, arity, depth)
    corr = (p[-1] - arity * p[-2]) / (arity - 1)
    return (p[-1] + corr) * (arity - 1) / arity ** (depth + 1)


def golden_p(n: int) -> list[int]:
    p = [2, 5]
    while len(p) <= n:
        p.append(p[-1] ** 2 + p[-2] ** 4)
    return p[: n + 1]


def golden_a(n: int) -> list[int]:
    seq = [1, 4]
    while len(seq) <= n:
        seq.append((seq[-1] + seq[-2] ** 2) ** 2)
    return seq[: n + 1]


def golden_q(n: int) -> list[float | None]:
    """q(n) = p(n)/p(n-1)^2 from the exact map q(n+1) = 1 + 1/q(n)^2, q(1) = 5/4.

    The map follows from p(n+1) = p(n)^2 + p(n-1)^4 and needs no big
    integers; its slope near the limit is about -0.6, so rounding
    errors shrink from one level to the next.
    """
    q: list[float | None] = [None, 5 / 4]
    while len(q) <= n:
        q.append(1 + 1 / q[-1] ** 2)
    return q[: n + 1]


def auto_depth(arity: int) -> int:
    n = 0
    while (arity ** (n + 1) - 1) // (arity - 1) < 10**4:
        n += 1
    return n


# ---------------------------------------------------------------------------
# block census


def block_counts(labels: np.ndarray, depth: int, n_max: int) -> list[int]:
    """Distinct depth-n blocks of a binary tree in breadth-first layout.

    A depth-n block is identified by the triple (label, id of the left
    child's depth-(n-1) block, id of the right one), so one np.unique
    per level renumbers every block that fits in the tree.
    """
    labels = labels.astype(np.int64)
    ids = labels
    counts = [len(np.unique(labels))]
    for n in range(1, n_max + 1):
        roots = 2 ** (depth - n + 1) - 1
        width = int(ids.max()) + 1
        v = np.arange(roots)
        key = (labels[:roots] * width + ids[2 * v + 1]) * width + ids[2 * v + 2]
        uniq, ids = np.unique(key, return_inverse=True)
        counts.append(len(uniq))
    return counts


def labels_array(text: str) -> np.ndarray:
    return np.frombuffer(text.encode(), dtype=np.uint8) - ord("0")


# ---------------------------------------------------------------------------
# per subcommand


def check_analyze(f: dict, out: str) -> list[str]:
    a = to_array(f["m"])
    arity = int(f.get("k", 2))
    depth = int(f.get("n", 15))
    radius = spectral_radius(a)
    p_log = log_totals(a, arity, depth)
    problems = []
    fmt = f.get("format", "table")
    if fmt == "json":
        payload = json.loads(out)
        got = payload["spectral"]["radius"]
        if not close(got, radius, RADIUS_RTOL):
            problems.append(f"radius {got!r}, numpy {radius!r}")
        dev = payload["exact_log_deviation"]
        if f.get("exact") and not (dev is not None and dev <= DEVIATION_MAX):
            problems.append(f"exact_log_deviation {dev!r} above {DEVIATION_MAX}")
        series = payload["series"]["p_log"]
    else:
        if fmt == "table":
            line = next(s for s in out.splitlines() if s.startswith("spectral radius "))
            got = float(line.split()[2])
            if abs(got - radius) > PRINTED_ATOL:
                problems.append(f"radius {got!r}, numpy {radius!r}")
            out = out[out.index("n,p_log,") :]
        rows = out.strip().splitlines()[1:]
        series = [float(r.split(",")[1]) for r in rows]
    if len(series) != depth + 1:
        problems.append(f"{len(series)} series levels, expected {depth + 1}")
    elif not all(close(x, y, SERIES_RTOL) for x, y in zip(series, p_log)):
        problems.append("p_log series differs from the numpy recurrence")
    return problems


def check_kary(f: dict, out: str) -> list[str]:
    a = to_array(f.get("m", "11,10"))
    ks = [int(k) for k in f.get("k", "2,3,4,5").split(",")]
    s_max = float(a.sum(axis=1).max())
    fmt = f.get("format", "table")
    if fmt == "json":
        rows = [(r["arity"], r["depth"], r["h_acc"], r["in_bounds"])
                for r in json.loads(out)["rows"]]
        tol = SERIES_RTOL
    else:
        lines = [s for s in out.splitlines() if s[:1].isdigit()]
        rows = []
        for s in lines:
            k, n, h, _, _, ok = s.split(",")
            rows.append((int(k), int(n), float(h), ok == "true"))
        tol = PRINTED_ATOL
    problems = []
    if [r[0] for r in rows] != ks:
        problems.append(f"arities {[r[0] for r in rows]}, expected {ks}")
    for k, n, got, ok in rows:
        n_want = int(f["n"]) if "n" in f else auto_depth(k)
        want = h_acc(a, k, n_want)
        if n != n_want or abs(got - want) > tol * max(1.0, abs(want)):
            problems.append(f"k={k}: h_acc({n}) {got!r}, numpy h_acc({n_want}) {want!r}")
        inside = (k - 1) / k * math.log(s_max) - 1e-9 <= want <= math.log(s_max) + 1e-9
        if ok != inside:
            problems.append(f"k={k}: in_bounds {ok}, expected {inside}")
    return problems


def check_table(f: dict, out: str) -> list[str]:
    fmt = f.get("format", "table")
    problems = []
    if fmt == "json":
        payload = json.loads(out)
        for row in payload["rows"]:
            want = math.log(spectral_radius(to_array(row["matrix"])))
            got = row["base_entropy"]["computed"]
            if not close(got, want, RADIUS_RTOL):
                problems.append(f"{row['name']}: base entropy {got!r}, numpy {want!r}")
        if payload["all_ok"] is not True:
            problems.append("all_ok is not true")
    elif fmt == "csv":
        for line in out.strip().splitlines()[1:]:
            name, rest = line.split(',"', 1)
            matrix, rest = rest.split('",', 1)
            cells = rest.split(",")
            want = math.log(spectral_radius(to_array(matrix)))
            if abs(float(cells[0]) - want) > PRINTED_ATOL:
                problems.append(f"{name}: base entropy {cells[0]}, numpy {want!r}")
            if any(cells[i] != "true" for i in (2, 5, 8, 9)):
                problems.append(f"{name}: a verdict is not true")
    elif "overall: pass" not in out:
        problems.append("overall verdict is not pass")
    return problems


def check_golden(f: dict, out: str) -> list[str]:
    payload = json.loads(out)
    depth = int(f.get("n", 15))
    problems = []
    want_p = [str(x) for x in golden_p(min(depth, 8))]
    if payload["p_prefix"] != want_p:
        problems.append(f"p_prefix {payload['p_prefix']}, expected {want_p}")
    got_q, want_q = payload["q"], golden_q(depth)
    if len(got_q) != depth + 1 or got_q[0] is not None or not all(
        close(x, y, SERIES_RTOL) for x, y in zip(got_q[1:], want_q[1:])
    ):
        problems.append("q differs from the map q(n+1) = 1 + 1/q(n)^2")
    want_h = h_acc(to_array(GOLDEN_MATRIX), 2, depth)
    if not close(payload["h_acc"], want_h, SERIES_RTOL):
        problems.append(f"h_acc {payload['h_acc']!r}, numpy {want_h!r}")
    want_a = [str(x) for x in golden_a(4)]
    if payload["a_prefix"] != want_a:
        problems.append(f"a_prefix {payload['a_prefix']}, expected {want_a}")
    failing = [c["check"] for c in payload["checks"] if c["ok"] is not True]
    failing += [f"power bound n={b['n']}" for b in payload["power_bounds"] if b["holds"] is not True]
    if failing:
        problems.append("reported checks false: " + "; ".join(failing))
    return problems


def check_sturmian(f: dict, out: str) -> list[str]:
    depth = int(f.get("n", 15))
    blocks = min(int(f.get("blocks", 6)), depth)
    problems = []
    if f.get("mode") == "random":
        payload = json.loads(out)
        seeds = [int(s) for s in f.get("seed", "0").split(",")]
        if [e["seed"] for e in payload["seeds"]] != seeds:
            problems.append("seed list differs from the argv")
        for entry in payload["seeds"]:
            labels = labels_array(entry["labels"])
            if len(labels) != 2 ** (depth + 1) - 1:
                problems.append(f"seed {entry['seed']}: {len(labels)} labels")
                continue
            want = block_counts(labels, depth, blocks)
            if entry["p_tau"] != want:
                problems.append(f"seed {entry['seed']}: p_tau {entry['p_tau']}, census {want}")
        return problems
    # The CSV carries no labels, so they are rebuilt through the public
    # API; the census itself is still the benchmark's own.
    from treeshift.sturmian import SturmianParams, label_tree_lex

    terms = [int(t) for t in f["alpha-cf"].split(",")] if "alpha-cf" in f else None
    params = (SturmianParams.from_continued_fraction(terms) if terms
              else SturmianParams.fibonacci())
    tree = label_tree_lex(params, depth)
    want = block_counts(np.frombuffer(tree.labels, dtype=np.uint8), depth, blocks)
    got = [int(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
    if got != want:
        problems.append(f"p_tau {got}, census {want}")
    return problems


CHECKERS = {
    "analyze": check_analyze,
    "kary": check_kary,
    "table": check_table,
    "golden": check_golden,
    "sturmian": check_sturmian,
}


def check(argv: list[str], code: int | None, out: str) -> list[str]:
    """Problems with one job's result; an exit code other than 0 is one."""
    if code != 0:
        return [f"exit code {code}"]
    f = flags(argv)
    try:
        return CHECKERS[f["cmd"]](f, out)
    except (ValueError, KeyError, IndexError, StopIteration, TypeError) as exc:
        return [f"output does not parse: {type(exc).__name__}: {exc}"]
