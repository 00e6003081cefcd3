"""Command line front end.

Subcommands: analyze (one matrix), table (the embedded benchmark
fixture), golden (golden mean specials), kary (entropy across arities),
sturmian (tree labelings from a Sturmian word). Each computes its result,
its exit status and every check once, and returns a Report holding the
status, the JSON payload and two functions that format the table and CSV
forms; `main` builds and prints only the one --format names. JSON is
written by `_json_text`, which gives the bytes of `json.dumps(payload,
indent=2)` without that call's pure-Python encoder. Exit code 0 means
all checks passed, 1 means some numeric check failed, 2 means the input
was unusable. All output is deterministic for fixed flags and seeds;
--out redirects the report to a file. The argument parser is built once
per process, on the first `main` call; importing the module builds none.
`json` is imported by the JSON writer alone (and by the parser of a JSON
matrix), so the default table and CSV forms start without it.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Callable, NamedTuple

from .matrix import TransitionMatrix, parse_matrix
from .oracle import LabeledTree, TooLarge, enumerate_configs, node_count
from .recurrence import (
    GOLDEN_LIMIT,
    EntropySeries,
    TreeParams,
    auto_depth,
    golden_counts,
    golden_power_bounds,
    golden_q,
    golden_zero_rooted_counts,
    kary_bounds,
    log_deviation,
    run,
)
from .reference import (
    PLASTIC_MATRIX,
    compute_reference_table,
    order_checks,
    plastic_report,
)
from .spectral import NoConvergence, analyze_matrix, upper_bound
from .sturmian import (
    MAX_TREE_DEPTH,
    PrecisionExhausted,
    SturmianParams,
    build_factor_oracle,
    check_depth,
    label_tree_lex,
    label_tree_random,
    left_edge_word,
    mechanical_word,
    minimal_sequence,
    tree_complexity,
)

GOLDEN_MATRIX = "11,10"
WORD_PREFIX = 60
LABEL_PREFIX = 255
# A random sturmian report in JSON keeps every seed's labels, where table
# and CSV keep one tree at a time: it may hold no more labels than one
# tree of the deepest labeling.
JSON_LABEL_CAP = node_count(2, MAX_TREE_DEPTH) + 1

# integer options and terms, and a slope's denominator: CPython's default
# limit for converting text to int, applied whatever the interpreter's is
INT_TERM_DIGITS = 4300

# published golden mean figures, as text that carries their decimals: the
# entropy h = 2 log c and the prefactor b = 1/q* of p(n) ~ b c^(2^(n+2))
GOLDEN_H = "0.509"
GOLDEN_C = "1.28975"
GOLDEN_B = "0.6823278"


class Report(NamedTuple):
    """One subcommand's result: its exit status and its three forms.

    `json` is the payload dict; `csv` and `table` take no argument and
    return that form's lines, so that only the printed form is built.
    The status and every check are computed before either is called.
    """

    status: int
    json: dict
    csv: Callable[[], list[str]]
    table: Callable[[], list[str]]


def _f(x, places: int = 6) -> str:
    if x is None:
        return ""
    if math.isinf(x):
        return "inf"
    return f"{x:.{places}f}"


def _verdict(ok: bool) -> str:
    return "pass" if ok else "FAIL"


def _rounds_to(x: float, figure: str) -> bool:
    """Whether the float x, rounded half to even at the decimals of the
    decimal text `figure`, is that figure: the rounding is exact."""
    from decimal import Decimal

    return Decimal(x).quantize(Decimal(figure)) == Decimal(figure)


def _load_matrix(source: str) -> TransitionMatrix:
    text = source
    if source.startswith("@"):
        try:
            # a leading byte-order mark is dropped; the "utf-8-sig" codec
            # would also drop a file that is only part of one
            with open(source[1:], encoding="utf-8") as handle:
                text = handle.read().removeprefix("\ufeff")
        except UnicodeDecodeError as exc:
            raise ValueError(
                f"matrix file {source[1:]} is not UTF-8 text: byte {exc.object[exc.start]:#04x} "
                f"at position {exc.start}"
            ) from None
        if not text.lstrip().startswith("["):
            text = ",".join(line.strip() for line in text.splitlines() if line.strip())
    return parse_matrix(text)


def _within_digit_limit(text: str, what: str, error: type[Exception]) -> str:
    """`text`, unless it is an integer of more than INT_TERM_DIGITS digits:
    that raises `error` naming `what` by its digit count, where int() may
    refuse it with advice for programmers or echo it whole."""
    digits = text.strip().lstrip("+-").replace("_", "")
    if len(digits) > INT_TERM_DIGITS and digits.isdecimal():
        raise error(f"{what} of {len(digits)} digits is past the limit of {INT_TERM_DIGITS}")
    return text


def _int_option(text: str) -> int:
    """The argparse type of an integer option."""
    return int(_within_digit_limit(text, "integer", argparse.ArgumentTypeError))


_int_option.__name__ = "int"  # argparse names any other bad value "invalid int value"


def _parse_int_list(text: str, flag: str) -> list[int]:
    terms = [tok for tok in text.split(",") if tok.strip() != ""]
    for tok in terms:
        _within_digit_limit(tok, f"{flag} term", ValueError)
    try:
        values = [int(tok) for tok in terms]
    except ValueError as exc:
        raise ValueError(f"{flag} expects comma-separated integers: {exc}") from None
    if not values:
        raise ValueError(f"{flag} expects at least one integer")
    return values


# ---------------------------------------------------------------------------
# analyze


def _series_csv(series: EntropySeries, symbols: tuple[str, ...]) -> list[str]:
    """One row per level: the series columns, then log x_i(n) per symbol."""
    header = ["n", "p_log", "h_n", "a_n", "h_acc", "h2_n"] + [f"log_x_{s}" for s in symbols]
    lines = [",".join(header)]
    for n, logs in enumerate(series.symbol_logs):
        cells = [series.p_log[n], series.h[n], series.a[n], series.h_acc[n], series.h2[n], *logs]
        lines.append(",".join([str(n)] + ["" if x is None else format(x, ".12g") for x in cells]))
    return lines


def _series_json(series: EntropySeries, symbols: tuple[str, ...]) -> dict:
    """The JSON block of a log-domain series, whose `exact` is null."""
    return {
        "arity": series.arity,
        "mode": series.mode,
        "symbols": symbols,
        "p_log": series.p_log,
        "h": series.h,
        "a": series.a,
        "h_acc": series.h_acc,
        "h2": series.h2,
        "symbol_logs": series.symbol_logs,
        "exact": None,
    }


def cmd_analyze(args) -> Report:
    M = _load_matrix(args.matrix)
    n = args.depth
    params = TreeParams(args.arity, n)
    spectral = analyze_matrix(M)
    series = run(M, params)
    deviation = None
    if args.exact:
        deviation = log_deviation(run(M, params, mode="exact"), series)
    bound = upper_bound(spectral, args.arity)
    row_sums = M.row_sums()
    window = kary_bounds(max(row_sums), args.arity)
    h_tree = series.final_h_acc()
    verdicts = order_checks(spectral, h_tree, bound) if spectral.irreducible else []
    status = 0 if all(ok for _, ok in verdicts) else 1

    payload = {
        "matrix": M.to_row_string(),
        "arity": args.arity,
        "depth": n,
        "spectral": {
            "radius": spectral.spectral_radius,
            "base_entropy": spectral.sft_entropy,
            "left": spectral.left,
            "right": spectral.right,
            "ratio": spectral.ratio,
            "irreducible": spectral.irreducible,
            "primitive": spectral.primitive,
            "period": spectral.period,
            "row_sums": row_sums,
        },
        "upper_bound": bound,
        "row_sum_window": window,
        "tree_entropy": h_tree,
        "exact_log_deviation": deviation,
        "verdicts": [{"check": name, "ok": ok} for name, ok in verdicts],
        "series": _series_json(series, M.symbols),
    }

    def csv() -> list[str]:
        return _series_csv(series, M.symbols)

    def table() -> list[str]:
        head = [
            f"matrix {M.to_row_string()}  (d={M.d}, arity {args.arity}, depth {n})",
            f"irreducible {'yes' if spectral.irreducible else 'no'}"
            f"  primitive {'yes' if spectral.primitive else 'no'}"
            f"  period {spectral.period}",
            f"spectral radius {_f(spectral.spectral_radius)}"
            f"  base entropy {_f(spectral.sft_entropy)}",
            f"eigenvector ratio {_f(spectral.ratio)}  upper bound {_f(bound)}",
            f"row sums {','.join(str(t) for t in row_sums)}"
            f"  row-sum window [{_f(window[0])}, {_f(window[1])}]",
            f"tree entropy h_acc({n}) {_f(h_tree)}"
            f"  h({n}) {_f(series.h[-1])}  h2({n}) {_f(series.h2[-1])}",
        ]
        if deviation is not None:
            head.append(f"exact cross-check: max log deviation {deviation:.3e}")
        head += [f"verdict {name}: {_verdict(ok)}" for name, ok in verdicts]
        return head + [""] + csv()

    return Report(status, payload, csv, table)


# ---------------------------------------------------------------------------
# table


def _figures(r) -> tuple:
    """(key, computed, published, ok) for each checked figure of one table row."""
    return (
        ("base_entropy", r.computed_sft, r.row.sft_entropy, r.sft_ok),
        ("tree_entropy", r.computed_tree, r.row.tree_entropy, r.tree_ok),
        ("upper_bound", r.computed_upper, r.row.upper, r.upper_ok),
    )


def cmd_table(args) -> Report:
    results = compute_reference_table(args.depth)
    plastic = plastic_report(args.depth)
    rows_ok = all(r.all_ok for r in results)
    status = 0 if rows_ok and plastic["all_ok"] else 1

    payload = {"depth": args.depth, "rows": [], "plastic": plastic, "all_ok": status == 0}
    for r in results:
        row = {"name": r.row.name, "matrix": r.row.matrix}
        for key, c, p, ok in _figures(r):
            row[key] = {"computed": c, "published": p, "ok": ok}
        payload["rows"].append(row | {"order_ok": r.order_ok})

    def csv() -> list[str]:
        lines = [
            "name,matrix,htop_computed,htop_published,htop_ok,"
            "h_computed,h_published,h_ok,upper_computed,upper_published,"
            "upper_ok,order_ok"
        ]
        for r in results:
            cells = [f"{_f(c)},{_f(p, 3)},{str(ok).lower()}" for _, c, p, ok in _figures(r)]
            lines.append(f'{r.row.name},"{r.row.matrix}",{",".join(cells)},{str(r.order_ok).lower()}')
        return lines

    def table() -> list[str]:
        lines = [
            f"benchmark table at depth {args.depth}",
            f"{'name':<6} {'matrix':<12} {'htop':>9} {'pub':>6} {'ok':<4}"
            f" {'h':>9} {'pub':>6} {'ok':<4} {'U':>9} {'pub':>6} {'ok':<4} order",
        ]
        for r in results:
            cells = "".join(f" {_f(c):>9} {_f(p, 3):>6} {_verdict(ok):<4}" for _, c, p, ok in _figures(r))
            lines.append(f"{r.row.name:<6} {r.row.matrix:<12}{cells} {_verdict(r.order_ok)}")
        lines += ["", f"worked example {PLASTIC_MATRIX}  (radius {_f(plastic['radius'])})"]
        for name, check in plastic["checks"].items():
            lines.append(
                f"  {name:<13} computed {_f(check['computed']):>9}"
                f"  published {_f(check['published'], 4):>7}  {_verdict(check['ok'])}"
            )
        lines.append(
            "  eigenvectors  right "
            + "/".join(_f(x, 4) for x in plastic["right_eigenvector"])
            + "  left "
            + "/".join(_f(x, 4) for x in plastic["left_eigenvector"])
            + f"  {_verdict(plastic['eigenvectors_ok'])}"
        )
        return lines + ["", f"overall: {_verdict(status == 0)}"]

    return Report(status, payload, csv, table)


# ---------------------------------------------------------------------------
# golden


def cmd_golden(args) -> Report:
    n_max = args.depth
    if n_max < 4:
        raise ValueError("golden report needs depth at least 4")
    M = parse_matrix(GOLDEN_MATRIX)
    series = run(M, TreeParams(2, n_max))
    golden = golden_q(max(n_max, GOLDEN_LIMIT))
    q = golden.values[: n_max + 1]
    root = golden.root()
    h = golden.entropy()
    # Big integers only up to the exact cross-check depth; every printed
    # prefix and the power bounds (n <= 10) lie inside it.
    exact_depth = min(n_max, 15)
    p = golden_counts(exact_depth)
    a_seq = golden_zero_rooted_counts(exact_depth)
    bound_checks = golden_power_bounds(a_seq[: min(n_max, 10) + 1])
    exact = run(M, TreeParams(2, exact_depth), mode="exact")
    vector_ok = all(
        sum(x) == total and x[0] == a for x, total, a in zip(exact.exact, p, a_seq, strict=True)
    )
    oracle_ok = all(
        enumerate_configs(M, 2, n).total == p[n] for n in range(4)
    )
    h_acc = series.final_h_acc()
    h2 = series.h2[-1]
    # b estimate exp(-a(n)) with a(n) = log q(n) exactly; taken from the
    # certified q, since the log-domain a(n) cancels catastrophically
    b_est = golden.reciprocal(n_max)
    # signs read from the certified intervals: past n ~ 75 the float q
    # stop moving, but the intervals stay disjoint
    alternation_ok = all(
        golden.step_sign(n) * golden.step_sign(n + 1) < 0 for n in range(3, n_max)
    )

    # each published figure is its limit from the certified map rounded at
    # the figure's own decimals, so these checks are the same at every depth
    checks = [
        ("scalar/vector exact agreement", vector_ok),
        ("oracle agreement n <= 3", oracle_ok),
        ("q alternation", alternation_ok),
        (f"h rounds to {GOLDEN_H}", _rounds_to(h, GOLDEN_H)),
        (f"c = exp(h/2) rounds to {GOLDEN_C}", _rounds_to(math.exp(h / 2), GOLDEN_C)),
        ("h2 within 0.01 of log 2", abs(h2 - math.log(2)) <= 1e-2),
        (f"b = 1/q* rounds to {GOLDEN_B}", _rounds_to(1 / root, GOLDEN_B)),
        ("A prefix 1,4,25,1681,5317636", a_seq[:5] == [1, 4, 25, 1681, 5317636]),
        ("power bounds hold", all(c.holds for c in bound_checks)),
    ]
    status = 0 if all(ok for _, ok in checks) else 1

    payload = {
        "depth": n_max,
        "p_prefix": [str(x) for x in p[: min(n_max, 8) + 1]],
        "q": q,
        "supergolden_root": root,
        "q_gap_final": abs(q[-1] - root),
        "h_acc": h_acc,
        "h2": h2,
        "b_estimate": b_est,
        "a_prefix": [str(x) for x in a_seq[:5]],
        "power_bounds": [
            {
                "n": c.level,
                "exponent": c.exponent,
                "holds": c.holds,
                "log_margin": c.log_margin,
                "precision_bits": c.precision_bits,
            }
            for c in bound_checks
        ],
        "checks": [{"check": name, "ok": ok} for name, ok in checks],
    }

    def csv() -> list[str]:
        return ["n,q,gap_to_root"] + [
            f"{n},{q[n]!r},{abs(q[n] - root)!r}" for n in range(1, n_max + 1)
        ]

    def table() -> list[str]:
        lines = [
            f"golden mean tree shift (matrix {GOLDEN_MATRIX}), depth {n_max}",
            "p(0..4) = " + ", ".join(str(x) for x in p[:5]),
            "A(0..4) = " + ", ".join(str(x) for x in a_seq[:5]),
            f"supergolden root {root:.6f}  |q({n_max}) - root| {abs(q[-1] - root):.3e}",
            f"h_acc({n_max}) {_f(h_acc)}  h2({n_max}) {_f(h2)}  b estimate {_f(b_est, 7)}",
            "",
            "n,q,gap_to_root",
        ]
        lines += [f"{n},{_f(q[n], 10)},{abs(q[n] - root):.3e}" for n in range(1, n_max + 1)]
        lines.append("")
        for c in bound_checks:
            lines.append(
                f"A({c.level}) >= gamma^{c.exponent}: {_verdict(c.holds)}"
                f"  (log margin {c.log_margin:.6f}, {c.precision_bits} bits)"
            )
        lines.append("")
        return lines + [f"check {name}: {_verdict(ok)}" for name, ok in checks]

    return Report(status, payload, csv, table)


# ---------------------------------------------------------------------------
# kary


def cmd_kary(args) -> Report:
    M = _load_matrix(args.matrix)
    ks = _parse_int_list(args.arity, "--arity")
    if any(k < 2 for k in ks):
        raise ValueError("every arity must be at least 2")
    s_max = max(M.row_sums())
    rows = []
    for k in ks:
        n = args.depth if args.depth is not None else auto_depth(k)
        series = run(M, TreeParams(k, n))
        h = series.final_h_acc()
        lo, hi = kary_bounds(s_max, k)
        rows.append(
            {
                "arity": k,
                "depth": n,
                "h_acc": h,
                "lower": lo,
                "upper": hi,
                "in_bounds": lo - 1e-9 <= h <= hi + 1e-9,
            }
        )
    monotone = all(
        rows[i]["h_acc"] < rows[i + 1]["h_acc"]
        for i in range(len(rows) - 1)
        if rows[i]["arity"] < rows[i + 1]["arity"]
    )
    status = 0 if all(r["in_bounds"] for r in rows) else 1

    payload = {
        "matrix": M.to_row_string(),
        "rows": rows,
        "monotone_increasing": monotone,
        "sandwich_ok": status == 0,
    }

    def csv() -> list[str]:
        return ["k,n,h_acc,lower,upper,in_bounds"] + [
            f"{r['arity']},{r['depth']},{_f(r['h_acc'])},{_f(r['lower'])},"
            f"{_f(r['upper'])},{str(r['in_bounds']).lower()}"
            for r in rows
        ]

    def table() -> list[str]:
        return (
            [f"arity sweep for matrix {M.to_row_string()}"]
            + csv()
            + [
                f"monotone increasing in k: {'yes' if monotone else 'no'}",
                f"sandwich verdict: {_verdict(status == 0)}",
            ]
        )

    return Report(status, payload, csv, table)


# ---------------------------------------------------------------------------
# sturmian


def _sturmian_params(args) -> SturmianParams:
    if args.alpha_cf is None:
        return SturmianParams.fibonacci()
    params = SturmianParams.from_continued_fraction(_parse_int_list(args.alpha_cf, "--alpha-cf"))
    # the slope is printed as numerator/denominator, and 0 < numerator < denominator
    if params.alpha.denominator >= 10**INT_TERM_DIGITS:
        raise ValueError(
            f"--alpha-cf gives a slope whose denominator passes the limit of {INT_TERM_DIGITS} digits"
        )
    return params


def _labels(tree: LabeledTree, fmt: str) -> str:
    """The 0/1 labels of a binary-alphabet tree as one string.

    Only JSON prints them whole; CSV prints none and the table passes
    them to `_shown`, so other formats read only the LABEL_PREFIX + 1
    that `_shown` needs to cut them the same way, which a lex tree reads
    off its word graph. One translation maps 0 and 1 to their digits and
    any other label to 0xFF, which the ASCII decoding then refuses. Its
    copy of the labels is freed before the JSON text is written, which
    sets the memory peak.
    """
    if fmt == "json":
        labels = tree.labels
    else:
        labels = tree.labels_at(range(min(LABEL_PREFIX + 1, tree.size)))
    return labels.translate(b"01" + b"\xff" * 254).decode("ascii")


def _shown(labels: str) -> str:
    """The table form of a label string, cut after LABEL_PREFIX symbols."""
    return labels if len(labels) <= LABEL_PREFIX else labels[:LABEL_PREFIX] + "..."


def cmd_sturmian(args) -> Report:
    params = _sturmian_params(args)
    depth = args.depth
    if args.blocks < 0:
        raise ValueError("--blocks must be nonnegative")
    n_blocks = min(args.blocks, depth)
    seeds = _parse_int_list(args.seed, "--seed")  # checked in lex mode too, which ignores it
    word = mechanical_word(params, WORD_PREFIX)
    common = {
        "mode": args.mode,
        "depth": depth,
        "alpha": [params.alpha.numerator, params.alpha.denominator],
        "alpha_error": float(params.alpha_error),
        "word_prefix": word,
    }
    slope_and_word = [
        f"slope {params.alpha.numerator}/{params.alpha.denominator}"
        f"  error <= {float(params.alpha_error):.3e}",
        f"word s(1..{WORD_PREFIX}) {word}",
    ]

    if args.mode == "lex":
        tree = label_tree_lex(params, depth)
        labels = _labels(tree, args.format)
        left = left_edge_word(tree)
        minimal = minimal_sequence(params, depth + 1)
        edge_ok = left == minimal
        p_tau = tree_complexity(tree, n_blocks)
        payload = {
            **common,
            "left_edge": left,
            "minimal_prefix": minimal,
            "left_edge_ok": edge_ok,
            "labels": labels,
            "p_tau": p_tau,
        }

        def csv() -> list[str]:
            return ["n,p_tau"] + [f"{n},{c}" for n, c in enumerate(p_tau)]

        def table() -> list[str]:
            return (
                [f"sturmian labeling, mode lex, depth {depth} ({tree.size} nodes)"]
                + slope_and_word
                + [
                    f"left edge = minimal sequence prefix: {_verdict(edge_ok)}  ({left})",
                    f"labels {_shown(labels)}",
                ]
                + csv()
            )

        return Report(0 if edge_ok else 1, payload, csv, table)

    check_depth(depth)
    nodes = len(seeds) * node_count(2, depth)
    if args.format == "json" and nodes > JSON_LABEL_CAP:
        raise TooLarge(
            f"a JSON report of {len(seeds)} trees of depth {depth} holds {nodes} labels, "
            f"past the cap of {JSON_LABEL_CAP}"
        )
    oracle = build_factor_oracle(params, depth)
    per_seed = []
    for seed in seeds:
        tree = label_tree_random(params, depth, seed, oracle)
        per_seed.append((seed, tree_complexity(tree, n_blocks), _labels(tree, args.format)))
    summary = [
        {"n": n, "mean": sum(values) / len(values), "min": min(values), "max": max(values)}
        for n, values in enumerate(zip(*(p_tau for _, p_tau, _ in per_seed)))
    ]
    payload = {
        **common,
        "seeds": [
            {"seed": seed, "p_tau": p_tau, "labels": labels}
            for seed, p_tau, labels in per_seed
        ],
        "summary": summary,
    }

    def csv() -> list[str]:
        return ["seed," + ",".join(f"p_tau_{n}" for n in range(n_blocks + 1))] + [
            f"{seed}," + ",".join(str(c) for c in p_tau) for seed, p_tau, _ in per_seed
        ]

    def table() -> list[str]:
        return (
            [
                f"sturmian labeling, mode random, depth {depth}, seeds "
                + ",".join(str(s) for s in seeds)
            ]
            + slope_and_word
            + csv()
            + [f"labels[{seed}] {_shown(labels)}" for seed, _, labels in per_seed]
            + ["n,mean,min,max"]
            + [f"{r['n']},{r['mean']:.2f},{r['min']},{r['max']}" for r in summary]
        )

    return Report(0, payload, csv, table)


# ---------------------------------------------------------------------------
# wiring


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared after it.

    Parsing returns a fresh Namespace and leaves the parser as it was,
    and help and usage text are formatted when printed, so they still
    wrap to the terminal width of the moment.
    """
    parser = argparse.ArgumentParser(
        prog="treeshift",
        description="Entropy of tree shifts of finite type.",
    )
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", help="write the report to a file instead of stdout")
    output.add_argument("--format", choices=("table", "csv", "json"), default="table")
    sub = parser.add_subparsers(dest="command", required=True)
    matrix_help = "row string, JSON, or @file"

    p = sub.add_parser(
        "analyze", parents=[output], help="spectral data and entropy series of one matrix"
    )
    p.add_argument("-m", "--matrix", required=True, help=matrix_help)
    p.add_argument("-k", "--arity", type=_int_option, default=2)
    p.add_argument("-n", "--depth", type=_int_option, default=15)
    p.add_argument("--exact", action="store_true", help="cross-validate with exact integers")

    p = sub.add_parser("table", parents=[output], help="computed vs published benchmark table")
    p.add_argument("-n", "--depth", type=_int_option, default=15)

    p = sub.add_parser("golden", parents=[output], help="golden mean recurrences and bounds")
    p.add_argument("-n", "--depth", type=_int_option, default=15)

    p = sub.add_parser("kary", parents=[output], help="entropy estimates across arities")
    p.add_argument("-m", "--matrix", default=GOLDEN_MATRIX, help=matrix_help)
    p.add_argument("-k", "--arity", default="2,3,4,5", help="comma-separated arities")
    p.add_argument(
        "-n", "--depth", type=_int_option, default=None, help="fixed depth (default: auto per arity)"
    )

    p = sub.add_parser(
        "sturmian", parents=[output], help="Sturmian tree labelings and their complexity"
    )
    p.add_argument("--mode", choices=("lex", "random"), default="lex")
    p.add_argument("-n", "--depth", type=_int_option, default=15)
    p.add_argument("--seed", default="0", help="comma-separated seeds (random mode)")
    p.add_argument("--alpha-cf", help="continued-fraction terms of the slope, e.g. 0,2,1,1,1")
    p.add_argument("--blocks", type=_int_option, default=6, help="largest block depth for p_tau")

    return parser


HANDLERS = {
    "analyze": cmd_analyze,
    "table": cmd_table,
    "golden": cmd_golden,
    "kary": cmd_kary,
    "sturmian": cmd_sturmian,
}


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(payload) -> str:
    """The text of `json.dumps(payload, indent=2)` and a newline.

    With `indent`, `json.dumps` runs its pure-Python encoder, a generator
    per container; this writes the same bytes into one list of chunks,
    escaping strings with the C escaper `json.dumps` uses. Dict keys must
    be str. A list of finite floats and nulls, the bulk of a series, is
    one join.
    """
    from json.encoder import encode_basestring_ascii as quote

    chunks = []
    append = chunks.append

    def write(value, indent: str) -> None:
        if isinstance(value, str):
            append(quote(value))
        elif value is None:
            append("null")
        elif value is True:
            append("true")
        elif value is False:
            append("false")
        elif isinstance(value, int):
            append(int.__repr__(value))
        elif isinstance(value, float):
            text = float.__repr__(value)
            append(_NON_FINITE.get(text, text))
        elif not isinstance(value, (list, tuple, dict)):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        elif not value:
            append("{}" if isinstance(value, dict) else "[]")
        elif isinstance(value, dict):
            opening, inner = "{", indent + "  "
            for key, item in value.items():
                append(opening + inner + quote(key) + ": ")
                write(item, inner)
                opening = ","
            append(indent + "}")
        elif (texts := _float_texts(value)) is not None:
            inner = indent + "  "
            append("[" + inner + ("," + inner).join(texts) + indent + "]")
        else:
            opening, inner = "[", indent + "  "
            for item in value:
                append(opening + inner)
                write(item, inner)
                opening = ","
            append(indent + "]")

    write(payload, "\n")
    append("\n")
    return "".join(chunks)


def _float_texts(items: list) -> list[str] | None:
    """The JSON texts of a list of finite floats and nulls, or None for a
    list that holds anything else."""
    try:
        texts = ["null" if x is None else float.__repr__(x) for x in items]
    except TypeError:  # an item other than a float or None
        return None
    return texts if _NON_FINITE.keys().isdisjoint(texts) else None


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        report = HANDLERS[args.command](args)
        if args.format == "json":
            text = _json_text(report.json)
        else:
            text = "\n".join(getattr(report, args.format)()) + "\n"
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text)
    except (NoConvergence, PrecisionExhausted, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.out:
        sys.stdout.write(text)
    return report.status


if __name__ == "__main__":
    sys.exit(main())
