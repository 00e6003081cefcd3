"""Spans around treeshift's public functions, installed from outside.

The package is not edited: `Tracer.install` replaces every public
function of the seven modules with a timing wrapper at every place the
function object is bound, which covers `from ... import` names in other
modules and handler tables such as `cli.HANDLERS`, then `uninstall`
puts the originals back. A span is [name, start, end, parent, job,
error]; spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "treeshift"
LAYERS = ("cli", "matrix", "spectral", "recurrence", "oracle", "sturmian", "reference")


def _node_count(k: int, depth: int) -> int:
    return (k ** (depth + 1) - 1) // (k - 1)


# Counters read from arguments and return values, after the span closes.


def _run(tracer, span, args, kwargs, result):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "logdomain")
    span[0] = f"recurrence.run:{mode}"
    if result.exact is not None:
        _bits(tracer, [x for row in result.exact for x in row])


def _bits(tracer, values):
    top = max((x.bit_length() for x in values if x is not None), default=0)
    c = tracer.counters
    c["recurrence.exact_bits"] = max(c["recurrence.exact_bits"], top)


def _golden(tracer, span, args, kwargs, result):
    _bits(tracer, result)


def _power_bounds(tracer, span, args, kwargs, result):
    tracer.counters["recurrence.power_bound_bits"] += sum(c.precision_bits for c in result)


def _census(tracer, span, args, kwargs, result):
    tree, n = args[0], args[1]
    windows = _node_count(tree.arity, tree.depth - n)
    c = tracer.counters
    c["oracle.census_windows"] += windows
    c["oracle.census_bytes"] += windows * _node_count(tree.arity, n)
    c["oracle.distinct_blocks"] += result.count


def _label(tracer, span, args, kwargs, result):
    tracer.counters["sturmian.nodes_labeled"] += len(result.labels)


HOOKS = {
    "recurrence.run": _run,
    "recurrence.golden_counts": _golden,
    "recurrence.golden_zero_rooted_counts": _golden,
    "recurrence.golden_power_bounds": _power_bounds,
    "oracle.blocks_in_tree": _census,
    "sturmian.label_tree_lex": _label,
    "sturmian.label_tree_random": _label,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.job = -1
        self._stack: list[int] = []
        self._patched: list[tuple[dict, str, object]] = []

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, span, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for table in [vars(module)] + [v for v in vars(module).values() if isinstance(v, dict)]:
                for key, value in list(table.items()):
                    if inspect.isfunction(value) and value in wrappers:
                        self._patched.append((table, key, value))
                        table[key] = wrappers[value]

    def uninstall(self) -> None:
        for table, key, original in reversed(self._patched):
            table[key] = original
        self._patched.clear()


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def _total(spans, names) -> float:
    return sum(s[2] - s[1] for s in spans if s[0] in names)


def _calls(spans, names) -> int:
    return sum(1 for s in spans if s[0] in names)


LABELERS = ("sturmian.label_tree_lex", "sturmian.label_tree_random")


def layer_metrics(spans, counters, wall: float) -> dict[str, float]:
    """Per-layer figures of one traced pass (times in s).

    `<layer>.self_s` sums span self times per module; `untraced_s` is
    the rest of the pass wall time, spent in the harness between and
    around jobs, so the self times plus it add up to the traced wall.
    The other `_s` figures are inclusive times of the named functions.
    """
    own = self_times(spans)
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s, t in zip(spans, own):
        out[s[0].split(".")[0] + ".self_s"] += t
    out["untraced_s"] = wall - sum(s[2] - s[1] for s in spans if s[3] < 0)
    factor_in_label = sum(
        s[2] - s[1] for s in spans
        if s[0] == "sturmian.build_factor_oracle" and s[3] >= 0 and spans[s[3]][0] in LABELERS
    )
    out.update({
        "matrix.parse_s": _total(spans, {"matrix.parse_matrix"}),
        "matrix.calls": _calls(spans, {"matrix.parse_matrix"}),
        "spectral.analyze_s": _total(spans, {"spectral.analyze_matrix"}),
        "spectral.calls": _calls(spans, {"spectral.analyze_matrix"}),
        "spectral.no_convergence": sum(
            1 for s in spans if s[0] == "spectral.analyze_matrix" and s[5] == "NoConvergence"),
        "recurrence.run_log_s": _total(spans, {"recurrence.run:logdomain"}),
        "recurrence.run_exact_s": _total(spans, {"recurrence.run:exact"}),
        "recurrence.golden_s": _total(spans, {
            "recurrence.golden_counts", "recurrence.golden_zero_rooted_counts",
            "recurrence.golden_ratios"}),
        "recurrence.power_bounds_s": _total(spans, {"recurrence.golden_power_bounds"}),
        "oracle.census_s": _total(spans, {"oracle.blocks_in_tree"}),
        "oracle.census_calls": _calls(spans, {"oracle.blocks_in_tree"}),
        "oracle.enumerate_s": _total(spans, {"oracle.enumerate_configs"}),
        "sturmian.label_s": _total(spans, set(LABELERS)) - factor_in_label,
        "sturmian.factor_oracle_s": _total(spans, {"sturmian.build_factor_oracle"}),
        "reference.table_s": _total(spans, {
            "reference.compute_reference_table", "reference.plastic_report"}),
    })
    for name in ("recurrence.exact_bits", "recurrence.power_bound_bits",
                 "oracle.census_windows", "oracle.census_bytes",
                 "oracle.distinct_blocks", "sturmian.nodes_labeled"):
        out[name] = counters.get(name, 0)
    windows = out["oracle.census_windows"]
    out["oracle.sharing"] = out["oracle.distinct_blocks"] / windows if windows else 0.0
    return out
