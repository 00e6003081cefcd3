"""Level recurrence, entropy series, and golden mean specials."""

import json
import math
import time
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import exceeds_golden_power, fib_lucas, golden_limits, golden_ratios, max_scale_exponent, valid_matrices
from treeshift import cli, recurrence
from treeshift.matrix import TransitionMatrix, parse_matrix
from treeshift.oracle import TooLarge, exact_level
from treeshift.recurrence import (
    GOLDEN_LIMIT,
    GoldenQ,
    LogOverflow,
    TreeParams,
    UncertifiedFloat,
    _certified,
    _exact_level,
    _max_scale_exponent,
    accelerated_entropy,
    auto_depth,
    golden_counts,
    golden_power_bounds,
    golden_q,
    golden_zero_rooted_counts,
    kary_bounds,
    level_entropy,
    log_deviation,
    run,
)
from treeshift.reference import REFERENCE_ROWS
from treeshift.spectral import analyze_matrix

GOLDEN = parse_matrix("11,10")
OSCILLATING = parse_matrix("0100,0010,0101,1000")


# ---------------------------------------------------------------------------
# parameters and modes


def test_params_validation():
    with pytest.raises(ValueError):
        TreeParams(arity=1)
    with pytest.raises(ValueError):
        TreeParams(n_max=-1)
    assert TreeParams(2, 3).node_count(3) == 15
    assert TreeParams(3, 3).node_count(2) == 13
    with pytest.raises(ValueError, match="unknown mode"):
        run(GOLDEN, mode="symbolic")


def test_params_depth_limit_keeps_scale_finite():
    # the entropy scale k^(n+1) is a float at the deepest accepted level
    # and overflows one level deeper
    for k, deepest in ((2, 1022), (3, 645), (5, 440)):
        TreeParams(k, deepest)
        float(k ** (deepest + 1))
        with pytest.raises(OverflowError):
            float(k ** (deepest + 2))
        with pytest.raises(ValueError, match=f"n \\+ 1 <= {deepest + 1}"):
            TreeParams(k, deepest + 1)
    series = run(GOLDEN, TreeParams(2, 1022))
    assert abs(series.h[-1] - series.h[-2]) < 1e-12


def test_max_scale_exponent_matches_trial_conversion():
    assert [_max_scale_exponent(k) for k in (2, 3, 5)] == [1023, 646, 441]
    for k in range(2, 301):
        assert _max_scale_exponent(k) == max_scale_exponent(k), k


def test_log_domain_overflow_names_the_first_level():
    # 8 symbols, all transitions: log p(n) = (2^(n+1) - 1) log 8, inf at n = 1022
    ones = parse_matrix(",".join(["11111111"] * 8))
    series = run(ones, TreeParams(2, 1021))
    assert math.isfinite(series.p_log[-1])
    with pytest.raises(LogOverflow, match=r"log p\(1022\)"):
        run(ones, TreeParams(2, 1022))


def test_exact_overflow_raises_the_log_domain_error():
    # the exact run's certified logs overflow at the same level, with the
    # same error, as the log-domain run's
    ones = parse_matrix(",".join(["11111111"] * 8))
    assert math.isfinite(run(ones, TreeParams(2, 1021), mode="exact").p_log[-1])
    messages = []
    for mode in ("logdomain", "exact"):
        with pytest.raises(LogOverflow) as info:
            run(ones, TreeParams(2, 1022), mode=mode)
        messages.append(str(info.value))
    assert messages[0] == messages[1] == "log p(1022) overflows a float; use a depth below 1022"


def test_run_start_level_and_modes():
    three = parse_matrix("011,111,101")
    assert run(three, TreeParams(2, 0)).mode == "logdomain"
    exact = run(three, TreeParams(2, 0), mode="exact")
    assert exact.mode == "exact"
    assert exact.exact == [(1, 1, 1)]
    assert exact.symbol_logs == [(0.0, 0.0, 0.0)]
    assert exact.p_log == [math.log(3)]
    assert exact.a == exact.h_acc == exact.h2 == [None]


def test_log_domain_sums_are_left_to_right_on_every_python():
    # the builtin sum compensates its rounding from Python 3.12 on, which
    # moved log p(3) of this matrix by one ulp; these are the bits of a
    # plain left-to-right sum
    p_log = run(parse_matrix("001,110,100")).p_log[:6]
    assert p_log == [
        1.0986122886681098,
        1.791759469228055,
        3.295836866004329,
        6.519147287940395,
        13.035346909492647,
        26.07068945533148,
    ]


def test_run_reads_the_successor_table_once():
    calls = []

    def successor_table():
        calls.append(1)
        return GOLDEN.successor_table()

    stub = SimpleNamespace(d=GOLDEN.d, successor_table=successor_table)
    for mode in ("exact", "logdomain"):
        calls.clear()
        series = run(stub, TreeParams(2, 8), mode=mode)
        assert len(calls) == 1, mode
        assert series.p_log == run(GOLDEN, TreeParams(2, 8), mode=mode).p_log


# ---------------------------------------------------------------------------
# series over full runs


def test_exact_golden_run_matches_closed_recurrences():
    series = run(GOLDEN, TreeParams(2, 12), mode="exact")
    totals = [sum(row) for row in series.exact]
    assert totals == golden_counts(12)
    assert [row[0] for row in series.exact] == golden_zero_rooted_counts(12)


def test_exact_golden_levels():
    series = run(GOLDEN, TreeParams(2, 3), mode="exact")
    assert series.exact == [(1, 1), (4, 1), (25, 16), (1681, 625)]


def test_logdomain_levels_match_exact_logs():
    exact = run(GOLDEN, TreeParams(2, 6), mode="exact")
    approx = run(GOLDEN, TreeParams(2, 6))
    for n in range(7):
        truth = tuple(math.log(v) for v in exact.exact[n])
        assert exact.symbol_logs[n] == truth
        for t, y in zip(truth, approx.symbol_logs[n]):
            assert abs(t - y) < 1e-10, n


def test_log_deviation_small_for_level_twelve():
    for text in ["11,10", "011,111,101"]:
        m = parse_matrix(text)
        exact = run(m, TreeParams(2, 12), mode="exact")
        approx = run(m, TreeParams(2, 12))
        assert log_deviation(exact, approx) < 1e-9


def test_log_deviation_requires_exact_first():
    approx = run(GOLDEN, TreeParams(2, 3))
    with pytest.raises(ValueError):
        log_deviation(approx, approx)


def test_oscillating_exact_levels_and_period_identities():
    series = run(OSCILLATING, TreeParams(2, 13), mode="exact")
    assert series.exact[1] == (1, 1, 4, 1)
    assert series.exact[2] == (1, 16, 4, 1)
    assert series.exact[3] == (256, 16, 289, 1)
    for n in range(1, 7):
        even, odd = series.exact[2 * n], series.exact[2 * n - 1]
        assert (even[0], even[2]) == (odd[0], odd[2])
        prev = series.exact[2 * n - 2]
        assert (odd[1], odd[3]) == (prev[1], prev[3])


def test_exact_mode_available_to_level_sixteen():
    series = run(GOLDEN, TreeParams(2, 16), mode="exact")
    assert series.n_max == 16
    assert series.exact[16][1] == series.exact[15][0] ** 2


# ---------------------------------------------------------------------------
# exact levels: logs certified from brackets, integers on demand


@st.composite
def exact_runs(draw, arities=(2, 3)):
    d = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=d, max_size=d), min_size=d, max_size=d))
    for i in range(d):  # every symbol needs a successor and a predecessor
        if not any(rows[i]):
            rows[i][draw(st.integers(0, d - 1))] = 1
    for j in range(d):
        if not any(row[j] for row in rows):
            rows[draw(st.integers(0, d - 1))][j] = 1
    k = draw(st.sampled_from(arities))
    n = draw(st.integers(0, {2: 12, 3: 8, 4: 6}[k]))
    return parse_matrix(",".join("".join(map(str, row)) for row in rows)), TreeParams(k, n)


@settings(max_examples=60, deadline=None)
@given(exact_runs())
def test_deepest_exact_logs_equal_math_log(case):
    M, params = case
    series = run(M, params, mode="exact")
    deepest = series.exact[-1]
    assert series.symbol_logs[-1] == tuple(math.log(v) for v in deepest)
    assert series.p_log[-1] == math.log(sum(deepest))


@settings(max_examples=60, deadline=None)
@given(exact_runs())
def test_exact_series_estimates_match_the_log_domain_ones(case):
    M, params = case
    exact, approx = run(M, params, mode="exact"), run(M, params)
    for name in ("h", "a", "h_acc", "h2"):
        ours, theirs = getattr(exact, name), getattr(approx, name)
        assert [v is None for v in ours] == [v is None for v in theirs], name
        for n, (x, y) in enumerate(zip(ours, theirs)):
            assert x is None or math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-9), (name, n)


def test_uncertified_total_falls_back_to_the_full_power(monkeypatch):
    # (2^200)^2 + 2 (2^173)^2 = 2^400 + 2^347 lies exactly half an ulp
    # above 2^400: the lower end of the total's bracket is that tie, which
    # rounds down to even, and the upper end lies above it and rounds up
    sums = (2**200, 2**173, 2**173)
    total = sum(s**2 for s in sums)
    assert total == 2**400 + 2**347
    sh = 201 - 128
    calls = []
    build = recurrence.exact_level

    def counting_level(*args):
        calls.append(1)
        return build(*args)

    monkeypatch.setattr(recurrence, "exact_level", counting_level)
    # each symbol's one successor is the bracket around its sum, so the
    # level sums are those brackets unchanged; levels[1] stands for the
    # level they sum, from which the fallback builds the squares
    below = ([s >> sh for s in sums], [(s >> sh) + 1 for s in sums], [sh] * 3)
    levels = [(1,) * 3, sums]
    (lo, hi, e), logs, p_log = _exact_level(below, ((0,), (1,), (2,)), 2, recurrence.CERTIFY_BITS, levels, 2)
    assert lo[3] << e[3] == total < hi[3] << e[3]
    assert float(lo[3]) != float(hi[3])
    assert calls == [1]
    assert p_log == math.log(total)
    assert logs == tuple(math.log(s**2) for s in sums)
    assert levels[2] == tuple(s**2 for s in sums)


def _recording_level(carried):
    """A stand-in for `_exact_level` that keeps (bits, brackets) of each level."""
    step = recurrence._exact_level

    def recording_step(x, succ, k, bits, levels, n):
        x, logs, p_log = step(x, succ, k, bits, levels, n)
        carried.append((bits, x))
        return x, logs, p_log

    return recording_step


def _held_ints(value):
    if isinstance(value, int) and not isinstance(value, bool):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _held_ints(item)


def test_deepest_exact_level_is_built_on_first_read():
    series = run(GOLDEN, TreeParams(2, 14), mode="exact")
    deepest = golden_counts(14)[14]
    held = max(v.bit_length() for v in _held_ints(list(vars(series).values())))
    assert held < deepest.bit_length() // 2 + 2  # level 13 at most, not level 14
    assert series.p_log[14] == math.log(deepest)
    levels = series.exact
    assert sum(levels[14]) == deepest
    assert series.exact is levels and series.exact[14] is levels[14]  # built once
    assert series.symbol_logs[14] == tuple(math.log(v) for v in levels[14])


@settings(max_examples=60, deadline=None)
@given(exact_runs())
def test_every_exact_level_logs_equal_math_log(case):
    M, params = case
    series = run(M, params, mode="exact")
    for n, level in enumerate(series.exact):
        assert series.symbol_logs[n] == tuple(math.log(v) for v in level), n
        assert series.p_log[n] == math.log(sum(level)), n


@pytest.mark.parametrize("bits", [8, 40])
def test_narrow_brackets_fall_back_to_exact_logs(monkeypatch, bits):
    # few kept bits widen the brackets until their ends round apart, so
    # the fallback builds integer levels during the run
    monkeypatch.setattr(recurrence, "CERTIFY_BITS", bits)
    carried = []
    monkeypatch.setattr(recurrence, "_exact_level", _recording_level(carried))
    for M, params in ((OSCILLATING, TreeParams(2, 16)), (parse_matrix("011,111,101"), TreeParams(3, 9))):
        carried.clear()
        series = run(M, params, mode="exact")
        assert len(series._levels) > 1  # a fallback built integers before `exact` was read
        levels = series.exact
        for n, level in enumerate(levels):
            assert series.symbol_logs[n] == tuple(math.log(v) for v in level), n
            assert series.p_log[n] == math.log(sum(level)), n
        assert len(carried) == params.n_max  # one recorded bracket set per level
        for n, (_, (lo, hi, ex)) in enumerate(carried, start=1):
            for v, a, b, e in zip((*levels[n], sum(levels[n])), lo, hi, ex, strict=True):
                assert a << e <= v <= b << e, (n, v)


@settings(max_examples=60, deadline=None)
@given(exact_runs((2, 3, 4)))
def test_brackets_hold_every_count_within_their_bit_width(case):
    # each end of x_i(n) keeps at most `bits` bits, and those of p(n) at
    # most ceil(log2 d) more, the carry of summing d terms
    M, params = case
    k, succ = params.arity, M.successor_table()
    carried = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recurrence, "_exact_level", _recording_level(carried))
        run(M, params, mode="exact")
    assert len(carried) == params.n_max
    levels = [(1,) * M.d]
    for n, (bits, (lo, hi, ex)) in enumerate(carried, start=1):
        assert bits == recurrence.CERTIFY_BITS + (params.n_max + 1) * (k - 1).bit_length()
        level = exact_level(succ, k, levels, n)
        for i, v in enumerate((*level, sum(level))):
            assert lo[i] << ex[i] <= v <= hi[i] << ex[i], (n, i)
            width = bits + (M.d - 1).bit_length() if i == M.d else bits
            assert 0 < lo[i] <= hi[i] < 2**width, (n, i)


def test_certificate_never_falls_back_on_small_and_bigint_matrices(monkeypatch):
    # the default brackets decide every log of these runs, so no integer
    # level is built before `exact` is read
    calls = []
    build = recurrence.exact_level

    def counting_level(succ, k, levels, n):
        calls.append((succ, k, n))
        return build(succ, k, levels, n)

    monkeypatch.setattr(recurrence, "exact_level", counting_level)
    small = [TransitionMatrix.from_rows(rows) for d in (1, 2, 3) for rows in valid_matrices(d)]
    assert len(small) == 273
    for k, n in ((2, 20), (2, 60), (3, 12), (4, 8)):
        for M in small:
            run(M, TreeParams(k, n), mode="exact")
    for rows in ("011,111,101", "111,110,100", "1011,1100,1101,0010"):  # heavy's bigint bases
        run(parse_matrix(rows), TreeParams(2, 20), mode="exact")
    assert calls == []


def test_exact_run_holds_only_certificate_sized_integers():
    k = 2
    series = run(parse_matrix("011,111,101"), TreeParams(k, 20), mode="exact")
    held = max(v.bit_length() for v in _held_ints(list(vars(series).values())))
    assert held <= k * (recurrence.CERTIFY_BITS + 1)
    assert max(v.bit_length() for v in series.exact[20]) > 10**6


def test_bracket_size_does_not_grow_with_the_arity(monkeypatch):
    # squaring with every product cut keeps each end near `bits` bits,
    # where a plain k-th power of a cut sum has about k times as many
    carried = []
    monkeypatch.setattr(recurrence, "_exact_level", _recording_level(carried))
    series = run(parse_matrix("011,111,101"), TreeParams(1000, 2), mode="exact")
    widths = [(bits, max(b.bit_length() for b in (*lo, *hi))) for bits, (lo, hi, _) in carried]
    assert len(widths) == 2
    assert all(width <= 2 * bits for bits, width in widths), widths
    for n, level in enumerate(series.exact):
        assert series.symbol_logs[n] == tuple(math.log(v) for v in level), n
        assert series.p_log[n] == math.log(sum(level)), n


@pytest.mark.parametrize("k, n", [(2, 40), (2, 80), (3, 13)])
def test_exact_integers_past_the_node_budget_are_refused(k, n):
    # the logs are certified at any depth; the integers are built only up
    # to the node count of the binary depth-20 tree
    start = time.perf_counter()
    series = run(GOLDEN, TreeParams(k, n), mode="exact")
    assert len(series._levels) == 1  # no level fell back
    with pytest.raises(TooLarge, match=f"exact level {n} at arity {k} has more than 2097151 nodes"):
        series.exact
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# scaling conventions


def test_level_entropy_convention_by_arity():
    # power scaling k^(n+1) for arity 2, node-count scaling above
    assert level_entropy(10.0, 3, 2) == 10.0 * (2 - 1) / 2**4
    assert level_entropy(10.0, 3, 3) == 10.0 * (3 - 1) / (3**4 - 1)
    assert level_entropy(10.0, 3, 5) == 10.0 * (5 - 1) / (5**4 - 1)


def test_plain_estimate_on_full_shifts():
    # log p(n) is log d times the node count (k^(n+1)-1)/(k-1): the
    # node-count scaling of arity k >= 3 returns log d at every level,
    # the power scaling of arity 2 falls short by log d / 2^(n+1)
    for d in (2, 3):
        m = parse_matrix(json.dumps([[1] * d] * d))
        for k in (2, 3, 4):
            series = run(m, TreeParams(k, 6))
            for n in range(7):
                expect = math.log(d) * (1.0 - 2.0 ** -(n + 1) if k == 2 else 1.0)
                assert abs(series.h[n] - expect) < 1e-12, (d, k, n)


def test_accelerated_estimate_exact_on_full_shifts():
    for d in (2, 3):
        m = parse_matrix(json.dumps([[1] * d] * d))
        for k in (2, 3, 4, 5):
            series = run(m, TreeParams(k, 6))
            for n in range(1, 7):
                assert abs(series.h_acc[n] - math.log(d)) < 1e-12, (d, k, n)


def test_spread_contracts_for_primitive_matrices():
    for row in REFERENCE_ROWS:
        m = row.parse()
        if not analyze_matrix(m).primitive:
            continue
        series = run(m, TreeParams(2, 15))
        spread = [max(norm) - min(norm) for norm in map(series.normalized_symbol_logs, (5, 15))]
        assert spread[1] <= spread[0] + 1e-12, row.name


def test_accelerated_series_settles_no_slower_than_plain():
    # the raw h(n) of the two reducible rows hits its float plateau while
    # h_acc is still moving at the 1e-7 scale, hence the noise floor there
    for row in REFERENCE_ROWS:
        m = row.parse()
        floor = 0.0 if analyze_matrix(m).irreducible else 1e-6
        series = run(m, TreeParams(2, 15))
        for n in range(8, 16):
            lhs = abs(series.h_acc[n] - series.h_acc[n - 1])
            rhs = abs(series.h[n] - series.h[n - 1])
            assert lhs <= rhs + floor, (row.name, n)


def test_h2_undefined_when_log_count_vanishes():
    m = parse_matrix("[[1]]")
    series = run(m, TreeParams(2, 5))
    assert all(v is None for v in series.h2)
    assert all(v == 0.0 for v in series.p_log)


# ---------------------------------------------------------------------------
# k-ary helpers


def test_kary_bounds_values_and_errors():
    lo, hi = kary_bounds(2, 2)
    assert abs(lo - math.log(2) / 2) < 1e-15
    assert abs(hi - math.log(2)) < 1e-15
    assert kary_bounds(1, 4) == (0.0, 0.0)
    with pytest.raises(ValueError):
        kary_bounds(0, 2)
    with pytest.raises(ValueError):
        kary_bounds(2, 1)


def test_auto_depth_targets():
    assert auto_depth(2) == 13
    assert auto_depth(3) == 9
    assert auto_depth(4) == 7
    assert auto_depth(5) == 6


# ---------------------------------------------------------------------------
# golden mean specials


def test_golden_count_sequences():
    assert golden_counts(4) == [2, 5, 41, 2306, 8143397]
    assert golden_zero_rooted_counts(4) == [1, 4, 25, 1681, 5317636]
    with pytest.raises(ValueError):
        golden_counts(0)
    with pytest.raises(ValueError):
        golden_zero_rooted_counts(0)


def test_golden_ratio_sequence():
    p = golden_counts(15)
    q = golden_ratios(p)
    assert q[0] is None
    assert q[1] == 1.25
    assert q[2] == 41 / 25
    assert abs(q[3] - 2306 / 1681) < 1e-15
    root = golden_q(GOLDEN_LIMIT).root()
    for n in range(2, 15):
        assert (q[n] - q[n - 1]) * (q[n + 1] - q[n]) < 0.0
    assert abs(q[15] - root) < abs(q[5] - root)


def test_golden_q_matches_big_integer_ratios():
    assert golden_q(18).values == golden_ratios(golden_counts(18))


def test_golden_q_intervals_contain_exact_ratios():
    p = golden_counts(12)
    q = golden_q(12)
    assert q.bits == 256 + 12
    scale = 1 << q.bits
    for n in range(1, 13):
        exact = Fraction(p[n], p[n - 1] ** 2)
        assert Fraction(q.lo[n], scale) <= exact <= Fraction(q.hi[n], scale), n


def test_golden_q_reciprocal_rounds_correctly():
    p = golden_counts(15)
    q = golden_q(15)
    for n in range(1, 16):
        assert q.reciprocal(n) == float(Fraction(p[n - 1] ** 2, p[n])), n


def test_golden_q_refuses_an_uncertified_float():
    # the two ends of an interval that straddles two floats round apart
    assert _certified(1.64, 1.64, "q(2)") == 1.64
    with pytest.raises(UncertifiedFloat, match=r"^q\(2\) is not certified to one float$"):
        _certified(1.64, math.nextafter(1.64, 2.0), "q(2)")
    with pytest.raises(ValueError):
        golden_q(0)


def test_golden_q_step_sign_is_zero_on_overlapping_intervals():
    q = GoldenQ(0, [None, 1, 3, 2], [None, 2, 4, 3], [None, None, None, None])
    assert (q.step_sign(2), q.step_sign(3)) == (1, 0)


def test_supergolden_root_residual():
    # correctly rounded: x^3 - x^2 - 1 changes sign between the midpoints
    # to the neighbouring floats
    x = golden_q(GOLDEN_LIMIT).root()
    below = (Fraction(math.nextafter(x, 0)) + Fraction(x)) / 2
    above = (Fraction(x) + Fraction(math.nextafter(x, 2))) / 2
    assert below**3 - below**2 - 1 < 0 < above**3 - above**2 - 1
    assert x == 1.465571231876768


def test_golden_limits_match_an_mpmath_oracle():
    golden = golden_q(GOLDEN_LIMIT)
    h, root = golden.entropy(), golden.root()
    assert h == 0.5088988068894924
    want_h, want_q = golden_limits()
    with mpmath.workdps(60):
        assert abs(mpmath.mpf(h) - want_h) <= math.ulp(h)
        assert abs(mpmath.mpf(root) - want_q) <= math.ulp(root)
        pairs = [(h, want_h), (math.exp(h / 2), mpmath.exp(want_h / 2)), (1 / root, 1 / want_q)]
    # the published figures, and one unit off in the last place
    for (x, want), figure, off in zip(pairs, ("0.509", "1.28975", "0.6823278"), ("0.508", "1.28976", "0.6823279")):
        for text, expected in ((figure, True), (off, False)):
            assert cli._rounds_to(x, text) is expected, text
            assert (Decimal(mpmath.nstr(want, 50)).quantize(Decimal(text)) == Decimal(text)) is expected, text


def test_golden_limits_read_levels_up_to_the_limit_only():
    # a longer map gives the same limits bit for bit
    short, long = golden_q(GOLDEN_LIMIT), golden_q(3 * GOLDEN_LIMIT)
    assert (long.entropy(), long.root()) == (short.entropy(), short.root())
    assert long.values[: GOLDEN_LIMIT + 1] == short.values


def test_golden_power_bounds_verified_exactly():
    a = golden_zero_rooted_counts(10)
    checks = golden_power_bounds(a)
    assert [c.level for c in checks] == list(range(4, 11))
    margins = [c.log_margin for c in checks]
    for c in checks:
        assert c.exponent == 2 ** (c.level + 1) - 1
        assert c.precision_bits >= 2 ** (c.level + 1)
        assert c.holds
        # independent integer-only confirmation via Fibonacci/Lucas pairs
        assert exceeds_golden_power(a[c.level], c.exponent) == c.holds
        assert c.log_margin > 0.0
        # independent margin from mpmath at four times the working bits
        with mpmath.workprec(4 * c.precision_bits):
            gamma = (1 + mpmath.sqrt(5)) / 2
            expected = float(mpmath.log(a[c.level]) - c.exponent * mpmath.log(gamma))
        assert c.log_margin == expected, c.level
    assert margins == sorted(margins)


@pytest.mark.parametrize("n", range(4, 11))
def test_golden_power_bounds_exact_at_the_boundary(n):
    # E is odd, so gamma^E = L_E + gamma^(-E): L_E falls short of the
    # power by a share of about gamma^(-2E), which from n = 7 on is below
    # 2^-precision_bits, and L_E + 1 exceeds it
    exponent = 2 ** (n + 1) - 1
    _, lucas = fib_lucas(exponent)
    for value in (lucas, lucas + 1):
        check = golden_power_bounds([1, 4, 25, 1681] + [1] * (n - 4) + [value])[-1]
        assert check.holds == exceeds_golden_power(value, exponent), value - lucas
        # the true margin can lie below 1e-49, so 0.0 is allowed on either side
        if check.holds:
            assert check.log_margin >= 0.0
        else:
            assert check.log_margin <= 0.0


# ---------------------------------------------------------------------------
# serialization


def test_csv_shape_and_values(capsys):
    assert cli.main(["analyze", "-m", "11,10", "-n", "4", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "n,p_log,h_n,a_n,h_acc,h2_n,log_x_1,log_x_2"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[3] == ""  # a(0) undefined
    row4 = lines[5].split(",")
    assert abs(float(row4[1]) - math.log(golden_counts(4)[4])) < 1e-9


def test_series_accessors():
    series = run(GOLDEN, TreeParams(2, 8))
    assert series.h[-1] == series.h[8]
    assert series.final_h_acc() == series.h_acc[8]
    norm = series.normalized_symbol_logs(8)
    assert len(norm) == 2
