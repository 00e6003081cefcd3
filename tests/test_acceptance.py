"""Acceptance gate: the package's pinned numeric targets, one test each.

Every test ends in a single printed verdict line, and all twelve pass.
Two criteria were restated from targets that the exact mathematics
cannot reach:

- criterion 3: |q(12) - q*| = 1.68e-3, and the q sequence contracts by
  about x0.635 per level, so the 1e-4 tolerance is checked at n = 19;
- criterion 11: a non-right-special node has two identical subtrees, so
  the lex leaf row is not globally sorted; the distinct leaf words in
  first-occurrence order and the sibling split rule are checked instead.
"""

import math
import time
from fractions import Fraction

from oracles import golden_ratios
from treeshift.matrix import parse_matrix
from treeshift.oracle import (
    check_subadditivity,
    enumerate_configs,
    verify_phi_identity,
)
from treeshift.recurrence import (
    GOLDEN_LIMIT,
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
from treeshift.reference import (
    REFERENCE_ROWS,
    SFT_TOL,
    TREE_TOL,
    UPPER_TOL,
    compute_reference_table,
    plastic_report,
)
from treeshift.spectral import analyze_matrix, certified_radius_lower, upper_bound
from treeshift.sturmian import (
    SturmianParams,
    build_factor_oracle,
    label_tree_lex,
    label_tree_random,
    path_words,
)

GOLDEN = parse_matrix("11,10")
OSCILLATING = parse_matrix("0100,0010,0101,1000")


def test_criterion_01_golden_exact_counts():
    t0 = time.perf_counter()
    scalar = golden_counts(3)
    series = run(GOLDEN, TreeParams(2, 3), mode="exact")
    vector = [sum(level) for level in series.exact]
    oracle = [enumerate_configs(GOLDEN, depth=n).total for n in range(4)]
    elapsed = time.perf_counter() - t0
    assert scalar == [2, 5, 41, 2306]
    assert vector == scalar
    assert oracle == scalar
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(
        "criterion 1: PASS  p(0..3) = 2, 5, 41, 2306 exactly, by scalar recurrence, "
        f"vector recurrence and brute-force oracle ({elapsed:.2f}s)"
    )


def test_criterion_02_golden_entropy():
    t0 = time.perf_counter()
    series = run(GOLDEN, TreeParams(2, 15))
    elapsed = time.perf_counter() - t0
    h_acc = series.h_acc[15]
    h2 = series.h2[15]
    assert abs(h_acc - 0.509) <= 1e-3, f"h_acc(15) = {h_acc:.6f}"
    assert abs(h_acc - 2.0 * math.log(1.28975)) <= 5e-4, f"h_acc(15) = {h_acc:.6f}"
    assert abs(h2 - math.log(2.0)) <= 1e-2, f"h2(15) = {h2:.6f}"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(
        f"criterion 2: PASS  h_acc(15) = {h_acc:.6f} (0.509 +/- 0.001, "
        f"2 log 1.28975 +/- 0.0005), h2(15) = {h2:.6f} -> log 2 +/- 0.01 ({elapsed:.2f}s)"
    )


def test_criterion_03_q_ratio():
    q = golden_ratios(golden_counts(19))
    for n in range(3, 15):
        assert (q[n] - q[n - 1]) * (q[n + 1] - q[n]) < 0.0, f"no sign flip at n = {n}"
    print("criterion 3: sign of q(n) - q(n-1) alternates for 3 <= n <= 15")
    root = golden_q(GOLDEN_LIMIT).root()
    rate = -2.0 / root**3
    for n in range(12, 19):
        ratio = (q[n + 1] - root) / (q[n] - root)
        assert abs(ratio - rate) <= 2e-3, (
            f"criterion 3: FAIL  (q({n + 1}) - q*)/(q({n}) - q*) = {ratio:.5f}, "
            f"not within 2e-3 of the contraction rate -2/q*^3 = {rate:.5f}"
        )
    gap = abs(q[19] - 1.46557)
    assert gap <= 1e-4, (
        f"criterion 3: FAIL  |q(19) - 1.46557| = {gap:.3e} > 1e-4; the exact q "
        f"sequence contracts by about x{-rate:.3f} (2/q*^3) per level and first "
        "comes within 1e-4 of the limit at n = 19"
    )
    print(
        "criterion 3: PASS  alternation holds, (q(n+1) - q*)/(q(n) - q*) is within "
        f"2e-3 of -2/q*^3 = {rate:.4f} for 12 <= n <= 18, and q(19) is within 1e-4 "
        "of 1.46557"
    )


def test_criterion_04_a_sequence_and_power_bounds():
    t0 = time.perf_counter()
    a = golden_zero_rooted_counts(10)
    checks = golden_power_bounds(a)
    elapsed = time.perf_counter() - t0
    assert a[:5] == [1, 4, 25, 1681, 5317636]
    assert [c.level for c in checks] == list(range(4, 11))
    for c in checks:
        assert c.holds, f"A({c.level}) < gamma^{c.exponent}"
        assert c.precision_bits >= 2 ** (c.level + 1), c.level
        assert c.log_margin > 0.0, c.level
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(
        "criterion 4: PASS  A(0..4) = 1, 4, 25, 1681, 5317636 exactly and "
        f"A(n) >= gamma^(2^(n+1)-1) for 4 <= n <= 10 at >= 2^(n+1) bits ({elapsed:.2f}s)"
    )


def test_criterion_05_reference_table():
    assert (SFT_TOL, TREE_TOL, UPPER_TOL) == (0.002, 0.005, 0.002)
    t0 = time.perf_counter()
    results = compute_reference_table(15)
    elapsed = time.perf_counter() - t0
    assert len(results) == 15
    for r in results:
        assert r.sft_ok, f"{r.row.name}: htop {r.computed_sft:.6f} vs {r.row.sft_entropy}"
        assert r.tree_ok, f"{r.row.name}: h {r.computed_tree:.6f} vs {r.row.tree_entropy}"
        assert r.upper_ok, f"{r.row.name}: U {r.computed_upper:.6f} vs {r.row.upper}"
    a1 = next(r for r in results if r.row.name == "A1")
    assert math.isinf(a1.computed_upper)
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(
        "criterion 5: PASS  all 15 benchmark rows within +/-0.002 on htop, "
        f"+/-0.005 on h, +/-0.002 on U, with U = inf reproduced on A1 ({elapsed:.2f}s)"
    )


def test_criterion_06_worked_example():
    m = parse_matrix("010,001,110")
    S = analyze_matrix(m)
    series = run(m, TreeParams(2, 15))
    htop = S.sft_entropy
    c = S.ratio
    u = upper_bound(S)
    h_est = series.h_acc[15]
    assert abs(htop - 0.281) <= 1e-3, f"htop = {htop:.6f}"
    assert abs(c - 1.75) <= 1e-2, f"c = {c:.6f}"
    assert abs(u - 0.56) <= 1e-2, f"U = {u:.6f}"
    assert abs(h_est - 0.36) <= 1e-2, f"h_est = {h_est:.6f}"
    assert plastic_report(15)["all_ok"]
    print(
        f"criterion 6: PASS  worked example gives htop = {htop:.4f}, c = {c:.4f}, "
        f"U = {u:.4f}, h_est = {h_est:.4f}"
    )


def test_criterion_07_oscillating_levels():
    series = run(OSCILLATING, TreeParams(2, 15), mode="exact")
    assert series.exact[1] == (1, 1, 4, 1)
    assert series.exact[2] == (1, 16, 4, 1)
    assert series.exact[3] == (256, 16, 289, 1)
    for n in range(1, 7):
        even, odd, prev = series.exact[2 * n], series.exact[2 * n - 1], series.exact[2 * n - 2]
        assert (even[0], even[2]) == (odd[0], odd[2]), n
        assert (odd[1], odd[3]) == (prev[1], prev[3]), n
    z_even = series.normalized_symbol_logs(14)
    z_odd = series.normalized_symbol_logs(15)
    ratios = [max(a, b) / min(a, b) for a, b in zip(z_even, z_odd)]
    for i, r in enumerate(ratios):
        assert abs(r - 2.0) <= 0.2, f"symbol {i + 1}: ratio {r:.4f}"
    print(
        "criterion 7: PASS  exact levels 1..3 reproduced, period-2 identities hold "
        f"for n <= 6, even/odd ratios {'/'.join(f'{r:.4f}' for r in ratios)} within 10% of 2"
    )


def test_criterion_08_eigenvector_inequality_suite():
    checked = 0
    for row in REFERENCE_ROWS:
        m = row.parse()
        S = analyze_matrix(m)
        if not S.irreducible:
            continue
        checked += 1
        lam_lower = certified_radius_lower(m)
        v = [Fraction(x) for x in S.left]
        v_total = sum(v)
        series = run(m, TreeParams(2, 12), mode="exact")
        for n in range(13):
            lhs = sum(vi * xi for vi, xi in zip(v, series.exact[n]))
            rhs = lam_lower ** (2 ** (n + 1) - 2) * v_total
            assert lhs >= rhs, (row.name, n)
        h_series = run(m, TreeParams(2, 15))
        assert S.sft_entropy <= h_series.h_acc[15] + 1e-9, row.name
    assert checked == 13
    print(
        "criterion 8: PASS  x(n).v >= lambda^(2^(n+1)-2) (v.1) exactly for n <= 12 "
        "and htop <= h_acc(15) on all 13 irreducible rows"
    )


def test_criterion_09_oracle_equivalence():
    t0 = time.perf_counter()
    for row in REFERENCE_ROWS:
        m = row.parse()
        series = run(m, TreeParams(2, 3), mode="exact")
        for n in range(4):
            result = enumerate_configs(m, depth=n)
            assert result.counts == series.exact[n], (row.name, n)
        for n in range(3):
            report = verify_phi_identity(m, n)
            assert report.holds, (row.name, n, report.lhs, report.rhs)
        for m_depth, n_depth in [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)]:
            rep = check_subadditivity(m, m_depth, n_depth)
            assert rep.split_holds, (row.name, m_depth, n_depth)
            assert rep.fold_holds is not False, (row.name, m_depth, n_depth)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    print(
        "criterion 9: PASS  oracle counts equal recurrence counts for n <= 3, the "
        "leaf-extension identity holds for n <= 2, and both subadditivity bounds "
        f"hold for m + n <= 4, on all 15 rows ({elapsed:.2f}s)"
    )


def test_criterion_10_kary_sandwich():
    estimates = []
    for k in (2, 3, 4, 5):
        depth = auto_depth(k)
        assert TreeParams(k, depth).node_count(depth) >= 10**4
        series = run(GOLDEN, TreeParams(k, depth))
        h_k = series.h_acc[depth]
        lo, hi = kary_bounds(2, k)
        assert lo <= h_k <= hi, f"k = {k}: {h_k:.6f} outside [{lo:.6f}, {hi:.6f}]"
        estimates.append(h_k)
    for prev, cur in zip(estimates, estimates[1:]):
        assert cur > prev, estimates
    print(
        "criterion 10: PASS  golden-mean estimates "
        + ", ".join(f"{h:.4f}" for h in estimates)
        + " for k = 2..5 sit in ((k-1)/k log 2, log 2) and increase with k"
    )


def test_criterion_11_sturmian_properties():
    fib = SturmianParams.fibonacci()
    oracle = build_factor_oracle(fib, 30)
    for n in range(31):
        assert oracle.complexity(n) == n + 1, n
    print("criterion 11: factor complexity p(n) = n + 1 holds for n <= 30")
    a = label_tree_random(fib, 10, seed=11)
    b = label_tree_random(fib, 10, seed=11)
    assert a.labels == b.labels
    print("criterion 11: random labeling is deterministic under a fixed seed")
    reference = sorted(path_words(label_tree_random(fib, 10, seed=0), 10))
    for seed in range(1, 10):
        words = sorted(path_words(label_tree_random(fib, 10, seed=seed), 10))
        assert words == reference, seed
    print("criterion 11: depth-10 path-word multiset is invariant across seeds")
    violation = _lex_order_violation(label_tree_lex(fib, 12), oracle)
    assert violation is None, f"criterion 11: FAIL  {violation}"
    assert _lex_order_violation(label_tree_random(fib, 12, seed=0), oracle) is not None
    print(
        "criterion 11: PASS  all clauses, including the lex order of the depth-12 "
        "tree: distinct leaf words strictly increase in first-occurrence order, and "
        "siblings split 0/1 exactly below right-special nodes"
    )


def _lex_order_violation(tree, oracle):
    """The first breach of the ordering the lex rule guarantees, or None.

    Distinct leaf words, each listed at its first occurrence, strictly
    increase; below a right-special path word the children end in 0
    (left) and 1 (right), and below any other internal node they agree.
    """
    leaves = list(dict.fromkeys(path_words(tree, tree.depth)))
    bad = next((i for i in range(len(leaves) - 1) if leaves[i] >= leaves[i + 1]), None)
    if bad is not None:
        return (
            f"distinct depth-{tree.depth} leaf words out of order at first occurrence: "
            f"{leaves[bad]} before {leaves[bad + 1]}"
        )
    for level in range(tree.depth):
        start = 2**level - 1
        for i, w in enumerate(path_words(tree, level)):
            v = start + i
            left, right = tree.labels[2 * v + 1], tree.labels[2 * v + 2]
            if len(oracle.successors(w)) == 2:
                if (left, right) != (0, 1):
                    return f"right-special node {w} has children labeled {left}, {right}"
            elif left != right:
                return f"non-special node {w} has children labeled {left}, {right}"
    return None


def test_criterion_12_exact_log_cross_validation():
    worst = 0.0
    for row in REFERENCE_ROWS:
        m = row.parse()
        exact = run(m, TreeParams(2, 18), mode="exact")
        approx = run(m, TreeParams(2, 18))
        worst = max(worst, log_deviation(exact, approx))
    assert worst <= 1e-6, f"worst relative deviation {worst:.3e}"
    print(
        f"criterion 12: PASS  log-domain vs exact deviation <= {worst:.3e} "
        "over all 15 rows, n <= 18"
    )
