"""Spectral analysis: radii, eigenvectors, periods, certificates."""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from oracles import char_poly, exact_counts, largest_real_root, permute_rows, valid_matrices
from treeshift import spectral
from treeshift.matrix import TransitionMatrix, parse_matrix
from treeshift.reference import PLASTIC_MATRIX, REFERENCE_ROWS
from treeshift.spectral import (
    NoConvergence,
    SingularSystem,
    analyze_matrix,
    certified_radius_lower,
    graph_period,
    strong_components,
    upper_bound,
)

GOLDEN = "11,10"
OSCILLATING = "0100,0010,0101,1000"
PHI = (1.0 + math.sqrt(5.0)) / 2.0


def test_golden_radius_matches_closed_form():
    S = analyze_matrix(parse_matrix(GOLDEN))
    assert abs(S.spectral_radius - PHI) < 1e-10
    assert abs(S.sft_entropy - math.log(PHI)) < 1e-10
    assert S.irreducible and S.primitive and S.period == 1


def test_golden_perron_vectors_closed_form():
    # the matrix is symmetric: both vectors are proportional to (phi, 1),
    # and their normalized product is the Parry measure of the base shift
    S = analyze_matrix(parse_matrix(GOLDEN))
    assert abs(S.right[0] - 1.0) < 1e-12
    assert abs(S.right[1] - 1.0 / PHI) < 1e-10
    assert abs(S.left[0] - 1.0 / PHI) < 1e-10
    assert abs(S.left[1] - 1.0 / PHI**2) < 1e-10
    assert abs(S.ratio - PHI) < 1e-10
    w = [l * r for l, r in zip(S.left, S.right)]
    assert abs(w[0] / sum(w) - PHI**2 / (1.0 + PHI**2)) < 1e-9


def test_radius_agrees_with_char_poly_root_everywhere():
    cases = [row.matrix for row in REFERENCE_ROWS] + [PLASTIC_MATRIX, OSCILLATING]
    for text in cases:
        m = parse_matrix(text)
        root = largest_real_root(char_poly(m.rows))
        S = analyze_matrix(m)
        assert abs(S.spectral_radius - root) < 1e-9, text


def test_every_three_symbol_matrix_is_fast_and_exact():
    for rows in valid_matrices(3):
        m = TransitionMatrix.from_rows(rows)
        start = time.perf_counter()
        S = analyze_matrix(m)
        assert time.perf_counter() - start < 0.05, m.to_row_string()
        root = largest_real_root(char_poly(rows))
        assert abs(S.spectral_radius - root) <= 1e-10 * root, m.to_row_string()


def test_eigenvector_residuals_componentwise():
    for row in REFERENCE_ROWS:
        m = row.parse()
        S = analyze_matrix(m)
        if not S.irreducible:
            continue
        lam = S.spectral_radius
        for i in range(m.d):
            r = sum(m.rows[i][j] * S.right[j] for j in range(m.d))
            assert abs(r - lam * S.right[i]) < 1e-10, (row.name, "right", i)
            l = sum(m.rows[j][i] * S.left[j] for j in range(m.d))
            assert abs(l - lam * S.left[i]) < 1e-10, (row.name, "left", i)


def test_normalizations():
    for row in REFERENCE_ROWS:
        S = analyze_matrix(row.parse())
        assert abs(sum(S.left) - 1.0) < 1e-12, row.name
        assert abs(max(S.right) - 1.0) < 1e-12, row.name


def test_oscillating_matrix_has_period_two():
    S = analyze_matrix(parse_matrix(OSCILLATING))
    assert S.irreducible
    assert not S.primitive
    assert S.period == 2
    assert abs(S.spectral_radius - math.sqrt(PHI)) < 1e-10


def test_relabeling_invariance():
    m = parse_matrix("011,101,110")
    base = analyze_matrix(m)
    for perm in [(1, 0, 2), (2, 0, 1), (2, 1, 0)]:
        p = TransitionMatrix.from_rows(permute_rows(m.rows, perm))
        S = analyze_matrix(p)
        assert abs(S.spectral_radius - base.spectral_radius) < 1e-10
        assert abs(S.ratio - base.ratio) < 1e-8
        for i in range(3):
            assert abs(S.right[i] - base.right[perm[i]]) < 1e-8
            assert abs(S.left[i] - base.left[perm[i]]) < 1e-8


def test_reducible_support_clipping_first_row():
    # one basic class {2,3} in 1-based terms; symbol 3 cannot start a
    # two-sided orbit, so the left vector vanishes there
    S = analyze_matrix(parse_matrix("110,101,001"))
    assert not S.irreducible
    assert S.right[2] == 0.0
    assert math.isinf(S.ratio)
    assert math.isinf(upper_bound(S))


def test_reducible_second_row_finite_ratio():
    S = analyze_matrix(parse_matrix("110,011,010"))
    assert not S.irreducible
    assert S.left[0] == 0.0
    assert min(S.right) > 0.0
    assert abs(S.ratio - PHI**2) < 1e-9
    assert abs(upper_bound(S) - 2.0 * math.log(PHI)) < 1e-9


def test_upper_bound_at_every_arity_lies_above_the_exact_lower_end():
    # (k - 1) max_i log x_i(n) / k^(n+1) is at most the tree entropy; the
    # depths take it past the binary bound of 33 of these pairs, as for
    # 011,100,100 at k = 4 (h_4 = 0.5545 against 0.5199)
    depths = {2: 14, 3: 9, 4: 7, 5: 6, 6: 5, 7: 5, 8: 5}
    past_binary = 0
    for d in (1, 2, 3):
        for rows in valid_matrices(d):
            m = TransitionMatrix(rows)
            S = analyze_matrix(m)
            if not S.irreducible:
                continue
            for k, n in depths.items():
                x = exact_counts(m.successor_table(), k, n)
                lower = (k - 1) * max(map(math.log, x)) / k ** (n + 1)
                assert lower <= upper_bound(S, k), (rows, k)
                past_binary += lower > upper_bound(S)
    assert past_binary == 33


def test_iteration_cap_raises_no_convergence(monkeypatch):
    # one step cannot meet the tolerance even on a primitive matrix
    monkeypatch.setattr(spectral, "MAX_ITER", 1)
    with pytest.raises(NoConvergence) as info:
        analyze_matrix(parse_matrix(GOLDEN))
    err = info.value
    assert err.iterations == 1
    assert err.residual > 0.0


# Inputs on which whole-matrix power iteration stalled: chained classes
# of equal radius (a defective lambda; in the fourth the two blocks are
# not isomorphic, so their float radii differ in the last digits) and,
# last, a periodic top class beside an aperiodic one. Columns: right
# support, left support, ratio.
STALLED_BEFORE = [
    ("11,01", (0,), (1,), math.inf),
    ("110,011,001", (0,), (2,), math.inf),
    ("1100,1010,0011,0010", (0, 1), (2, 3), math.inf),
    ("11000,10100,00110,00001,00110", (0, 1), (2, 3, 4), math.inf),
    ("0001,0001,0111,1100", (0, 1, 2, 3), (0, 1, 3), 3.0 + 2.0 * math.sqrt(2.0)),
]


@pytest.mark.parametrize("text,right_support,left_support,ratio", STALLED_BEFORE)
def test_class_blocks_solve_stalled_inputs(text, right_support, left_support, ratio):
    m = parse_matrix(text)
    S = analyze_matrix(m)
    root = largest_real_root(char_poly(m.rows))
    assert abs(S.spectral_radius - root) <= 1e-10 * root
    assert tuple(i for i, x in enumerate(S.right) if x > 0.0) == right_support
    assert tuple(i for i, x in enumerate(S.left) if x > 0.0) == left_support
    assert S.ratio == ratio or abs(S.ratio - ratio) <= 1e-9 * ratio
    assert not S.irreducible


def test_solve_matches_numpy_on_random_systems():
    # general dense systems, and the lam I - B systems of the class solve
    rng = random.Random(7)
    for d in range(1, 9):
        for _ in range(40):
            a = np.array([[rng.uniform(-1.0, 1.0) for _ in range(d)] for _ in range(d)])
            b = np.array([[float(rng.random() < 0.5) for _ in range(d)] for _ in range(d)])
            lam = max(abs(np.linalg.eigvals(b))) + rng.uniform(0.01, 1.0)
            for system in (a, lam * np.eye(d) - b):
                if np.linalg.cond(system) > 1e3:
                    continue
                rhs = [rng.uniform(-1.0, 1.0) for _ in range(d)]
                want = np.linalg.solve(system, rhs)
                got = spectral._solve(system.tolist(), rhs)
                assert np.abs(np.array(got) - want).max() <= 1e-12 * np.abs(want).max()


def test_singular_systems_raise_a_value_error():
    # class 1 has radius lam = 1 itself, so lam I - m_CC is exactly zero
    m = [[1.0, 0.0], [1.0, 1.0]]
    with pytest.raises(SingularSystem):
        spectral._class_solve(m, [[0], [1]], [0, 1], 1.0, 0, [1.0], [0])
    with pytest.raises(SingularSystem, match="column 2"):
        spectral._solve([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])
    assert issubclass(SingularSystem, ValueError)


def test_dense_primitive_64_symbols_within_budget():
    # a random half-dense 64x64 matrix, made primitive by a cycle through
    # every symbol and one self-loop, is analyzed within 2 s
    rng = random.Random(64)
    rows = [[int(rng.random() < 0.5) for _ in range(64)] for _ in range(64)]
    for i in range(64):
        rows[i][(i + 1) % 64] = 1
    rows[0][0] = 1
    m = TransitionMatrix.from_rows(rows)
    start = time.perf_counter()
    S = analyze_matrix(m)
    assert time.perf_counter() - start < 2.0
    assert S.primitive
    radius = max(np.linalg.eigvals(np.array(rows, dtype=float)).real)
    assert abs(S.spectral_radius - radius) <= 1e-10 * radius


def test_graph_structure_helpers():
    golden = parse_matrix(GOLDEN).successor_table()
    assert len(strong_components(spectral._reach(golden))) == 1
    assert graph_period(golden, strong_components(spectral._reach(golden))) == 1
    osc = parse_matrix(OSCILLATING).successor_table()
    assert len(strong_components(spectral._reach(osc))) == 1
    assert graph_period(osc, strong_components(spectral._reach(osc))) == 2
    two = parse_matrix("10,01").successor_table()
    assert len(strong_components(spectral._reach(two))) == 2


@pytest.mark.parametrize("text", [GOLDEN, "110,101,001", "110,011,010", "10,01"])
def test_one_closure_per_analysis(text, monkeypatch):
    # an analysis builds one closure: a reducible matrix's classes, their
    # order and its distinguished-class test all read it
    calls = []
    reach = spectral._reach
    monkeypatch.setattr(spectral, "_reach", lambda succ: calls.append(succ) or reach(succ))
    analyze_matrix(parse_matrix(text))
    assert len(calls) == 1


def test_certified_lower_bound_is_sound_and_tight():
    # the top class's own iterate is positive, so the bound is tight for
    # reducible rows (A1, A2) as well
    for row in REFERENCE_ROWS:
        m = row.parse()
        true_radius = largest_real_root(char_poly(m.rows))
        lb = certified_radius_lower(m)
        assert float(lb) <= true_radius + 1e-12, row.name
        assert true_radius - float(lb) < 1e-9 * true_radius, row.name


def test_certified_lower_bound_exact_for_constant_row_sums():
    assert certified_radius_lower(parse_matrix("110,011,101")) == Fraction(2)


def test_certified_lower_bound_golden_below_radius():
    lb = certified_radius_lower(parse_matrix(GOLDEN))
    assert lb * lb < lb + 1  # strictly below the golden ratio, exactly
    assert PHI - float(lb) < 1e-9
