"""Property tests of the spectral layer over random small matrices.

The radius is checked against the exact characteristic polynomial, the
eigenvector supports against the distinguished-class rule, and the
classes of `strong_components` and their order against the closure,
all computed here from first principles: classes from the transitive
closure of the graph (a bool matrix, apart from the package's bit
sets), class radii from the polynomials of their blocks.
The power-iteration and log-domain kernels are checked bit for bit
against their plain loop forms in `oracles`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import char_poly, largest_real_root, log_levels, power_iteration
from treeshift import spectral
from treeshift.matrix import TransitionMatrix
from treeshift.recurrence import TreeParams, run
from treeshift.spectral import analyze_matrix


@st.composite
def valid_rows(draw):
    d = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=d, max_size=d), min_size=d, max_size=d))
    # no symbol may lack a successor or a predecessor
    for i in range(d):
        if not any(rows[i]):
            rows[i][draw(st.integers(0, d - 1))] = 1
    for j in range(d):
        if not any(row[j] for row in rows):
            rows[draw(st.integers(0, d - 1))][j] = 1
    return rows


def closure(rows) -> list[list[bool]]:
    """r[u][v]: some path, possibly empty, leads from u to v (Warshall)."""
    d = len(rows)
    r = [[u == v or bool(rows[u][v]) for v in range(d)] for u in range(d)]
    for k in range(d):
        for u in range(d):
            if r[u][k]:
                for v in range(d):
                    r[u][v] = r[u][v] or r[k][v]
    return r


def expected_supports(rows):
    d = len(rows)
    r = closure(rows)
    classes = []
    for u in range(d):
        if not any(u in c for c in classes):
            classes.append([v for v in range(d) if r[u][v] and r[v][u]])
    radii = []
    for comp in classes:
        if len(comp) == 1 and not rows[comp[0]][comp[0]]:
            radii.append(0.0)
        else:
            block = [[rows[i][j] for j in comp] for i in comp]
            radii.append(largest_real_root(char_poly(block)))
    lam = max(radii)
    top = [c[0] for c, rad in zip(classes, radii) if rad >= lam * (1.0 - 1e-9)]
    right_dist = [c for c in top if not any(e != c and r[e][c] for e in top)]
    left_dist = [c for c in top if not any(e != c and r[c][e] for e in top)]
    right = {u for u in range(d) if any(r[u][c] for c in right_dist)}
    left = {v for v in range(d) if any(r[c][v] for c in left_dist)}
    return right, left


@st.composite
def successor_tables(draw):
    d = draw(st.integers(1, 8))
    return tuple(tuple(sorted(draw(st.sets(st.integers(0, d - 1))))) for _ in range(d))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(successor_tables())
def test_strong_components_are_the_closure_classes_sinks_first(succ):
    # `_class_solve` completes each class from the classes it reaches, so
    # those must be listed before it
    d = len(succ)
    r = closure([[int(v in row) for v in range(d)] for row in succ])
    comps = spectral.strong_components(spectral._reach(succ))
    classes = {tuple(v for v in range(d) if r[u][v] and r[v][u]) for u in range(d)}
    assert all(comp == sorted(comp) for comp in comps)
    assert sorted(map(tuple, comps)) == sorted(classes)
    for p, earlier in enumerate(comps):
        assert not any(r[earlier[0]][later[0]] for later in comps[p + 1 :])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(valid_rows())
def test_perron_data_of_random_matrices(rows):
    m = TransitionMatrix.from_rows(rows)
    S = analyze_matrix(m)
    lam = S.spectral_radius
    root = largest_real_root(char_poly(m.rows))
    assert abs(lam - root) <= 1e-9 * root

    a = np.array(m.rows, dtype=float)
    right = np.array(S.right)
    left = np.array(S.left)
    assert right.min() >= 0.0 and left.min() >= 0.0
    assert np.abs(a @ right - lam * right).max() <= 1e-9 * lam
    assert np.abs(left @ a - lam * left).max() <= 1e-9 * lam

    right_support, left_support = expected_supports(m.rows)
    assert {i for i, x in enumerate(S.right) if x > 0.0} == right_support
    assert {i for i, x in enumerate(S.left) if x > 0.0} == left_support


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(valid_rows(), st.integers(2, 5), st.integers(0, 40))
def test_kernels_equal_their_plain_loop_forms_bit_for_bit(rows, arity, depth):
    m = TransitionMatrix.from_rows(rows)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "_power_iteration", power_iteration)
        expected = analyze_matrix(m)
    assert analyze_matrix(m) == expected

    series = run(m, TreeParams(arity, depth))
    p_logs, symbol_logs = log_levels(m.successor_table(), arity, depth)
    assert series.p_log == p_logs
    assert series.symbol_logs == symbol_logs
