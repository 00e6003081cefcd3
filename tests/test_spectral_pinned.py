"""Spectral data pinned against the whole-matrix power iteration.

`data/spectral_pinned.json` holds what `analyze_matrix` returned when it
power-iterated the whole matrix: for every valid 3-symbol matrix whose
iteration converged within 2*10**4 steps (211 of the 265) and for the 15
reference rows. Regenerate it from the package of commit 43845ec, the
last one that iterated the whole matrix:

    mkdir old && git archive 43845ec src | tar -x -C old
    PYTHONPATH=old/src python tests/test_spectral_pinned.py > tests/data/spectral_pinned.json

Every pinned matrix with several distinguished classes has them
unchained, so its pinned vectors are the limits of iteration from the
uniform vector; the class-block solve must reproduce that convention.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np

from oracles import valid_matrices
from treeshift.matrix import TransitionMatrix, parse_matrix
from treeshift.reference import REFERENCE_ROWS
from treeshift.spectral import NoConvergence, analyze_matrix

PINNED = Path(__file__).with_name("data") / "spectral_pinned.json"
PIN_MAX_ITER = 2 * 10**4
TOL = 1e-9


def _record(m: TransitionMatrix, max_iter: int) -> dict:
    S = analyze_matrix(m, max_iter=max_iter)
    return {
        "period": S.period,
        "irreducible": S.irreducible,
        "primitive": S.primitive,
        "spectral_radius": S.spectral_radius,
        "left": list(S.left),
        "right": list(S.right),
        "ratio": "inf" if math.isinf(S.ratio) else S.ratio,
    }


def _generate() -> dict:
    pinned = {}
    for rows in valid_matrices(3):
        m = TransitionMatrix.from_rows(rows)
        try:
            pinned[m.to_row_string()] = _record(m, PIN_MAX_ITER)
        except NoConvergence:
            continue
    for row in REFERENCE_ROWS:
        pinned[row.matrix] = _record(row.parse(), 10**6)
    return dict(sorted(pinned.items()))


def _residual(m: TransitionMatrix, lam: float, vector, side: str) -> float:
    a = np.array(m.rows, dtype=float)
    v = np.array(vector)
    image = a @ v if side == "right" else v @ a
    return float(np.max(np.abs(image - lam * v)))


def test_pinned_file_covers_the_expected_matrices():
    pinned = json.loads(PINNED.read_text())
    assert len(valid_matrices(3)) == 265
    assert sum(1 for key in pinned if len(key.split(",")) == 3) == 211
    assert all(row.matrix in pinned for row in REFERENCE_ROWS)


def test_analyze_matches_pinned_outputs():
    pinned = json.loads(PINNED.read_text())
    moved = []
    for text, want in pinned.items():
        m = parse_matrix(text)
        S = analyze_matrix(m)
        assert (S.period, S.irreducible, S.primitive) == (
            want["period"],
            want["irreducible"],
            want["primitive"],
        ), text
        lam = S.spectral_radius
        assert abs(lam - want["spectral_radius"]) <= TOL * lam, text
        for side in ("left", "right"):
            got = getattr(S, side)
            if max(abs(x - y) for x, y in zip(got, want[side])) > TOL:
                # a moved vector is only allowed when it is the better eigenvector
                old = _residual(m, want["spectral_radius"], want[side], side)
                assert _residual(m, lam, got, side) < old, (text, side)
                moved.append((text, side))
        ratio = float(want["ratio"])
        if (text, "right") not in moved:
            assert S.ratio == ratio or abs(S.ratio - ratio) <= TOL * ratio, text


if __name__ == "__main__":
    json.dump(_generate(), sys.stdout, indent=1)
    sys.stdout.write("\n")
