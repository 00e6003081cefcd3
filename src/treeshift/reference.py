"""Published reference values and the comparison harness.

REFERENCE_ROWS carries the fifteen benchmark matrices: the 2x2 golden
mean system, the twelve 3x3 irreducible relatives, and two reducible
companions. For each row the published figures are the base shift
entropy log(spectral radius), the binary tree entropy, and the spectral
upper bound; they are printed to three decimals (whence the comparison
tolerances), and the first reducible row has an infinite bound because
its right eigenvector vanishes on a coordinate.

The plastic example is a separate worked 3x3 case built around the real
root of x^3 = x + 1. Its published radius figure, 0.2812, matches the
logarithm of that root (the root itself is about 1.3247), and the
comparison targets the logarithm.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .matrix import TransitionMatrix, parse_matrix
from .recurrence import TreeParams, run
from .spectral import SpectralData, analyze_matrix, upper_bound

SFT_TOL = 0.002
TREE_TOL = 0.005
UPPER_TOL = 0.002
ORDER_SLACK = 0.01


class ReferenceRow(NamedTuple):
    """One benchmark matrix with its published figures."""

    name: str
    matrix: str
    sft_entropy: float
    tree_entropy: float
    upper: float

    def parse(self) -> TransitionMatrix:
        return parse_matrix(self.matrix)


REFERENCE_ROWS: tuple[ReferenceRow, ...] = (
    ReferenceRow("Gamma", "11,10", 0.481, 0.509, 0.721),
    ReferenceRow("X0", "010,101,101", 0.481, 0.509, 0.722),
    ReferenceRow("X1", "110,001,110", 0.481, 0.509, 0.722),
    ReferenceRow("X2", "011,101,100", 0.481, 0.509, 0.722),
    ReferenceRow("X3", "011,111,101", 0.81, 0.846, 1.104),
    ReferenceRow("X4", "111,110,100", 0.81, 0.846, 1.214),
    ReferenceRow("X5", "110,011,101", 0.693, 0.693, 0.693),
    ReferenceRow("X6", "011,101,110", 0.693, 0.693, 0.693),
    ReferenceRow("X7", "110,001,111", 0.693, 0.768, 1.04),
    ReferenceRow("X8", "110,011,110", 0.693, 0.693, 0.693),
    ReferenceRow("X9", "011,101,101", 0.693, 0.693, 0.693),
    ReferenceRow("X10", "011,111,100", 0.693, 0.774, 1.242),
    ReferenceRow("X11", "111,100,100", 0.693, 0.763, 1.04),
    ReferenceRow("A1", "110,101,001", 0.481, 0.611, math.inf),
    ReferenceRow("A2", "110,011,010", 0.481, 0.575, 0.962),
)

PLASTIC_MATRIX = "010,001,110"

PLASTIC_PUBLISHED = {
    "log_radius": 0.2812,
    "right_eigenvector": (0.57, 0.75, 1.0),
    "left_eigenvector": (0.75, 1.32, 1.0),
    "ratio": 1.75,
    "upper": 0.56,
    "tree_entropy": 0.36,
}


class ReferenceResult(NamedTuple):
    """Computed figures for one row with pass verdicts per column."""

    row: ReferenceRow
    computed_sft: float
    computed_tree: float
    computed_upper: float
    sft_ok: bool
    tree_ok: bool
    upper_ok: bool
    order_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.sft_ok and self.tree_ok and self.upper_ok and self.order_ok


def _close(computed: float, published: float, tol: float) -> bool:
    if math.isinf(published):
        return math.isinf(computed)
    return abs(computed - published) <= tol


def order_checks(
    spectral: SpectralData, h_tree: float, bound: float
) -> list[tuple[str, bool]]:
    """Named checks of base entropy <= tree entropy <= upper bound.

    Each side may overshoot by ORDER_SLACK; the upper check is left out
    when the bound is infinite.
    """
    checks = [
        (
            f"base_entropy <= tree_entropy + {ORDER_SLACK}",
            spectral.sft_entropy <= h_tree + ORDER_SLACK,
        )
    ]
    if not math.isinf(bound):
        checks.append(
            (f"tree_entropy <= upper_bound + {ORDER_SLACK}", h_tree <= bound + ORDER_SLACK)
        )
    return checks


def _estimates(M: TransitionMatrix, n_max: int) -> tuple[SpectralData, float, float]:
    """Spectral data, binary tree entropy h_acc(n_max) and upper bound of M."""
    spectral = analyze_matrix(M)
    h_tree = run(M, TreeParams(2, n_max)).final_h_acc()
    return spectral, h_tree, upper_bound(spectral)


def compute_reference_table(n_max: int = 15) -> list[ReferenceResult]:
    """Evaluate every benchmark row at the given series depth."""
    results = []
    for row in REFERENCE_ROWS:
        spectral, h_tree, bound = _estimates(row.parse(), n_max)
        results.append(
            ReferenceResult(
                row,
                spectral.sft_entropy,
                h_tree,
                bound,
                _close(spectral.sft_entropy, row.sft_entropy, SFT_TOL),
                _close(h_tree, row.tree_entropy, TREE_TOL),
                _close(bound, row.upper, UPPER_TOL),
                all(ok for _, ok in order_checks(spectral, h_tree, bound)),
            )
        )
    return results


def plastic_report(n_max: int = 15) -> dict:
    """Computed against published figures for the plastic example."""
    spectral, h_tree, bound = _estimates(parse_matrix(PLASTIC_MATRIX), n_max)
    checks = {
        "log_radius": (spectral.sft_entropy, PLASTIC_PUBLISHED["log_radius"], 0.0005),
        "ratio": (spectral.ratio, PLASTIC_PUBLISHED["ratio"], 0.005),
        "upper": (bound, PLASTIC_PUBLISHED["upper"], 0.005),
        "tree_entropy": (h_tree, PLASTIC_PUBLISHED["tree_entropy"], 0.005),
    }
    # published vectors are scaled to a unit last component
    right = tuple(x / spectral.right[-1] for x in spectral.right)
    left = tuple(x / spectral.left[-1] for x in spectral.left)
    report = {
        "radius": spectral.spectral_radius,
        "checks": {},
        "right_eigenvector": right,
        "left_eigenvector": left,
    }
    for name, (computed, published, tol) in checks.items():
        report["checks"][name] = {
            "computed": computed,
            "published": published,
            "ok": _close(computed, published, tol),
        }
    vec_ok = all(
        abs(c - p) <= 0.01
        for vec, key in ((right, "right_eigenvector"), (left, "left_eigenvector"))
        for c, p in zip(vec, PLASTIC_PUBLISHED[key])
    )
    report["eigenvectors_ok"] = vec_ok
    report["all_ok"] = vec_ok and all(c["ok"] for c in report["checks"].values())
    return report
