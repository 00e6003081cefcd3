"""The comparison harness over the published reference figures."""

import math

from treeshift import reference
from treeshift.recurrence import TreeParams, run
from treeshift.reference import REFERENCE_ROWS, compute_reference_table, plastic_report
from treeshift.spectral import analyze_matrix, upper_bound


def test_reference_table_reports_each_rows_parts():
    results = compute_reference_table(10)
    for i in (0, -2):
        row, result = REFERENCE_ROWS[i], results[i]
        m = row.parse()
        S = analyze_matrix(m)
        assert result.row is row
        assert result.computed_sft == S.sft_entropy
        assert result.computed_tree == run(m, TreeParams(2, 10)).final_h_acc()
        assert result.computed_upper == upper_bound(S)


def test_table_job_calls_each_layer_once_per_row(monkeypatch):
    calls = {"parse_matrix": 0, "analyze_matrix": 0, "run": 0}

    def counted(name):
        inner = getattr(reference, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(reference, name, counted(name))
    results = compute_reference_table(6)
    report = plastic_report(6)
    assert len(results) == len(REFERENCE_ROWS)
    assert "checks" in report
    rows = len(REFERENCE_ROWS) + 1
    assert calls == {"parse_matrix": rows, "analyze_matrix": rows, "run": rows}


def test_plastic_report_radius_is_the_plastic_number():
    # the real root of x^3 = x + 1, by Cardano's formula
    root = ((9 + math.sqrt(69)) / 18) ** (1 / 3) + ((9 - math.sqrt(69)) / 18) ** (1 / 3)
    report = plastic_report(6)
    assert abs(report["radius"] - root) < 1e-10
    assert abs(report["checks"]["log_radius"]["computed"] - math.log(root)) < 1e-10
    assert report["right_eigenvector"][-1] == 1.0
    assert report["left_eigenvector"][-1] == 1.0
    assert set(report["checks"]) == {"log_radius", "ratio", "upper", "tree_entropy"}
