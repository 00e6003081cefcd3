"""Brute-force enumeration, block censuses, and counting identities."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import is_valid_labeling, naive_enumerate, valid_matrices
from treeshift import cli
from treeshift.matrix import TransitionMatrix, parse_matrix
from treeshift.oracle import (
    LISTING_BUDGET,
    MATERIALIZE_CAP,
    BlockCensus,
    DepthExceeded,
    LabeledTree,
    TooLarge,
    blocks_in_tree,
    check_subadditivity,
    enumerate_configs,
    exact_level,
    level_bounds,
    node_count,
    verify_phi_identity,
)
from treeshift.recurrence import golden_counts, golden_zero_rooted_counts
from treeshift.reference import REFERENCE_ROWS

GOLDEN = parse_matrix("11,10")

# fifteen nodes: all-zero left subtree, right child 1 over 0,0 over 1,1,1,1
HAND_LABELS = bytes([0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1])


def test_node_count_and_level_bounds():
    assert node_count(2, 3) == 15
    assert node_count(3, 2) == 13
    assert node_count(2, -1) == 0
    assert level_bounds(2, 0) == (0, 1)
    assert level_bounds(2, 1) == (1, 3)
    assert level_bounds(2, 2) == (3, 7)
    assert level_bounds(3, 1) == (1, 4)


@pytest.mark.parametrize(
    "call",
    [
        lambda: enumerate_configs(GOLDEN, 0, 2),
        lambda: enumerate_configs(GOLDEN, 1, 2),
        lambda: verify_phi_identity(GOLDEN, 1, 0),
        lambda: check_subadditivity(GOLDEN, 1, 1, 1),
        lambda: node_count(1, 3),
    ],
    ids=["enumerate_arity_0", "enumerate_arity_1", "phi_identity_arity_0",
         "subadditivity_arity_1", "node_count_arity_1"],
)
def test_arity_below_two_is_refused_by_node_count(call):
    with pytest.raises(ValueError, match="^arity must be at least 2$"):
        call()


def test_labeled_tree_basics():
    tree = LabeledTree(2, 3, HAND_LABELS)
    assert tree.size == 15
    assert is_valid_labeling(GOLDEN.rows, 2, 3, tree.labels)
    # a 1 above a 1 is forbidden in the golden mean shift
    assert not is_valid_labeling(GOLDEN.rows, 2, 1, [1, 1, 0])
    with pytest.raises(ValueError):
        LabeledTree(2, 3, HAND_LABELS[:-1])
    with pytest.raises(ValueError, match="arity"):
        LabeledTree(1, 0, bytes([0]))
    with pytest.raises(ValueError, match="depth"):
        LabeledTree(2, -1, bytes())


def test_labeled_tree_needs_its_labels_or_its_graph():
    with pytest.raises(ValueError, match="^a tree needs its labels or its word graph$"):
        LabeledTree(2, 1)


def test_hand_tree_window_census():
    tree = LabeledTree(2, 3, HAND_LABELS)
    census = blocks_in_tree(tree, 1)
    assert census.count == 4
    assert census.blocks == (
        bytes([0, 0, 0]),
        bytes([0, 0, 1]),
        bytes([0, 1, 1]),
        bytes([1, 0, 0]),
    )


def test_constant_tree_has_one_block_per_depth():
    full = parse_matrix("11,11")
    tree = LabeledTree(2, 3, bytes(15))
    for n in range(4):
        assert blocks_in_tree(tree, n).count == 1
    assert is_valid_labeling(full.rows, 2, 3, tree.labels)


def test_blocks_in_tree_depth_errors():
    tree = LabeledTree(2, 3, HAND_LABELS)
    with pytest.raises(DepthExceeded):
        blocks_in_tree(tree, 4)
    with pytest.raises(ValueError):
        blocks_in_tree(tree, -1)


def test_golden_enumeration_small_depths():
    r0 = enumerate_configs(GOLDEN, depth=0)
    assert r0.total == 2
    assert r0.census.blocks == (b"\x00", b"\x01")
    r1 = enumerate_configs(GOLDEN, depth=1)
    assert r1.counts == (4, 1)
    assert r1.census.blocks == (
        bytes([0, 0, 0]),
        bytes([0, 0, 1]),
        bytes([0, 1, 0]),
        bytes([0, 1, 1]),
        bytes([1, 0, 0]),
    )
    r3 = enumerate_configs(GOLDEN, depth=3)
    assert r3.total == 2306
    assert r3.counts == (1681, 625)


def test_full_shift_depth_two_count():
    full = parse_matrix("11,11")
    assert enumerate_configs(full, depth=2).total == 128


def test_agreement_with_naive_product_filter():
    for row in REFERENCE_ROWS:
        m = row.parse()
        counts, blocks = naive_enumerate(m.rows, 2, 2)
        result = enumerate_configs(m, depth=2)
        assert result.counts == tuple(counts), row.name
        assert list(result.census.blocks) == blocks, row.name


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from([rows for d in (1, 2, 3) for rows in valid_matrices(d)]),
    st.sampled_from([(2, 0), (2, 1), (2, 2), (3, 0), (3, 1)]),
)
def test_listing_matches_naive_product_filter(rows, shape):
    arity, depth = shape
    counts, blocks = naive_enumerate(rows, arity, depth)
    result = enumerate_configs(TransitionMatrix(rows), arity, depth)
    assert result.counts == tuple(counts)
    assert list(result.census.blocks) == blocks


def test_golden_depth_three_matches_naive():
    counts, blocks = naive_enumerate(GOLDEN.rows, 2, 3)
    result = enumerate_configs(GOLDEN, depth=3)
    assert result.counts == tuple(counts)
    assert list(result.census.blocks) == blocks


def test_census_blocks_are_valid_and_attributed():
    for row in REFERENCE_ROWS:
        m = row.parse()
        result = enumerate_configs(m, depth=2)
        per_root = [0] * m.d
        for block in result.census.blocks:
            assert is_valid_labeling(m.rows, 2, 2, LabeledTree(2, 2, block).labels), row.name
            per_root[block[0]] += 1
        assert tuple(per_root) == result.counts, row.name


def test_extension_consistency():
    for text in ["11,10", "011,111,101"]:
        m = parse_matrix(text)
        shallow = enumerate_configs(m, depth=1).census
        deep = enumerate_configs(m, depth=2).census
        prefix = node_count(2, 1)
        truncated = {block[:prefix] for block in deep.blocks}
        assert truncated == set(shallow.blocks)


def test_materialization_cap():
    assert node_count(2, 5) > MATERIALIZE_CAP
    with pytest.raises(TooLarge) as info:
        enumerate_configs(GOLDEN, depth=5)
    assert "63" in str(info.value)
    # exact counts are held only to the exact node budget
    assert sum(exact_level(GOLDEN.successor_table(), 2, [(1, 1)], 5)) == golden_counts(5)[5]


def test_listing_budget_refuses_before_listing():
    # 31 nodes, under the cap, but 342,530,797,857 labelings, past the budget
    start = time.perf_counter()
    with pytest.raises(TooLarge) as info:
        enumerate_configs(parse_matrix("011,111,101"), depth=4)
    assert time.perf_counter() - start < 1.0
    assert "342530797857" in str(info.value) and str(LISTING_BUDGET) in str(info.value)
    with pytest.raises(TooLarge, match="8143397 valid labelings"):
        enumerate_configs(GOLDEN, depth=4)
    # the largest reference listing, at depth 3, stays inside it
    assert enumerate_configs(parse_matrix("011,111,101"), depth=3).total == 451382 <= LISTING_BUDGET


@pytest.mark.parametrize(
    "produce",
    [
        lambda depth: sum(exact_level(GOLDEN.successor_table(), 2, [(1, 1)], depth)),
        lambda depth: check_subadditivity(GOLDEN, 10, depth - 10).p_total,
        lambda depth: golden_counts(depth)[-1],
        lambda depth: golden_zero_rooted_counts(depth)[-1],
    ],
    ids=["exact_level", "check_subadditivity", "golden_counts", "golden_zero_rooted_counts"],
)
def test_exact_counts_refuse_past_one_node_budget(produce):
    # node_count(2, 20) = 2097151 is the budget, so depth 21 is the first refused
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="exact level 21 at arity 2 has more than 2097151 nodes"):
        produce(21)
    assert time.perf_counter() - start < 1.0
    assert produce(20) > 0


def test_census_sorts_rebuilt_blocks_and_refuses_duplicates_on_read():
    assert BlockCensus(2, 0, 2, 2, lambda: [b"\x01", b"\x00"]).blocks == (b"\x00", b"\x01")
    duplicated = BlockCensus(2, 0, 2, 2, lambda: [b"\x00", b"\x00"])
    with pytest.raises(ValueError):
        duplicated.blocks


def test_listings_read_for_totals_build_no_blocks(capsys, monkeypatch):
    listed = []

    def recorded(*args):
        listed.append(enumerate_configs(*args))
        return listed[-1]

    monkeypatch.setattr(cli, "enumerate_configs", recorded)
    assert cli.main(["golden", "-n", "21"]) == 0
    capsys.readouterr()
    listed.append(enumerate_configs(GOLDEN, 2, 3))
    assert listed[-1].total == 2306
    assert len(listed) == 5
    for result in listed:
        assert "blocks" not in result.census.__dict__


def test_terminal_counts_cover_leaf_level():
    census = enumerate_configs(GOLDEN, depth=2).census
    for block in census.blocks:
        counts = census.terminal_counts(block)
        assert sum(counts) == 4
        lo, hi = level_bounds(2, 2)
        assert counts[0] == block[lo:hi].count(0)


def test_phi_identity_exact():
    for row in REFERENCE_ROWS:
        m = row.parse()
        for n in range(3):
            report = verify_phi_identity(m, n)
            assert report.holds, (row.name, n)
            assert report.depth == n + 1
    single = parse_matrix("[[1]]")
    assert verify_phi_identity(single, 1).holds
    golden_report = verify_phi_identity(GOLDEN, 1)
    assert (golden_report.lhs, golden_report.rhs) == (41, 41)


def test_subadditivity_golden_examples():
    r = check_subadditivity(GOLDEN, 1, 1)
    assert (r.p_m, r.p_n, r.p_total) == (5, 5, 41)
    assert r.split_bound == 125
    assert r.fold_exponent == 3
    assert r.fold_bound == 125
    assert r.split_holds and r.fold_holds

    r = check_subadditivity(GOLDEN, 1, 2)
    assert r.p_total == 2306
    assert r.split_bound == 5 * 41**2
    assert r.fold_exponent == 7
    assert r.fold_bound == 5**7
    assert r.split_holds and r.fold_holds

    r = check_subadditivity(GOLDEN, 2, 1)
    assert r.fold_exponent is None
    assert r.fold_holds is None
    assert r.split_bound == 41 * 5**4
    assert r.split_holds


def test_subadditivity_rejects_degenerate_depths():
    with pytest.raises(ValueError):
        check_subadditivity(GOLDEN, 0, 1)
    with pytest.raises(ValueError):
        check_subadditivity(GOLDEN, 1, 0)


def test_enumerate_rejects_negative_depth():
    with pytest.raises(ValueError):
        enumerate_configs(GOLDEN, depth=-1)
