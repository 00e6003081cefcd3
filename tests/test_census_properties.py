"""Property tests of the interned block census against one window per root.

`oracles.window_census` reads every root's block from explicit child
lists; `blocks_in_tree` must return the same blocks, count and alphabet
size for every block depth, whether the tree shares most of its
subtrees or none of them, whichever id table a level is interned
through, with chunks that grow from a lowered start and meet each
table, and whether or not the symbols used are contiguous, and within
a memory budget at depth 20. The
census of a lexicographic Sturmian tree, which runs on its word graph,
must equal the census of the same labels without the graph, and the
tree's labels, their prefixes and its left edge, whether read off the
graph or from the labels it expands, must equal those of a node-by-node
reference labeler. So must a seeded random tree's labels, expanded from
the same graph with a coin per right-special node, however many nodes
an expansion chunk holds. A tree keeps the levels its censuses intern:
in whatever order the block depths come, each census must equal that
of a fresh copy of the tree, and a profile must intern each level once
and build no block. A lex tree is the top of the next deeper one, which
counts at least as many blocks of every depth. Every factor oracle has
exactly one right-special factor per length and no factor without a
successor, and one sized to a tree holds exactly the factors of a
longer one up to the lengths the tree reads.
"""

import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import lex_tree_labels, node_count, random_tree_labels, window_census
from treeshift import oracle
from treeshift.oracle import LabeledTree, blocks_in_tree
from treeshift.sturmian import (
    SturmianParams,
    build_factor_oracle,
    label_tree_lex,
    label_tree_random,
    left_edge_word,
    tree_complexity,
)


@st.composite
def labeled_trees(draw):
    arity = draw(st.sampled_from((2, 3)))
    depth = draw(st.integers(0, 6))
    # the symbols used need not be 0 .. d-1: gaps widen every key
    symbols = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True))
    size = node_count(arity, depth)
    if draw(st.booleans()):
        # independent labels: at arity 3 and block depth 2 or more,
        # nearly every block is distinct
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        labels = [rng.choice(symbols) for _ in range(size)]
    else:
        # a short period along the breadth-first order: heavy sharing
        period = draw(st.lists(st.sampled_from(symbols), min_size=1, max_size=5))
        labels = [period[v % len(period)] for v in range(size)]
    return LabeledTree(arity, depth, bytes(labels))


def assert_census_matches(tree: LabeledTree, n: int) -> None:
    census = blocks_in_tree(tree, n)
    blocks, alphabet = window_census(tree.labels, tree.arity, tree.depth, n)
    assert (census.arity, census.depth) == (tree.arity, n)
    assert census.blocks == tuple(blocks)
    assert census.count == len(blocks)
    assert census.alphabet_size == alphabet


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(labeled_trees())
def test_census_matches_window_reference(tree):
    for n in range(tree.depth + 1):
        assert_census_matches(tree, n)


@pytest.mark.parametrize("arity, depth", [(2, 6), (3, 6)])
def test_census_of_trees_with_all_blocks_distinct(arity, depth):
    rng = random.Random(arity)
    tree = LabeledTree(
        arity, depth, bytes(rng.randrange(4) for _ in range(node_count(arity, depth)))
    )
    distinct = 0
    for n in range(depth + 1):
        assert_census_matches(tree, n)
        distinct += blocks_in_tree(tree, n).count == node_count(arity, depth - n)
    assert distinct >= 3  # every root carries its own block at these depths


@pytest.mark.parametrize("limit", [1, 100])
@pytest.mark.parametrize("arity", [2, 3])
def test_census_with_python_int_keys(arity, limit, monkeypatch):
    # a dict level whose key span passes the limit interns exact Python
    # ints, the path of keys too wide for int64: at limit 1 every dict
    # level takes it, at 100 a census mixes int64 and Python-int levels
    monkeypatch.setattr(oracle, "_KEY_LIMIT", limit)
    rng = random.Random(7)
    for depth in range(5):
        labels = [rng.randrange(3) for _ in range(node_count(arity, depth))]
        tree = LabeledTree(arity, depth, bytes(labels))
        for n in range(depth + 1):
            assert_census_matches(tree, n)


@pytest.mark.parametrize("arity", [2, 3])
def test_one_census_interns_int64_and_python_int_keys(arity, monkeypatch):
    monkeypatch.setattr(oracle, "_KEY_LIMIT", 100)
    original, kinds = oracle._intern, set()

    def intern(table, keys, *rest):
        kinds.add(keys.dtype.kind)
        return original(table, keys, *rest)

    monkeypatch.setattr(oracle, "_intern", intern)
    rng = random.Random(7)
    tree = LabeledTree(arity, 4, bytes(rng.randrange(3) for _ in range(node_count(arity, 4))))
    assert_census_matches(tree, 4)
    assert kinds == {"i", "O"}  # int64 keys, and Python ints in an object array


def periodic_tree(arity, depth, period):
    return LabeledTree(
        arity, depth, bytes(period[v % len(period)] for v in range(node_count(arity, depth)))
    )


def random_tree(arity, depth, symbols, seed):
    rng = random.Random(seed)
    return LabeledTree(
        arity, depth, bytes(rng.choice(symbols) for _ in range(node_count(arity, depth)))
    )


def _counted(fn, name, calls):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


@pytest.mark.parametrize(
    "tree, tables",
    [
        # few distinct blocks, so shallow levels have more roots than
        # keys (dense) and the deepest, with a handful of roots, do not
        (periodic_tree(2, 9, (0, 2, 2, 0, 0)), {"_intern_dense", "_intern"}),
        # level 1 has 121 roots for 3 * 3^3 keys; past it nearly every
        # block is distinct
        (random_tree(3, 5, (0, 2), 11), {"_intern_dense", "_intern"}),
        # 5 * 5^3 possible keys for at most 13 roots: no level is dense
        (random_tree(3, 3, (1, 3, 4), 12), {"_intern"}),
    ],
)
def test_census_on_each_side_of_the_dense_table(tree, tables, monkeypatch):
    # 5-root chunks, so keys first seen in a later chunk join a table
    # that earlier chunks filled
    monkeypatch.setattr(oracle, "CENSUS_CHUNK", 5)
    calls = Counter()
    for name in ("_intern_dense", "_intern"):
        monkeypatch.setattr(oracle, name, _counted(getattr(oracle, name), name, calls))
    for n in range(tree.depth + 1):
        assert_census_matches(tree, n)
    assert set(calls) == tables


def test_census_chunks_grow_through_every_table(monkeypatch):
    # chunks of 3, 6, then 12 roots; the only 2 in the tree, at node 40,
    # gives level 1 (63 roots, 3 * 3^2 keys: dense) new keys in its
    # 12-root chunks of roots 9 .. 20 and 33 .. 44
    monkeypatch.setattr(oracle, "CENSUS_CHUNK", 3)
    monkeypatch.setattr(oracle, "EXPAND_CHUNK", 12)
    rng = random.Random(3)
    labels = [rng.randrange(2) for _ in range(node_count(2, 6))]
    labels[40] = 2
    tree = LabeledTree(2, 6, bytes(labels))
    chunks = []  # (id table, offset, roots, new ids) of every chunk interned

    def recorded(fn):
        def intern(table, keys, reps, offset):
            known = len(reps)
            ids = fn(table, keys, reps, offset)
            # a sparse level of one chunk is numbered by np.unique, with no dict
            kind = "dict" if isinstance(table, dict) else "unique" if table is None else "dense"
            chunks.append((kind, offset, len(keys), len(reps) - known))
            return ids

        return intern

    for name in ("_intern_dense", "_intern"):
        monkeypatch.setattr(oracle, name, recorded(getattr(oracle, name)))
    for n in range(tree.depth + 1):
        assert_census_matches(tree, n)
    level_1 = chunks[:7]
    assert [(kind, offset, roots) for kind, offset, roots, _ in level_1] == [
        ("dense", 0, 3), ("dense", 3, 6), ("dense", 9, 12), ("dense", 21, 12),
        ("dense", 33, 12), ("dense", 45, 12), ("dense", 57, 6),
    ]
    assert {9, 33} <= {offset for _, offset, _, new in level_1 if new}
    # levels 2 to 4 (31, 15 and 7 roots, 3 * 10^2 keys or more) take
    # several chunks each, levels 5 and 6 one
    assert [kind for kind, *_ in chunks[7:]] == ["dict"] * 9 + ["unique"] * 2
    # level 3 of this tree is sparse, with one root past its first chunk
    chunks.clear()
    tree = periodic_tree(3, 4, (0, 1))
    for n in range(tree.depth + 1):
        assert_census_matches(tree, n)
    assert ("dict", 3, 1) in [(kind, offset, roots) for kind, offset, roots, _ in chunks]


def test_census_of_a_depth_20_tree_within_memory_budget():
    import tracemalloc

    # a random tree holds its labels from the start
    tree = label_tree_random(SturmianParams.fibonacci(), 20, seed=1)
    tracemalloc.start()
    try:
        tree_complexity(tree, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a level's ids take a byte per root, the chunks under 1 MiB; int64
    # keys for all of level 1 at once would take 8 MiB
    assert peak <= tree.size + 4 * 2**20


@st.composite
def lex_slopes(draw):
    terms = [0] + draw(st.lists(st.integers(1, 4), min_size=40, max_size=40))
    return SturmianParams.from_continued_fraction(terms)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(lex_slopes())
def test_oracle_has_one_right_special_factor_per_length(params):
    # the factor oracle does not check this itself: it follows from the
    # full factor counts of a balanced word
    oracle = build_factor_oracle(params, 30)
    for n in range(oracle.length + 1):
        entry = [w for w in oracle.factors if len(w) == n]
        assert len(entry) == n + 1
        assert sorted(len(oracle.successors(w)) for w in entry) == [1] * n + [2]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(lex_slopes(), st.integers(0, 24))
def test_depth_sized_oracle_holds_the_factors_of_the_longer_one(params, depth):
    # a tree of depth d reads factors up to d + 1, and an oracle sized
    # to it holds exactly those of the oracle of length 30
    longer = build_factor_oracle(params, 30).factors
    oracle = build_factor_oracle(params, depth)
    assert oracle.length == depth
    assert oracle.factors == {w for w in longer if len(w) <= depth + 1}


@st.composite
def lex_trees(draw, slopes=lex_slopes()):
    return label_tree_lex(draw(slopes), draw(st.integers(0, 16)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_lex_tree_reads_equal_the_node_by_node_reference(data):
    params = data.draw(lex_slopes())
    tree = data.draw(lex_trees(st.just(params)))
    expected = lex_tree_labels(build_factor_oracle(params, tree.depth).successors, tree.depth)
    edge = "".join(str(expected[node_count(2, l - 1)]) for l in range(tree.depth + 1))
    prefixes = sorted({*range(min(tree.size, 300) + 1), tree.size})
    # read off the word graph first, then again from the expanded labels
    for _ in range(2):
        for m in prefixes:
            assert tree.labels_at(range(m)) == expected[:m]
        assert left_edge_word(tree) == edge
        assert tree.labels == expected


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(lex_slopes(), st.integers(0, 14), st.integers(0, 2**64))
def test_random_tree_equals_the_node_by_node_reference(params, depth, seed):
    expected = random_tree_labels(build_factor_oracle(params, depth).successors, depth, seed)
    assert label_tree_random(params, depth, seed).labels == expected


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(lex_trees())
def test_expand_with_zero_coins_equals_expand_without(tree):
    import numpy as np

    zeros = tree.graph.expand(2, tree.depth, lambda m: np.zeros(m, dtype=np.uint8))
    assert zeros == tree.graph.expand(2, tree.depth)


@pytest.mark.parametrize("depth", [0, 1, 5, 12])
def test_random_labels_do_not_depend_on_the_expand_chunk(depth, monkeypatch):
    # 3-node chunks draw a level's coins in many calls, some of them
    # for no node, and must give the bits of one draw per level
    slopes = [
        SturmianParams.fibonacci(),
        SturmianParams.from_continued_fraction([0, 1, 3] + [1, 2] * 20),
    ]
    default = [label_tree_random(p, depth, seed).labels for p in slopes for seed in range(3)]
    monkeypatch.setattr(oracle, "EXPAND_CHUNK", 3)
    chunked = [label_tree_random(p, depth, seed) for p in slopes for seed in range(3)]
    assert all((t.arity, t.depth) == (2, depth) for t in chunked)
    assert [t.labels for t in chunked] == default


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(lex_trees())
def test_graph_census_equals_tree_census(tree):
    # at most level + 2 path words per level
    assert len(tree.graph.labels) <= sum(level + 2 for level in range(tree.depth + 1))
    plain = LabeledTree(2, tree.depth, tree.labels)
    for n in range(tree.depth + 1):
        census, reference = blocks_in_tree(tree, n), blocks_in_tree(plain, n)
        assert census.blocks == reference.blocks
        assert census.count == reference.count
        assert census.alphabet_size == reference.alphabet_size


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(lex_slopes(), st.integers(0, 23))
def test_lex_tree_is_the_top_of_the_next_deeper_one(params, depth):
    # the depth-D lex tree is the top of the depth-(D + 1) one, so the
    # deeper tree counts at least as many blocks of every depth
    tree, deeper = label_tree_lex(params, depth), label_tree_lex(params, depth + 1)
    # labels are read off both graphs one node at a time, which takes
    # seconds for the 2^24 - 1 nodes of depth 23, so past depth 14 only
    # the top 15 levels are compared
    top = node_count(2, min(depth, 14))
    assert deeper.labels_at(range(top)) == tree.labels_at(range(top))
    profile, deeper_profile = tree_complexity(tree, depth), tree_complexity(deeper, depth)
    assert all(p <= q for p, q in zip(profile, deeper_profile, strict=True))


def test_word_graph_takes_no_part_in_equality():
    params = SturmianParams.fibonacci()
    tree = label_tree_lex(params, 8)
    repr(tree)
    assert tree._labels is None  # a repr builds no labels
    plain = LabeledTree(2, 8, tree.labels)
    assert tree.graph is not None and plain.graph is None
    assert (tree.arity, tree.depth, tree.labels) == (plain.arity, plain.depth, plain.labels)
    assert label_tree_random(params, 8, seed=1).graph is None


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_census_in_any_order_equals_census_of_a_fresh_tree(data):
    tree = data.draw(st.one_of(labeled_trees(), lex_trees()))
    depths = data.draw(st.lists(st.integers(0, tree.depth), min_size=1, max_size=8))
    # the drawn depths skip and repeat; then the same ones descending
    for n in depths + sorted(depths, reverse=True):
        census = blocks_in_tree(tree, n)
        fresh = blocks_in_tree(LabeledTree(tree.arity, tree.depth, tree.labels, tree.graph), n)
        assert census.count == fresh.count
        assert census.blocks == fresh.blocks
        assert census.alphabet_size == fresh.alphabet_size


@pytest.mark.parametrize(
    "tree",
    [
        label_tree_lex(SturmianParams.fibonacci(), 12),
        label_tree_random(SturmianParams.fibonacci(), 12, seed=1),
        random_tree(3, 6, (0, 1, 2), 5),
    ],
)
def test_profile_interns_each_level_once_and_builds_no_block(tree, monkeypatch):
    # a lex tree is interned over its word graph, any other over its labels
    interner = "_intern_level" if tree.graph is None else "_intern_graph_level"
    calls = Counter()
    for name in ("_intern_level", "_intern_graph_level", "_blocks_at"):
        monkeypatch.setattr(oracle, name, _counted(getattr(oracle, name), name, calls))
    n_max = 6
    profile = tree_complexity(tree, n_max)
    assert calls == {interner: n_max}
    # a census no deeper than the memo interns nothing, and builds its
    # blocks once, on their first read
    census = blocks_in_tree(tree, n_max - 1)
    assert census.count == profile[n_max - 1]
    assert census.blocks is census.blocks and len(census.blocks) == census.count
    assert calls == {interner: n_max, "_blocks_at": 1}


def test_census_memo_takes_no_part_in_equality():
    tree = label_tree_lex(SturmianParams.fibonacci(), 8)
    plain = LabeledTree(2, 8, tree.labels)
    blocks_in_tree(tree, 4)
    assert len(tree.interned) == 5 and plain.interned == []
    assert (tree.arity, tree.depth, tree.labels) == (plain.arity, plain.depth, plain.labels)
    # with the same labels, the two intern over different nodes: the graph's
    # few, or the tree's 31 roots of a depth-4 block
    blocks_in_tree(plain, 4)
    assert len(tree.interned[4][0]) < len(plain.interned[4][0]) == node_count(2, 4)
    expected, _ = window_census(tree.labels, 2, 8, 4)
    assert blocks_in_tree(tree, 4).blocks == blocks_in_tree(plain, 4).blocks == tuple(expected)


def test_lex_census_of_every_block_depth_at_depth_20_within_budget():
    tree = label_tree_lex(SturmianParams.fibonacci(), 20)
    start = time.perf_counter()
    profile = tree_complexity(tree, 20)
    assert time.perf_counter() - start < 1.0
    assert profile[:4] == [2, 4, 6, 9] and profile[-1] == 1
