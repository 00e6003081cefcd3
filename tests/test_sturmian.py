"""Mechanical words, factor oracles, and tree labelings."""

import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fibonacci_word, fraction_mechanical_word, lex_tree_labels
from treeshift import sturmian
from treeshift.oracle import DepthExceeded, LabeledTree, TooLarge, blocks_in_tree
from treeshift.sturmian import (
    HARVEST_BUDGET,
    MAX_TREE_DEPTH,
    ComplexityViolation,
    PrecisionExhausted,
    SturmianParams,
    build_factor_oracle,
    label_tree_lex,
    label_tree_random,
    left_edge_word,
    mechanical_word,
    minimal_sequence,
    path_words,
    tree_complexity,
)

FIB = SturmianParams.fibonacci()


# ---------------------------------------------------------------------------
# parameters


def test_params_validation():
    with pytest.raises(ValueError):
        SturmianParams(Fraction(0), Fraction(0))
    with pytest.raises(ValueError):
        SturmianParams(Fraction(3, 2), Fraction(0))
    with pytest.raises(ValueError):
        SturmianParams(Fraction(1, 3), Fraction(-1, 10))


def test_continued_fraction_convergents():
    p = SturmianParams.from_continued_fraction([0, 2, 1, 1])
    assert p.alpha == Fraction(2, 5)
    assert p.alpha_error == Fraction(1, 25)
    with pytest.raises(ValueError):
        SturmianParams.from_continued_fraction([0])
    with pytest.raises(ValueError):
        SturmianParams.from_continued_fraction([1, 2, 3])
    with pytest.raises(ValueError):
        SturmianParams.from_continued_fraction([0, 2, 0])


def test_fibonacci_convergent_is_deep():
    assert FIB.alpha == Fraction(14472334024676221, 37889062373143906)
    assert FIB.alpha_error == Fraction(1, 37889062373143906**2)


def test_convergent_error_bounds_bracket_the_slope():
    # every truncation of the golden expansion lies within its own
    # 1/q^2 bound of the deep convergent, up to that one's bound
    for length in range(2, 30):
        p = SturmianParams.from_continued_fraction([0, 2] + [1] * (length - 2))
        assert abs(p.alpha - FIB.alpha) <= p.alpha_error + FIB.alpha_error, length


# ---------------------------------------------------------------------------
# words


def test_mechanical_word_matches_substitution_fixed_point():
    assert mechanical_word(FIB, 1000) == fibonacci_word(1000)


def test_mechanical_word_starts_at_index_one():
    assert mechanical_word(FIB, 1)[0] == "0"
    with pytest.raises(ValueError):
        mechanical_word(FIB, 0)


def test_minimal_sequence_prefixes():
    assert minimal_sequence(FIB, 1) == "0"
    assert minimal_sequence(FIB, 14) == "0" + mechanical_word(FIB, 13)
    assert minimal_sequence(FIB, 13) == "0010010100100"
    with pytest.raises(ValueError):
        minimal_sequence(FIB, 0)


def test_precision_exhausted_for_coarse_decimal():
    coarse = SturmianParams.from_continued_fraction([0, 3, 1, 1])
    with pytest.raises(PrecisionExhausted):
        mechanical_word(coarse, 50)


@pytest.mark.parametrize(
    "params",
    [
        FIB,
        SturmianParams.from_continued_fraction([0, 3, 1, 1]),
        SturmianParams.from_continued_fraction([0, 2, 1, 1, 1, 1, 1, 1]),
        SturmianParams.from_continued_fraction([0, 1, 2, 3, 4, 5, 6]),
        SturmianParams.from_continued_fraction([0, 3, 1, 2, 1, 1, 4, 1, 3, 2, 1, 5]),
        SturmianParams(Fraction(381966, 10**6), Fraction(1, 10**6)),
        SturmianParams(Fraction(5, 13), Fraction(0)),
        SturmianParams(Fraction(1, 3), Fraction(0)),
    ],
)
def test_mechanical_word_matches_fraction_reference(params):
    expected, refused_at = fraction_mechanical_word(params.alpha, params.alpha_error, 1000)
    if refused_at is None:
        assert mechanical_word(params, 1000) == expected
    else:
        with pytest.raises(PrecisionExhausted) as caught:
            mechanical_word(params, 1000)
        assert re.search(r"position (\d+) ", str(caught.value)).group(1) == str(refused_at)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.integers(2, 12),
    st.lists(st.integers(1, 12), max_size=30),
    st.integers(1, 10**4),
    st.sampled_from([1, 2, 60, 1000]),
)
def test_mechanical_word_matches_fraction_reference_on_drawn_slopes(first, rest, widen, length):
    # short expansions are coarse enough to be refused within 1000 symbols;
    # with the 1/q^2 error that happens at m = q, where the remainder is 0,
    # and a widened error is refused earlier, where the bound decides
    convergent = SturmianParams.from_continued_fraction([0, first, *rest])
    params = SturmianParams(convergent.alpha, convergent.alpha_error * widen)
    expected, refused_at = fraction_mechanical_word(params.alpha, params.alpha_error, length)
    if refused_at is None:
        assert mechanical_word(params, length) == expected
    else:
        with pytest.raises(PrecisionExhausted, match=f"position {refused_at} "):
            mechanical_word(params, length)


def _harvests(monkeypatch) -> list:
    """Record the window of every harvest build_factor_oracle makes."""
    windows = []
    real = sturmian.mechanical_word

    def recorded(params, length):
        windows.append(length)
        return real(params, length)

    monkeypatch.setattr(sturmian, "mechanical_word", recorded)
    return windows


def test_rational_slope_violates_complexity(monkeypatch):
    # period 3 shows every factor in the first 3 + length + 1 symbols,
    # so the first window decides, far below the harvest budget
    windows = _harvests(monkeypatch)
    rational = SturmianParams(Fraction(1, 3), Fraction(0))
    for length in (2, 10, 30):
        windows.clear()
        with pytest.raises(ComplexityViolation, match="3 factors of length 3, expected 4; .* 1/3 "):
            build_factor_oracle(rational, length)
        assert windows == [4 * (length + 2)]


def test_shallow_tree_oracle_still_reaches_the_length_floor():
    # slope 1/20 has period 20, so it has n + 1 factors of each length
    # n < 20: a tree of depth up to 18 labels, and depth 19 reads length 20
    slope = SturmianParams(Fraction(1, 20), Fraction(0))
    word = mechanical_word(slope, 200)

    def successors(w):
        return "".join(c for c in "01" if w + c in word)

    for depth in (0, 5, 18):
        assert label_tree_lex(slope, depth).labels == lex_tree_labels(successors, depth)
    with pytest.raises(ComplexityViolation, match="found 20 factors of length 20, expected 21"):
        label_tree_lex(slope, 19)


# convergents of irrational slopes, with the 1/q^2 bound: one whose
# factors need a long harvest, and one whose factors no harvest budget holds
LATE_RUNS = SturmianParams.from_continued_fraction([0, 2, 1, 1, 1, 1, 1, 50] + [1] * 40)
FIRST_ONE_NEAR_1E9 = SturmianParams.from_continued_fraction([0, 1000000000] + [1] * 40)


def test_late_runs_slope_labels_as_the_reference_harvest():
    # a reference harvest in Fractions feeds the node-by-node labeler;
    # the slope's factors of length 21 all appear only by symbol 1,083,
    # and the oracles of deeper trees still hold its whole language
    word, refused_at = fraction_mechanical_word(LATE_RUNS.alpha, LATE_RUNS.alpha_error, 4096)
    assert refused_at is None
    factors = {word[i : i + n] for n in range(26) for i in range(len(word) - n + 1)}
    assert sorted(Counter(map(len, factors)).values()) == list(range(1, 27))

    def successors(w):
        return "".join(c for c in "01" if w + c in factors)

    for depth in range(13):
        assert label_tree_lex(LATE_RUNS, depth).labels == lex_tree_labels(successors, depth)
    for length in (20, 24):
        oracle = build_factor_oracle(LATE_RUNS, length)
        assert oracle.factors == {w for w in factors if len(w) <= length + 1}


def test_slope_past_the_harvest_budget_is_refused(monkeypatch):
    # the first 1 comes near symbol 10^9, so no budget could hold the
    # factor "1"; the harvest stops at the budget
    windows = _harvests(monkeypatch)
    with pytest.raises(TooLarge, match=f"up to length 1 .* budget of {HARVEST_BUDGET} symbols"):
        build_factor_oracle(FIRST_ONE_NEAR_1E9, 0)
    assert windows == [2**k for k in range(3, 17)] and windows[-1] == HARVEST_BUDGET
    with pytest.raises(TooLarge, match="up to length 13 "):
        label_tree_lex(FIRST_ONE_NEAR_1E9, 12)
    # a length whose first window is past the budget harvests nothing
    windows.clear()
    with pytest.raises(TooLarge):
        build_factor_oracle(FIB, HARVEST_BUDGET // 4)
    assert windows == []


def test_a_negative_oracle_length_is_refused():
    with pytest.raises(ValueError, match="length must be nonnegative"):
        build_factor_oracle(FIB, -1)


# ---------------------------------------------------------------------------
# factor oracle


def test_oracle_complexity_and_factors():
    oracle = build_factor_oracle(FIB, 30)
    for n in range(31):
        assert oracle.complexity(n) == n + 1
    assert sorted(w for w in oracle.factors if len(w) == 1) == ["0", "1"]
    assert sorted(w for w in oracle.factors if len(w) == 2) == ["00", "01", "10"]
    assert oracle.successors("") == "01"
    assert oracle.successors("0") == "01"
    assert oracle.successors("1") == "0"
    assert "00100" in oracle.factors
    assert "11" not in oracle.factors


@pytest.mark.parametrize(
    "terms", [[0, 2] + [1] * 78, [0] + [1, 3, 2, 1, 1, 2, 3, 3, 1, 2] * 4, [0] + [4, 1] * 20]
)
def test_oracle_factors_are_every_window_of_the_harvest(terms):
    # the oracle harvests shorter factors from prefixes of the longest
    # windows; the reference slices every window of every length
    params = SturmianParams.from_continued_fraction(terms)
    word, refused_at = fraction_mechanical_word(params.alpha, params.alpha_error, 1000)
    assert refused_at is None
    oracle = build_factor_oracle(params, 30)
    windows = {word[i : i + n] for n in range(32) for i in range(len(word) - n + 1)}
    assert oracle.factors == windows


def test_oracle_harvest_reads_the_windows_that_start_in_the_tail(monkeypatch):
    # this word alternates 0 and 1 until a "00" at index 714, so its
    # factor "00" + 20 symbols starts in the last substring of 22
    # symbols that fits in 736: the harvest stops at 736 only if it
    # reads that one
    params = SturmianParams.from_continued_fraction([0, 2, 357] + [1] * 20)
    word = mechanical_word(params, 736)
    assert word.find("00") == 714 == 736 - 22
    windows = _harvests(monkeypatch)
    oracle = build_factor_oracle(params, 21)
    assert windows == [92, 184, 368, 736]
    assert oracle.factors == {word[i : i + n] for n in range(23) for i in range(736 - n + 1)}


def test_oracle_successors_close_under_extension():
    oracle = build_factor_oracle(FIB, 30)
    for w in oracle.factors:
        if len(w) < oracle.length:
            for c in oracle.successors(w):
                assert w + c in oracle.factors


def test_oracle_refuses_non_factors_and_lengths_past_its_own():
    oracle = build_factor_oracle(FIB, 30)
    with pytest.raises(KeyError):
        oracle.successors("11")
    # the longest factors are held, but past the lengths the oracle answers for
    longest = mechanical_word(FIB, 31)
    assert longest in oracle.factors
    with pytest.raises(IndexError):
        oracle.successors(longest)
    with pytest.raises(IndexError):
        oracle.complexity(31)


# ---------------------------------------------------------------------------
# tree labelings


def test_lex_tree_small_depths():
    assert label_tree_lex(FIB, 0).labels == bytes([0])
    assert label_tree_lex(FIB, 2).labels == bytes([0, 0, 1, 1, 1, 0, 0])
    deep = label_tree_lex(FIB, 3)
    assert deep.labels == bytes([0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1])


def test_lex_tree_left_edge_is_minimal():
    tree = label_tree_lex(FIB, 12)
    assert left_edge_word(tree) == minimal_sequence(FIB, 13)


def test_path_words_levels():
    tree = label_tree_lex(FIB, 2)
    assert path_words(tree, 0) == ["0"]
    assert path_words(tree, 1) == ["00", "01"]
    assert path_words(tree, 2) == ["001", "001", "010", "010"]
    with pytest.raises(ValueError):
        path_words(tree, 3)


def test_path_words_and_left_edge_follow_the_arity():
    # labels are node indices mod 10, so each word spells its root-to-node path
    tree = LabeledTree(3, 2, bytes(v % 10 for v in range(13)))
    walk = [[(str(tree.labels[0]), 0)]]
    for _ in range(tree.depth):
        walk.append(
            [(w + str(tree.labels[c]), c)
             for w, v in walk[-1] for c in range(3 * v + 1, 3 * v + 4)]
        )
    for level, nodes in enumerate(walk):
        assert path_words(tree, level) == [w for w, _ in nodes]
    assert path_words(tree, 2) == [
        "014", "015", "016", "027", "028", "029", "030", "031", "032"
    ]
    assert left_edge_word(tree) == "014"


def test_path_words_refuse_labels_past_nine():
    # joined without a separator, [1, 11] and [11, 1] would both spell "111"
    for labels in ([1, 11, 0], [11, 1, 0]):
        tree = LabeledTree(2, 1, bytes(labels))
        with pytest.raises(ValueError, match="one-digit"):
            path_words(tree, 1)
        with pytest.raises(ValueError, match="one-digit"):
            left_edge_word(tree)
    # only the labels a word reads are checked
    tree = LabeledTree(3, 2, bytes(range(13)))
    assert path_words(tree, 1) == ["01", "02", "03"]
    with pytest.raises(ValueError, match="one-digit"):
        path_words(tree, 2)


def test_every_path_word_is_a_factor():
    oracle = build_factor_oracle(FIB, 8)
    lex = label_tree_lex(FIB, 8)
    rnd = label_tree_random(FIB, 8, seed=3)
    for tree in (lex, rnd):
        for level in range(9):
            for w in path_words(tree, level):
                assert w in oracle.factors


def test_lex_tree_complexity_profile():
    tree = label_tree_lex(FIB, 12)
    assert tree_complexity(tree, 6) == [2, 4, 6, 9, 10, 11, 11]


def test_complexity_bounds_distinct_path_words():
    lex = label_tree_lex(FIB, 12)
    rnd = label_tree_random(FIB, 12, seed=5)
    for tree in (lex, rnd):
        profile = tree_complexity(tree, 6)
        for n in range(7):
            assert profile[n] >= len(set(path_words(tree, n)))


def test_random_labeling_deterministic_per_seed():
    a = label_tree_random(FIB, 10, seed=7)
    b = label_tree_random(FIB, 10, seed=7)
    assert a.labels == b.labels
    c = label_tree_random(FIB, 10, seed=8)
    assert a.labels != c.labels


def test_shared_oracle_labels_the_same_trees():
    oracle = build_factor_oracle(FIB, 10)
    for seed in range(4):
        shared = label_tree_random(FIB, 10, seed, oracle)
        own = label_tree_random(FIB, 10, seed)
        assert (shared.arity, shared.depth, shared.labels) == (own.arity, own.depth, own.labels)
    other = SturmianParams.from_continued_fraction([0, 3, 1, 2, 1, 1, 4] + [1] * 30)
    with pytest.raises(ValueError, match="built for slope"):
        label_tree_random(other, 10, 0, oracle)
    assert tree_complexity(label_tree_random(other, 10, 0, build_factor_oracle(other, 10)), 3) == [
        2, 5, 11, 27
    ]
    with pytest.raises(ValueError):
        label_tree_random(FIB, -1, 0, oracle)
    with pytest.raises(ValueError):
        label_tree_random(FIB, MAX_TREE_DEPTH + 1, 0, oracle)


def test_random_labeling_peaks_below_2_5_bytes_per_node():
    import tracemalloc

    oracle = build_factor_oracle(FIB, 20)
    label_tree_random(FIB, 4, 0, oracle)  # loads numpy
    tracemalloc.start()
    try:
        tree = label_tree_random(FIB, 20, 1, oracle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the label buffer and its bytes copy take 2 bytes per node
    assert peak < 2.5 * tree.size


def test_one_oracle_serves_every_depth():
    # a labeling reads factors up to its depth, so an oracle of length L
    # serves depths 0 .. L and refuses L + 1
    oracle = build_factor_oracle(FIB, 16)
    for depth in (0, 1, 15, 16):
        for seed in range(3):
            shared = label_tree_random(FIB, depth, seed, oracle)
            own = label_tree_random(FIB, depth, seed)
            assert (shared.arity, shared.depth) == (own.arity, own.depth) == (2, depth)
            assert shared.labels == own.labels, (depth, seed)
    with pytest.raises(ValueError, match="built for length 16, below depth 17"):
        label_tree_random(FIB, 17, 0, oracle)


def test_walked_word_graphs_take_no_part_in_oracle_equality():
    # the oracle keeps the graph of each depth labeled from it
    oracle = build_factor_oracle(FIB, 12)
    label_tree_random(FIB, 12, 0, oracle)
    assert oracle == build_factor_oracle(FIB, 12)
    assert repr(oracle) == repr(build_factor_oracle(FIB, 12))


def test_an_oracle_is_unequal_to_other_types():
    # its __eq__ answers NotImplemented, so == falls back to identity
    oracle = build_factor_oracle(FIB, 12)
    assert oracle.__eq__("x") is NotImplemented
    assert (oracle == "x") is False
    assert oracle != oracle.factors


def test_leaf_multiset_invariant_across_seeds():
    reference = sorted(path_words(label_tree_lex(FIB, 10), 10))
    for seed in range(10):
        tree = label_tree_random(FIB, 10, seed=seed)
        assert sorted(path_words(tree, 10)) == reference, seed


def test_depth_limits():
    with pytest.raises(ValueError):
        label_tree_lex(FIB, MAX_TREE_DEPTH + 1)
    with pytest.raises(ValueError):
        label_tree_lex(FIB, -1)
    tree = label_tree_lex(FIB, 3)
    with pytest.raises(DepthExceeded):
        tree_complexity(tree, 4)
    # past the tree's depth a profile is refused before any census
    tree = label_tree_random(FIB, 20, 0)
    with pytest.raises(DepthExceeded, match="block depth 21 exceeds tree depth 20"):
        tree_complexity(tree, 21)
    assert tree.interned == []
    # a negative profile depth is refused as a negative block depth is
    tree = label_tree_random(FIB, 4, 0)
    with pytest.raises(ValueError, match="block depth must be nonnegative"):
        blocks_in_tree(tree, -1)
    with pytest.raises(ValueError, match="block depth must be nonnegative"):
        tree_complexity(tree, -1)
