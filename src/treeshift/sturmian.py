"""Sturmian words and Sturmian-driven labelings of the binary tree.

A slope alpha in (0,1) defines the mechanical word
s(n) = floor((n+1) alpha) - floor(n alpha), n >= 1. Slopes enter as
exact fractions with a stated error bound (continued-fraction
convergents preferred); every floor is evaluated in exact integer
arithmetic and certified against the error bound, so a word is either
correct or the computation refuses with PrecisionExhausted.

Factors are harvested from the first HARVEST_WINDOW symbols into a
FactorOracle that knows every factor up to length ORACLE_LEN and its
valid successor symbols, the same for every tree of the slope. For
an irrational slope the factor counts must hit p(n) = n + 1 exactly,
with exactly one right-special factor (two successors) per length; any
deviation raises ComplexityViolation, which is also how rational slopes
and too-small harvest windows are caught.

The tree labelings follow one growth rule: the root carries the first
symbol of the lexicographically minimal sequence of the system (0
followed by the mechanical word), and below a node whose root-to-node
path spells a non-right-special factor both children copy the unique
successor. At a right-special node the two successors are split across
the children: the lexicographic variant puts 0 left and 1 right, the
random variant flips a seeded fair coin per such node in breadth-first
order. Every root-to-node path is a factor by construction.

A lexicographic tree is built as its word graph alone: Python walks
each level's path words (at most level + 2, so at most 26) and records
per word its label, its two children's words and the first node that
carries it. Below a lex node the labels depend only on its level and
path word, so the block census runs on that graph of a few hundred
nodes, and the table and CSV outputs read the first labels and the left
edge off it; the full label buffer is expanded from the graph only when
it is read, as JSON output does. A random tree is labeled one level in
one step: Python tabulates, for each path word and swap bit, the
children's symbols and words; numpy then gathers those rows for every
node of the level by its uint8 word id, into one preallocated label
buffer. The m coins of a level come from one getrandbits(32 m), which
equals m single-bit draws. numpy is imported by the random labeler, the
expansion and the census alone, so slopes, words, factor oracles and the
word graph of a lex tree are built without loading it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .oracle import LabeledTree, WordGraph, blocks_in_tree, level_bounds, node_count

# A lex tree keeps its word graph, a few hundred nodes at any depth; its
# census and its table and CSV outputs add nothing per tree node.
# Labeling a random tree peaks near 2.75 bytes per node (the label
# buffer, its bytes copy, one level of uint8 gathers): 5.6 MiB at depth
# 20, 88 MiB at depth 24 (33.5M nodes). Expanding a lex tree's labels,
# as JSON output does, peaks at 2 bytes per node, 64 MiB at depth 24.
# Either keeps 1 byte per node. A census of a random tree
# adds under one byte per node on top, 24 MiB at depth 24 for blocks of
# depth 4, plus a level's dense id table: no more entries than the level
# has roots, each at most an int32, and under 2,000 entries on Sturmian
# trees of depth 20 with blocks up to depth 12. The tree keeps the
# deepest level's ids and one root per distinct block of every level.
MAX_TREE_DEPTH = 24
# Every factor oracle harvests HARVEST_WINDOW symbols and is validated
# up to length ORACLE_LEN, whatever the tree; a labeling reads factors
# up to its depth, so ORACLE_LEN >= MAX_TREE_DEPTH must hold.
HARVEST_WINDOW = 1000
ORACLE_LEN = 30


class PrecisionExhausted(ArithmeticError):
    """A floor could not be certified at the stated slope precision."""


class ComplexityViolation(ValueError):
    """Harvested factor counts are not those of a Sturmian word."""


@dataclass(frozen=True)
class SturmianParams:
    """Slope of one Sturmian system and a bound on its error."""

    alpha: Fraction
    alpha_error: Fraction

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if self.alpha_error < 0:
            raise ValueError("alpha_error must be nonnegative")

    @classmethod
    def from_continued_fraction(cls, terms) -> "SturmianParams":
        """Convergent of [a0; a1, a2, ...] with the 1/q^2 error bound."""
        terms = list(terms)
        if len(terms) < 2:
            raise ValueError("need at least two continued-fraction terms")
        if terms[0] != 0:
            raise ValueError("first term must be 0 for a slope in (0, 1)")
        if any(t < 1 for t in terms[1:]):
            raise ValueError("continued-fraction terms after the first must be >= 1")
        p_prev, p_cur = 1, terms[0]
        q_prev, q_cur = 0, 1
        for a in terms[1:]:
            p_prev, p_cur = p_cur, a * p_cur + p_prev
            q_prev, q_cur = q_cur, a * q_cur + q_prev
        alpha = Fraction(p_cur, q_cur)
        return cls(alpha, Fraction(1, q_cur * q_cur))

    @classmethod
    def fibonacci(cls) -> "SturmianParams":
        """Slope 1/golden^2 = [0; 2, 1, 1, ...], from 80 terms."""
        return cls.from_continued_fraction([0, 2] + [1] * 78)


def mechanical_word(params: SturmianParams, length: int) -> str:
    """First `length` symbols s(1) .. s(length) of the mechanical word.

    With alpha = p/q and its error e/f, floor(m alpha) is the quotient
    of m p by q; it is certified when the remainder r keeps the whole
    error interval inside one unit, r/q >= m e/f and (q - r)/q > m e/f,
    both tested in integers.
    """
    if length < 1:
        raise ValueError("length must be at least 1")
    p, q = params.alpha.numerator, params.alpha.denominator
    e, f = params.alpha_error.numerator, params.alpha_error.denominator
    floors = []
    for m in range(1, length + 2):
        base, rem = divmod(m * p, q)
        bound = m * e * q
        if rem * f < bound or (q - rem) * f <= bound:
            raise PrecisionExhausted(
                f"floor at position {m} is ambiguous within the slope error; "
                "supply more continued-fraction terms or decimal places"
            )
        floors.append(base)
    return "".join(str(b - a) for a, b in zip(floors, floors[1:]))


def minimal_sequence(params: SturmianParams, length: int) -> str:
    """Lexicographically minimal sequence of the system: 0 then the mechanical word."""
    if length < 1:
        raise ValueError("length must be at least 1")
    if length == 1:
        return "0"
    return "0" + mechanical_word(params, length - 1)


@dataclass(frozen=True)
class FactorOracle:
    """Factors up to ORACLE_LEN with their valid successor symbols.

    alpha is the slope whose language the oracle holds. table[n] maps
    each length-n factor to its successors as a sorted string ("0", "1"
    or "01"); the empty factor at n = 0 is included.
    """

    alpha: Fraction
    table: tuple[dict, ...] = field(repr=False)

    def complexity(self, n: int) -> int:
        return len(self.table[n])

    def successors(self, w: str) -> str:
        return self.table[len(w)][w]


def build_factor_oracle(params: SturmianParams) -> FactorOracle:
    """Harvest and validate the factor language up to ORACLE_LEN.

    Every length n, the empty word at n = 0 included, follows one rule:
    a factor w maps to the symbols c in "01" for which w + c is a
    factor of length n + 1. One oracle serves every tree of its slope:
    pass it to `label_tree_random` to label several seeds without
    rebuilding it.
    """
    word = mechanical_word(params, HARVEST_WINDOW)
    # A shorter factor is a prefix of a longest window, or a window that
    # starts in the tail too short for a longest one.
    top = ORACLE_LEN + 1
    longest = {word[i : i + top] for i in range(len(word) - top + 1)}
    tail = word[len(word) - top + 1 :]
    by_length = []
    for n in range(top + 1):
        found = {w[:n] for w in longest} | {tail[i : i + n] for i in range(len(tail) - n + 1)}
        if len(found) != n + 1:
            raise ComplexityViolation(
                f"found {len(found)} factors of length {n}, expected {n + 1}; "
                "the slope may be rational or the harvest window too small"
            )
        by_length.append(found)
    table = tuple(
        {w: "".join(c for c in "01" if w + c in longer) for w in sorted(shorter)}
        for shorter, longer in zip(by_length, by_length[1:])
    )
    for n, entry in enumerate(table):
        special = [w for w, succ in entry.items() if len(succ) == 2]
        if len(special) != 1:
            raise ComplexityViolation(
                f"{len(special)} right-special factors of length {n}, expected 1"
            )
    return FactorOracle(params.alpha, table)


def _check_depth(depth: int) -> None:
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if depth > MAX_TREE_DEPTH:
        raise ValueError(f"depth {depth} is above the cap of {MAX_TREE_DEPTH}")


def label_tree_lex(params: SturmianParams, depth: int) -> LabeledTree:
    """Label the binary tree, splitting right-special nodes as 0 left, 1 right.

    The tree is given its WordGraph alone, one node per path word of
    each level, walked here in Python: a node's word w has children
    w + c for the first and the last successor c of w. A level's words
    are listed in the order their first tree nodes come, so the first
    time a word is reached, as left child before right of the words in
    that order, is at its first node.
    """
    _check_depth(depth)
    oracle = build_factor_oracle(params)
    words = ["0"]  # the first symbol of every minimal sequence
    labels, children, first = [0], [], [0]
    for _ in range(depth):
        base = len(first)
        index: dict[str, int] = {}
        for w, v in zip(words, first[base - len(words) :]):
            succ = oracle.successors(w)
            for side, c in enumerate(succ[0] + succ[-1]):
                g = index.setdefault(w + c, len(index))
                children.append(base + g)
                if base + g == len(first):
                    first.append(2 * v + 1 + side)
                    labels.append(int(c))
        words = list(index)
    return LabeledTree(2, depth, graph=WordGraph(bytes(labels), tuple(children), tuple(first)))


def label_tree_random(
    params: SturmianParams, depth: int, seed: int = 0, oracle: FactorOracle | None = None
) -> LabeledTree:
    """Label the binary tree, splitting right-special nodes by a seeded coin.

    One fair bit is drawn per right-special node in breadth-first
    order; bit 0 assigns (0 left, 1 right), bit 1 the reverse. The
    same seed always reproduces the same tree. `oracle` is the
    `build_factor_oracle(params)`, built here when not given.
    """
    _check_depth(depth)
    if oracle is None:
        oracle = build_factor_oracle(params)
    elif oracle.alpha != params.alpha:
        raise ValueError(f"the oracle was built for slope {oracle.alpha}, not {params.alpha}")
    rng = random.Random(seed)
    return _fill_tree(oracle, depth, coins=lambda m: _coin_bits(rng, m))


def _coin_bits(rng: random.Random, m: int):
    """The bits of m successive rng.getrandbits(1) calls, drawn at once.

    getrandbits(1) is the top bit of one 32-bit output of the generator,
    and getrandbits(32 * m) packs m successive outputs, the first in the
    least significant word. So the top bit of each little-endian word
    repeats the m single draws and leaves the generator in the same state.
    """
    import numpy as np

    words = np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), dtype="<u4")
    return (words >> 31).astype(np.uint8)


def _fill_tree(oracle: FactorOracle, depth: int, coins) -> LabeledTree:
    """Label level by level; `coins(m)` gives the swap bits of m right-special nodes."""
    import numpy as np

    labels = np.empty(node_count(2, depth), dtype=np.uint8)
    labels[0] = 0  # the first symbol of every minimal sequence
    words = ["0"]
    ids = np.zeros(1, dtype=np.uint8)  # path-word id of every node of the level
    for level in range(depth):
        special, moves, words = _factor_table(oracle, words)
        left_symbol, left_word, right_symbol, right_word = moves
        # state 2f + s: path word f, children swapped when s = 1
        state = ids << 1
        split = special[ids]
        state[split] |= coins(int(np.count_nonzero(split)))
        lo, hi = level_bounds(2, level + 1)
        children = labels[lo:hi].reshape(-1, 2)
        children[:, 0] = left_symbol[state]
        children[:, 1] = right_symbol[state]
        if level + 1 < depth:
            ids = np.empty_like(children)
            ids[:, 0] = left_word[state]
            ids[:, 1] = right_word[state]
            ids = ids.reshape(-1)
    return LabeledTree(2, depth, labels.tobytes())


def _factor_table(oracle: FactorOracle, words: list[str]):
    """Where each path word of a level leads, and the words one level down.

    Returns a right-special flag per word, and per state 2f + s the left
    child's symbol and word id, then the right child's, as four uint8
    rows; s = 1 swaps the two successors of a right-special word.
    """
    import numpy as np

    next_index: dict[str, int] = {}
    special = []
    moves = []
    for w in words:
        pairs = [
            (int(c), next_index.setdefault(w + c, len(next_index)))
            for c in oracle.successors(w)
        ]
        special.append(len(pairs) == 2)
        moves.append(pairs[0] + pairs[-1])
        moves.append(pairs[-1] + pairs[0])
    return np.array(special), np.array(moves, dtype=np.uint8).T.copy(), list(next_index)


def path_words(tree: LabeledTree, level: int) -> list[str]:
    """Root-to-node words of one level, left to right, at any arity.

    Node v of a level starting at lo extends the word of the
    ((v - lo) // arity)-th node of the level above. Each label is one
    digit, so labels above 9 are refused.
    """
    if level < 0 or level > tree.depth:
        raise ValueError("level must lie within the tree depth")
    symbols = _digits(tree.labels_at(range(node_count(tree.arity, level))))
    words = [symbols[0]]
    for l in range(1, level + 1):
        lo, hi = level_bounds(tree.arity, l)
        words = [words[(v - lo) // tree.arity] + symbols[v] for v in range(lo, hi)]
    return words


def left_edge_word(tree: LabeledTree) -> str:
    """Labels down the leftmost path: the first node of every level, one digit each."""
    return _digits(tree.labels_at(node_count(tree.arity, l - 1) for l in range(tree.depth + 1)))


def _digits(labels: bytes) -> str:
    """One digit per label; a label above 9 would make two words collide."""
    top = max(labels)
    if top > 9:
        raise ValueError(f"label {top} has no one-digit symbol")
    return "".join(map(str, labels))


def tree_complexity(tree: LabeledTree, n_max: int) -> list[int]:
    """p(n) of the tree for n = 0 .. n_max, one census per n.

    The tree keeps the levels its censuses intern, so the profile
    interns each of levels 1 .. n_max once, and builds no block.
    """
    return [blocks_in_tree(tree, n).count for n in range(n_max + 1)]
