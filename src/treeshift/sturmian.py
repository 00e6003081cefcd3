"""Sturmian words and Sturmian-driven labelings of the binary tree.

A slope alpha in (0,1) defines the mechanical word
s(n) = floor((n+1) alpha) - floor(n alpha), n >= 1. Slopes enter as
exact fractions with a stated error bound (continued-fraction
convergents preferred; `fractions` is imported where a convergent is
built, so only Sturmian commands load it); every floor is evaluated in
exact integer arithmetic and certified against the error bound, so a
word is either correct or the computation refuses with
PrecisionExhausted.

A tree of depth D reads the factors of lengths 0 .. D + 1, so its
FactorOracle holds those alone. They are harvested from a window of
the mechanical word that starts at 4 (D + 2) symbols and doubles until
every length n up to D + 1 has exactly n + 1 factors; typical slopes
validate in the first window. Harvested factors are factors of the
slope, and a Sturmian language has exactly n + 1 of each length
(Lothaire, Algebraic Combinatorics on Words, 2002, Ch. 2), so full
counts mean the whole language, and they leave exactly one
right-special factor (two successors) per length. A window that would
pass HARVEST_BUDGET symbols is refused with oracle.TooLarge, and a
convergent too coarse for the window with PrecisionExhausted. An exact
rational slope of period q shows all its factors up to D + 1 within
q + D + 1 symbols, so a window that long without full counts raises
ComplexityViolation.

The tree labelings follow one growth rule: the root carries the first
symbol of the lexicographically minimal sequence of the system (0
followed by the mechanical word), and below a node whose root-to-node
path spells a non-right-special factor both children copy the unique
successor. At a right-special node the two successors are split across
the children: the lexicographic variant puts 0 left and 1 right, the
random variant flips a seeded fair coin per such node in breadth-first
order. Every root-to-node path is a factor by construction.

Both variants start from one word graph, walked in Python when the
factor oracle is built: per level, one node per path word (at most
level + 2, so at most 26), with its label, its two children's words and
the first node that carries it. The oracle keeps the graph, so the
seeds of one random report share one walk, and a shallower tree reads
the graph's first levels, which are its own graph. A lexicographic tree
is that graph alone. Below a lex node the labels depend only on its
level and path word, so the block census runs on that graph of a few
hundred nodes, in pure Python, and the table and CSV outputs read the
first labels and the left edge off it; the full label buffer is
expanded from the graph only when it is read, as JSON output does. A random tree is the
same graph expanded at once with its coins: a tree node's state is its
path word and its swap bit, each state picks the row of its children's
labels and states, and numpy gathers those rows for every node of a
level into one preallocated label buffer. The coins are drawn chunk by
chunk, m at a time from one getrandbits(32 m), which equals m
single-bit draws, from a `random.Random` that only the random labeling
imports. The random tree keeps no graph, since its subtrees depend on
the coins, so its census runs on its labels. numpy is
imported by the expansion, the coins and the census of a label array
alone, so slopes, words, factor oracles, the word graph of a lex tree
and its census run without loading it, and so do lex table and CSV
outputs.
"""

from __future__ import annotations

from collections import Counter

from .oracle import (
    DepthExceeded,
    LabeledTree,
    TooLarge,
    WordGraph,
    blocks_in_tree,
    level_bounds,
    node_count,
)

# A lex tree keeps its word graph, a few hundred nodes at any depth; its
# census and its table and CSV outputs add nothing per tree node and
# load no numpy.
# Expanding labels from the graph, for a random tree or a lex tree's
# JSON, peaks near 2 bytes per node (the label buffer and its bytes
# copy; a level's states take less) plus a chunk's 512 KiB of indices:
# 4.6 MiB at depth 20, 65 MiB at depth 24 (33.5M nodes). Either tree
# keeps 1 byte per node. A census of a random tree adds under one byte
# per node on top, plus under 1 MiB for the keys and ids of its chunks
# of up to 65,536 roots: 24.6 MiB at depth 24 for blocks of depth 4 or
# 6, 2.2 MiB at depth 20 for blocks of depth 8. That includes a level's
# dense id table: no more entries than the level has roots, each at
# most an int32, and under 2,000 entries on Sturmian trees of depth 20
# with blocks up to depth 12. The tree keeps the deepest level's ids
# and one root per distinct block of every level.
MAX_TREE_DEPTH = 24
# A factor oracle's window doubles from 4 (length + 2) symbols and is
# refused before it would pass this many. Of 300 sampled slopes with
# partial quotients 1 to 4, each validated in the first window or the
# second; [0; 2, 1, 1, 1, 1, 1, 50, 1, 1, ...] needs 1,408 symbols at
# length 20 and 2,048 at length 30. A refusal harvests every window up
# to the budget: 33-56 ms at lengths 0-30, about 120 ms for the whole
# process (CPython 3.11, a shared 2-vCPU virtual machine).
HARVEST_BUDGET = 2**16


class PrecisionExhausted(ArithmeticError):
    """A floor could not be certified at the stated slope precision."""


class ComplexityViolation(ValueError):
    """Harvested factor counts are not those of a Sturmian word."""


class SturmianParams:
    """Slope of one Sturmian system and a bound on its error."""

    def __init__(self, alpha: Fraction, alpha_error: Fraction):
        self.alpha = alpha
        self.alpha_error = alpha_error
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
        from fractions import Fraction

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
    both tested in integers. r f and the bound m e q are kept as running
    sums: each step adds p f and e q, and subtracts q f on a carry. As
    0 < p < q a step carries at most once, and s(m) is the carry of
    step m + 1.
    """
    if length < 1:
        raise ValueError("length must be at least 1")
    p, q = params.alpha.numerator, params.alpha.denominator
    e, f = params.alpha_error.numerator, params.alpha_error.denominator
    step, unit, widen = p * f, q * f, e * q
    rf = bound = 0  # r f and m e q at m = 0
    symbols = []
    for m in range(1, length + 2):
        rf += step
        bound += widen
        carry = rf >= unit
        if carry:
            rf -= unit
        if rf < bound or unit - rf <= bound:
            raise PrecisionExhausted(
                f"floor at position {m} is ambiguous within the slope error; "
                "supply more continued-fraction terms or decimal places"
            )
        symbols.append("1" if carry else "0")
    return "".join(symbols[1:])


def minimal_sequence(params: SturmianParams, length: int) -> str:
    """Lexicographically minimal sequence of the system: 0 then the mechanical word."""
    if length < 1:
        raise ValueError("length must be at least 1")
    if length == 1:
        return "0"
    return "0" + mechanical_word(params, length - 1)


class FactorOracle:
    """Factors up to length + 1 of one slope, as one set.

    alpha is the slope whose language the oracle holds, and `length` the
    deepest tree it serves. `factors` holds every factor of length at
    most length + 1, the empty word included, and both methods read it:
    a factor w of length at most `length` has as successors the symbols
    c for which w + c is in it. A word that is no factor raises
    KeyError, a length outside 0 .. `length` IndexError. `graph` is the
    word graph of the depth-`length` tree, walked from the factors when
    the oracle is built; it takes no part in equality.
    """

    def __init__(self, alpha: Fraction, length: int, factors: frozenset[str]):
        self.alpha = alpha
        self.length = length
        self.factors = factors
        self.graph = _word_graph(self, length)

    def __eq__(self, other):
        if type(other) is not FactorOracle:
            return NotImplemented
        return (self.alpha, self.factors) == (other.alpha, other.factors)

    def __repr__(self) -> str:
        return f"FactorOracle(alpha={self.alpha!r}, length={self.length})"

    def complexity(self, n: int) -> int:
        if not 0 <= n <= self.length:
            raise IndexError(f"length {n} is outside 0 .. {self.length}")
        return sum(len(w) == n for w in self.factors)

    def successors(self, w: str) -> str:
        if len(w) > self.length:
            raise IndexError(f"length {len(w)} is outside 0 .. {self.length}")
        if w not in self.factors:
            raise KeyError(w)
        return "".join(c for c in "01" if w + c in self.factors)


def build_factor_oracle(params: SturmianParams, length: int) -> FactorOracle:
    """Harvest and validate the factor language up to length + 1.

    A tree of depth `length` reads no more: its path words have lengths
    1 .. length + 1, and a word's successors are read from the factors
    one symbol longer. The window starts at 4 (length + 2) symbols and
    doubles until every length n up to length + 1 has n + 1 factors,
    read as the prefixes of its substrings of length + 1 symbols. Those
    are all of its factors of that length, and once they are all the
    slope's, every shorter factor is a prefix of one, as every factor
    extends to the right; a substring cut short by the window's end
    would add nothing. A window that would pass HARVEST_BUDGET symbols
    raises TooLarge instead. A slope given exactly, with period q, shows
    all its factors within q + length + 1 symbols, so a window that long
    without full counts raises ComplexityViolation. The oracle walks the
    word graph of the depth-`length` tree once, when it is built, and
    serves every tree of its slope up to that depth: pass it to
    `label_tree_random` to label several seeds without rebuilding it.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    window = 4 * (length + 2)
    while window <= HARVEST_BUDGET:
        word = mechanical_word(params, window)
        longest = {word[i : i + length + 1] for i in range(window - length)}
        factors = frozenset(w[:n] for w in longest for n in range(length + 2))
        counts = Counter(map(len, factors))
        short = next((n for n in range(length + 2) if counts[n] != n + 1), None)
        # A mechanical word is balanced, so it has at most n + 1 factors
        # of length n, and full counts mean the window holds the whole
        # language up to length + 1. Every factor of length n <= length
        # then extends to the right, and n + 2 extensions of n + 1
        # factors leave exactly one right-special factor per length.
        if short is None:
            return FactorOracle(params.alpha, length, factors)
        if params.alpha_error == 0 and window >= params.alpha.denominator + length + 1:
            raise ComplexityViolation(
                f"found {counts[short]} factors of length {short}, expected {short + 1}; "
                f"the slope {params.alpha} is rational"
            )
        window *= 2
    raise TooLarge(
        f"harvesting the factors up to length {length + 1} of the slope would pass "
        f"the budget of {HARVEST_BUDGET} symbols"
    )


def check_depth(depth: int) -> None:
    """Refuse a tree depth outside 0 .. MAX_TREE_DEPTH, before its oracle is built."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if depth > MAX_TREE_DEPTH:
        raise ValueError(f"depth {depth} is above the cap of {MAX_TREE_DEPTH}")


def label_tree_lex(params: SturmianParams, depth: int) -> LabeledTree:
    """Label the binary tree, splitting right-special nodes as 0 left, 1 right.

    The tree is given its WordGraph alone, the one its factor oracle walked.
    """
    check_depth(depth)
    return LabeledTree(2, depth, graph=build_factor_oracle(params, depth).graph)


def label_tree_random(
    params: SturmianParams, depth: int, seed: int = 0, oracle: FactorOracle | None = None
) -> LabeledTree:
    """Label the binary tree, splitting right-special nodes by a seeded coin.

    One fair bit is drawn per right-special node in breadth-first
    order; bit 0 assigns (0 left, 1 right), bit 1 the reverse. The
    same seed always reproduces the same tree. The labels are expanded
    from the first levels of the oracle's word graph with these coins,
    and the tree keeps no graph: below a node its subtree depends on the
    coins, not only on its path word. `oracle` is a
    `build_factor_oracle(params, length)` with length at least `depth`,
    built here to the depth when not given; seeds that share the oracle
    share its one walk of the graph.
    """
    check_depth(depth)
    if oracle is None:
        oracle = build_factor_oracle(params, depth)
    elif oracle.alpha != params.alpha:
        raise ValueError(f"the oracle was built for slope {oracle.alpha}, not {params.alpha}")
    elif oracle.length < depth:
        raise ValueError(f"the oracle was built for length {oracle.length}, below depth {depth}")
    import random

    rng = random.Random(seed)
    labels = oracle.graph.expand(2, depth, lambda m: _coin_bits(rng, m))
    return LabeledTree(2, depth, labels)


def _word_graph(oracle: FactorOracle, depth: int) -> WordGraph:
    """The lex tree's WordGraph: one node per path word of each level.

    Walked in Python, a node's word w has children w + c for the first
    and the last successor c of w, the same node when w is not right
    special. A level's words are listed in the order their first tree
    nodes come, so the first time a word is reached, as left child
    before right of the words in that order, is at its first node.
    """
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
    return WordGraph(bytes(labels), tuple(children), tuple(first))


def _coin_bits(rng: random.Random, m: int):
    """The bits of m successive rng.getrandbits(1) calls, drawn at once.

    getrandbits(1) is the top bit of one 32-bit output of the generator,
    and getrandbits(32 * m) packs m successive outputs, the first in the
    least significant word. So the top bit of each little-endian word
    repeats the m single draws and leaves the generator in the same state.
    """
    import numpy as np

    return np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), dtype="<u4") >> 31


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
    interns each of levels 1 .. n_max once, and builds no block. An
    n_max past the tree's depth is refused before any census.
    """
    if n_max < 0:
        raise ValueError("block depth must be nonnegative")
    if n_max > tree.depth:
        raise DepthExceeded(f"block depth {n_max} exceeds tree depth {tree.depth}")
    return [blocks_in_tree(tree, n).count for n in range(n_max + 1)]
