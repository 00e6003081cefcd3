"""Exhaustive ground truth at small depth.

Everything here works on explicit labelings laid out breadth first:
index 0 is the root and the children of index i are k*i+1 .. k*i+k, so
a depth-n tree over arity k occupies (k^(n+1)-1)/(k-1) consecutive
labels and the level-l slice sits between node_count(k, l-1) and
node_count(k, l). Blocks are encoded as the bytes of that layout, one
symbol index per byte: fixed length, hashable, and lexicographic order
on the encoding is the canonical census order.

enumerate_configs lists every valid labeling by level composition: a
depth-(n+1) labeling is a root symbol over k independently chosen valid
depth-n labelings whose roots follow it, which also makes the
construction emit each labeling exactly once. A listed labeling is the
nested tuple (root symbol, its k child labelings), which holds its
children by reference, as hash-consing does (below), so one
itertools.product per root symbol builds a level. Listing is refused
above MATERIALIZE_CAP nodes, and above LISTING_BUDGET labelings, counted
by `exact_level` before anything is listed. Like every census, the
listing's blocks, the breadth-first layouts of its labelings, are built,
sorted and checked only when its `blocks` is read, so a caller that
reads only its counts builds no bytes. Exact counts without the blocks
come from `exact_level` alone: it runs the same composition as a
per-symbol dynamic program over exact integers, is also the exact
recurrence of `recurrence.run`, and refuses trees of more than
EXACT_NODE_BUDGET nodes.

blocks_in_tree takes the census of a labeled tree by hash-consing
(Filliatre and Conchon, "Type-safe modular hash-consing", 2006): level
by level, every root whose block fits gets the id of the tuple of its
label and its children's previous ids, interned in a running table, so
equal ids mean equal blocks. A tree given as its WordGraph, as a
lexicographic Sturmian tree is, is interned in pure Python over the
graph's few hundred nodes, one dict per level. A tree given its labels
is interned over them in numpy chunks, one pass over the roots per
level whatever the block depth, the chunks of each level starting at
CENSUS_CHUNK roots and doubling up to EXPAND_CHUNK. A level with no
more possible keys than roots packs them in the smallest unsigned
dtype that holds them and keeps its ids in a dense table indexed by
key, so a chunk costs one gather; other levels number the distinct
keys of each chunk with np.unique, as int64 where the level's keys fit
and as exact Python ints past that, through a running dict only when
the level takes more than one chunk. Each tree keeps the levels it has
interned, so a profile over n = 0 .. n_max interns every level once,
and a census deeper than the last resumes from it. The count comes
from the interning alone; the blocks themselves are rebuilt, each from
one tree node that carries it by slicing each level of the layout,
only when a census's `blocks` is read. numpy is imported by the census of a label
array and by WordGraph.expand alone, so listing, exact counts,
LabeledTree and the census of a graph tree run without loading it.

The listed census supports two checks of the counting algebra.
The extension identity says the number of depth-(n+1) blocks equals,
summed over depth-n blocks, the product over leaf symbols a of t_a^k
with t_a the row sum, since each leaf extends independently. The
submultiplicative
inequalities bound p(m+n) by p(m) p(n)^(k^m) (cut at level m) and, for
m dividing the total depth, by the telescoped power of p(m).
"""

from __future__ import annotations

import itertools
import struct
from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator
from functools import cached_property, partial
from operator import itemgetter
from typing import NamedTuple

from .matrix import TransitionMatrix

MATERIALIZE_CAP = 40
# Listings of more labelings are refused: every depth-3 binary listing
# of the reference matrices fits (451,382 at most), no depth-4 one does.
LISTING_BUDGET = 2**20
# The census interns a level's roots in chunks that start at this many
# and double up to EXPAND_CHUNK. A level's first chunk meets only new
# keys, deduplicated by an np.unique that costs more per key the more
# keys it sorts; a later chunk of a dense level meets mostly keys its
# table has seen, and costs one gather, cheaper per root the longer the
# chunk. Fixed 4,096-root chunks made a depth-24 census slow, fixed
# 65,536-root ones a depth-16 census. Keys for a whole level at once,
# with np.unique's sort order and inverse, would take tens of bytes per
# root, several times the tree itself; the chunks keep those transients
# under a megabyte.
CENSUS_CHUNK = 4096
_KEY_LIMIT = 2**63 - 1  # keys of a wider span are Python ints
# WordGraph.expand gathers this many tree nodes at a time, their graph
# ids widened to intp for np.take: 512 KiB of indices, where the
# deepest level of a depth-24 tree at once would take 64 MiB. The
# census's chunks grow to the same size.
EXPAND_CHUNK = 1 << 16


class TooLarge(ValueError):
    """Materialization or exact counts were requested past a node-count cap."""


# Nodes of the largest tree whose exact counts are built: node_count(2, 20).
EXACT_NODE_BUDGET = 2**21 - 1


class DepthExceeded(ValueError):
    """A block depth larger than the host tree depth was requested."""


def node_count(arity: int, depth: int) -> int:
    """Nodes in a depth-`depth` initial subtree; 0 when depth is -1."""
    if arity < 2:
        raise ValueError("arity must be at least 2")
    return (arity ** (depth + 1) - 1) // (arity - 1)


def level_bounds(arity: int, level: int) -> tuple[int, int]:
    """Half-open index range of one level in the breadth-first layout."""
    return node_count(arity, level - 1), node_count(arity, level)


def check_exact_budget(arity: int, n: int) -> None:
    """Refuse exact counts of the depth-n tree past EXACT_NODE_BUDGET nodes."""
    if node_count(arity, n) > EXACT_NODE_BUDGET:
        raise TooLarge(f"exact level {n} at arity {arity} has more than {EXACT_NODE_BUDGET} nodes")


def exact_level(succ, arity: int, levels: list, n: int) -> tuple[int, ...]:
    """The exact per-root-symbol counts x_i(n), extending `levels` in place.

    `levels` holds the levels built so far from x(0), the all-ones
    tuple; each next one is x_i(m+1) = (sum_{j in succ[i]} x_j(m))^arity.
    """
    check_exact_budget(arity, n)
    while len(levels) <= n:
        x = levels[-1]
        levels.append(tuple(sum(x[j] for j in s) ** arity for s in succ))
    return levels[n]


class WordGraph(NamedTuple):
    """Level-ordered nodes, each standing for equal subtrees of one tree level.

    Node i carries labels[i]; its children are the nodes children[k i]
    .. children[k i + k - 1], and nodes of the deepest level have none.
    first[i] is the breadth-first index of the first tree node it stands
    for. In a lexicographic Sturmian tree the subtree below a node
    depends only on its level and root-to-node word, so one node per
    path word of each level suffices: a few hundred nodes at any depth,
    from which `expand` builds the tree's labels when they are read. A
    random Sturmian tree is the same graph expanded with a seeded coin
    per node whose two children differ, which swaps them.
    """

    labels: bytes
    children: tuple[int, ...]
    first: tuple[int, ...]

    def expand(self, arity: int, depth: int, coins=None) -> bytes:
        """The breadth-first labels of the depth-`depth` tree the graph stands for.

        Level by level, each tree node's state picks one row of the
        children's labels and one row of the children's states, both
        tables viewed as one fixed-width item per state, so a level
        costs two np.take calls per EXPAND_CHUNK nodes; the deepest
        level gets its labels only. Without `coins` a node's state is
        its graph id. With them, row 2g + s holds node g's children,
        reversed when s = 1, and a node's state is 2 id + s: `coins(m)`
        gives the bits s of the next m nodes whose two children differ,
        drawn chunk by chunk in breadth-first order, and the other nodes
        take s = 0. Memory peaks near 2 bytes per node, the label buffer
        and its bytes copy, since the states of a level take less.
        """
        import numpy as np

        k = arity
        labels = np.empty(node_count(k, depth), dtype=np.uint8)
        labels[0] = self.labels[0]
        kids = np.array(self.children, dtype=np.intp).reshape(-1, k)
        shift = int(coins is not None)  # a state is id << shift, plus its coin
        if shift:
            kids = np.stack([kids, kids[:, ::-1]], axis=1).reshape(-1, k)
            split = kids[:, 0] != kids[:, -1]  # the states that draw a coin
        child_states = (kids << shift).astype(np.min_scalar_type((len(self.labels) - 1) << shift))
        child_rows = child_states.view(f"V{child_states.itemsize * k}").ravel()
        label_rows = np.frombuffer(self.labels, dtype=np.uint8)[kids].view(f"V{k}").ravel()
        states = np.zeros(1, dtype=child_states.dtype)  # of the level's tree nodes
        index = np.empty(min(EXPAND_CHUNK, node_count(k, depth)), dtype=np.intp)
        for level in range(depth):
            lo, hi = level_bounds(k, level + 1)
            below = np.empty(hi - lo, dtype=states.dtype) if level + 1 < depth else None
            for c in range(0, len(states), EXPAND_CHUNK):
                part = index[: min(EXPAND_CHUNK, len(states) - c)]
                part[:] = states[c : c + len(part)]
                if shift:
                    drawn = split[part]
                    part[drawn] |= coins(np.count_nonzero(drawn))
                span = slice(k * c, k * (c + len(part)))
                np.take(label_rows, part, out=labels[lo:hi][span].view(label_rows.dtype))
                if below is not None:
                    np.take(child_rows, part, out=below[span].view(child_rows.dtype))
            states = below
        return labels.tobytes()


class LabeledTree:
    """A labeled initial subtree, labels as symbol indices.

    A tree is given its breadth-first `labels`, or only its `graph`, the
    WordGraph its census runs on in pure Python. A graph tree builds its
    `labels` from the graph, with numpy, at most once, on their first
    read; `labels_at`, which prefixes and the left edge read, takes them
    from the graph until then. `interned` is the census's memo for this
    object: entry j is (ids, width, reps) of census level j for every
    level interned so far, the ids of the roots (graph nodes in a graph
    tree), their number of values and one tree node per id. A tree
    without a graph keeps the ids of the deepest level only, and None
    above it. A tree compares, hashes and prints as
    an object, so none of them builds its labels; two trees agree when
    their arity, depth and `labels` do. Each tree has a memo of its own,
    since a tree with a graph interns over other nodes than one without.
    """

    def __init__(self, arity: int, depth: int, labels: bytes | None = None,
                 graph: WordGraph | None = None):
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        size = node_count(arity, depth)
        if labels is None and graph is None:
            raise ValueError("a tree needs its labels or its word graph")
        if labels is not None and len(labels) != size:
            raise ValueError(f"expected {size} labels, got {len(labels)}")
        self.arity = arity
        self.depth = depth
        self.graph = graph
        self.interned: list = []
        self._labels = labels

    @property
    def labels(self) -> bytes:
        if self._labels is None:
            self._labels = self.graph.expand(self.arity, self.depth)
        return self._labels

    @property
    def size(self) -> int:
        return node_count(self.arity, self.depth)

    def labels_at(self, nodes: Iterable[int]) -> bytes:
        """The labels of the breadth-first `nodes`, without building the others.

        Before `labels` is read, a graph tree finds each node's graph
        node from its parent's: v = k u + 1 + c is child c of u. The
        graph nodes found are kept, so a prefix or a left edge costs one
        step per node.
        """
        if self._labels is not None:
            return bytes(map(self._labels.__getitem__, nodes))
        k, graph, found = self.arity, self.graph, {0: 0}

        def locate(v: int) -> int:
            if v not in found:
                u, c = divmod(v - 1, k)
                found[v] = graph.children[k * locate(u) + c]
            return found[v]

        return bytes(graph.labels[locate(v)] for v in nodes)


class BlockCensus:
    """All distinct blocks of one depth, sorted by encoding.

    A census is given its `count` and `rebuild`, a function that returns
    its blocks in any order: a listing's lays out its nested tuples, a
    tree's slices the layout below one node per block. They are built,
    sorted and checked to be distinct only when `blocks` is first read,
    so a census read only for its count builds no block.
    """

    def __init__(self, arity: int, depth: int, alphabet_size: int, count: int,
                 rebuild: Callable[[], Iterable[bytes]]):
        self.arity = arity
        self.depth = depth
        self.alphabet_size = alphabet_size
        self.count = count
        self._rebuild = rebuild

    @cached_property
    def blocks(self) -> tuple[bytes, ...]:
        blocks = tuple(sorted(self._rebuild()))
        for prev, cur in zip(blocks, blocks[1:]):
            if prev >= cur:
                raise ValueError("census blocks must be distinct")
        return blocks

    def terminal_counts(self, block: bytes) -> tuple[int, ...]:
        """Per-symbol counts over the deepest level of one block."""
        lo, hi = level_bounds(self.arity, self.depth)
        counts = [0] * self.alphabet_size
        for b in block[lo:hi]:
            counts[b] += 1
        return tuple(counts)


class EnumerationResult(NamedTuple):
    """Listed labelings: the count per root symbol, their total and their census.

    The census holds the arity and the depth.
    """

    counts: tuple[int, ...]
    total: int
    census: BlockCensus


def enumerate_configs(M: TransitionMatrix, arity: int = 2, depth: int = 0) -> EnumerationResult:
    """List and count every valid depth-`depth` labeling.

    Trees of more than MATERIALIZE_CAP nodes are refused, and so is any
    listing of more than LISTING_BUDGET labelings, counted first by one
    `exact_level` call. A listed labeling is a nested tuple: its root
    symbol and then its arity child labelings, the depth-0 ones being
    1-tuples. The census's blocks are their breadth-first layouts,
    built only when read.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if node_count(arity, depth) > MATERIALIZE_CAP:
        raise TooLarge(
            f"depth {depth} at arity {arity} has {node_count(arity, depth)} "
            f"nodes, past the cap of {MATERIALIZE_CAP}"
        )
    succ = M.successor_table()
    count = sum(exact_level(succ, arity, [(1,) * M.d], depth))
    if count > LISTING_BUDGET:
        raise TooLarge(
            f"depth {depth} at arity {arity} has {count} valid labelings, "
            f"past the listing budget of {LISTING_BUDGET}"
        )
    per_symbol = [[(i,)] for i in range(M.d)]
    for _ in range(depth):
        per_symbol = _compose_configs(succ, per_symbol, arity)
    counts = tuple(map(len, per_symbol))
    layouts = partial(_layouts, per_symbol, arity, depth)
    census = BlockCensus(arity, depth, M.d, sum(counts), layouts)
    return EnumerationResult(counts, sum(counts), census)


def _compose_configs(succ, per_symbol, arity: int):
    """Per-root-symbol labelings one level deeper: a root over `arity` children."""
    out = []
    for i, s in enumerate(succ):
        candidates = [c for j in s for c in per_symbol[j]]
        out.append(list(itertools.product((i,), *[candidates] * arity)))
    return out


def _layouts(per_symbol, arity: int, depth: int) -> Iterator[bytes]:
    """The breadth-first layout of each listed labeling, built level by level.

    Level l of every labeling holds arity^l nodes, so the roots of one
    level's nodes, over all labelings in listing order, make one string
    that splits into equal runs, one per labeling.
    """
    root, children = itemgetter(0), itemgetter(slice(1, None))
    level, runs = list(itertools.chain.from_iterable(per_symbol)), []
    for l in range(depth + 1):
        if l:
            level = list(itertools.chain.from_iterable(map(children, level)))
        runs.append(map(root, struct.iter_unpack(f"{arity**l}s", bytes(map(root, level)))))
    return map(b"".join, zip(*runs))


def blocks_in_tree(tree: LabeledTree, n: int) -> BlockCensus:
    """Census of the depth-n blocks visible inside a labeled tree.

    Subtrees are interned level by level: id_0(v) is the label of v and
    id_j(v) the id of (label[v], id_{j-1} of the k children of v), over
    the roots whose depth-j block fits in the tree. Equal ids mean equal
    blocks, so the count is the number of distinct id_n. The levels are
    kept in `tree.interned`: a census no deeper than the deepest kept
    level interns nothing, and a deeper one resumes from it. A tree that
    carries its WordGraph, as a lexicographic Sturmian tree does, is
    interned in pure Python over the graph's nodes, which give the same
    blocks; any other tree over its labels, with numpy. Either way one
    tree node that carries each block is kept, and the blocks are
    rebuilt from those only when the census's `blocks` is read.
    """
    if n > tree.depth:
        raise DepthExceeded(f"block depth {n} exceeds tree depth {tree.depth}")
    if n < 0:
        raise ValueError("block depth must be nonnegative")
    k, graph, levels = tree.arity, tree.graph, tree.interned
    if graph is not None:
        if not levels:
            carriers = dict(zip(graph.labels, graph.first))  # a tree node per symbol used
            levels.append((graph.labels, max(carriers) + 1, list(carriers.values())))
        for j in range(len(levels), n + 1):
            # graph nodes are level-ordered, so those of levels <= depth - j
            # are the ones standing for tree nodes below that bound
            roots = bisect_left(graph.first, node_count(k, tree.depth - j))
            levels.append(_intern_graph_level(graph, levels[-1][0], k, roots))
    elif n >= len(levels):
        import numpy as np

        labels = np.frombuffer(tree.labels, dtype=np.uint8)
        if not levels:
            alphabet = int(labels.max()) + 1
            # the roots of the distinct depth-0 blocks: one node per symbol used
            reps = [v for v in map(tree.labels.find, range(alphabet)) if v >= 0]
            levels.append((labels, alphabet, reps))
        for j in range(len(levels), n + 1):
            ids, width, reps = levels[-1]
            roots = node_count(k, tree.depth - j)
            levels.append(_intern_level(labels, ids, width, levels[0][1], k, roots))
            levels[-2] = (None, width, reps)
    reps = levels[n][2]
    return BlockCensus(k, n, levels[0][1], len(reps), partial(_blocks_at, tree, n, reps))


def _intern_graph_level(graph: WordGraph, child_ids, k: int, roots: int):
    """id_j of the first `roots` graph nodes from id_{j-1}, in pure Python.

    Each node's key is the tuple of its label and its k children's ids,
    built column by column in one zip, and interned in a dict that
    numbers keys in order of arrival. Returns the ids, their number and
    one tree node per id that carries its block: the first tree node of
    the last graph node with that id.
    """
    columns = [map(child_ids.__getitem__, graph.children[c : k * roots : k]) for c in range(k)]
    table: dict = {}
    ids = [table.setdefault(key, len(table)) for key in zip(graph.labels[:roots], *columns)]
    return ids, len(table), list(dict(zip(ids, graph.first)).values())


def _blocks_at(tree: LabeledTree, n: int, reps: list[int]) -> list[bytes]:
    """The depth-n block below each of the census's `reps`, read from the layout."""
    k = tree.arity
    # the descendants of v at relative level j are the k^j nodes from
    # k^j v + node_count(k, j - 1) on
    offsets = [(k**j, node_count(k, j - 1), node_count(k, j)) for j in range(n + 1)]
    return [
        b"".join([tree.labels[s * v + lo : s * v + hi] for s, lo, hi in offsets])
        for v in reps
    ]


def _intern_level(labels, child_ids, width: int, alphabet: int, k: int, roots: int):
    """id_j of the first `roots` nodes from id_{j-1}, which takes `width` values.

    Node i's children are k i + 1 .. k i + k. Returns the ids in the
    smallest unsigned dtype that holds them, the number of distinct ids,
    and one root per id. Each root's key packs its label and its
    children's ids, below span = alphabet * width^k. Where the span is
    no larger than the root count, the keys, in the smallest unsigned
    dtype that holds them, index a dense table of ids; otherwise they
    are numbered by np.unique, as int64 while the span fits and as exact
    Python ints past it, through a running dict when the level takes
    more than one chunk. Chunks start at CENSUS_CHUNK roots and double
    up to EXPAND_CHUNK.
    """
    import numpy as np

    span = alphabet * width**k  # every key is below it
    out = np.empty(roots, dtype=np.min_scalar_type(min(roots, span) - 1))
    reps: list[int] = []
    if span <= roots:
        # ids below span, and -1 for unseen keys
        table = np.full(span, -1, dtype=np.min_scalar_type(-span))
        intern, dtype = partial(_intern_dense, table), np.min_scalar_type(span - 1)
    else:
        # a level of one chunk needs no dict: np.unique numbers its keys
        table = {} if roots > CENSUS_CHUNK else None
        intern, dtype = partial(_intern, table), np.int64 if span <= _KEY_LIMIT else object
    lo, size = 0, CENSUS_CHUNK
    while lo < roots:
        hi = min(lo + size, roots)
        kids = child_ids[k * lo + 1 : k * hi + 1].reshape(hi - lo, k)
        key = labels[lo:hi].astype(dtype)
        for c in range(k):
            key = key * width + kids[:, c]
        out[lo:hi] = intern(key, reps, lo)
        lo, size = hi, min(2 * size, EXPAND_CHUNK)
    return out, len(reps), reps


def _intern_dense(table, keys, reps: list, offset: int):
    """Ids of `keys` from a dense table indexed by key, -1 where unseen.

    One gather answers every key the table has seen; only the unseen
    keys are deduplicated, numbered in order of arrival, stored, and
    their first positions, plus `offset`, appended to `reps`.
    """
    import numpy as np

    ids = np.take(table, keys)
    new = np.flatnonzero(ids < 0)
    if len(new):
        uniq, first = np.unique(keys[new], return_index=True)
        table[uniq] = np.arange(len(reps), len(reps) + len(uniq))
        reps.extend((new[first] + offset).tolist())
        ids[new] = table[keys[new]]
    return ids


def _intern(table: dict | None, keys, reps: list, offset: int):
    """Ids of `keys` in a running dict, adding the keys it lacks.

    Each call deduplicates its keys with one np.unique and looks up
    only the distinct ones. New ids are numbered in order of arrival;
    the first position of each new key, plus `offset`, is appended to
    `reps`. Without a dict, `keys` are a level's only chunk, and their
    ids are np.unique's inverse: the ids a fresh dict would give, in
    sorted key order.
    """
    import numpy as np

    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    if table is None:
        reps.extend(first.tolist())
        return inverse
    known = len(table)
    ids = np.fromiter(
        (table.setdefault(u, len(table)) for u in uniq.tolist()), np.int64, len(uniq)
    )
    reps.extend((first[ids >= known] + offset).tolist())
    return ids[inverse]


class IdentityReport(NamedTuple):
    """Both sides of the leaf-extension count identity at one depth."""

    depth: int
    lhs: int
    rhs: int

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


def verify_phi_identity(M: TransitionMatrix, n: int, arity: int = 2) -> IdentityReport:
    """Check that extending every depth-n block leafwise counts depth n+1.

    The left side is the exact number of depth-(n+1) blocks, from
    `exact_level`; the right side sums, over the listed depth-n census,
    the product of t_a^arity over terminal symbols.
    """
    lhs = sum(exact_level(M.successor_table(), arity, [(1,) * M.d], n + 1))
    census = enumerate_configs(M, arity, n).census
    sums = M.row_sums()
    rhs = 0
    for block in census.blocks:
        term = 1
        for a, s_a in enumerate(census.terminal_counts(block)):
            term *= (sums[a] ** arity) ** s_a
        rhs += term
    return IdentityReport(n + 1, lhs, rhs)


class SubadditivityReport(NamedTuple):
    """Exact counts against the two submultiplicative bounds."""

    m: int
    n: int
    p_m: int
    p_n: int
    p_total: int
    split_bound: int
    fold_exponent: int | None
    fold_bound: int | None

    @property
    def split_holds(self) -> bool:
        return self.p_total <= self.split_bound

    @property
    def fold_holds(self) -> bool | None:
        if self.fold_bound is None:
            return None
        return self.p_total <= self.fold_bound


def check_subadditivity(
    M: TransitionMatrix, m: int, n: int, arity: int = 2
) -> SubadditivityReport:
    """Evaluate p(m+n) against its cut and fold bounds, all exact."""
    if m < 1 or n < 1:
        raise ValueError("both depths must be at least 1")
    levels = [(1,) * M.d]
    p_total = sum(exact_level(M.successor_table(), arity, levels, m + n))
    p_m, p_n = sum(levels[m]), sum(levels[n])
    split_bound = p_m * p_n ** (arity**m)
    fold_exponent = None
    fold_bound = None
    if (m + n) % m == 0:
        fold_exponent = (arity ** (m + n) - 1) // (arity**m - 1)
        fold_bound = p_m**fold_exponent
    return SubadditivityReport(
        m, n, p_m, p_n, p_total, split_bound, fold_exponent, fold_bound
    )
