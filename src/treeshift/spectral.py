"""Perron data of a 0/1 transition matrix.

The matrix is read as a directed graph on the symbols, with an edge
i -> j when entry (i, j) = 1. Its strong components ("classes") give
irreducibility, and the gcd of their cycle lengths gives the period.
Every class's diagonal block is iterated on its own, plus I unless the
matrix is a single aperiodic class: the shift moves the spectrum by
exactly 1 and opens a spectral gap, so every iterated block is
primitive. A reducible matrix is never iterated as a whole, since tied
or periodic classes make that iteration stall. The left Perron vector
of a block comes from iterating the transpose of the same matrix.

An irreducible matrix takes lambda and both eigenvectors from its one
block; otherwise lambda is the largest block radius. A class of radius
lambda is distinguished on the right when no other class of radius
lambda reaches it, and on the left when it reaches no other such class.
The right eigenvector carries the Perron vector of each
right-distinguished class on its symbols and is completed class by
class, sinks first, by solving (lambda I - M_CC) x_C = M_C,rest x_rest;
the left eigenvector is built the same way on the transposed graph.
Hence a right entry is positive iff its symbol reaches a
right-distinguished class, and a left entry is positive iff its symbol
is reachable from a left-distinguished class (H. Schneider, "The
influence of the marked reduced graph of a nonnegative matrix on the
Jordan form and on related properties", Linear Algebra Appl. 84, 1986).
Zero entries are exact, so the max/min ratio of the right eigenvector is
+inf exactly when a symbol cannot reach a distinguished class. Several
distinguished classes are each weighted by their spectral projection of
the all-ones vector, which is where iteration from the uniform vector
converges when no two classes of radius lambda are chained.

All logarithms are natural.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .matrix import TransitionMatrix

# Relative residual at which power iteration stops, and its step cap.
TOL = 1e-12
MAX_ITER = 10**6


class NoConvergence(RuntimeError):
    """Power iteration failed to meet tolerance within the iteration cap."""

    def __init__(self, iterations: int, residual: float):
        super().__init__(
            f"power iteration stalled after {iterations} iterations (relative residual {residual:.3e})"
        )
        self.iterations = iterations
        self.residual = residual


@dataclass(frozen=True)
class SpectralData:
    """Spectral summary of one transition matrix.

    `left` is normalized to sum 1 and `right` to maximum entry 1.
    `ratio` is max(right)/min(right), +inf when some right entry is 0
    (possible only for reducible matrices).
    """

    spectral_radius: float
    sft_entropy: float
    left: tuple[float, ...]
    right: tuple[float, ...]
    ratio: float
    irreducible: bool
    primitive: bool
    period: int
    row_sums: tuple[int, ...]


def analyze_matrix(M: TransitionMatrix) -> SpectralData:
    """Full spectral analysis of a transition matrix.

    Raises NoConvergence when power iteration cannot reach the relative
    tolerance TOL within MAX_ITER steps. Only irreducible matrices
    (shifted when periodic) and shifted class blocks are iterated, all
    with a spectral gap, so the cap binds only for a gap far below this
    scale.
    """
    succ, comps, period, a, blocks = _class_blocks(M)
    irreducible = len(comps) == 1
    if irreducible:
        lam, right, b = blocks[0]
        _, left = _power_iteration(b.T)
    else:
        lam, right, left = _reducible_perron(a, succ, comps, blocks)

    right = right / right.max()
    left = left / left.sum()

    rmin = right.min()
    ratio = math.inf if rmin == 0.0 else float(right.max() / rmin)

    return SpectralData(
        spectral_radius=float(lam),
        sft_entropy=math.log(lam),
        left=tuple(float(x) for x in left),
        right=tuple(float(x) for x in right),
        ratio=ratio,
        irreducible=irreducible,
        primitive=irreducible and period == 1,
        period=period,
        row_sums=M.row_sums(),
    )


def upper_bound(S: SpectralData) -> float:
    """Entropy upper bound (1/2) log(ratio) + log(spectral radius).

    +inf when the eigenvector ratio is infinite.
    """
    if math.isinf(S.ratio):
        return math.inf
    return 0.5 * math.log(S.ratio) + S.sft_entropy


def certified_radius_lower(M: TransitionMatrix) -> Fraction:
    """Exact rational lower bound on the spectral radius.

    For any positive vector w, min_i (B w)_i / w_i never exceeds the
    radius of a nonnegative matrix B. Evaluated in exact arithmetic on
    the diagonal block of a class of largest radius and that block's own
    positive iterate, it bounds the block's radius, hence the matrix's,
    and turns the float eigenvector into a certificate. The bound is
    tight to the iteration tolerance, reducible matrices included, and
    exactly equal to the radius when the block has constant row sums.
    """
    succ, comps, _, _, blocks = _class_blocks(M)
    top = max(range(len(comps)), key=lambda c: blocks[c][0])
    w = {i: Fraction(float(v)) for i, v in zip(comps[top], blocks[top][1])}
    return min(sum(w[j] for j in succ[i] if j in w) / w[i] for i in comps[top])


# ---------------------------------------------------------------------------
# graph structure


def strong_components(succ) -> list[list[int]]:
    """Strongly connected components (Tarjan, iterative), each sorted."""
    d = len(succ)
    index = [-1] * d
    low = [0] * d
    on_stack = [False] * d
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0

    for root in range(d):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, ptr = work.pop()
            if ptr == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(ptr, len(succ[v])):
                w = succ[v][k]
                if index[w] == -1:
                    work.append((v, k + 1))
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return comps


def graph_period(succ, comps) -> int:
    """gcd of all cycle lengths, computed per component from BFS levels.

    Components without an internal edge carry no cycle and contribute
    nothing. A valid matrix always has at least one cycle, but the
    fallback answer for a cycle-free graph would be 1.
    """
    g = 0
    for comp in comps:
        members = set(comp)
        level = {comp[0]: 0}
        queue = deque([comp[0]])
        while queue:
            u = queue.popleft()
            for v in succ[u]:
                if v in members and v not in level:
                    level[v] = level[u] + 1
                    queue.append(v)
        for u in comp:
            for v in succ[u]:
                if v in members:
                    g = math.gcd(g, level[u] + 1 - level[v])
    return g if g else 1


def _reachable(succ, starts) -> set[int]:
    seen = set(starts)
    queue = deque(starts)
    while queue:
        u = queue.popleft()
        for v in succ[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


# ---------------------------------------------------------------------------
# class blocks


def _class_blocks(M: TransitionMatrix):
    """Classes of M and the Perron data of their diagonal blocks.

    Returns (succ, comps, period, a, blocks) with comps in Tarjan's
    sinks-first order and blocks[c] = (radius, right iterate, iterated
    matrix) of class c, the iterate positive and summing to 1. The
    iterated matrix is the class's diagonal block plus I, unless M is a
    single aperiodic class; either way it is primitive. A class of one
    symbol without a self-loop iterates [1] and has radius 0.
    """
    succ = M.successor_table()
    comps = strong_components(succ)
    period = graph_period(succ, comps)
    a = np.array(M.rows, dtype=float)
    shift = len(comps) > 1 or period > 1
    blocks = []
    for comp in comps:
        b = a[np.ix_(comp, comp)]
        if shift:
            b += np.eye(len(comp))
        lam, x = _power_iteration(b)
        blocks.append((lam - 1.0 if shift else lam, x, b))
    return succ, comps, period, a, blocks


def _reducible_perron(a, succ, comps, blocks):
    """(lambda, right, left) of a reducible matrix from its class blocks.

    Classes whose radius attains lambda (within a relative 1e-8, safe
    because distinct radii are isolated numbers at this scale) are the
    top classes. Each distinguished one seeds a right and a left solve
    with its block's Perron vectors u and v, holding every other top
    class at zero. Class C then weighs sum(left solve) / (v . u) in the
    right vector and sum(right solve) / (v . u) in the left one: the
    spectral projection of the all-ones vector when C is distinguished on
    both sides, a fixed positive convention otherwise.
    """
    radii = [block[0] for block in blocks]
    lam = max(radii)
    top = [c for c, rad in enumerate(radii) if rad >= lam * (1.0 - 1e-8)]
    reach = {c: _reachable(succ, [comps[c][0]]) for c in top}
    right_seeds = [c for c in top if not any(e != c and comps[c][0] in reach[e] for e in top)]
    left_seeds = [c for c in top if not any(e != c and comps[e][0] in reach[c] for e in top)]

    sinks_first = range(len(comps))
    sources_first = range(len(comps) - 1, -1, -1)
    right = np.zeros(len(a))
    left = np.zeros(len(a))
    for c in sorted(set(right_seeds) | set(left_seeds)):
        _, u, b = blocks[c]
        _, v = _power_iteration(b.T)
        x = _class_solve(a, comps, sinks_first, lam, c, u, top)
        y = _class_solve(a.T, comps, sources_first, lam, c, v, top)
        scale = float(v @ u)
        if c in right_seeds:
            right += x * (y.sum() / scale)
        if c in left_seeds:
            left += y * (x.sum() / scale)
    return lam, right, left


def _class_solve(m, comps, order, lam, seed, vector, hold):
    """Nonnegative solution of m z = lam z carrying `vector` on class `seed`.

    Classes are visited in `order`, each after every class its rows read
    from, so each unknown block solves (lam I - m_CC) z_C = m_C,rest z.
    Classes in `hold` other than the seed stay zero, and so does every
    class whose right-hand side is zero; every class actually solved has
    radius below lam, so its system is nonsingular.
    """
    z = np.zeros(len(m))
    for c in order:
        comp = comps[c]
        if c == seed:
            z[comp] = vector
        elif c not in hold:
            rhs = m[comp] @ z
            if rhs.any():
                z[comp] = np.linalg.solve(lam * np.eye(len(comp)) - m[np.ix_(comp, comp)], rhs)
    return z


# ---------------------------------------------------------------------------
# power iteration


def _power_iteration(b):
    """Dominant eigenpair of a nonnegative matrix with a spectral gap.

    Returns (lambda, vector) with the vector normalized to sum 1;
    convergence is declared on the relative residual |b x - lambda x|.
    """
    d = b.shape[0]
    x = np.full(d, 1.0 / d)
    lam = 1.0
    residual = math.inf
    y = b @ x
    for _ in range(MAX_ITER):
        lam = y.sum()  # x sums to 1, so this is the Rayleigh-like quotient
        x = y / lam
        y = b @ x  # the residual's product is the next step's
        residual = float(np.max(np.abs(y - lam * x)))
        if residual <= TOL * lam:
            return float(lam), x
    raise NoConvergence(MAX_ITER, residual / lam)
