"""Perron data of a 0/1 transition matrix.

The matrix is read as a directed graph on the symbols, with an edge
i -> j when entry (i, j) = 1. The transitive closure of that graph, as
bit sets and built once per matrix, answers every "who reaches whom":
it gives the strong components ("classes"), hence irreducibility; it
lists them sinks first, because the eigenvector solves below complete
a class from the classes it reaches, so those must come before it; and
it decides which classes are distinguished. The gcd of the classes'
cycle lengths gives the period. Every class's diagonal block is
iterated on its own, plus I unless the matrix is a single aperiodic
class: the shift moves the spectrum by exactly 1 and opens a spectral
gap, so every iterated block is primitive. A reducible matrix is never
iterated as a whole, since tied or periodic classes make that
iteration stall. The left Perron vector of a block comes from
iterating the transpose of the same matrix.

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

Everything runs in pure Python on lists of floats, without numpy. Every
sum, in the matrix-vector products of the iteration included, adds its
terms left to right, so the bits of a result do not depend on a BLAS
kernel or on the Python version. The class solves use Gaussian
elimination with partial pivoting in the operation order of LAPACK's
dgetf2 and dgetrs. `fractions` is imported by `certified_radius_lower`
alone, the one exact evaluation, so the float path never loads it.

All logarithms are natural.
"""

from __future__ import annotations

import math
from collections import deque
from typing import NamedTuple

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


class SingularSystem(ValueError):
    """A class solve met an exactly zero pivot: its matrix is singular."""


class SpectralData(NamedTuple):
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


def analyze_matrix(M: TransitionMatrix) -> SpectralData:
    """Full spectral analysis of a transition matrix.

    Raises NoConvergence when power iteration cannot reach the relative
    tolerance TOL within MAX_ITER steps. Only irreducible matrices
    (shifted when periodic) and shifted class blocks are iterated, all
    with a spectral gap, so the cap binds only for a gap far below this
    scale.
    """
    reach, comps, period, a, blocks = _class_blocks(M)
    irreducible = len(comps) == 1
    if irreducible:
        lam, right, b = blocks[0]
        _, left = _power_iteration(_transpose(b))
    else:
        lam, right, left = _reducible_perron(a, reach, comps, blocks)

    rmax = max(right)
    right = tuple(x / rmax for x in right)
    total = _sum(left)
    left = tuple(x / total for x in left)

    rmin = min(right)
    ratio = math.inf if rmin == 0.0 else max(right) / rmin

    return SpectralData(
        spectral_radius=lam,
        sft_entropy=math.log(lam),
        left=left,
        right=right,
        ratio=ratio,
        irreducible=irreducible,
        primitive=irreducible and period == 1,
        period=period,
    )


def upper_bound(S: SpectralData, arity: int = 2) -> float:
    """Upper bound log(radius) + (1 - 1/k) log(ratio) on the arity-k tree entropy.

    With x_i(n) the valid depth-n labelings rooted at symbol i, so that
    x_i(n+1) = (sum_{j in S_i} x_j(n))^k, and r the right Perron vector
    scaled to r_min = 1, so that r_max is R, the ratio:

    1. x_j(0) = 1 <= r_j, so B_0 = 1.
    2. If x_j(n) <= B_n r_j for every j, then
       sum_{j in S_i} x_j(n) <= B_n lambda r_i,
    3. so x_i(n+1) <= B_n^k lambda^k r_i^k <= (B_n^k lambda^k R^(k-1)) r_i.
    4. Hence log B_n = (k^n - 1)/(k - 1) (k log lambda + (k - 1) log R),
    5. and since p(n) <= B_n d R, the tree entropy satisfies
       h = (k - 1) lim log p(n) / k^(n+1) <= log lambda + (1 - 1/k) log R.

    At k = 2 the factor (k - 1)/k is exactly 1/2. +inf when the
    eigenvector ratio is infinite.
    """
    if math.isinf(S.ratio):
        return math.inf
    return (arity - 1) / arity * math.log(S.ratio) + S.sft_entropy


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
    from fractions import Fraction

    _, comps, _, _, blocks = _class_blocks(M)
    top = max(range(len(comps)), key=lambda c: blocks[c][0])
    w = {i: Fraction(float(v)) for i, v in zip(comps[top], blocks[top][1])}
    return min(sum(w[j] for j in w if M.rows[i][j]) / w[i] for i in comps[top])


# ---------------------------------------------------------------------------
# graph structure


def strong_components(reach) -> list[list[int]]:
    """Strongly connected components, each sorted, sinks first.

    Both come from the reach sets of `_reach`: two symbols share a
    component exactly when they reach the same symbols, and a component
    that reaches another reaches strictly more symbols than it, so
    listing the components by the size of their reach set puts each one
    after every component it reaches.
    """
    classes: dict[int, list[int]] = {}
    for i, r in enumerate(reach):
        classes.setdefault(r, []).append(i)
    # a stable sort: classes of equal size stay in order of first symbol
    return sorted(classes.values(), key=lambda c: reach[c[0]].bit_count())


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


def _reach(succ) -> list[int]:
    """Transitive closure as bit sets (Warshall, J. ACM 9, 1962).

    Bit j of reach[i] is set when a path of length >= 0 leads from i
    to j. It takes d^2 steps on d-bit integers.
    """
    reach = [sum(1 << j for j in set(row)) | 1 << i for i, row in enumerate(succ)]
    for k in range(len(reach)):
        through = reach[k]
        reach = [r | through if r >> k & 1 else r for r in reach]
    return reach


# ---------------------------------------------------------------------------
# class blocks


def _class_blocks(M: TransitionMatrix):
    """Classes of M and the Perron data of their diagonal blocks.

    Returns (reach, comps, period, a, blocks) with reach the closure of
    `_reach`, a the rows of M as floats, comps sinks first as
    `strong_components` lists them and
    blocks[c] = (radius, right iterate, iterated matrix) of class c, the
    iterate positive and summing to 1. The iterated matrix is the class's
    diagonal block plus I, unless M is a single aperiodic class; either
    way it is primitive. A class of one symbol without a self-loop
    iterates [1] and has radius 0.
    """
    succ = M.successor_table()
    reach = _reach(succ)
    comps = strong_components(reach)
    period = graph_period(succ, comps)
    a = [[float(v) for v in row] for row in M.rows]
    shift = 1.0 if len(comps) > 1 or period > 1 else 0.0
    blocks = []
    for comp in comps:
        b = [[a[i][j] + (shift if i == j else 0.0) for j in comp] for i in comp]
        lam, x = _power_iteration(b)
        blocks.append((lam - shift, x, b))
    return reach, comps, period, a, blocks


def _reducible_perron(a, reach, comps, blocks):
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

    def reaches(c, e):
        return reach[comps[c][0]] >> comps[e][0] & 1

    right_seeds = [c for c in top if not any(e != c and reaches(e, c) for e in top)]
    left_seeds = [c for c in top if not any(e != c and reaches(c, e) for e in top)]

    sinks_first = range(len(comps))
    sources_first = range(len(comps) - 1, -1, -1)
    a_t = _transpose(a)
    right = [0.0] * len(a)
    left = [0.0] * len(a)
    for c in sorted(set(right_seeds) | set(left_seeds)):
        _, u, b = blocks[c]
        _, v = _power_iteration(_transpose(b))
        x = _class_solve(a, comps, sinks_first, lam, c, u, top)
        y = _class_solve(a_t, comps, sources_first, lam, c, v, top)
        scale = _dot(v, u)
        if c in right_seeds:
            weight = _sum(y) / scale
            right = [r + xi * weight for r, xi in zip(right, x)]
        if c in left_seeds:
            weight = _sum(x) / scale
            left = [l + yi * weight for l, yi in zip(left, y)]
    return lam, right, left


def _class_solve(m, comps, order, lam, seed, vector, hold):
    """Nonnegative solution of m z = lam z carrying `vector` on class `seed`.

    Classes are visited in `order`, each after every class its rows read
    from, so each unknown block solves (lam I - m_CC) z_C = m_C,rest z.
    Classes in `hold` other than the seed stay zero, and so does every
    class whose right-hand side is zero; every class actually solved has
    radius below lam, so its system is nonsingular, and SingularSystem
    is raised if it is not.
    """
    z = [0.0] * len(m)
    for c in order:
        comp = comps[c]
        if c == seed:
            for i, v in zip(comp, vector):
                z[i] = v
        elif c not in hold:
            rhs = [_dot(m[i], z) for i in comp]
            if any(rhs):
                block = [[(lam if i == j else 0.0) - m[i][j] for j in comp] for i in comp]
                for i, v in zip(comp, _solve(block, rhs)):
                    z[i] = v
    return z


def _solve(a, b):
    """Solution of a z = b by Gaussian elimination with partial pivoting.

    The operations and their order are those of LAPACK's dgetf2 and
    dgetrs: per column, the first entry of largest magnitude is the
    pivot, its row swaps into place, the column below it is scaled by
    the pivot's reciprocal and the trailing block takes the rank-1
    update; then a unit lower and an upper triangular solve, column by
    column. Raises SingularSystem on an exactly zero pivot.
    """
    n = len(a)
    lu = [list(row) for row in a]
    z = list(b)
    for j in range(n):
        p = max(range(j, n), key=lambda i: abs(lu[i][j]))
        if lu[p][j] == 0.0:
            raise SingularSystem(f"singular {n}x{n} system: column {j + 1} has no pivot")
        lu[j], lu[p] = lu[p], lu[j]
        z[j], z[p] = z[p], z[j]
        pivot_row = lu[j]
        inverse = 1.0 / pivot_row[j]
        for row in lu[j + 1 :]:
            factor = row[j] = row[j] * inverse
            for k in range(j + 1, n):
                row[k] -= factor * pivot_row[k]
    for k in range(n):
        for i in range(k + 1, n):
            z[i] -= z[k] * lu[i][k]
    for k in range(n - 1, -1, -1):
        z[k] /= lu[k][k]
        for i in range(k):
            z[i] -= z[k] * lu[i][k]
    return z


# ---------------------------------------------------------------------------
# power iteration


def _power_iteration(b):
    """Dominant eigenpair of a nonnegative matrix with a spectral gap.

    Returns (lambda, vector) with the vector normalized to sum 1;
    convergence is declared on the relative residual |b x - lambda x|.
    """
    d = len(b)
    rows = [[(j, w) for j, w in enumerate(row) if w] for row in b]
    x = [1.0 / d] * d
    lam = 1.0
    residual = math.inf
    y = [_sum([w * x[j] for j, w in row]) for row in rows]
    for _ in range(MAX_ITER):
        lam = _sum(y)  # x sums to 1, so this is the Rayleigh-like quotient
        x = [v / lam for v in y]
        # the next product, row by row, and the residual's maximum as `max`
        # takes it (a NaN counts only as the first entry)
        y = []
        residual = None
        for row, u in zip(rows, x):
            s = 0.0
            for j, w in row:  # leaving out zero entries changes no bit of the sum
                s += w * x[j]
            y.append(s)
            r = abs(s - lam * u)
            if residual is None or r > residual:
                residual = r
        if residual <= TOL * lam:
            return lam, x
    raise NoConvergence(MAX_ITER, residual / lam)


def _sum(values) -> float:
    """Left-to-right float sum: `sum` compensates its rounding from Python 3.12 on."""
    s = 0.0
    for v in values:
        s += v
    return s


def _dot(u, v) -> float:
    return _sum(p * q for p, q in zip(u, v))


def _transpose(a) -> list[list[float]]:
    return [list(col) for col in zip(*a)]
