"""Independent cross-checks used only by the tests.

Everything here is implemented from first principles, deliberately
avoiding the code paths under test: characteristic polynomials are
expanded exactly over the rationals, block counts come from filtering
the full product space or from their recurrence in exact integers, tree
censuses from one window per root, golden mean q ratios from
big-integer division and their limits in mpmath, the Fibonacci word from
its substitution rule, mechanical words from Fraction arithmetic, the
float range of a power by trial conversion, and lexicographic and seeded
random Sturmian trees node by node from their path words. The kernels
of power iteration and of the log-domain recurrence are kept here in
their plain loop form, one operation after another, as references that
the faster kernels must match bit for bit.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import mpmath

from treeshift.spectral import MAX_ITER, TOL, NoConvergence


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _perm_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def char_poly(rows) -> list[Fraction]:
    """Coefficients of det(xI - M), ascending powers, exact rationals."""
    d = len(rows)
    total = [Fraction(0)] * (d + 1)
    for perm in itertools.permutations(range(d)):
        if any(perm[i] != i and not rows[i][perm[i]] for i in range(d)):
            continue  # the term has a zero factor
        sign = _perm_sign(perm)
        prod = [Fraction(sign)]
        for i in range(d):
            entry = [Fraction(-rows[i][perm[i]])]
            if perm[i] == i:
                entry.append(Fraction(1))
            prod = _poly_mul(prod, entry)
        for k, c in enumerate(prod):
            total[k] += c
    return total


def _eval_poly(coeffs: list[float], x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Remainder of a divided by b (ascending coefficients, b nonzero)."""
    a = list(a)
    while len(a) >= len(b):
        factor = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return a


def _poly_div(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Exact quotient of a by a divisor b."""
    a = list(a)
    quot = [Fraction(0)] * (len(a) - len(b) + 1)
    for shift in range(len(quot) - 1, -1, -1):
        factor = a[shift + len(b) - 1] / b[-1]
        quot[shift] = factor
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
    return quot


def square_free(coeffs: list[Fraction]) -> list[Fraction]:
    """p / gcd(p, p'), made monic: the same roots, each of them simple."""
    a = list(coeffs)
    b = [k * c for k, c in enumerate(coeffs)][1:]
    while b:
        a, b = b, _poly_rem(a, b)
    out = _poly_div(coeffs, a)
    return [c / out[-1] for c in out]


def largest_real_root(coeffs: list[Fraction]) -> float:
    """Largest real root of a monic polynomial.

    Repeated roots are divided out first, so the top root is simple even
    for a defective Perron eigenvalue (where the characteristic
    polynomial may not change sign at its top root). Then scans down
    from the Cauchy bound for a sign change and bisects. Good enough for
    Perron roots of small 0/1 matrices.
    """
    assert coeffs[-1] == 1
    coeffs = [float(c) for c in square_free(coeffs)]
    bound = 1.0 + max(abs(c) for c in coeffs[:-1])
    hi = bound
    step = bound / 4096.0
    lo = hi - step
    while lo > -bound:
        if _eval_poly(coeffs, lo) <= 0.0 < _eval_poly(coeffs, hi):
            break
        hi = lo
        lo -= step
    else:
        raise ArithmeticError("no sign change located")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _eval_poly(coeffs, mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fibonacci_word(length: int) -> str:
    """Prefix of the fixed point of 0 -> 01, 1 -> 0."""
    word = "0"
    while len(word) < length:
        word = "".join("01" if ch == "0" else "0" for ch in word)
    return word[:length]


def fraction_mechanical_word(alpha: Fraction, error: Fraction, length: int):
    """s(1) .. s(length) of the mechanical word of slope alpha, in Fractions.

    Each floor(m alpha) is taken from the exact rational m alpha and
    refused when m error reaches across an integer. Returns the word and
    None, or None and the position m of the first refused floor.
    """
    floors = []
    for m in range(1, length + 2):
        value = m * alpha
        base = value.numerator // value.denominator
        frac = value - base
        if frac < m * error or 1 - frac <= m * error:
            return None, m
        floors.append(base)
    return "".join(str(b - a) for a, b in zip(floors, floors[1:])), None


def fib_lucas(m: int) -> tuple[int, int]:
    """(F_m, L_m) by fast doubling."""

    def fib_pair(n: int) -> tuple[int, int]:
        if n == 0:
            return 0, 1
        a, b = fib_pair(n >> 1)
        c = a * (2 * b - a)
        d = a * a + b * b
        if n & 1:
            return d, c + d
        return c, d

    f, f1 = fib_pair(m)
    return f, 2 * f1 - f


def exceeds_golden_power(value: int, m: int) -> bool:
    """Exact test of value >= phi**m using phi**m = (L_m + F_m*sqrt(5))/2."""
    f, lucas = fib_lucas(m)
    lhs = 2 * value - lucas
    if lhs < 0:
        return False
    return lhs * lhs >= 5 * f * f


def golden_ratios(p: list[int]) -> list[float | None]:
    """q(n) = p(n)/p(n-1)^2 from exact golden mean totals; q(0) is None.

    Big-integer true division rounds correctly, so each q(n) is the
    float nearest the exact ratio.
    """
    return [None] + [p[n] / p[n - 1] ** 2 for n in range(1, len(p))]


def golden_limits(levels: int = 200, digits: int = 60):
    """The golden mean entropy h and the limit q* of the q ratios, as mpmath
    numbers: q(m+1) = 1 + 1/q(m)^2 from q(1) = 5/4 and
    h = (log 2)/2 + sum over m of log q(m)/2^(m+1), both to `levels`."""
    with mpmath.workdps(digits):
        q = mpmath.mpf(5) / 4
        h = mpmath.log(2) / 2
        for m in range(1, levels + 1):
            h += mpmath.log(q) / mpmath.mpf(2) ** (m + 1)
            q = 1 + 1 / q**2
        return +h, +q


def max_scale_exponent(arity: int) -> int:
    """Largest e for which arity ** e converts to a float, by trying each e."""
    e = 0
    while True:
        try:
            float(arity ** (e + 1))
        except OverflowError:
            return e
        e += 1


def node_count(arity: int, depth: int) -> int:
    return (arity ** (depth + 1) - 1) // (arity - 1)


def window_census(labels: bytes, arity: int, depth: int, n: int):
    """Distinct depth-n blocks of a breadth-first labeling, sorted, and its alphabet size.

    One window per root: each root's block is read level by level from
    explicit child lists, so the cost is nodes times block size.
    """
    seen = set()
    for root in range(node_count(arity, depth - n)):
        level = [root]
        window = bytearray([labels[root]])
        for _ in range(n):
            level = [c for v in level for c in range(arity * v + 1, arity * v + arity + 1)]
            window.extend(labels[v] for v in level)
        seen.add(bytes(window))
    return sorted(seen), max(labels) + 1


def lex_tree_labels(successors, depth: int) -> bytes:
    """Breadth-first labels of the depth-`depth` lexicographic Sturmian tree.

    `successors(w)` gives the symbols that may follow the factor w, "0",
    "1" or "01". The root is 0. Walking the tree breadth first, node v's
    children 2v+1 and 2v+2 both copy the one successor of v's path word,
    or, below a right-special word, take 0 left and 1 right.
    """
    words = ["0"]
    for v in range(node_count(2, depth - 1)):
        succ = successors(words[v])
        words.append(words[v] + succ[0])
        words.append(words[v] + succ[-1])
    return bytes(int(w[-1]) for w in words)


def random_tree_labels(successors, depth: int, seed: int) -> bytes:
    """Breadth-first labels of the depth-`depth` random Sturmian tree of `seed`.

    As `lex_tree_labels`, but each node whose path word is right-special,
    taken breadth first, draws one random.Random(seed).getrandbits(1);
    bit 1 puts 1 left and 0 right.
    """
    rng = random.Random(seed)
    words = ["0"]
    for v in range(node_count(2, depth - 1)):
        succ = successors(words[v])
        if len(succ) == 2 and rng.getrandbits(1):
            succ = succ[::-1]
        words.append(words[v] + succ[0])
        words.append(words[v] + succ[-1])
    return bytes(int(w[-1]) for w in words)


def is_valid_labeling(rows, arity: int, depth: int, labels) -> bool:
    """Whether every child's label is allowed after its parent's in `rows`.

    `labels` is a depth-`depth` breadth-first layout; the children of
    node i are arity*i+1 .. arity*i+arity.
    """
    for i in range(node_count(arity, depth - 1)):
        row = rows[labels[i]]
        for c in range(arity * i + 1, arity * i + arity + 1):
            if not row[labels[c]]:
                return False
    return True


def naive_enumerate(rows, arity: int, depth: int):
    """All valid labelings by brute product filtering.

    Returns (per_root_counts, sorted_blocks). Only viable for tiny trees.
    """
    counts = [0] * len(rows)
    blocks = []
    for labels in itertools.product(range(len(rows)), repeat=node_count(arity, depth)):
        if is_valid_labeling(rows, arity, depth, labels):
            counts[labels[0]] += 1
            blocks.append(bytes(labels))
    return counts, sorted(blocks)


def valid_matrices(d: int) -> list[tuple[tuple[int, ...], ...]]:
    """Rows of every d x d 0/1 matrix with no zero row and no zero column."""
    out = []
    for bits in itertools.product((0, 1), repeat=d * d):
        rows = tuple(bits[d * i : d * i + d] for i in range(d))
        if all(any(row) for row in rows) and all(any(col) for col in zip(*rows)):
            out.append(rows)
    return out


def exact_counts(successors, arity: int, depth: int) -> tuple[int, ...]:
    """x_i(depth), the valid labelings of the depth-`depth` tree rooted at i.

    x_i(0) = 1 and x_i(n+1) = (sum of x_j(n) over the successors j of
    i)^arity, in exact integers.
    """
    x = (1,) * len(successors)
    for _ in range(depth):
        x = tuple(sum(x[j] for j in s) ** arity for s in successors)
    return x


def permute_rows(rows, perm):
    """Relabel symbols: new[i][j] = old[perm[i]][perm[j]]."""
    return tuple(tuple(rows[perm[i]][perm[j]] for j in range(len(rows))) for i in range(len(rows)))


def _sum(values) -> float:
    """Left-to-right float sum."""
    s = 0.0
    for v in values:
        s += v
    return s


def power_iteration(b):
    """Dominant eigenpair of a nonnegative matrix with a spectral gap.

    Returns (lambda, vector) with the vector normalized to sum 1;
    convergence is declared on the relative residual |b x - lambda x|.
    """
    d = len(b)
    rows = [[(j, w) for j, w in enumerate(row) if w] for row in b]
    x = [1.0 / d] * d
    lam = 1.0
    residual = math.inf
    y = _matvec(rows, x)
    for _ in range(MAX_ITER):
        lam = _sum(y)  # x sums to 1, so this is the Rayleigh-like quotient
        x = [v / lam for v in y]
        y = _matvec(rows, x)  # the residual's product is the next step's
        residual = max(abs(v - lam * u) for v, u in zip(y, x))
        if residual <= TOL * lam:
            return lam, x
    raise NoConvergence(MAX_ITER, residual / lam)


def _matvec(rows, x) -> list[float]:
    """Product of a matrix, as (column, nonzero entry) pairs per row, with x.

    Leaving out the zero entries changes no bit of a left-to-right sum.
    """
    y = []
    for row in rows:
        s = 0.0
        for j, w in row:
            s += w * x[j]
        y.append(s)
    return y


def log_levels(successors, arity: int, depth: int):
    """(log p(n), the log x_i(n)) for n = 0..depth, in plain float loops.

    y_i(n+1) = k * logsumexp of y_j(n) over the successors j of i, and
    log p(n) = logsumexp of all y_i(n). Each logsumexp is the top term
    plus the log of exp(y - top) summed left to right, one-term sums
    included.
    """

    def logsumexp(values):
        top = max(values)
        return top + math.log(_sum([math.exp(v - top) for v in values]))

    ys = (0.0,) * len(successors)
    p_logs, symbol_logs = [math.log(len(successors))], [ys]
    for _ in range(depth):
        ys = tuple(arity * logsumexp([ys[j] for j in s]) for s in successors)
        p_logs.append(logsumexp(ys))
        symbol_logs.append(ys)
    return p_logs, symbol_logs
