"""Counting engine for k-ary tree shifts.

For a d-symbol matrix with successor sets S_i, the number x_i(n) of
valid labelings of the depth-n initial subtree carrying symbol i at the
root satisfies

    x_i(0) = 1,    x_i(n+1) = (sum_{j in S_i} x_j(n)) ** k,

because the k child subtrees are filled independently, each by any
valid labeling whose root symbol follows i. Totals p(n) = sum_i x_i(n)
grow doubly exponentially, so next to the exact big-integer form the
same recurrence runs in the log domain, y_i(n+1) = k * logsumexp of the
selected y_j(n), whose additive float error stays far below the
divisors used for entropy. Its floats are summed left to right, not
with the builtin `sum`, which compensates its rounding from Python 3.12
on, so every Python version gives the same bits.

An exact run carries no big integers. Each x_i(n) and p(n) is held as
a bracket [lo, hi] * 2^e, its ends kept to at most bits = CERTIFY_BITS +
(n_max + 1) * ceil(log2 k) bits, those of p(n) to ceil(log2 d) more,
low ends rounded down and high ends up: sums put their terms on one
exponent, and each sum is raised to the k-th power by squaring, every
product cut the same way. Each log x_i(n) and log p(n) is the float
math.log returns for the full integer, bit for bit: both ends of the
bracket must round to the same float, or the integers are built with
the plain recurrence up to that level and the value is computed in
full. A bracket's relative width stays below about k^(n+1) * 2^-bits
<= 2^-CERTIFY_BITS, far below a float's 2^-53, at every depth. One
flat loop per level, `_exact_level`, does all of this on plain lists of
ends and exponents, since per-term calls cost more than its arithmetic.
The integers of every level are built the first time
`EntropySeries.exact` is read, by `oracle.exact_level`, for trees of at
most oracle.EXACT_NODE_BUDGET nodes; deeper levels raise TooLarge.

Entropy estimates divide log p(n) by the size scale of the depth-n
subtree: the dyadic convention uses 2^(n+1) and higher arities use the
node count (k^(n+1) - 1)/(k - 1); the two scalings agree in the limit.
Writing log p(n) ~ H * k^(n+1)/(k-1) + beta, the increment
a(n) = log p(n) - k log p(n-1) tends to beta(1 - k), so

    h_acc(n) = (log p(n) + a(n)/(k-1)) * (k-1) / k^(n+1)

cancels the constant-offset bias. The bias left still falls only
geometrically: about 3.1 times per level for the golden mean shift, where
the plain quotient's falls 2 times, and 2 times for both on the period-2
matrix 011,100,100. The diagnostic h2(n) = log log p(n) / n tracks the
doubly exponential growth rate itself. All logarithms are natural.

The module also carries the scalar specials of the golden mean shift
(adjacent 1s forbidden), whose totals and 0-rooted counts close into
one-dimensional recurrences, and the sandwich bounds for the k-ary
entropy of a shift with maximum row sum s. The golden q ratios
q(n) = p(n)/p(n-1)^2 come from their own exact map q(n+1) = 1 + 1/q(n)^2,
run on certified fixed-point intervals, so they need no big integers at
any depth, and the same map to level 100 gives their limit q* and the
entropy h. `decimal` is imported by `golden_power_bounds` alone, the one
caller of its logarithm, so no other command loads it.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Sequence

from .matrix import TransitionMatrix
from .oracle import exact_level, extend_exact, node_count


class LogOverflow(ValueError):
    """A log-domain count left the float range below the depth limit."""


class TreeParams:
    """Arity of the tree and the deepest level to compute."""

    def __init__(self, arity: int = 2, n_max: int = 15):
        self.arity = arity
        self.n_max = n_max
        if self.arity < 2:
            raise ValueError("arity must be at least 2")
        if self.n_max < 0:
            raise ValueError("n_max must be nonnegative")
        limit = _max_scale_exponent(self.arity)
        if limit == 0:  # exactly when arity >= _FLOAT_OVERFLOW
            raise ValueError(
                f"arity {_shown(self.arity)} is too large: the entropy scale"
                f" arity ** (n + 1) must fit in a float, which no depth n >= 0 allows"
            )
        if self.n_max + 1 > limit:
            raise ValueError(
                f"depth {self.n_max} is too deep for arity {_shown(self.arity)}: the entropy"
                f" scale arity ** (n + 1) must fit in a float, so n + 1 <= {limit}"
            )

    def node_count(self, n: int) -> int:
        """Nodes in the depth-n initial subtree."""
        return node_count(self.arity, n)


# float(v) overflows exactly from here on: the largest float plus half
# its last unit, which rounds up to 2**1024
_FLOAT_OVERFLOW = 2**1024 - 2**970


def _shown(arity: int) -> str:
    """An arity for an error line: itself up to 40 digits, else its digit
    count, found without converting it to text, which may pass the
    interpreter's digit limit."""
    digits = int(arity.bit_length() * math.log10(2))
    while 10**digits <= arity:
        digits += 1
    return str(arity) if digits <= 40 else f"<integer of {digits} digits>"


def _max_scale_exponent(arity: int) -> int:
    """Largest e for which arity ** e converts to a finite float; 0 when
    arity itself does not."""
    e = int(math.log(sys.float_info.max, arity)) + 1
    while arity**e >= _FLOAT_OVERFLOW:
        e -= 1
    return e


def _logsumexp(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]  # v + log(1.0) is v bit for bit
    top = max(values)
    s = 0.0
    for v in values:
        s += math.exp(v - top)
    return top + math.log(s)


def level_entropy(p_log: float, n: int, arity: int) -> float:
    """The h(n) convention: log p(n) (k-1)/k^(n+1) for arity 2, and log p(n)
    over the node count (k^(n+1) - 1)/(k-1) above."""
    scale = arity ** (n + 1) if arity == 2 else arity ** (n + 1) - 1
    return p_log * (arity - 1) / scale


def accelerated_entropy(p_log: float, a: float, n: int, arity: int) -> float:
    """Bias-cancelled estimate (log p(n) + a(n)/(k-1)) (k-1)/k^(n+1)."""
    return (p_log + a / (arity - 1)) * (arity - 1) / arity ** (n + 1)


class EntropySeries:
    """Per-level entropy estimates from one recurrence run.

    A run supplies the levels: `symbol_logs` carries log x_i(n) and
    `p_log` log p(n). Every estimate is derived from `p_log` here, once:
    h(n) by `level_entropy`, a(n) = log p(n) - k log p(n-1), h_acc(n) by
    `accelerated_entropy` and h2(n) = log log p(n) / n. Lists are indexed
    by level; a, h_acc and h2 hold None where the quantity is undefined
    (level 0, or log p(n) <= 0 for h2). The series holds numbers only;
    `cli` renders them.

    An exact run also passes `integers`, the pair (levels, succ): the
    integer levels x(0), x(1), ... that the run built, the all-ones x(0)
    and those a fallback of the certificate needed (see `_exact_level`),
    and the successor table to extend them with. Its logs are certified
    from brackets and equal math.log of the integers bit for bit. The
    first read of `exact` extends the same `levels` list to n_max with
    `oracle.exact_level` and keeps it, or raises TooLarge past
    EXACT_NODE_BUDGET nodes. A log-domain series has no integers, and its
    `exact` is None.
    """

    def __init__(
        self,
        arity: int,
        symbol_logs: list[tuple[float, ...]],
        p_log: list[float],
        integers: tuple[list[tuple[int, ...]], tuple[tuple[int, ...], ...]] | None = None,
    ):
        k = arity
        self.arity = arity
        self.symbol_logs = symbol_logs
        self.p_log = p_log
        self.h = [level_entropy(y, n, k) for n, y in enumerate(p_log)]
        self.a = [None] + [y - k * prev for prev, y in zip(p_log, p_log[1:])]
        self.h_acc = [None] + [accelerated_entropy(p_log[n], self.a[n], n, k) for n in range(1, len(p_log))]
        self.h2 = [None] + [math.log(y) / n if y > 0 else None for n, y in enumerate(p_log[1:], 1)]
        self._levels, self._succ = integers or (None, None)

    @property
    def mode(self) -> str:
        return "logdomain" if self._levels is None else "exact"

    @property
    def exact(self) -> list[tuple[int, ...]] | None:
        if self._levels is not None:
            exact_level(self._succ, self.arity, self._levels, self.n_max)
        return self._levels

    @property
    def n_max(self) -> int:
        return len(self.p_log) - 1

    def final_h_acc(self) -> float:
        return self.h_acc[-1] if self.h_acc[-1] is not None else self.h[-1]

    def normalized_symbol_logs(self, n: int) -> tuple[float, ...]:
        """log x_i(n) / k^(n+1) for each symbol."""
        scale = self.arity ** (n + 1)
        return tuple(y / scale for y in self.symbol_logs[n])


def run(M: TransitionMatrix, params: TreeParams | None = None, mode: str = "logdomain") -> EntropySeries:
    """Iterate the recurrence from the all-ones start and collect the series.

    The loop collects only log x_i(n) and log p(n) per level; the
    `EntropySeries` built after it derives the estimates. In log mode
    each level is a tuple of the floats y_i(n) = log x_i(n), in exact
    mode lists of bracket ends around the integers x_i(n), whose logs
    `_exact_level` certifies. An exact run keeps one list of integer
    levels, which the certificate's fallback extends and the series
    hands on to `exact`, where the rest is built on first read.
    """
    if mode not in ("exact", "logdomain"):
        raise ValueError(f"unknown mode {mode!r}")
    params = params or TreeParams()
    k = params.arity
    exact = mode == "exact"
    succ = M.successor_table()
    levels = [(1,) * M.d]
    x = ([1] * M.d, [1] * M.d, [0] * M.d) if exact else (0.0,) * M.d
    bits = CERTIFY_BITS + (params.n_max + 1) * (k - 1).bit_length()
    symbol_logs, p_log = [(0.0,) * M.d], [math.log(M.d)]
    for n in range(1, params.n_max + 1):
        if exact:
            x, logs, total = _exact_level(x, succ, k, bits, levels, n)
        else:
            x = logs = tuple([k * _logsumexp([x[j] for j in s]) for s in succ])
            total = _logsumexp(x)
        symbol_logs.append(logs)
        p_log.append(total)
        if not math.isfinite(total):
            raise LogOverflow(f"log p({n}) overflows a float; use a depth below {n}")
    return EntropySeries(k, symbol_logs, p_log, (levels, succ) if exact else None)


# Base bits of an exact run's brackets; a run to depth n_max adds
# (n_max + 1) * ceil(log2 k), since each k-th power widens a bracket k times.
CERTIFY_BITS = 128


def _exact_level(x, succ, k: int, bits: int, levels: list, n: int):
    """One level of an exact run, from the brackets x = (lo, hi, ex) of
    the level below: lo[i] * 2**ex[i] <= x_i(n-1) <= hi[i] * 2**ex[i].

    Returns the same lists for level n, the total p(n) as their last
    entry, with math.log of each x_i(n) and of p(n), bit for bit. Each
    sum puts its terms on the lowest of their exponents, raised until at
    most `bits` bits of the largest term stay: terms above it are
    shifted up exactly, the others cut outward, low ends rounded down
    and high ends up. Each x_i is the k-th power of its sum by squaring,
    every product cut the same way. CPython takes the log of an int from
    its correctly rounded frexp pair, so a bracket whose two ends round
    to the same float fixes the log; where they round apart, the log is
    taken of the integers that `exact_level` builds into `levels`.
    """
    lo, hi, ex = x
    d = len(succ)
    new_lo, new_hi, new_ex, logs = [], [], [], []
    steps = bin(k)[3:]  # the bits of k below its leading one
    for i, s in enumerate((*succ, range(d))):
        if i == d:  # the total: the sum of the new brackets, not raised
            lo, hi, ex = new_lo, new_hi, new_ex
        # the lowest exponent of the terms, raised to the least that keeps
        # at most `bits` bits of the largest term
        base, least = ex[s[0]], 0
        for j in s:
            e = ex[j]
            if e < base:
                base = e
            e += hi[j].bit_length() - bits
            if e > least:
                least = e
        if least > base:
            base = least
        a = b = 0
        for j in s:
            drop = base - ex[j]
            if drop > 0:
                a += lo[j] >> drop
                b -= -hi[j] >> drop  # hi[j] / 2**drop rounded up
            else:
                a += lo[j] << -drop
                b += hi[j] << -drop
        e = base
        if i < d:
            a1, b1 = a, b
            for bit in steps:
                a, b, e = a * a, b * b, 2 * e
                if bit == "1":
                    a, b, e = a * a1, b * b1, e + base
                drop = b.bit_length() - bits
                if drop > 0:
                    a, b, e = a >> drop, -(-b >> drop), e + drop
        new_lo.append(a)
        new_hi.append(b)
        new_ex.append(e)
        try:
            f_lo, f_hi = float(a), float(b)
        except OverflowError:  # ends past the float range: their top 64 bits, one sticky bit for the rest
            drop = b.bit_length() - 64
            f_lo = float(a >> drop | (a & ~(-1 << drop) != 0))
            f_hi = float(b >> drop | (b & ~(-1 << drop) != 0))
            e += drop
        if f_lo != f_hi:
            exact = exact_level(succ, k, levels, n)
            logs.append(math.log(exact[i] if i < d else sum(exact)))
            continue
        try:
            logs.append(math.log(math.ldexp(f_hi, e)))
        except OverflowError:  # log m + e log 2 from the frexp pair (m, e); e may pass the float range too
            m, e2 = math.frexp(f_hi)
            e2 += e
            if e2 < _FLOAT_OVERFLOW:
                logs.append(math.log(m) + math.log(2.0) * e2)
            else:
                logs.append(math.log(m) + math.log(2.0) * (e2 >> 64) * 2.0**64)
    return (new_lo, new_hi, new_ex), tuple(logs[:d]), logs[d]


def log_deviation(exact: EntropySeries, approx: EntropySeries) -> float:
    """Largest relative gap between exact log counts and log-domain ones.

    Components with log x = 0 are compared absolutely (the log-domain
    recurrence keeps them at exactly 0, so any gap there is a bug).
    """
    if exact.mode != "exact":
        raise ValueError("first series must come from an exact run")
    worst = 0.0
    for n in range(min(exact.n_max, approx.n_max) + 1):
        for truth, y in zip(exact.symbol_logs[n], approx.symbol_logs[n]):
            gap = abs(y - truth)
            if truth != 0.0:
                gap /= abs(truth)
            worst = max(worst, gap)
    return worst


def auto_depth(arity: int) -> int:
    """Smallest n whose depth-n subtree has at least 10^4 nodes."""
    n = 0
    while node_count(arity, n) < 10**4:
        n += 1
    return n


def kary_bounds(s: int, arity: int) -> tuple[float, float]:
    """Sandwich ((k-1)/k log s, log s) for the k-ary entropy at max row sum s."""
    if s < 1:
        raise ValueError("maximum row sum must be at least 1")
    if arity < 2:
        raise ValueError("arity must be at least 2")
    log_s = math.log(s)
    return ((arity - 1) / arity * log_s, log_s)


# ---------------------------------------------------------------------------
# golden mean specials


def golden_counts(n_max: int) -> list[int]:
    """Exact totals p(n) for the dyadic golden mean tree shift.

    A depth-(n+1) labeling is either a root 0 over two independent
    valid subtrees, or a root 1 over two subtrees rooted at 0 whose own
    children subtrees are again free, hence

        p(0) = 2, p(1) = 5, p(n+1) = p(n)^2 + p(n-1)^4.

    Depths past oracle.EXACT_NODE_BUDGET nodes raise TooLarge.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    return extend_exact([2, 5], 2, n_max, lambda p: p[-1] ** 2 + p[-2] ** 4)


class UncertifiedFloat(ValueError):
    """The two ends of a certified interval round to different floats."""


# The level from which the q(n) and the entropy series no longer move a
# float: q(n) - q* shrinks about 0.64 times per level, to below 1e-19 here.
GOLDEN_LIMIT = 100


class GoldenQ(NamedTuple):
    """The golden mean q ratios q(n) = p(n)/p(n-1)^2 for n <= n_max.

    For n >= 1, lo[n] <= q(n) * 2**bits <= hi[n], and values[n] is the
    float that both ends of that interval round to. Index 0 holds None,
    since q(0) is undefined. The limits `root` and `entropy` read the
    levels up to GOLDEN_LIMIT, so they need n_max >= GOLDEN_LIMIT.
    """

    bits: int
    lo: list[int | None]
    hi: list[int | None]
    values: list[float | None]

    def step_sign(self, n: int) -> int:
        """Sign of q(n) - q(n-1), or 0 when the two intervals overlap."""
        if self.lo[n] > self.hi[n - 1]:
            return 1
        if self.hi[n] < self.lo[n - 1]:
            return -1
        return 0

    def reciprocal(self, n: int) -> float:
        """1/q(n), rounded correctly from the same interval."""
        one = 1 << self.bits
        return _certified(one / self.hi[n], one / self.lo[n], f"1/q({n})")

    def root(self) -> float:
        """The real root q* of x = 1 + 1/x^2, the limit of the q(n), rounded
        correctly: the q(n) alternate around it, so it rounds to the float
        that two consecutive certified q(n) both round to."""
        return _certified(self.values[GOLDEN_LIMIT - 1], self.values[GOLDEN_LIMIT], "the supergolden root")

    def entropy(self) -> float:
        """The golden mean entropy h = lim log p(n)/2^(n+1).

        log p(n) = 2 log p(n-1) + log q(n) from p(0) = 2 telescopes to
        h = (log 2)/2 + sum over m >= 1 of log q(m)/2^(m+1). Every q(m)
        lies in [1, 2], so the terms past GOLDEN_LIMIT sum to below
        2^-101, far below the last bit of h. The terms are added left to
        right, so every Python version gives the same bits.
        """
        h = math.log(2.0) / 2
        for m in range(1, GOLDEN_LIMIT + 1):
            h += math.log(self.values[m]) / 2 ** (m + 1)
        return h


def golden_q(n_max: int) -> GoldenQ:
    """q(n) from the exact map q(1) = 5/4, q(n+1) = 1 + 1/q(n)^2.

    The map follows from p(n+1) = p(n)^2 + p(n-1)^4 and runs on integer
    intervals with a fixed precision of 256 + n_max fractional bits,
    returned as GoldenQ.bits. It is decreasing, so
    each new lower end comes from the old upper end, rounded down, and
    each new upper end from the old lower end, rounded up. Near its
    fixed point the map contracts by about 0.64 per level, which keeps
    every interval a few units of 2^-bits wide. The gap between
    consecutive q shrinks by the same factor, about 0.66 bits per level,
    so the extra n_max bits keep consecutive intervals apart at every
    depth. Each q(n) is rounded once by int/int division, which rounds
    correctly; UncertifiedFloat is raised if the two ends round apart.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    bits = 256 + n_max
    one = 1 << bits
    cube = one << 2 * bits
    lo = hi = 5 << (bits - 2)  # q(1) = 5/4 exactly
    los: list[int | None] = [None, lo]
    his: list[int | None] = [None, hi]
    for _ in range(n_max - 1):
        lo, hi = one + cube // (hi * hi), one - (-cube // (lo * lo))
        los.append(lo)
        his.append(hi)
    values: list[float | None] = [None]
    for n in range(1, n_max + 1):
        values.append(_certified(los[n] / one, his[n] / one, f"q({n})"))
    return GoldenQ(bits, los, his, values)


def _certified(lo: float, hi: float, what: str) -> float:
    if lo != hi:
        raise UncertifiedFloat(f"{what} is not certified to one float")
    return lo


def golden_zero_rooted_counts(n_max: int) -> list[int]:
    """Exact golden mean counts with the root forced to 0.

    With A(n) the number of such depth-n labelings, each child is a 0
    rooting a free subtree or a 1 whose children must again be 0-rooted,
    giving A(0) = 1, A(1) = 4, A(n+1) = (A(n) + A(n-1)^2)^2. Depths past
    oracle.EXACT_NODE_BUDGET nodes raise TooLarge.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    return extend_exact([1, 4], 2, n_max, lambda a: (a[-1] + a[-2] ** 2) ** 2)


class PowerBoundCheck(NamedTuple):
    """One verdict of A(n) >= gamma^(2^(n+1) - 1)."""

    level: int
    exponent: int
    holds: bool
    log_margin: float
    precision_bits: int


def golden_power_bounds(a_seq: Sequence[int]) -> list[PowerBoundCheck]:
    """Compare each A(n), n >= 4, against gamma^E with E = 2^(n+1) - 1.

    With Fibonacci and Lucas numbers, 2 gamma^E = L_E + F_E sqrt(5), so
    power = floor(2 gamma^E * 2^b) is L_E * 2^b plus one isqrt, where
    b = precision_bits >= 2^(n+1) + 64 fractional bits. gamma^E is
    irrational, so A(n) >= gamma^E exactly when A(n) * 2^(b+1) > power:
    the verdict is exact at every input. The log margin
    ln A(n) - E ln gamma is the 50-digit decimal logarithm of the same
    ratio, rounded to a float.
    """
    from decimal import Context

    context = Context(prec=50)
    checks = []
    index, fib, fib_next = 0, 0, 1  # F_index and F_(index + 1)
    for n in range(4, len(a_seq)):
        exponent = 2 ** (n + 1) - 1
        while index < exponent:
            index, fib, fib_next = index + 1, fib_next, fib + fib_next
        bits = max(2 ** (n + 1), 64) + 64
        lucas = 2 * fib_next - fib
        power = (lucas << bits) + math.isqrt(5 * fib**2 << 2 * bits)
        value = a_seq[n] << (bits + 1)
        log_margin = float(context.ln(context.divide(value, power)))
        checks.append(PowerBoundCheck(n, exponent, value > power, log_margin, bits))
    return checks
