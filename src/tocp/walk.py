"""Simple-random-walk return probabilities and hitting probabilities.

Everything here is about the symmetric nearest-neighbour walk on the
d-dimensional integer lattice.  The central quantities are the
even-step return probabilities ``p(2n) = P(S_2n = 0)``, the Green
function ``G_d(0,0) = 1 + sum_n p(2n)`` (finite for d >= 3), and the
hitting probability ``F_d(x)`` that a walk started at x ever reaches the
origin, with the classical identities ``F_d(e1) = (G - 1)/G`` and
``F_d(x) = G_d(x)/G_d(0,0)``.

Green values come from one route: the unit-rate continuous-time walk
visits the same sites and factorizes over axes, so
``G_d(x) = integral_0^inf prod_i ive(|x_i|, t/d) dt``.  The integral is
taken by a fixed Gauss rule up to a cutoff T, plus a closed-form tail
whose error is bounded analytically.

Return probabilities factor over axes.  Writing ``p(2n) = A(n) * B_d(n)``
with ``A(n) = C(2n, n)/4**n`` and ``B_d(n)`` the collision probability of
two independent uniform allocations of n step-pairs over d axes, both
factors live in (0, 1] and can be evaluated in doubles without scaling
trouble.  An exact big-integer convolution backs the rational mode.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import gammaln, ive

__all__ = [
    "DivergenceError",
    "ReturnSeries",
    "GreenResult",
    "HittingE1",
    "HittingTable",
    "TailBounds",
    "p_return_exact",
    "return_probabilities",
    "return_series",
    "green_function",
    "hitting_prob_e1",
    "hitting_table",
    "first_return_probabilities",
    "mc_return_oracle",
    "tail_certificates",
]


class DivergenceError(ValueError):
    """Raised when a Green-function series diverges (recurrent walk, d <= 2)."""


# upper rational bound on e, used to turn irrational bound checks into
# exact rational comparisons (replacing e by E_HI only shrinks 1/(2e)^k)
_E_HI = Fraction(27182818284590453, 10**16)

_EXACT_GUARD = 80_000  # refuse exact mode beyond n * d of this size

# cells of one row block of the collision-series table (2 MiB per float64 array)
_COLLISION_CELLS = 1 << 18


# ---------------------------------------------------------------------------
# return probabilities


def _walk_pair_counts(d: int, n_max: int) -> list[int]:
    """Exact W_d(n) = sum over axis allocations of multinomial(n; m)**2.

    Splitting the d axes into groups of a and b axes gives the join
    ``W_{a+b}(s) = sum_m C(s, m)**2 W_a(m) W_b(s - m)``, since a
    multinomial over a + b axes is ``C(s, m)`` times one over each group.
    ``W_d`` is built along the bits of d from ``W_1 = 1``: a squaring
    (a -> 2a) per bit after the leading one and a join with ``W_1``
    (a -> a + 1) per further set bit, so ``floor(log2 d) + popcount(d) - 1``
    joins in Python integers where one axis at a time takes d - 1.
    ``p(2n) = C(2n, n) * W_d(n) / (2d)**(2n)``.
    Returns ``[W_d(0), ..., W_d(n_max)]``.
    """
    comb2 = [[math.comb(s, m) ** 2 for m in range(s + 1)] for s in range(n_max + 1)]

    def square(a):  # the terms m and s - m are equal: sum half of them, twice
        return [2 * sum(c * a[m] * a[s - m] for m, c in enumerate(comb2[s][: (s + 1) // 2]))
                + (comb2[s][s // 2] * a[s // 2] ** 2 if s % 2 == 0 else 0)
                for s in range(n_max + 1)]

    def add_axis(a):  # the join with W_1 = 1
        return [sum(c * a[m] for m, c in enumerate(comb2[s])) for s in range(n_max + 1)]

    W = [1] * (n_max + 1)
    for bit in bin(d)[3:]:
        W = square(W)
        if bit == "1":
            W = add_axis(W)
    return W


def p_return_exact(d: int, n: int) -> Fraction:
    """Exact rational return probability ``P(S_2n = 0)`` on the d-lattice."""
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    if n * d > _EXACT_GUARD:
        raise ValueError("n * d beyond the exact-arithmetic resource guard")
    W = _walk_pair_counts(d, n)
    return Fraction(math.comb(2 * n, n) * W[n], (2 * d) ** (2 * n))


def _central_binomial_over_4n(n_max: int) -> np.ndarray:
    """A(n) = C(2n, n)/4**n for n = 0..n_max via a stable product recurrence."""
    A = np.empty(n_max + 1)
    A[0] = 1.0
    for n in range(1, n_max + 1):
        A[n] = A[n - 1] * (2 * n - 1) / (2 * n)
    return A


def _allocation_collision(d: int, n_max: int) -> np.ndarray:
    """B_d(n): collision probability of two uniform d-axis allocations of n items.

    B_1 = 1; B_j(k) = sum_m binom_pmf(m; k, 1/j)**2 * B_{j-1}(k - m): the
    split of the j axes into one axis (m items) and the other j - 1, the
    one-axis case of the join in :func:`_walk_pair_counts`.  The ``(k, m)``
    table is taken in row blocks of at most ``_COLLISION_CELLS`` cells and
    never held whole; in each block ``log C(k, m)`` is evaluated once, and
    each axis is one numpy step over the lower triangle ``m <= k`` with
    ``B_j(k)`` a row sum.  All values lie in (0, 1].
    """
    lg = gammaln(np.arange(n_max + 2, dtype=np.float64))
    B = np.ones((d, n_max + 1))  # row j - 1 holds B_j
    k0 = 1
    while k0 <= n_max:
        # rows k0 .. k1 - 1 over the columns m = 0 .. k1 - 1: (k1 - k0) * k1 cells
        rows = (math.isqrt(k0 * k0 + 4 * _COLLISION_CELLS) - k0) // 2
        k1 = min(n_max + 1, k0 + max(1, rows))
        k = np.arange(k0, k1)[:, None]
        m = np.arange(k1)
        r = np.maximum(k - m, 0)  # k - m, clipped where m > k
        # log C(k, m), shared by every axis; -inf where m > k, so those cells add 0
        logc = lg[k + 1] - lg[m + 1] - lg[r + 1]
        np.copyto(logc, -np.inf, where=m > k)
        rf = r.astype(np.float64)
        # B_j on these rows reads B_{j-1} on rows up to k1 - 1: earlier blocks
        # and this block's previous axis
        for j in range(2, d + 1):
            lp, lq = math.log(1.0 / j), math.log(1.0 - 1.0 / j)
            pmf = logc + m * lp
            pmf += rf * lq
            np.exp(pmf, out=pmf)
            pmf *= pmf
            pmf *= B[j - 2].take(r)
            B[j - 1, k0:k1] = pmf.sum(axis=1)
        k0 = k1
    return B[-1]


def return_probabilities(d: int, n_max: int) -> np.ndarray:
    """Float array of ``p(2n)`` for n = 1..n_max (index 0 is n = 1)."""
    if d < 1 or n_max < 1:
        raise ValueError("need d >= 1 and n_max >= 1")
    A = _central_binomial_over_4n(n_max)
    B = _allocation_collision(d, n_max)
    return (A * B)[1:]


@dataclass
class ReturnSeries:
    """Return-probability series with a closed-form bound on its tail."""

    d: int
    terms: np.ndarray  # p(2n), n = 1..truncation_N
    truncation_N: int
    tail_estimate: float  # upper bound on sum_{n > truncation_N} p(2n)


def _tail_sup_mk(d: int) -> float:
    """Numeric value of the k >= 3 block bound: sum_k 2*sqrt(2)*d*M_{k-1}**d."""
    total = 0.0
    k = 3
    while True:
        mk = _m_ratio(k - 1) ** d
        term = 2.0 * math.sqrt(2.0) * d * mk
        total += term
        if term < 1e-300 or k > 10_000:
            break
        k += 1
    return total


def _m_ratio(k: int) -> float:
    """M_k = (k+1)**k / (e**k * k!)."""
    return math.exp(k * math.log(k + 1) - k - math.lgamma(k + 1))


def return_series(d: int, n_max: int) -> ReturnSeries:
    """Series terms plus the closed-form block bound on ``sum_{n > n_max} p(2n)``.

    The block bound is a valid upper bound for ``n_max >= 2d``; it is
    effective only in high dimension.
    """
    if n_max < 2 * d:
        raise ValueError("block-bound tail requires n_max >= 2d")
    return ReturnSeries(d, return_probabilities(d, n_max), n_max, _tail_sup_mk(d))


def first_return_probabilities(p: np.ndarray) -> np.ndarray:
    """First-return probabilities ``f(2n)`` from return probabilities.

    Uses the renewal recursion ``p(2n) = sum_{k<=n} f(2k) p(2n-2k)``
    (with p(0) = 1).  ``p`` is indexed by n starting at 1, as produced by
    :func:`return_probabilities`.
    """
    N = len(p)
    f = np.zeros(N)
    for n in range(1, N + 1):
        acc = p[n - 1]
        if n > 1:
            acc -= float(np.dot(f[: n - 1], p[n - 2 :: -1][: n - 1]))
        f[n - 1] = acc
    return f


# ---------------------------------------------------------------------------
# Green values by quadrature of the Poissonized walk


_DEFAULT_CUTOFF = 1e8

# Gauss-Legendre points per panel: the 20-point rule gives the value, the
# 12-point rule on the same panels the quadrature-error estimate
_POINTS_VALUE, _POINTS_CHECK = 20, 12
_PANEL = 2.0  # panel width in u = log t

_NODE_GUARD = 10_000_000  # refuse more than this many class-node products


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    # built on first use: the eigensolver behind it costs import time and memory
    return np.polynomial.legendre.leggauss(n)


def _rule(cutoff: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a composite n-point rule for ``integral_0^cutoff dt``.

    One panel on [0, 1] in t, then panels of width ``_PANEL`` in
    ``u = log t`` up to ``log(cutoff)``.  The integrand below is entire
    in u and bounded on the strip ``|Im u| <= pi/2``, so each panel
    converges geometrically in the number of nodes.
    """
    x, w = _gauss_legendre(n)
    L = math.log(cutoff)
    edges = np.linspace(0.0, L, max(1, math.ceil(L / _PANEL)) + 1)
    half = 0.5 * np.diff(edges)[:, None]
    u = (edges[:-1, None] + half * (x + 1.0)).ravel()
    t = np.exp(u)
    return (np.concatenate([0.5 * (x + 1.0), t]),
            np.concatenate([0.5 * w, (half * w).ravel() * t]))


def _envelope(z: float, a_max: int) -> tuple[float, float]:
    """Bounds ``lo <= sqrt(2 pi z) ive(a, z) <= hi`` for z >= 1/2, 0 <= a <= a_max.

        lo = erf(sqrt(2z)) prod_{k=1..a_max} z/(k + sqrt(k**2 + z**2))
        hi = 1 + 1/(4z) + sqrt(pi z/2) exp(-z)

    Both follow from ``e**-z I_0(z) = (2/pi) integral_0^1 exp(-2 z u**2)
    (1-u**2)**(-1/2) du`` (DLMF 10.32.1 with u = sin(theta/2)): below,
    bound the root by 1; above, by ``1 + u**2`` on u**2 <= 1/2 and the
    exponential by exp(-z) elsewhere.  ``I_a <= I_0`` gives the upper
    side for every a, and Amos's ratio bound ``I_k(z)/I_{k-1}(z) >=
    z/(k + sqrt(k**2 + z**2))`` (Math. Comp. 28, 1974, 239-251) the lower.
    For z >= 1/2, hi falls and lo rises with z.
    """
    hi = 1.0 + 0.25 / z + math.sqrt(0.5 * math.pi * z) * math.exp(-z)
    lo = math.erf(math.sqrt(2.0 * z))
    for k in range(1, a_max + 1):
        lo *= z / (k + math.hypot(k, z))
    return lo, hi


def _tail(d: int, cutoff: float, a_max: int) -> tuple[float, float]:
    """Closed-form tail past the cutoff T and a proven bound on its error.

    Past T the integrand ``prod_i ive(a_i, t/d)`` is replaced by its
    large-t law ``(d / (2 pi t))**(d/2)``, which integrates to
    ``(d/2pi)**(d/2) T**(1-d/2) / (d/2-1)``.  The integrand lies between
    ``lo**d`` and ``hi**d`` times that law, with the :func:`_envelope`
    values at z = T/d, which hold for the whole tail.
    """
    lo, hi = _envelope(cutoff / d, a_max)
    tail = (d / (2.0 * math.pi)) ** (d / 2.0) * cutoff ** (1.0 - d / 2.0) / (d / 2.0 - 1.0)
    return tail, tail * max(hi**d - 1.0, 1.0 - lo**d)


def _green_values(
    d: int, classes: np.ndarray, cutoff: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """``G_d(x)`` for each row x of ``classes`` (nonnegative displacements).

    ``G_d(x) = integral_0^inf prod_i ive(|x_i|, t/d) dt`` for the
    unit-rate continuous-time walk, which factorizes over axes and
    visits the same sites as the discrete one.  Returns the values, a
    per-row uncertainty (quadrature estimate plus the tail bound of
    :func:`_tail`) and the closed-form tail.
    """
    if not (math.isfinite(cutoff) and cutoff >= d):
        raise ValueError(f"cutoff must be finite and >= d, got {cutoff!r}")
    a_max = int(classes.max())
    orders = np.arange(a_max + 1)[:, None]
    estimates = []
    for n in (_POINTS_VALUE, _POINTS_CHECK):
        t, wt = _rule(cutoff, n)
        if len(classes) * len(t) > _NODE_GUARD:
            raise ValueError("Green-value quadrature beyond the resource guard")
        axis = ive(orders, t / d)  # row a holds ive(a, t/d) at every node
        f = axis[classes[:, 0]]
        for j in range(1, d):
            f *= axis[classes[:, j]]
        estimates.append(f @ wt)
    tail, envelope = _tail(d, cutoff, a_max)
    return estimates[0] + tail, np.abs(estimates[0] - estimates[1]) + envelope, tail


@dataclass
class HittingE1:
    """Hitting probability of the origin from a lattice neighbour."""

    value: float
    uncertainty: float
    recurrent: bool


@dataclass
class GreenResult:
    value: float
    uncertainty: float
    truncation_N: float  # quadrature cutoff T
    tail_estimate: float  # closed-form integral past T

    def hitting_e1(self) -> HittingE1:
        """``F_d(e1) = (G - 1)/G`` with the propagated uncertainty."""
        return HittingE1((self.value - 1.0) / self.value,
                         self.uncertainty / self.value**2, False)


def green_function(d: int, truncation_N: float | None = None) -> GreenResult:
    """Green function ``G_d(0,0) = 1 + sum p(2n)`` for a transient walk.

    Quadrature of the Poissonized integral up to the cutoff
    ``truncation_N`` (default 1e8) plus the closed-form tail; the
    uncertainty is the quadrature estimate plus a proven bound on the
    tail's error.  Raises :class:`DivergenceError` for d <= 2.
    """
    if d <= 2:
        raise DivergenceError(f"return series diverges for d = {d} (recurrent walk)")
    T = _DEFAULT_CUTOFF if truncation_N is None else truncation_N
    values, unc, tail = _green_values(d, np.zeros((1, d), dtype=np.intp), T)
    return GreenResult(float(values[0]), float(unc[0]), T, tail)


def hitting_prob_e1(d: int, truncation_N: float | None = None) -> HittingE1:
    """``F_d(e1) = (G - 1)/G``; returns 1.0 flagged recurrent for d <= 2."""
    if d < 1:
        raise ValueError("dimension d must be >= 1")
    if d <= 2:
        return HittingE1(1.0, 0.0, True)
    return green_function(d, truncation_N).hitting_e1()


# ---------------------------------------------------------------------------
# hitting table over a box


@dataclass
class HittingTable:
    """``F_d(x)`` over the sup-norm box of a given radius.

    Values are stored per symmetry class (coordinates sorted by absolute
    value), since F is invariant under coordinate permutations and sign
    flips.
    """

    d: int
    radius: int
    green_origin: float
    classes: dict
    tail_uncertainty: float

    def lookup(self, x) -> float:
        key = tuple(sorted(abs(int(c)) for c in x))
        if len(key) != self.d or key[-1] > self.radius:
            raise KeyError(f"point {x} outside table")
        return self.classes[key]


def hitting_table(d: int, radius: int, n_terms: float | None = None) -> HittingTable:
    """Hitting probabilities on the box ``max_i |x_i| <= radius``.

    Every symmetry class is integrated at once on the nodes of one
    quadrature rule with cutoff ``n_terms`` (default 1e8), then
    ``F_d(x) = G_d(x) / G_d(0, 0)``.  ``tail_uncertainty`` is the
    largest Green-value uncertainty propagated to F, valid for every class.
    """
    if d < 3:
        raise DivergenceError("hitting tables need a transient walk (d >= 3)")
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if math.comb(radius + d, d) * 2 * _POINTS_VALUE > _NODE_GUARD:  # >= 2 panels
        raise ValueError("hitting table beyond the resource guard")
    # the symmetry classes: nondecreasing d-tuples with entries in 0..radius
    keys = list(itertools.combinations_with_replacement(range(radius + 1), d))
    T = _DEFAULT_CUTOFF if n_terms is None else n_terms
    values, unc, _ = _green_values(d, np.array(keys, dtype=np.intp), T)
    g0 = float(values[0])  # keys[0] is the origin
    table = {k: v / g0 for k, v in zip(keys, values.tolist())}
    # |d(Gx/G0)| <= (dGx + F dG0)/G0 and F <= 1
    return HittingTable(d, radius, g0, table, 2.0 * float(unc.max()) / g0)


# ---------------------------------------------------------------------------
# Monte Carlo oracle


def _packed_layout(d: int, horizon_steps: int) -> tuple[int, int, int]:
    """Field width, fields per int64 word and word count of the walk state."""
    # a coordinate of a walk from e1 stays within +-(horizon_steps + 1), so
    # offset by 2**(bits - 1) > horizon_steps + 2 it fills [1, 2**bits)
    bits = (horizon_steps + 2).bit_length() + 1
    per_word = 62 // bits
    return bits, per_word, -(-d // per_word)


def mc_return_oracle(d: int, trials: int, horizon_steps: int, seed: int) -> dict:
    """Fraction of walks from e1 that hit the origin within a step budget.

    A finite horizon can only miss late returns, so the estimate is a
    lower bound for ``F_d(e1)``; the matching truncated expectation is
    ``sum_{2n <= horizon} f(2n)`` from :func:`first_return_probabilities`.
    Returns a dict with ``estimate``, ``se``, ``hits`` and ``trials``.

    Each step draws ``k = floor(rng.random(m) * 2d)`` for the ``m`` walks
    still out, in order, and moves axis ``k >> 1`` by ``-1`` for even
    ``k`` and ``+1`` for odd ``k``; a walk that reaches the origin is
    counted and retired.  The hits are a function of ``(d, trials,
    horizon_steps, seed)`` alone.

    The walk state is packed: with ``bits = (horizon_steps + 2).bit_length()
    + 1``, each coordinate plus ``2**(bits - 1)`` sits in its own
    ``bits``-wide field, ``62 // bits`` fields to an int64 word.  A field
    holds every coordinate within ``horizon_steps + 1`` of zero, so a
    +-1 step never carries into its neighbour: a step is one table lookup
    and one add per word, and "at the origin" is one equality per word
    against a constant.
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got d={d}")
    if trials < 1:
        raise ValueError("need at least one trial")
    if horizon_steps < 0:
        raise ValueError(f"need horizon_steps >= 0, got {horizon_steps}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed)))
    bits, per_word, n_words = _packed_layout(d, horizon_steps)
    offset = 1 << (bits - 1)
    # delta[w, k] is what step k adds to word w
    delta = np.zeros((n_words, 2 * d), dtype=np.int64)
    origin = [0] * n_words
    for axis in range(d):
        w, field = divmod(axis, per_word)
        unit = 1 << (field * bits)
        delta[w, 2 * axis] = -unit
        delta[w, 2 * axis + 1] = unit
        origin[w] += offset * unit
    state = [np.full(trials, o, dtype=np.int64) for o in origin]
    state[0] += 1  # e1: axis 0 is the low field of word 0
    hits = 0
    for _ in range(horizon_steps):
        m = len(state[0])
        if m == 0:
            break
        k = (rng.random(m) * (2 * d)).astype(np.int64)
        for w in range(n_words):
            state[w] += delta[w].take(k)
        at_zero = state[0] == origin[0]
        for w in range(1, n_words):
            at_zero &= state[w] == origin[w]
        nh = int(np.count_nonzero(at_zero))
        if nh:
            hits += nh
            keep = ~at_zero
            state = [s[keep] for s in state]
    est = hits / trials
    se = math.sqrt(max(est * (1.0 - est), 1e-300) / trials)
    return {"estimate": est, "se": se, "hits": hits, "trials": trials}


# ---------------------------------------------------------------------------
# closed-form tail certificates


@dataclass
class TailBounds:
    """Closed-form quantities controlling the high-dimension series tail."""

    d: int
    L_values: dict  # n -> (2n-1)!! / (2d)**n
    L_dip_at_ceil_d: bool
    beta_values: dict  # n -> n! / (sqrt(2 pi n) (n/e)**n)
    M_values: dict  # k -> (k+1)**k / (e**k k!)
    M2_is_sup: bool
    H1_exact: Fraction
    H1_bound_holds: bool
    H2_exact: Fraction
    H2_bound_holds: bool


def _double_factorial_ratio(n: int, d: int) -> Fraction:
    """L(n, d) = (2n - 1)!! / (2d)**n exactly."""
    num = 1
    for i in range(1, 2 * n, 2):
        num *= i
    return Fraction(num, (2 * d) ** n)


def tail_certificates(d: int) -> TailBounds:
    """Evaluate the block-bound machinery for the series tail at dimension d.

    ``H1 = sum_{n=2..d} p(2n)`` and ``H2 = sum_{n=d+1..2d} p(2n)`` are
    computed as exact rationals; the comparisons against
    ``3/(2 d**2) + 2d/(2e)**floor(d/2)`` and ``2d (2/e)**(2d)`` replace e
    by a rational upper bound so that a True verdict is rigorous.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    n_probe = min(2 * d + 2, max(d + 2, 12))
    L_values = {n: _double_factorial_ratio(n, d) for n in range(2, n_probe)}
    # L decreases while n < ceil(d) and increases afterwards
    ratios_ok = True
    for n in range(3, n_probe):
        growing = L_values[n] > L_values[n - 1]
        if (n < math.ceil(d) and growing) or (n > math.ceil(d) and not growing):
            ratios_ok = False
    beta_values = {
        n: math.exp(math.lgamma(n + 1) - 0.5 * math.log(2 * math.pi * n) - n * (math.log(n) - 1))
        for n in (1, 2, 5, 10, 20, 40)
    }
    M_values = {k: _m_ratio(k) for k in range(1, 21)}
    M2_is_sup = all(M_values[2] >= M_values[k] for k in range(2, 21))

    W = _walk_pair_counts(d, 2 * d)
    p_exact = {
        n: Fraction(math.comb(2 * n, n) * W[n], (2 * d) ** (2 * n))
        for n in range(2, 2 * d + 1)
    }
    H1 = sum((p_exact[n] for n in range(2, d + 1)), Fraction(0))
    H2 = sum((p_exact[n] for n in range(d + 1, 2 * d + 1)), Fraction(0))
    k_half = d // 2
    h1_rhs_lower = Fraction(3, 2 * d * d) + Fraction(2 * d, 1) / ((2 * _E_HI) ** k_half)
    h2_rhs_lower = Fraction(2 * d, 1) * (Fraction(2, 1) / _E_HI) ** (2 * d)
    return TailBounds(
        d=d,
        L_values=L_values,
        L_dip_at_ceil_d=ratios_ok,
        beta_values=beta_values,
        M_values=M_values,
        M2_is_sup=M2_is_sup,
        H1_exact=H1,
        H1_bound_holds=H1 <= h1_rhs_lower,
        H2_exact=H2,
        H2_bound_holds=H2 <= h2_rhs_lower,
    )
