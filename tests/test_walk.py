import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gamma, gammaln, ive

from series_oracle import green_series, one_axis_pmf
from tocp import walk

# Watson's integral in closed form (Glasser & Zucker 1977)
G3_CLOSED_FORM = (math.sqrt(6) / (32 * math.pi**3)
                  * gamma(1 / 24) * gamma(5 / 24) * gamma(7 / 24) * gamma(11 / 24))


# ---------------------------------------------------------------------------
# brute-force oracles


def enumerate_return_probability(d, n):
    """Count 2n-step walks returning to the origin by full enumeration."""
    steps = []
    for axis in range(d):
        for sgn in (1, -1):
            v = [0] * d
            v[axis] = sgn
            steps.append(tuple(v))
    hits = 0
    for path in itertools.product(steps, repeat=2 * n):
        if all(sum(s[i] for s in path) == 0 for i in range(d)):
            hits += 1
    return Fraction(hits, len(steps) ** (2 * n))


def enumerate_endpoint_distribution(d, k):
    steps = []
    for axis in range(d):
        for sgn in (1, -1):
            v = [0] * d
            v[axis] = sgn
            steps.append(tuple(v))
    dist = {}
    for path in itertools.product(steps, repeat=k):
        end = tuple(sum(s[i] for s in path) for i in range(d))
        dist[end] = dist.get(end, 0) + 1
    total = len(steps) ** k
    return {x: Fraction(c, total) for x, c in dist.items()}


def test_exact_first_term():
    for d in (1, 2, 3, 7):
        assert walk.p_return_exact(d, 1) == Fraction(1, 2 * d)


def test_exact_matches_enumeration():
    assert walk.p_return_exact(1, 2) == Fraction(6, 16) == enumerate_return_probability(1, 2)
    assert walk.p_return_exact(2, 2) == Fraction(36, 256) == enumerate_return_probability(2, 2)
    for d, n in ((1, 3), (2, 3)):
        assert walk.p_return_exact(d, n) == enumerate_return_probability(d, n)


def test_exact_resource_guard():
    with pytest.raises(ValueError):
        walk.p_return_exact(100, 10_000)


def one_axis_pair_counts(d, n_max):
    """W_d by adding one axis at a time: W_j(s) = sum_m C(s, m)**2 W_{j-1}(s - m)."""
    W = [1] * (n_max + 1)
    for _ in range(1, d):
        W = [sum(math.comb(s, m) ** 2 * W[s - m] for m in range(s + 1)) for s in range(n_max + 1)]
    return W


def one_k_at_a_time_collision(d, n_max):
    """B_d(k), one numpy dot product per axis and k."""
    lg = gammaln(np.arange(n_max + 2, dtype=np.float64))
    B = np.ones(n_max + 1)
    for j in range(2, d + 1):
        prev, B = B, np.ones(n_max + 1)
        lp, lq = math.log(1.0 / j), math.log(1.0 - 1.0 / j)
        for k in range(1, n_max + 1):
            m = np.arange(k + 1)
            pmf = np.exp(lg[k + 1] - lg[m + 1] - lg[k - m + 1] + m * lp + (k - m) * lq)
            B[k] = float(np.dot(pmf * pmf, prev[k::-1]))
    return B


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 60, 61, 64])
def test_pair_counts_by_splitting_equal_one_axis_steps(d):
    # powers of two take squarings only; odd d ends on a join with W_1
    assert walk._walk_pair_counts(d, 2 * d + 3) == one_axis_pair_counts(d, 2 * d + 3)


def test_float_dp_matches_exact():
    for d, n_max in ((1, 30), (2, 30), (3, 30), (5, 30), (10, 60), (20, 60)):
        p = walk.return_probabilities(d, n_max)
        for n in (1, 2, 5, 17, 30, n_max):
            want = float(walk.p_return_exact(d, n))
            assert abs(p[n - 1] - want) <= 1e-12 * want


@pytest.mark.parametrize("cells", [None, 100])
def test_collision_blocks_match_one_k_at_a_time(monkeypatch, cells):
    # 100 cells splits n = 300 into 267 blocks of 9 rows down to one; from
    # k = 100 on, a single row is longer than the bound
    if cells:
        monkeypatch.setattr(walk, "_COLLISION_CELLS", cells)
    for d in (2, 3, 10):
        for n_max in (1, 7, 300):
            got = walk._allocation_collision(d, n_max)
            want = one_k_at_a_time_collision(d, n_max)
            assert np.all(np.abs(got - want) <= 1e-14 * want)


def test_collision_series_traced_memory_is_small():
    # the whole (k, m) table at n = 4000 would take about 0.5 GB
    tracemalloc.start()
    try:
        p = walk.return_probabilities(4, 4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert (p > 0).all() and (np.diff(p) < 0).all()


def test_return_probabilities_decay_monotonically():
    for d in (1, 2, 3, 6):
        p = walk.return_probabilities(d, 200)
        assert (p > 0).all()
        assert (np.diff(p) < 0).all()


def test_endpoint_normalization_via_axis_dp():
    # the one-axis displacement pmf of the series oracle must reproduce
    # the full endpoint law; checked against enumeration at d=2, k=4
    dist = enumerate_endpoint_distribution(2, 4)
    pmf = {a: one_axis_pmf(abs(a), 8) for a in range(-4, 5)}
    total = Fraction(0)
    for x, frac in dist.items():
        # allocation of 4 steps over 2 axes with per-axis displacement law
        got = sum(
            math.comb(4, m) * 0.5**4 * pmf[x[0]][m] * pmf[x[1]][4 - m]
            for m in range(5)
        )
        assert abs(got - float(frac)) < 1e-14
        total += frac
    assert total == 1


def test_green_diverges_low_dimension():
    with pytest.raises(walk.DivergenceError):
        walk.green_function(1)
    with pytest.raises(walk.DivergenceError):
        walk.green_function(2)


def test_green_d3_value():
    g = walk.green_function(3)
    assert abs(g.value - G3_CLOSED_FORM) < 1e-12
    assert g.uncertainty < 1e-9


def test_green_uncertainty_covers_error():
    for cutoff in (300, 2000, None):
        g = walk.green_function(3, cutoff)
        assert abs(g.value - G3_CLOSED_FORM) <= g.uncertainty
    assert walk.green_function(3, 300).truncation_N == 300


def test_green_cutoff_guard():
    for bad in (0, 2, math.inf, math.nan):
        with pytest.raises(ValueError):
            walk.green_function(3, bad)


def test_tail_envelope_inequality():
    a_max = 6
    los, his = [], []
    for z in np.logspace(math.log10(0.5), 7, 300):
        lo, hi = walk._envelope(z, a_max)
        for a in range(a_max + 1):
            scaled = math.sqrt(2 * math.pi * z) * ive(a, z)
            assert scaled <= hi * (1 + 1e-14)
            assert walk._envelope(z, a)[0] <= scaled * (1 + 1e-14)
        los.append(lo)
        his.append(hi)
    # monotone in z, so the values at z = T/d hold for the whole tail
    assert all(b >= a for a, b in zip(los, los[1:]))
    assert all(b <= a for a, b in zip(his, his[1:]))


def test_green_lower_bound_first_term():
    for d in (3, 5, 8):
        g = walk.green_function(d, truncation_N=500)
        assert g.value >= 1 + 1 / (2 * d)


def test_green_block_bounds_mode_brackets_value():
    ref = walk.green_function(12).value
    s = walk.return_series(12, 30)
    partial = 1.0 + math.fsum(s.terms.tolist())
    assert partial - 1e-12 <= ref <= partial + s.tail_estimate + 1e-12


def test_hitting_prob_recurrent_flag():
    h = walk.hitting_prob_e1(2)
    assert h.value == 1.0 and h.recurrent


def test_hitting_prob_rejects_dimension_below_one():
    for d in (0, -1):
        with pytest.raises(ValueError):
            walk.hitting_prob_e1(d)


def test_hitting_prob_d3():
    h = walk.hitting_prob_e1(3)
    assert abs(h.value - 0.3405373) < 1e-4
    assert not h.recurrent


def test_trend_toward_reciprocal_degree():
    vals = [abs(2 * d * walk.hitting_prob_e1(d, truncation_N=1200).value - 1) for d in range(3, 11)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_first_return_recursion():
    p = walk.return_probabilities(3, 800)
    f = walk.first_return_probabilities(p)
    assert f[0] == pytest.approx(p[0])
    assert f[1] == pytest.approx(p[1] - p[0] ** 2)
    assert (f > 0).all()
    total = f.sum()
    F = walk.hitting_prob_e1(3).value
    assert total < F
    # first-return tail decays like n**(-3/2); by n = 800 under one percent is left
    assert F - total < 0.01


def test_d_times_tail_sum_decreases():
    # d * sum_{n >= 2} p(2n), with p(2) = 1/(2d) exact
    vals = []
    for d in range(3, 13):
        vals.append(d * (walk.green_function(d).value - 1 - 1 / (2 * d)))
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.1


def naive_return_hits(d, trials, horizon_steps, seed):
    """Walks from e1 that reach the origin, with full int64 coordinates.

    Draws exactly as :func:`walk.mc_return_oracle` does: one uniform per
    walk still out, in order, step ``k`` moving axis ``k // 2`` by
    ``-1`` (even ``k``) or ``+1`` (odd ``k``).
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed)))
    pos = np.zeros((trials, d), dtype=np.int64)
    pos[:, 0] = 1
    hits = 0
    for _ in range(horizon_steps):
        if not len(pos):
            break
        k = (rng.random(len(pos)) * (2 * d)).astype(np.int64)
        pos[np.arange(len(pos)), k // 2] += 2 * (k % 2) - 1
        home = ~pos.any(axis=1)
        hits += int(home.sum())
        pos = pos[~home]
    return hits


# ---------------------------------------------------------------------------
# hitting tables


def test_hitting_table_basics():
    t = walk.hitting_table(4, 2, n_terms=1500)
    assert t.lookup((0, 0, 0, 0)) == 1.0
    e1 = t.lookup((1, 0, 0, 0))
    assert abs(e1 - walk.hitting_prob_e1(4).value) < 1e-4
    # symmetry is structural: any signed permutation looks up the same class
    assert t.lookup((-1, 0, 0, 0)) == e1
    assert t.lookup((0, 0, 1, 0)) == e1


def test_hitting_table_interior_harmonicity():
    t = walk.hitting_table(4, 3, n_terms=1500)
    for x in [(1, 0, 0, 0), (1, 1, 0, 0), (2, 0, 0, 0), (2, 1, 1, 0)]:
        s = 0.0
        for ax in range(4):
            for sg in (1, -1):
                y = list(x)
                y[ax] += sg
                s += t.lookup(y)
        assert abs(s / 8 - t.lookup(x)) < 1e-6


def test_hitting_table_neighbor_identity():
    # F(y) = 1/2d + (1/2d) sum over two-step targets avoiding cancellation
    d = 4
    t = walk.hitting_table(d, 2, n_terms=1500)
    y = (1, 0, 0, 0)
    s = 1.0 / (2 * d)
    for ax in range(d):
        for sg in (1, -1):
            z = [0] * d
            z[ax] = sg
            if tuple(-v for v in z) == y:
                continue
            s += t.lookup(tuple(a + b for a, b in zip(y, z))) / (2 * d)
    assert abs(s - t.lookup(y)) < 1e-6


def test_hitting_table_against_quadrature():
    # the table is the quadrature; the step-count series checks it
    t = walk.hitting_table(5, 2, n_terms=1500)
    g0 = green_series((0,) * 5, 1500)
    for x in [(1, 0, 0, 0, 0), (2, 2, 1, 0, 0)]:
        want = green_series(tuple(sorted(x)), 1500) / g0
        assert abs(t.lookup(x) - want) < 1e-6


def test_hitting_table_uncertainty_covers_cutoff_error():
    ref = walk.hitting_table(4, 3)
    assert ref.tail_uncertainty < 1e-12
    for cutoff in (300, 2000):
        t = walk.hitting_table(4, 3, cutoff)
        err = max(abs(v - ref.classes[k]) for k, v in t.classes.items())
        assert err <= t.tail_uncertainty


def test_hitting_table_guards():
    with pytest.raises(walk.DivergenceError):
        walk.hitting_table(2, 2)
    with pytest.raises(ValueError):
        walk.hitting_table(4, 0)
    with pytest.raises(ValueError):
        walk.hitting_table(8, 40)


# ---------------------------------------------------------------------------
# Monte Carlo oracle


def test_mc_single_step_hits_reciprocal_degree():
    for d in (2, 4):
        out = walk.mc_return_oracle(d, 40_000, 1, seed=5)
        se = max(out["se"], 1e-9)
        assert abs(out["estimate"] - 1 / (2 * d)) < 4 * se


def test_mc_matches_truncated_expectation():
    horizon = 800
    out = walk.mc_return_oracle(3, 60_000, horizon, seed=6)
    p = walk.return_probabilities(3, horizon // 2)
    expected = float(walk.first_return_probabilities(p).sum())
    assert abs(out["estimate"] - expected) < 4 * out["se"]


def test_mc_hits_pinned():
    # the O(1) at-origin test must leave the draws and the hits unchanged
    assert walk.mc_return_oracle(3, 20_000, 1_000, seed=11)["hits"] == 6612
    assert walk.mc_return_oracle(10, 20_000, 600, seed=11)["hits"] == 1128


@pytest.mark.parametrize("d", [1, 2, 5, 6, 11, 13])
def test_mc_hits_match_naive_coordinates(d):
    # 61/62 and 125/126 sit on either side of a field-width change, and
    # the walk state of d = 6, 11 and 13 takes one to three words
    for horizon in (1, 6, 61, 62, 125, 126, 510):
        want = naive_return_hits(d, 3_000, horizon, seed=d + horizon)
        assert walk.mc_return_oracle(d, 3_000, horizon, seed=d + horizon)["hits"] == want


def test_mc_packed_fields_fit():
    # no walks: every coordinate within +-(horizon + 1) fits its field, and
    # the fields of one word fit in 62 bits
    horizons = set(range(300))
    for j in range(2, 41):
        horizons |= {2**j - 3, 2**j - 2, 2**j - 1, 2**j, 2**j + 1}
    for horizon in sorted(horizons):
        for d in (1, 3, 10, 13, 400):
            bits, per_word, n_words = walk._packed_layout(d, horizon)
            offset = 2 ** (bits - 1)
            assert offset - (horizon + 1) >= 0
            assert offset + horizon + 1 < 2**bits
            assert per_word >= 1 and per_word * bits <= 62
            assert (n_words - 1) * per_word < d <= n_words * per_word


def test_mc_no_false_returns_in_high_dimension():
    # an int8 count of nonzero coordinates wrapped to 0 at 256 of them
    out = walk.mc_return_oracle(400, 300, 1500, seed=5)
    assert out["hits"] == 3


@pytest.mark.parametrize("d, trials, horizon", [(0, 10, 5), (-1, 10, 5), (3, 10, -5), (3, 0, 5)])
def test_mc_rejects_bad_arguments(d, trials, horizon):
    with pytest.raises(ValueError):
        walk.mc_return_oracle(d, trials, horizon, seed=1)


@pytest.mark.parametrize("d, horizon", [(3, 1_000), (10, 600)])
def test_mc_traced_memory_is_small(d, horizon):
    # drawing a whole (trials x horizon) block at once would take 160 MB
    tracemalloc.start()
    try:
        walk.mc_return_oracle(d, 20_000, horizon, seed=11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_mc_lower_bounds_limit():
    out = walk.mc_return_oracle(3, 30_000, 400, seed=7)
    assert out["estimate"] < walk.hitting_prob_e1(3).value + 4 * out["se"]


# ---------------------------------------------------------------------------
# closed-form tail certificates


def test_tail_bounds_closed_forms():
    tb = walk.tail_certificates(10)
    assert tb.L_values[2] == Fraction(3, 4 * 100)
    assert tb.L_dip_at_ceil_d
    assert abs(tb.M_values[2] - 9 / (2 * math.e**2)) < 1e-12
    assert tb.M_values[2] < 1
    assert tb.M2_is_sup
    for n, v in tb.beta_values.items():
        if n >= 10:
            assert abs(v - 1) < 0.01
    assert tb.H1_exact == sum(
        (walk.p_return_exact(10, n) for n in range(2, 11)), Fraction(0)
    )


def test_tail_bounds_hold_at_d20():
    tb = walk.tail_certificates(20)
    assert tb.H1_bound_holds
    assert tb.H2_bound_holds
