"""Step-count series for lattice Green values, kept as a test-side oracle.

``G_d(x) = sum_s P(S_s = x)`` is summed directly over the step count s
of the discrete walk: the s steps are allocated over the d axes
(binomial splitting, one axis at a time) and each axis moves by the
one-axis displacement law ``C(s, (s+a)/2) / 2**s``.  Past the truncation
K the terms follow ``c * s**(-d/2)`` on the steps of the right parity;
c is fitted to the last terms, so the tail is an estimate only.  This
route shares nothing with the library's quadrature and checks it.
"""
import math

import numpy as np
from scipy.special import gammaln


def one_axis_pmf(a, n_max):
    """P(1d walk at step s equals a) for s = 0..n_max (zero off parity)."""
    s = np.arange(n_max + 1)
    out = np.zeros(n_max + 1)
    ok = (s >= a) & ((s - a) % 2 == 0)
    sv = s[ok].astype(np.float64)
    kv = (sv + a) / 2.0
    out[ok] = np.exp(gammaln(sv + 1) - gammaln(kv + 1) - gammaln(sv - kv + 1) - sv * math.log(2.0))
    return out


def _binomial_rows(j, K):
    """pmf(m; s, 1/j) for m = 0..s, one row per s = 0..K."""
    lg = gammaln(np.arange(K + 2, dtype=np.float64))
    lp, lq = math.log(1.0 / j), math.log(1.0 - 1.0 / j)
    rows = []
    for s in range(K + 1):
        m = np.arange(s + 1)
        rows.append(np.exp(lg[s + 1] - lg[m + 1] - lg[s - m + 1] + m * lp + (s - m) * lq))
    return rows


def step_terms(key, K):
    """P(S_s = x) for s = 0..K, x any point with sorted |coordinates| ``key``."""
    out = one_axis_pmf(key[0], K)
    for j in range(2, len(key) + 1):
        rows = _binomial_rows(j, K)
        pa = one_axis_pmf(key[j - 1], K)
        sub = out
        out = np.empty(K + 1)
        for s in range(K + 1):
            out[s] = float(np.dot(rows[s] * pa[: s + 1], sub[s::-1]))
    return out


def green_series(key, K):
    """``G_d(x)`` from K + 1 step terms plus the fitted power-law tail."""
    d = len(key)
    term = step_terms(key, K)
    nz = np.flatnonzero(term[K // 2 :] > 0) + K // 2
    nz = nz[-20:]
    s_half = d / 2.0
    c = float(np.mean(term[nz] * nz.astype(float) ** s_half))
    # sum_{s > K} s**(-d/2) by integral plus Euler-Maclaurin correction,
    # halved because only every other s has the right parity
    power_tail = K ** (1.0 - s_half) / (s_half - 1.0) - 0.5 * K ** (-s_half)
    power_tail += s_half / 12.0 * K ** (-s_half - 1.0)
    return math.fsum(term.tolist()) + 0.5 * c * power_tail
