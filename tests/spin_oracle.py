"""Exact spin-process values on small graphs, kept as a test-side oracle.

For ``V <= 16`` vertices the spin process is a Markov chain on the 2**V
configurations (bit ``v`` of a state is the spin of vertex ``v``).  Each
vertex heals at rate 1 and, at rate ``lam``, takes the maximum of its
closed neighbourhood, so a column of the forward generator holds at most
``V`` moves and the diagonal.  One ``expm_apply`` call evolves the law
from all ones.  By duality, ``P(eta_t(x) = 1)`` is also the probability
that the dual set started at ``{x}`` is nonempty at ``t``.
"""
import numpy as np
import scipy.sparse as sp

from tocp.moments import expm_apply

MAX_VERTICES = 16


def forward_generator(graph, lam):
    """Sparse ``Q`` with ``Q[s2, s]`` the rate of the move ``s -> s2``."""
    V = graph.n_vertices
    if V > MAX_VERTICES:
        raise ValueError(f"need at most {MAX_VERTICES} vertices, got {V}")
    states = np.arange(2**V, dtype=np.int64)
    src, dst, rate = [], [], []
    for v in range(V):
        bit = 1 << v
        near = sum(1 << int(u) for u in graph.adjacency(v))
        on = (states & bit) != 0
        healed = states[on]
        infected = states[~on & ((states & near) != 0)]
        src += [healed, infected]
        dst += [healed ^ bit, infected | bit]
        rate += [np.ones(len(healed)), np.full(len(infected), float(lam))]
    src, dst, rate = (np.concatenate(a) for a in (src, dst, rate))
    out = np.bincount(src, weights=rate, minlength=2**V)
    rows = np.concatenate([dst, states])
    cols = np.concatenate([src, states])
    return sp.csr_matrix((np.concatenate([rate, -out]), (rows, cols)), shape=(2**V, 2**V))


def spin_law(graph, lam, t):
    """The law of the configuration at ``t`` from all ones, over the 2**V states."""
    p0 = np.zeros(2**graph.n_vertices)
    p0[-1] = 1.0
    return expm_apply(forward_generator(graph, lam), p0, t)


def spin_exact(graph, lam, t, x):
    """``P(eta_t(x) = 1)`` from all ones; ``ValueError`` above 16 vertices."""
    p = spin_law(graph, lam, t)
    return float(p[(np.arange(len(p)) >> x) & 1 == 1].sum())
