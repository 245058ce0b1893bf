"""Duality and the branching lower bound.

The probability that vertex x is infected at time t from the all-ones
start equals the probability that the dual set grown from {x} is still
nonempty at t.  On oriented trees the dual dominates a genuine branching
process whose offspring mean n*lam/(lam+1) crosses 1 at lam = 1/(n-1),
giving the upper bracket for the critical rate.
"""
from tocp import build_torus, build_tree, duality_check, branching_survival

# duality on a cycle and on a tree; the sides read disjoint streams of one seed
for graph, lam, name in ((build_torus(1, 10), 0.7, "torus(1,10)"),
                         (build_tree(3, 6), 0.4, "tree(3,6)")):
    res = duality_check(graph, 0, lam, 3.0, replicas=20_000, seed=1)
    print(f"{name} lam={lam}: p_eta={res.p_eta.value:.4f} "
          f"p_dual={res.p_dual.value:.4f} z={res.z:.2f}")

# embedded offspring chain: extinction probability iterates the generating
# function q -> (1 + lam q^n) / (1 + lam)
def chain_survival(n, lam, gens):
    q = 0.0
    for _ in range(gens):
        q = (1.0 + lam * q**n) / (1.0 + lam)
    return 1.0 - q

print("\nbranching process, n=5, depth window 12, t=20:")
for lam in (0.1, 0.3, 0.5):
    out = branching_survival(5, lam, 20.0, 12, replicas=5_000, seed=2)
    print(f"  lam={lam}: survival={out.estimate.value:.4f} "
          f"(offspring chain: {chain_survival(5, lam, 12):.4f}); "
          f"offspring mean {out.offspring_mean:.3f} vs exact {out.offspring_expected:.3f}")

# the graph-faithful truncated variant loses lineages at the boundary
ab = branching_survival(5, 0.5, 20.0, 12, replicas=5_000, seed=3, frontier="absorb")
print(f"  absorbing frontier at depth 12: survival={ab.estimate.value:.4f} "
      "(boundary losses bite at long horizons)")
