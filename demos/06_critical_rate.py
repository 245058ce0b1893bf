"""Critical-rate brackets: analytic bounds and simulation estimates.

For degree-r regular graphs the critical infection rate sits above 1/r.
Trees of branching number n satisfy 1/(n+1) <= rate <= 1/(n-1); on
d-lattices the upper bound 1/(4d[1-(d+1)F_d(e1)]) exists once the
dimension is large enough, and degree times either bound tends to one.
A bisection on fixed-time survival locates the crossing empirically.
"""
from tocp import LazyTree, bounds_report, build_torus, critical_estimate, lambda_scan
from tocp.experiments import thinned_survival_indicators

print("analytic brackets (degree * bound in parentheses):")
for row in bounds_report(lattice=[3, 4, 6, 8, 10], tree=[3, 5, 10]):
    up = f"{row.upper:.4f} ({row.upper_x_degree:.3f})" if row.upper is not None else row.note
    print(f"  {row.family} {row.param:2d}: lower {row.lower:.4f} ({row.lower_x_degree:.3f})  upper {up}")

# survival rises with the rate; thinning makes that exact per trajectory,
# not just on average: one threshold run at the top rate carries each
# site's lowest infected level, and every lower rate reads it
g = build_torus(1, 10)
ind = thinned_survival_indicators(g, [0.3, 0.6, 1.2], t=4.0, replicas=60, seed=3)
print("\nthinning-coupled survival counts by rate:", ind.sum(axis=1).tolist(),
      "(nondecreasing trajectory by trajectory)")

# the rate scan reads such a run too, so its estimates share replicas
rows = lambda_scan(g, [0.25, 0.5, 1.0, 2.0], t=6.0, replicas=2_000, seed=4)
print("shared-replica scan:", [f"{lam}:{est.value:.3f}" for lam, est in rows])

# bisection against a fixed-time survival threshold; the tree uses the
# dual-set estimator so the 27-million-vertex graph is never materialized
res = critical_estimate(build_torus(2, 12), (0.1, 1.0), t=10.0, replicas=500,
                        threshold=0.05, tol=0.1, seed=5)
print(f"\ntorus(2,12) crossing bracket: [{res.lo:.3f}, {res.hi:.3f}] via {res.estimator}")
res = critical_estimate(LazyTree(4, 10, root="full_degree"), (0.12, 0.45), t=12.0,
                        replicas=600, threshold=0.05, tol=0.05, seed=6)
print(f"tree(4,10) crossing bracket: [{res.lo:.3f}, {res.hi:.3f}] via {res.estimator}")
print("note:", res.note)
