"""Build finite graphs and the Poisson clock schedules that drive everything.

A ClockSchedule is, in law, a rate-1 heal clock and a rate-lambda infect
clock per vertex, merged into a single time-ordered event list.  It is
drawn as one stream: a Poisson number of events, each at a uniform vertex
and an infect event with probability lambda / (1 + lambda), at sorted
uniform times.  Those are replica 0's events in the lock-step engines at
the same seed, so replaying the schedule gives that replica's value.
"""
import numpy as np

from tocp import build_schedule, build_torus, build_tree, engines, merged_events, parse_graph_spec
from tocp.processes import all_ones_spin, run

# a periodic 2d torus: every vertex has degree 4, vertex 0 is the origin
torus = build_torus(d=2, L=8)
print(f"torus(2,8): {torus.n_vertices} vertices, degree {torus.deg[0]}")
print("origin neighbours:", torus.adjacency(0), "->", [torus.torus_coord(i) for i in torus.adjacency(0)])

# a depth-truncated rooted tree with oriented sons
tree = build_tree(n=3, depth=4)
print(f"tree(3,4): {tree.n_vertices} vertices; root sons {tree.sons_of(0)}")

# graph descriptions used by the command line
print("parsed:", parse_graph_spec("torus:d=1,L=10").params)

# clocks: same inputs give bit-identical schedules
s1 = build_schedule(torus, lam=0.5, horizon=2.0, seed=42)
s2 = build_schedule(torus, lam=0.5, horizon=2.0, seed=42)
print(f"schedule: {s1.n_events} events; deterministic: {np.array_equal(s1.times, s2.times)}")

# expected count is V * (1 + lambda) * T
expect = torus.n_vertices * 1.5 * 2.0
print(f"event count {s1.n_events} vs expectation {expect:.0f}")

for i, ev in enumerate(merged_events(s1)):
    print("  event", i, ev)
    if i >= 4:
        break

# a schedule holds replica 0 of the lock-step engines at the same seed
replayed = [int(run("eta", build_schedule(torus, 0.5, 2.0, seed), torus,
                    all_ones_spin(torus), [2.0])[0][0]) for seed in range(12)]
replica0 = [int(engines.spin_replicas(torus, 0.5, [2.0], 0, 1, seed)[0, 0]) for seed in range(12)]
print(f"origin at t = 2, seeds 0-11: schedule replays {replayed}")
print(f"{'':29}engine replica 0 {replica0}")
