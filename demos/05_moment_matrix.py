"""The two-point correlation generator and its harmonic vector.

Second moments of the drift-corrected real process solve dG/dt = Q G.
On a truncated box Q is sparse; its exponential action gives G_t(0),
and the vector h = F_d + b with a positive offset b is a fixed point of
exp(tQ), which uniformly bounds the second moment by (1+b)/b.
"""
import numpy as np

from tocp import moments, walk

d, lam, R = 5, 0.3, 4
Q = moments.build_q(d, lam, R)
print(f"Q on the radius-{R} box in {d} dimensions: {Q.size} states, "
      f"{Q.matrix.nnz} entries")
print(f"diagonal away from origin: {Q.matrix[1, 1]:.2f} (= -4 lam d)")
o = Q.origin
print(f"origin diagonal: {Q.matrix[o, o]:.2f} (= 1 - 2 lam d)")

# row sums: zero off the origin, 1 + 4 lam d^2 at it
rowsum = np.asarray(Q.matrix.sum(axis=1)).ravel()
interior = moments.shell_distances(d, R) <= R - 1
print(f"interior row sums: origin {rowsum[o]:.4f} (= {1 + 4*lam*d*d}), "
      f"others max |.| = {np.abs(rowsum[interior & (np.arange(Q.size) != o)]).max():.2e}")

# harmonic vector from the hitting table
table = walk.hitting_table(d, R)
h = moments.build_h(d, lam, table, R)
rep = moments.check_harmonic(Q, h, interior_radius=2)
print(f"\noffset b = {h.b:.6f}; interior |Qh| max = {rep.max_residual:.2e}")

w = moments.expm_apply(Q, h.values, 1.0)
mask = moments.shell_distances(d, R) <= 2
print(f"fixed point: |exp(Q)h - h| on the interior = {np.abs(w - h.values)[mask].max():.2e}")

# the second moment stays under (1+b)/b, up to boundary leakage
bound = moments.second_moment_bound(h)
res = moments.integrate_second_moment(d, lam, R, [0.5, 1.0, 2.5, 5.0])
print(f"\nsecond-moment bound (1+b)/b = {bound:.1f}")
for t, g0, lk in zip(res.times, res.g0, res.leakage):
    print(f"  t={t}: G_t(0) = {g0:8.3f}   boundary weight = {lk:.3f}")

# the validity guard: in low dimension the offset construction fails
try:
    moments.build_h(3, 0.5, walk.hitting_table(3, 2), 2)
except moments.ValidityError as exc:
    print(f"\nd=3 rejected as expected: {exc}")
