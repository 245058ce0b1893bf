"""Random-walk return probabilities, Green functions and hitting tables.

The high-dimension critical-rate bound rests on one number per
dimension: the probability F_d(e1) that a simple random walk started
next to the origin ever reaches it.  The package computes Green values
by quadrature of the Poissonized walk, G_d(x) = int_0^inf prod_i
ive(|x_i|, t/d) dt, with a proven error bound; the return-probability
series and direct Monte Carlo cross-check it.
"""
import math
from fractions import Fraction

from scipy.special import gamma

from tocp import walk

# exact rationals at small order: values certified by enumerating all
# step sequences in the test suite
print("p(2) on the 3-lattice:", walk.p_return_exact(3, 1))
print("p(4) on the 2-lattice:", walk.p_return_exact(2, 2), "=", Fraction(36, 256))

# Green function and hitting probability across dimensions (quadrature)
print("\n d      G_d(0,0)     +-        F_d(e1)    2d*F_d(e1)")
for d in range(3, 11):
    g = walk.green_function(d)
    f = g.hitting_e1()
    print(f"{d:2d}   {g.value:.12f}  {g.uncertainty:.0e}   {f.value:.9f}   {2*d*f.value:.5f}")
print("(2d * F_d -> 1: the product column approaches one from above)")

# G_3 against Watson's integral in closed form (Glasser & Zucker 1977)
g3 = math.sqrt(6) / (32 * math.pi**3) * gamma(1 / 24) * gamma(5 / 24) * gamma(7 / 24) * gamma(11 / 24)
print(f"\nG_3 closed form {g3:.15f}; quadrature error {abs(walk.green_function(3).value - g3):.1e}")

# cross-checks at d = 4: series partial sums 1 + sum_{n<=N} p(2n) are
# lower bounds that climb toward the quadrature value; Monte Carlo with
# a finite horizon can only miss late returns
g4 = walk.green_function(4).value
p = walk.return_probabilities(4, 4_000)
for N in (250, 1_000, 4_000):
    partial = 1.0 + math.fsum(p[:N].tolist())
    print(f"d=4 series to N={N:5d}: {partial:.8f}  (quadrature {g4:.8f}, gap {g4 - partial:.1e})")
mc = walk.mc_return_oracle(4, trials=100_000, horizon_steps=2_000, seed=5)
print(f"d=4 F_4(e1): quadrature={1 - 1 / g4:.6f} "
      f"monte-carlo={mc['estimate']:.6f} (+- {mc['se']:.6f}, horizon-limited)")

# in high dimension the closed-form block bound brackets the series tail
s = walk.return_series(12, 30)
lo = 1.0 + math.fsum(s.terms.tolist())
print(f"d=12: series bracket [{lo:.10f}, {lo + s.tail_estimate:.10f}] "
      f"holds G_12 = {walk.green_function(12).value:.10f}")

# hitting table over a box, used to build the harmonic vector
tab = walk.hitting_table(5, radius=2)
print(f"\nF_5 by displacement class (error <= {tab.tail_uncertainty:.0e}):")
for key in [(0, 0, 0, 0, 1), (0, 0, 0, 1, 1), (0, 0, 0, 0, 2), (1, 1, 2, 2, 2)]:
    print(f"  {key}: {tab.lookup(key):.9f}")

# closed-form tail certificates behind the high-d analysis
tb = walk.tail_certificates(40)
print(f"\nd=40 certificates: H1={float(tb.H1_exact):.3e} bounded={tb.H1_bound_holds}; "
      f"M_2={tb.M_values[2]:.5f} (sup over k>=2: {tb.M2_is_sup})")
