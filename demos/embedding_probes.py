"""
Embedding checks between weighted Lorentz spaces
================================================

Four ways to look at an embedding: verify a sufficient weight condition
in closed form, bracket the downward condition's sup over eps, measure an
empirical constant on a random corpus, and watch a necessary condition fail
through a family of shrinking sets.
"""

from rlab import (MeasureDensity, PowerWeight, SpaceSpec, cross_weight_check,
                  domination_constant, downward_check, empirical_constant,
                  make_step, mutual_ac, shrinking_probe, wholds_check)

# sufficient condition for Lambda_{p,w} -> Lambda_{q,w}: the ratio
# W(t)^(1/q) / W(t)^(1/p) must stay bounded on (0, 1)
w = PowerWeight(alpha=1.0)
verdict = wholds_check(2.0, 3.0, w)
print("weight condition, w(t) = t, p=2 -> q=3:")
print(f"  holds = {verdict.holds}, condition value = {verdict.condition_value:.6f}")

# a step weight concentrated near 0 still satisfies it, with constant < 1
heavy = make_step([0.0, 0.1, 1.0], [10.0, 0.1])
verdict = wholds_check(2.0, 3.0, heavy)
print("step weight heavy near 0, p=2 -> q=3:")
print(f"  holds = {verdict.holds}, condition value = {verdict.condition_value:.6f}")

# a weight with no mass fails when q > p: W(1) = 0 is raised to the
# negative exponent 1/(q-eps) - 1/(p-eps)
dead = make_step([0.0, 1.0], [0.0])
verdict = wholds_check(2.0, 3.0, dead)
print("zero weight, p=2 -> q=3:")
print(f"  holds = {verdict.holds}, condition value = {verdict.condition_value}")

# two different weights: compare their masses, again in closed form
v = PowerWeight(alpha=0.0, coeff=4.0)
verdict = cross_weight_check(2.0, 2.0, PowerWeight(alpha=0.0), v)
print("cross-weight condition, W(t) = t vs V(t) = 4t:")
print(f"  holds = {verdict.holds}, condition value = {verdict.condition_value:.6f}")

# the downward condition for q < p is a sup over eps of a weighted integral;
# a branch-and-bound certifies it, so the value comes with an upper bound
verdict = downward_check(3.0, 1.5, heavy, PowerWeight(alpha=0.0), upper=2.0)
print("downward condition, heavy step weight vs w = 1, p=3 -> q=1.5, up to t = 2:")
print(f"  holds = {verdict.holds}, sup in [{verdict.condition_value:.12f}, "
      f"{verdict.upper:.12f}] after {verdict.evals} evaluations")

# empirical constant: the measured sup of target-norm / source-norm over a
# seeded corpus; the witness names the maximizing function
spec22 = SpaceSpec("lorentz_pq", p=2.0, q=2.0)
est = empirical_constant(spec22, spec22, corpus_size=40, seed=11)
print("empirical constant, identical spaces, 40 random functions:")
print(f"  constant = {est.condition_value:.6f}, witness = {est.witness}")

# measure domination: nu <= C mu makes the embedding constant explicit
mu = MeasureDensity(make_step([0.0, 0.5, 1.0], [1.0, 2.0]))
nu = MeasureDensity(make_step([0.0, 0.5, 1.0], [1.5, 1.0]))
print("domination constants:")
print(f"  C(nu/mu) = {domination_constant(mu, nu):.4f}")
print(f"  C(mu/nu) = {domination_constant(nu, mu):.4f}")
print(f"  mutually absolutely continuous: {mutual_ac(mu, nu)}")

# a shrinking family chi_(0,a) separates L^{4,4)} from L^{2,2)}: the norm
# ratio grows like a^(1/4 - 1/2), i.e. by 10^0.25 per decade
report = shrinking_probe(2, 2, 4, 4, [10.0**-k for k in range(2, 7)])
print("shrinking-set probe, ratios of || chi_(0,a) ||:")
prev = None
for row in report.rows:
    growth = "" if prev is None else f"  growth {row.ratio / prev:.4f}"
    print(f"  a = {row.a:8.0e}: ratio = {row.ratio:10.4f}{growth}")
    prev = row.ratio
print(f"asymptotic decade growth: 10^0.25 = {10**0.25:.4f}")
