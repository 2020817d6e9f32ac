"""
Approximate identities and the maximal function
===============================================

Convolves an indicator with shrinking box and triangle kernels, watches
the grand Lorentz error go to zero, and checks that every convolution
stays below the maximal function pointwise.
"""

import numpy as np

from rlab import (Kernel, PowerWeight, SpaceSpec, characteristic,
                  convergence_sweep, convolve, domination_check,
                  maximal, norm_value, radial_majorant, step_approximate)

f = characteristic([(0.3, 0.5)])
spec = SpaceSpec("lambda_grand", p=2.0, weight=PowerWeight(0.0))

# both kernels have unit mass and an integrable radial majorant (a
# bounded kernel of bounded support always has one: its mass is finite)
for kind in ("box", "triangle"):
    kernel = Kernel(kind, 1.0)
    print(f"{kind}: majorant mass = {radial_majorant(kernel).mass:.4f}")

# the maximal function of the indicator: exact rational values
mf = maximal(f)
for x in (0.2, 0.4, 0.8):
    print(f"  Mf({x}) = {mf(x):.6f}")

# error sweep: || phi_t * f - f || in the grand weighted space
print("\nconvergence sweep, box kernel:")
sweep = convergence_sweep(f, Kernel("box", 1.0), [0.2, 0.1, 0.05, 0.025], spec)
print("    t      err        conv norm  ratio to maximal norm")
for row in sweep.rows:
    print(f"  {row.t:5.3f}  {row.err:.6f}  {row.conv_norm:.6f}  {row.ratio:.4f}")

print("convergence sweep, triangle kernel:")
sweep = convergence_sweep(f, Kernel("triangle", 1.0), [0.2, 0.1, 0.05, 0.025], spec)
for row in sweep.rows:
    print(f"  {row.t:5.3f}  {row.err:.6f}  {row.conv_norm:.6f}  {row.ratio:.4f}")

# far below the sweep: the error keeps shrinking
tiny = norm_value(step_approximate(convolve(Kernel("box", 1.0).scaled(1e-3), f) - f, 4096), spec)
print(f"error at t = 1e-3: {tiny:.6f}")

# pointwise domination |phi_t * f| <= Mf on a grid of points and scales
x = np.linspace(-0.5, 1.5, 200)
t_grid = np.geomspace(1e-3, 2.0, 50)
for kind in ("box", "triangle"):
    report = domination_check(Kernel(kind, 1.0), f, x, t_grid)
    print(f"domination by Mf, {kind}: min slack = {report.min_slack:.3g} "
          f"over {report.n_points} points")

# built-in kernels are even and nonincreasing in |x|, so each one is its
# own radial majorant
k = Kernel("triangle", 1.0)
print("radial majorant of the triangle kernel is itself:", radial_majorant(k) is k)
