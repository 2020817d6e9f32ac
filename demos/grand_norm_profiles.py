"""
Grand Lorentz norms and their epsilon profiles
==============================================

The grand norms take a supremum of damped integrals over a range of
epsilon.  For an indicator function the slice curve has a closed form,
so we can watch where the supremum sits: at the upper endpoint for a
full-measure set, at an interior epsilon for a small set.
"""

import numpy as np

from rlab import (SpaceSpec, characteristic, eps_profile,
                  grand_lebesgue_norm, grand_lorentz_pq_norm, lorentz_pq_norm)

spec = SpaceSpec("grand_lorentz_pq", p=2.0, q=2.0)

# classical norm first: || chi_(0,m) ||_{p,q} = m^(1/p) exactly
for m in (1.0, 0.25, 0.01):
    chi = characteristic([(0.0, m)])
    print(f"m={m:5.2f}: classical L^{{2,2}} norm = {lorentz_pq_norm(chi, 2, 2):.6f}"
          f"  (closed form {m**0.5:.6f})")

# the grand norm damps each L^{q-eps} slice by eps^(1/(q-eps)); the slice
# curve of an indicator is (eps * m^(q/p))^(1/(q-eps))
print()
for m in (1.0, 0.25, 0.01):
    res = grand_lorentz_pq_norm(characteristic([(0.0, m)]), 2, 2)
    where = res.endpoint_limit or f"eps* = {res.eps_star:.4f}"
    print(f"m={m:5.2f}: grand norm = {res.value:.6f}, supremum at {where}")

# the full profile is available for plotting or inspection
res = eps_profile(characteristic([(0.0, 0.01)]), spec, grid_size=16)
print("\neps profile for m = 0.01 (16-point grid):")
for eps, val in zip(res.eps, res.slice_values):
    bar = "#" * int(round(60 * val / res.value))
    print(f"  eps={eps:8.6f}  value={val:.6f}  {bar}")

# closed-form cross check at the maximizer
m = 0.01
eps_star = res.eps_star
closed = (eps_star * m) ** (1.0 / (2.0 - eps_star))
print(f"\nclosed form at eps* : {closed:.8f}")
print(f"engine value        : {res.value:.8f}")

# with q = p the grand Lorentz norm coincides with the grand Lebesgue norm
from rlab import make_step

rng = np.random.default_rng(7)
bk = np.concatenate(([0.0], np.sort(rng.uniform(size=5)), [1.0]))
f = make_step(bk, rng.uniform(0.5, 4.0, size=6))
a = grand_lorentz_pq_norm(f, 2, 2).value
b = grand_lebesgue_norm(f, 2).value
print(f"\nrandom f: ||f||_{{2,2)}} = {a:.12f}")
print(f"          ||f||_{{2)}}   = {b:.12f}")
print(f"          relative gap  = {abs(a - b) / b:.3g}")
