"""Rearrangements, grand Lorentz norms, and maximal/mollifier operators
for step functions on (0, 1).

Everything is exact or carries an explicit tolerance: step-function
calculus and rearrangements are closed-form, norms reduce to segment
power sums plus controlled quadrature, and the eps suprema behind grand
norms come from a branch-and-bound with a certified upper bound.
"""

from .stepfn import (LEBESGUE, IntervalSet, MeasureDensity, StepFunction,
                     characteristic, integrate, level_measure, make_step,
                     measure_from_json, measure_to_json, pointwise,
                     step_from_json, step_to_json)
from .rearrange import (AverageFunction, DistributionFunction, Rearrangement,
                        average, distribution, measure_gap, rearrangement)
from .weights import PowerWeight, Weight, weight_from_json, weight_to_json
from .quadrature import QuadratureError, QuadratureResult, integrate_adaptive, integrate_batch
from .norms import (DEFAULT_GRID, EpsSupResult, SpaceSpec, eps_grid,
                    eps_profile, grand_lambda_norm, grand_lebesgue_norm,
                    grand_lorentz_pq_norm, grand_lambda_slice_values,
                    grand_lorentz_slice_values, lambda_norm, lorentz_pq_norm,
                    lorentz_pq_star_norm, norm_value, space_norm,
                    spacespec_from_json, spacespec_to_json)
from .embeddings import (EmbeddingVerdict, ProbeReport, ProbeRow,
                         SliceDominationReport, atom_bound,
                         cross_weight_check, domination_constant,
                         domination_slice_check, downward_check,
                         empirical_constant, mutual_ac, shrinking_probe,
                         wholds_check)
from .analysis import (DominationReport, Kernel, MaximalFunction,
                       PiecewisePoly, PotentialType, SweepResult, SweepRow,
                       box_kernel, bump_kernel, convergence_sweep,
                       convolution_values, convolve, custom_step_kernel,
                       domination_check, is_potential_type, kernel_from_json,
                       kernel_to_json, maximal, radial_majorant,
                       step_approximate, triangle_kernel)
from .corpus import GENERATOR_VERSION, random_measure, random_step_function

__version__ = "0.1.0"

__all__ = [
    "LEBESGUE", "IntervalSet", "MeasureDensity", "StepFunction",
    "characteristic", "integrate", "level_measure", "make_step",
    "measure_from_json", "measure_to_json", "pointwise", "step_from_json",
    "step_to_json",
    "AverageFunction", "DistributionFunction", "Rearrangement", "average",
    "distribution", "measure_gap", "rearrangement",
    "PowerWeight", "Weight", "weight_from_json", "weight_to_json",
    "QuadratureError", "QuadratureResult", "integrate_adaptive", "integrate_batch",
    "DEFAULT_GRID", "EpsSupResult", "SpaceSpec", "eps_grid", "eps_profile",
    "grand_lambda_norm", "grand_lebesgue_norm", "grand_lorentz_pq_norm",
    "grand_lambda_slice_values", "grand_lorentz_slice_values", "lambda_norm",
    "lorentz_pq_norm", "lorentz_pq_star_norm", "norm_value", "space_norm",
    "spacespec_from_json", "spacespec_to_json",
    "EmbeddingVerdict", "ProbeReport", "ProbeRow", "SliceDominationReport",
    "atom_bound", "cross_weight_check", "domination_constant",
    "domination_slice_check", "downward_check", "empirical_constant",
    "mutual_ac", "shrinking_probe", "wholds_check",
    "DominationReport", "Kernel", "MaximalFunction", "PiecewisePoly",
    "PotentialType", "SweepResult", "SweepRow", "box_kernel",
    "bump_kernel", "convergence_sweep", "convolution_values", "convolve",
    "custom_step_kernel", "domination_check", "is_potential_type",
    "kernel_from_json", "kernel_to_json", "maximal", "radial_majorant",
    "step_approximate", "triangle_kernel",
    "GENERATOR_VERSION", "random_measure", "random_step_function",
    "__version__",
]
