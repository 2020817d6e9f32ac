"""Rearrangements, grand Lorentz norms, and maximal/mollifier operators
for step functions on (0, 1).

Everything is exact or carries an explicit tolerance: step-function
calculus and rearrangements are closed-form, norms reduce to segment
power sums plus controlled quadrature, and the eps suprema behind grand
norms come from a branch-and-bound with a certified upper bound.
"""

from .stepfn import *
from .rearrange import *
from .weights import *
from .quadrature import *
from .norms import *
from .embeddings import *
from .analysis import *
from .corpus import *
from . import analysis, corpus, embeddings, norms, quadrature, rearrange, stepfn, weights

__version__ = "0.1.0"

__all__ = [name for module in (stepfn, rearrange, weights, quadrature, norms, embeddings,
                               analysis, corpus) for name in module.__all__] + ["__version__"]
