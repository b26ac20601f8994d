"""Particle filter variational inference.

Sequential Monte Carlo and marginal particle filter estimators, the
estimator-coupling combinator algebra they derive from, implicit
reparameterization gradients for Gaussian-mixture proposals, and the
variational objectives (IWVI, VSMC, TMC, VMPF with biased or unbiased
gradients), all on a small define-by-run tape autodiff over numpy.
"""

from particlevi.autodiff import (
    Tape,
    Var,
    constant,
    custom_vjp,
    finite_diff_check,
    grad,
    leaf,
    logsumexp,
)
from particlevi.rng import RngStream

__all__ = [
    "Tape",
    "Var",
    "RngStream",
    "constant",
    "custom_vjp",
    "finite_diff_check",
    "grad",
    "leaf",
    "logsumexp",
]

__version__ = "0.1.0"
