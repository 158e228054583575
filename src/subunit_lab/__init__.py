"""subunit-lab: degenerate-metric geometry and discrete weak solutions.

Modules:
    forms        degeneracy profiles f, model fields Q(x), quasilinear envelopes
    metric       regularized subunit distance via fast marching; eps ladder
                 rungs with their nodewise monotonicity check
    geometry     ball volumes, non-doubling order, growth condition, boxes
    cutoff       accumulating cutoff sequences and the special cutoff
    solver       5-point assembly, damped Picard, Sobolev/Poincare functionals
    diagnostics  Caccioppoli, Moser ladder, log estimates, Harnack, oscillation
    cli          batch experiment runner
"""

__version__ = "0.1.0"

from .errors import (ChainTooShortError, ConfigError, DomainError,
                     EmptySupportError, GeometryError, MonotonicityError,
                     PositivityError, QuadratureError, RangeError,
                     ResolutionError, SchemaMismatchError,
                     SingularSystemError, SolverError, SubunitLabError,
                     ZeroGradientError)
from .grid import GridSpec
