"""subunit-lab: degenerate-metric geometry and discrete weak solutions.

numpy is the one runtime dependency.

Modules:
    config       experiment settings: defaults, checks with field paths,
                 JSON round-trip
    grid         the rectangular node grid every array lives on
    forms        degeneracy profiles f, model fields Q(x), quasilinear envelopes
    metric       regularized subunit distance via fast marching; eps ladder
                 rungs with their nodewise monotonicity check
    geometry     ball volumes, non-doubling order, growth condition, boxes
    cutoff       accumulating cutoff sequences and the special cutoff
    solver       5-point assembly, PCG, damped Picard, Sobolev/Poincare
                 functionals
    diagnostics  Caccioppoli, Moser ladder, log estimates, Harnack, oscillation
    pipeline     the run's stages and its artifact tree
    reporting    the JSON writer, CSV tables and report comparison
    svgplot      dependency-free SVG charts and heatmaps
    errors       the exception families the CLI maps to exit codes
    cli          batch experiment runner
"""

__version__ = "0.1.0"

from .errors import (ChainTooShortError, ConfigError, DomainError,
                     EmptySupportError, GeometryError, MeasurementError,
                     MonotonicityError, PositivityError, RangeError,
                     ResolutionError, SchemaMismatchError, SolverError,
                     SubunitLabError, ZeroGradientError)
from .grid import GridSpec
