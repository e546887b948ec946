"""epsoliton: a numerical laboratory for solitary waves of the 1D
Euler-Poisson plasma system.

Modules:
  grid        - grids, spectral calculus, weight functions, norm bundles
  profile     - solitary-wave profiles via the Sagdeev pseudopotential
  elliptic    - Poisson and -d^2 + e^phi solves by one preconditioned fixed
                point (a fixed -d^2 + e^phi_c inverted once, densely, on small
                grids) and MINRES for the indefinite -d^2 + q
  dynamics    - nonlinear evolution (method of lines, RK4) and invariants
  modulation  - kernel/adjoint vectors, (c, D) decomposition and tracking
  linearized  - the linearized operator, semigroup runs, decay/smoothing
  evans       - 4x4 Evans function, dispersion roots, winding numbers
  diagnostics - virial functionals, stability experiment, verdicts
  cli         - command-line orchestration and persistence
"""

__version__ = "0.1.0"

from . import (diagnostics, dynamics, elliptic, evans, grid, linearized,
               modulation, profile)

__all__ = ["grid", "profile", "elliptic", "dynamics", "modulation",
           "linearized", "evans", "diagnostics", "cli", "__version__"]
