"""Desk-scale solver, simulator, and property checks for zero-sum hybrid
differential games on a box: both players use continuous and switching
controls, the minimizing player may also apply impulses, and the value field
solves a double-obstacle system of quasi-variational inequalities."""

from .operators import Variant
from .problem import ProblemSpec, load_spec, save_spec, validate_a2
from .discretize import GridSpec, make_grid
from .solver import SolveResult, SolverConfig, solve

__version__ = "0.1.0"

__all__ = [
    "Variant",
    "ProblemSpec",
    "load_spec",
    "save_spec",
    "validate_a2",
    "GridSpec",
    "SolverConfig",
    "SolveResult",
    "make_grid",
    "solve",
    "__version__",
]
