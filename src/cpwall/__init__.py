"""Casimir-Polder interaction of a two-level atom with a perfectly
conducting wall, in vacuum and at finite temperature.

Layout:
    specfun   special functions (F, G, scaled E1, Bose sums)
    vacuum    zero-temperature potential and its limiting forms
    thermal   finite-temperature series, expansions, Lifshitz tail
    oracle    independent quadrature cross-checks
    analysis  equilibrium point, crossovers, fit diagnostics
    verify    the acceptance-criteria harness behind `cpwall verify`
    cli       command line front end
    record    read-only base of the parameter and result records
"""

from .constants import PhysicalConstants, load_constants
from .errors import ConvergenceError, CpwallError, DomainError, ValidityError

__version__ = "0.1.0"

__all__ = [
    "PhysicalConstants",
    "load_constants",
    "CpwallError",
    "DomainError",
    "ConvergenceError",
    "ValidityError",
    "__version__",
]
