"""Vacuum-state atom-wall interaction: exact closed form and its limits.

The vacuum shift factorizes into a dimensional prefactor and a
dimensionless shape function,

    V0(z) = (hbar c / 8 pi) (k0 alpha0 / z^3) H0(x0),    x0 = 2 k0 z,
    H0(x) = (x^2 - 2) F(x) + 2 x G(x) - x,

with F and G the auxiliary sine/cosine-integral combinations from
:mod:`cpwall.specfun`.  H0 interpolates between -pi at contact (the
non-retarded, image-potential regime) and -6/x at large separation
(the retarded regime).

All dimensional work happens in :func:`vacuum_potential` and the two
asymptote functions; everything else is dimensionless.  Units: k0 in
rad/um, alpha0 in um^3, z in um, energies in eV.
"""

from __future__ import annotations

import enum
import math
import sys
from itertools import count

from .constants import PhysicalConstants
from .errors import DomainError
from .record import Record
from .specfun import _scaled_e1_upper

__all__ = [
    "AtomParams",
    "RegimeTag",
    "X0_NON_RETARDED_MAX",
    "X0_RETARDED_MIN",
    "classify_regime",
    "h0",
    "nonretarded_asymptote",
    "retarded_asymptote",
    "vacuum_potential",
]

_DEFAULT_CONSTANTS = PhysicalConstants()

# Validity thresholds for the asymptotic regimes.  The short-distance
# form needs x0 = 2 k0 z < 0.1; the long-distance form is quoted as
# reliable for z > 1.3 lambda0, i.e. x0 > 2.6 * 2 pi.
X0_NON_RETARDED_MAX = 0.1
X0_RETARDED_MIN = 2.6 * 2.0 * math.pi

# h0 takes its asymptotic series above this x0.  The series would do
# from 50 on; at 100 the x0 of the vacuum oracle criterion and of figure
# 1's default range keep the E1t bracket, within 1.4e-12 there.
_H0_SERIES_MIN = 100.0


class RegimeTag(enum.Enum):
    """Distance regime of a geometry point, keyed on x0 = 2 k0 z."""

    NON_RETARDED = "non_retarded"
    CROSSOVER = "crossover"
    RETARDED = "retarded"


class AtomParams(Record):
    """Two-level atom: transition wavenumber k0 (rad/um) and static
    polarizability alpha0 (um^3)."""

    __slots__ = ("k0", "alpha0")

    def _check(self) -> None:
        k0, alpha0 = self.k0, self.alpha0
        if not (math.isfinite(k0) and k0 > 0.0):
            raise DomainError(f"k0 must be positive and finite, got {k0}")
        if not (math.isfinite(alpha0) and alpha0 > 0.0):
            raise DomainError(f"alpha0 must be positive and finite, got {alpha0}")

    @property
    def lambda0(self) -> float:
        """Transition wavelength 2 pi / k0 in um."""
        return 2.0 * math.pi / self.k0


def classify_regime(x0: float) -> RegimeTag:
    """Regime tag for dimensionless separation x0 = 2 k0 z."""
    if not (math.isfinite(x0) and x0 > 0.0):
        raise DomainError(f"x0 must be positive and finite, got {x0}")
    if x0 < X0_NON_RETARDED_MAX:
        return RegimeTag.NON_RETARDED
    if x0 > X0_RETARDED_MIN:
        return RegimeTag.RETARDED
    return RegimeTag.CROSSOVER


def _z_power(z: float, n: int) -> float:
    """z**n, refusing a z that is not positive and finite, or so large
    that the power overflows, or so small that it underflows below the
    smallest normal float: the one gate of every distance."""
    if not (math.isfinite(z) and z > 0.0):
        raise DomainError(f"z must be positive and finite, got {z}")
    try:
        p = z**n
    except OverflowError:
        raise DomainError(f"z = {z} too large: z^{n} overflows") from None
    if p < sys.float_info.min:
        raise DomainError(f"z = {z} too small: z^{n} underflows")
    return p


def h0(x0: float) -> float:
    """Dimensionless vacuum shape H0(x) = (x^2 - 2) F(x) + 2 x G(x) - x.

    Tends to -pi as x -> 0+ and falls off as -6/x for large x.  Strictly
    negative on the whole half-line.  x0 <= 0 and x0 whose square
    overflows are refused.  Two branches:

    * x0 <= 100: F and G from one E1t evaluation, g + i f = -E1t(i x0).
      The bracket cancels terms of size x0 down to one of size 1/x0, so
      it loses about eps x0^2 of H0: 1.4e-12 at most up to x0 = 100, but
      2e-9 at 1e4 and the wrong sign from 2e8 on;
    * x0 > 100: the combined asymptotic series of f and g (DLMF
      6.12.3-4), whose x0 orders cancel analytically,

          H0 ~ sum_k (-1)^(k+1) [(2k+2)! + 2 (2k+1)! + 2 (2k)!] / x0^(2k+1)
             = -6/x0 + 40/x0^3 - 252/x0^5 + ...,

      stopped at its first term below 1e-17 of the sum (its smallest
      term is about e^-x0, so 20 terms at most).
      scripts/sweep_branch_switches.py finds it within 3e-16 of mpmath
      up to x0 = 1e12.
    """
    if not (x0 > 0.0 and math.isfinite(x0 * x0)):
        raise DomainError(f"h0 needs x0 > 0 with a finite square, got {x0}")
    if x0 > _H0_SERIES_MIN:
        return _h0_series(x0)
    e = _scaled_e1_upper(1j * x0)
    return -(x0 * x0 - 2.0) * e.imag - 2.0 * x0 * e.real - x0


def _h0_series(x: float) -> float:
    """H0 for x > 100 from its asymptotic series; the k-th coefficient
    (2k+2)! + 2 (2k+1)! + 2 (2k)! is (2k)! 2 (k+1)(2k+3)."""
    inv_x2 = 1.0 / (x * x)
    fact = 1.0 / x  # (2k)! / x^(2k+1)
    total = 0.0
    for k in count():
        term = 2.0 * (k + 1) * (2 * k + 3) * fact
        total += term if k & 1 else -term
        if term <= -1e-17 * total:
            return total
        fact *= (2 * k + 1) * (2 * k + 2) * inv_x2


def vacuum_potential(
    atom: AtomParams,
    z: float,
    constants: PhysicalConstants | None = None,
) -> float:
    """Exact vacuum interaction energy V0(z) in eV for z in um.

    V0(z) = (hbar c / 8 pi) (k0 alpha0 / z^3) H0(2 k0 z); strictly
    negative (attractive) at every separation.
    """
    z3 = _z_power(z, 3)
    cst = constants if constants is not None else _DEFAULT_CONSTANTS
    prefactor = cst.hbar_c_ev_um / (8.0 * math.pi) * atom.k0 * atom.alpha0 / z3
    return prefactor * h0(2.0 * atom.k0 * z)


def nonretarded_asymptote(
    atom: AtomParams,
    z: float,
    constants: PhysicalConstants | None = None,
) -> float:
    """Short-distance (image-potential) form -hbar omega0 alpha0 / 8 z^3.

    Expressed via hbar omega0 = hbar c k0 (eV); c drops out of the
    physics once the transition energy is fixed.
    """
    cst = constants if constants is not None else _DEFAULT_CONSTANTS
    hbar_omega0 = cst.hbar_c_ev_um * atom.k0
    return -hbar_omega0 * atom.alpha0 / (8.0 * _z_power(z, 3))


def retarded_asymptote(
    atom: AtomParams,
    z: float,
    constants: PhysicalConstants | None = None,
) -> float:
    """Long-distance form -(3 / 8 pi) hbar c alpha0 / z^4 (k0-free)."""
    cst = constants if constants is not None else _DEFAULT_CONSTANTS
    return -3.0 / (8.0 * math.pi) * cst.hbar_c_ev_um * atom.alpha0 / _z_power(z, 4)
