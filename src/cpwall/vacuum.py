"""Vacuum-state atom-wall interaction: exact closed form and its limits.

The vacuum shift factorizes into a dimensional prefactor and a
dimensionless shape function,

    V0(z) = (hbar c / 8 pi) (k0 alpha0 / z^3) H0(x0),    x0 = 2 k0 z,
    H0(x) = (x^2 - 2) F(x) + 2 x G(x) - x,

with F and G the auxiliary sine/cosine-integral combinations f and g
of :mod:`cpwall.specfun`.  h0 takes them from scaled_e1's order-5
continued fraction for 2 <= x0 <= 100 only: below x0 = 2 it writes H0
with Ci and Si, from their real power series, and above 100 it sums an
asymptotic series.  H0 interpolates between -pi at contact (the
non-retarded, image-potential regime) and -6/x at large separation
(the retarded regime).

All dimensional work happens in ``_vacuum_parts`` (the prefactor and
x0 = 2 k0 z, for :func:`vacuum_potential` and ``total_potential``) and
the two asymptote functions; everything else is dimensionless.  Units:
k0 in rad/um, alpha0 in um^3, z in um, energies in eV.
"""

from __future__ import annotations

import enum
import math
import sys
from itertools import count

from .constants import PhysicalConstants
from .errors import DomainError
from .record import Record
from .specfun import EULER_GAMMA, scaled_e1

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

# h0 takes the Ci/Si form below _H0_E5_MIN, the E5 form up to
# _H0_SERIES_MIN and its asymptotic series above.  The E5 form needs
# |w| >= 2 of scaled_e1's order 5; at x0 = 2 both forms are within
# 5e-16 of mpmath.  The series would do from 50 on; it keeps the switch
# at 100 that it had.
_H0_E5_MIN = 2.0
_H0_SERIES_MIN = 100.0
# Horner coefficients in t = x^2, highest power first, of the power
# series (DLMF 6.6.5-6) Ci(x) - gamma - ln x = t sum_k a_k t^k and
# Si(x) = x sum_k b_k t^k: (a_k, b_k) = ((-1)^(k+1) / ((2k+2) (2k+2)!),
# (-1)^k / ((2k+1) (2k+1)!)) for k = 13..0, each rounded once.  At
# x = 2 the first omitted terms are below 1e-22.
_H0_CI_SI = tuple(
    (
        (-1) ** (k + 1) / ((2 * k + 2) * math.factorial(2 * k + 2)),
        (-1) ** k / ((2 * k + 1) * math.factorial(2 * k + 1)),
    )
    for k in range(13, -1, -1)
)


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
    overflows are refused.  Three branches:

    * x0 < 2: with f = Ci sin x - si cos x and g = Ci cos x + si sin x,
      si = Si - pi/2, in real arithmetic

          H0 = Ci(x) P(x) - si(x) Q(x) - x,
          P = (x^2 - 2) sin x + 2 x cos x,  Q = (x^2 - 2) cos x - 2 x sin x,

      with Ci - gamma - ln x and Si from one Horner pass over their
      power series in x^2 (_H0_CI_SI).  Its cancellations, P's at small
      x0 and si's near x0 = 2, stay small against |H0| >= 1.78: within
      5e-16 of mpmath (measured 4.9e-16), where the E1t bracket it
      replaced lost 1.6e-15;
    * 2 <= x0 <= 100: the bracket of F and G, g + i f = -E1t(i x0),
      with E1t raised to E5 by the recurrence E~_n = (1 - n E~_(n+1)) / w
      for E~_n = e^w E_n(w) (DLMF 8.19.12), so that its x0 orders cancel
      analytically,

          H0 = -6/x + 16/x^3 - 24 (x^2 - 2) Im E~5(ix) / x^4
               - 48 Re E~5(ix) / x^3,

      with E~5(ix) ~ 1/(ix) from scaled_e1(ix, 5): within 3e-16 of
      mpmath, where the plain bracket lost up to 1.2e-12;
    * x0 > 100: the combined asymptotic series of f and g (DLMF
      6.12.3-4), whose x0 orders cancel analytically,

          H0 ~ sum_k (-1)^(k+1) [(2k+2)! + 2 (2k+1)! + 2 (2k)!] / x0^(2k+1)
             = -6/x0 + 40/x0^3 - 252/x0^5 + ...,

      stopped at its first term below 1e-17 of the sum (its smallest
      term is about e^-x0, so 20 terms at most).

    scripts/sweep_branch_switches.py holds the three to 60-digit
    mpmath: the Ci/Si form to 1e-15 (measured 4.9e-16), the E5 form to
    1e-14 (measured 2.5e-16), the series to 1e-10 (measured 4e-16 up to
    x0 = 1e12).
    """
    if not (x0 > 0.0 and math.isfinite(x0 * x0)):
        raise DomainError(f"h0 needs x0 > 0 with a finite square, got {x0}")
    if x0 > _H0_SERIES_MIN:
        return _h0_series(x0)
    if x0 < _H0_E5_MIN:
        t = x0 * x0
        c = s = 0.0
        for a, b in _H0_CI_SI:
            c = c * t + a
            s = s * t + b
        ci = EULER_GAMMA + math.log(x0) + c * t
        si = s * x0 - 0.5 * math.pi
        sin_x, cos_x = math.sin(x0), math.cos(x0)
        p = (t - 2.0) * sin_x + 2.0 * x0 * cos_x
        q = (t - 2.0) * cos_x - 2.0 * x0 * sin_x
        return ci * p - si * q - x0
    e5 = scaled_e1(1j * x0, 5)
    inv_x = 1.0 / x0
    inv_x2 = inv_x * inv_x
    return -6.0 * inv_x + inv_x * inv_x2 * (
        16.0 - 24.0 * (x0 * x0 - 2.0) * inv_x * e5.imag - 48.0 * e5.real
    )


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
    prefactor, h = _vacuum_parts(atom, z, constants)
    return prefactor * h


def _vacuum_parts(
    atom: AtomParams, z: float, constants: PhysicalConstants | None
) -> tuple[float, float]:
    """(prefactor, H0(2 k0 z)), whose product is vacuum_potential."""
    z3 = _z_power(z, 3)
    cst = constants if constants is not None else _DEFAULT_CONSTANTS
    prefactor = cst.hbar_c_ev_um / (8.0 * math.pi) * atom.k0 * atom.alpha0 / z3
    return prefactor, h0(2.0 * atom.k0 * z)


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
