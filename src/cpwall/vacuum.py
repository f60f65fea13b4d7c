"""Vacuum-state atom-wall interaction: exact closed form and its limits.

The vacuum shift factorizes into a dimensional prefactor and a
dimensionless shape function,

    V0(z) = (hbar c / 8 pi) (k0 alpha0 / z^3) H0(x0),    x0 = 2 k0 z,
    H0(x) = (x^2 - 2) F(x) + 2 x G(x) - x,

with F and G the auxiliary sine/cosine-integral combinations f and g
of :mod:`cpwall.specfun`.  h0 evaluates neither: below x0 = 2 it
writes H0 with Ci and Si, from their real power series, from 2 to 100
it sums a frozen Chebyshev table of x H0(x), and above 100 an
asymptotic series.  H0 interpolates between -pi at contact (the
non-retarded, image-potential regime) and -6/x at large separation
(the retarded regime).

All dimensional work happens in :func:`vacuum_potential` (the factor
``_vacuum_factor`` over z^3, ``_vacuum_at``, times H0(2 k0 z)) and the
two asymptote functions; everything else is dimensionless.  Units:
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
from .specfun import EULER_GAMMA

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

# h0 takes the Ci/Si form below _H0_TABLE_MIN, the Chebyshev table
# _H0_TABLE up to _H0_SERIES_MIN and its asymptotic series above.  At
# x0 = 2 and 100 each side is within 3e-16 of mpmath.  The series would
# do from 50 on; it keeps the switch at 100 that it had.
_H0_TABLE_MIN = 2.0
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
# Chebyshev coefficients of x H0(x) on the pieces [2, 4], [4, 8], ...,
# [32, 64], [64, 100]: each entry (a + b, b - a, c_0, (c_n, ..., c_1))
# of its piece [a, b], in t = (2 x - a - b) / (b - a), which is exact on
# the doubling pieces.  Piece i holds 2^(i+1) <= x0 < 2^(i+2),
# x0 = 100 included, so math.frexp(x0)[1] - 2 picks it.
# BEGIN generated by scripts/make_h0_table.py -- do not edit by hand
_H0_TABLE = (
    (6.0, 2.0, -4.226830900772413, (  # [2, 4], 19 terms
        -1.0557865961970781e-17, 7.826224677957438e-17, -5.788373667129463e-16,
        4.239451800770467e-15, -3.031355454990449e-14, 2.0545220655346076e-13,
        -1.2251055056048264e-12, 4.7592158391019476e-12, 2.4973329286916395e-11,
        -1.0015962201734693e-09, 1.822699573510799e-08, -2.7448284471337305e-07,
        3.776600541500288e-06, -4.8811666538131876e-05, 0.0005942444478363053,
        -0.006726546285551225, 0.0686350417006075, -0.5905437164192293,
    )),
    (12.0, 4.0, -5.204837488704439, (  # [4, 8], 20 terms
        4.520793666158619e-18, -1.9383808219763372e-17, 2.3298726233241022e-17,
        8.783517737401229e-16, -1.5867261450381763e-14, 2.0209435668346002e-13,
        -2.267436672422985e-12, 2.3836966932015692e-11, -2.4073875154739194e-10,
        2.36259608000732e-09, -2.2642149640623727e-08, 2.1211473319665813e-07,
        -1.938814599167341e-06, 1.7212888231012607e-05, -0.0001473229198138276,
        0.0012016466315164145, -0.009173361571392773, 0.06356129473066838,
        -0.3758173041381713,
    )),
    (24.0, 8.0, -5.726245518726164, (  # [8, 16], 21 terms
        1.7148277552948185e-17, -1.356698317327286e-16, 1.0644790859597233e-15,
        -8.289524455195663e-15, 6.409193439231157e-14, -4.919598076512136e-13,
        3.7473623124277296e-12, -2.8304875613423605e-11, 2.1176551855296434e-10,
        -1.5669806578228355e-09, 1.1446077724810861e-08, -8.233455487061745e-08,
        5.814431698308795e-07, -4.015381787709349e-06, 2.6978097848980768e-05,
        -0.0001751227104683848, 0.0010874668852343997, -0.00636215084535829,
        0.03415427840611957, -0.15923775908237736,
    )),
    (48.0, 16.0, -5.921834019861202, (  # [16, 32], 22 terms
        -1.9406110694954076e-17, 1.2823932425617116e-16, -8.437365677857591e-16,
        5.524399480025782e-15, -3.597636755875186e-14, 2.328803495343882e-13,
        -1.4973505663683075e-12, 9.55513450279561e-12, -6.045984493438984e-11,
        3.7891592674829985e-10, -2.3491486349142604e-09, 1.4384989135443633e-08,
        -8.684357222326915e-08, 5.156999960072509e-07, -3.0033772568729433e-06,
        1.708743942240687e-05, -9.445606662571713e-05, 0.0005032175638727312,
        -0.002550318488549383, 0.012008454041367734, -0.04990152897323013,
    )),
    (96.0, 32.0, -5.979606556799868, (  # [32, 64], 22 terms
        -2.825154565267345e-17, 1.6843509700031773e-16, -1.0000710592880439e-15,
        5.9114827190781504e-15, -3.477534673582331e-14, 2.0350604213732183e-13,
        -1.1841579384536363e-12, 6.8475025330148255e-12, -3.9324968143972697e-11,
        2.2412457733866656e-10, -1.266480444915509e-09, 7.087720971576088e-09,
        -3.9228231716338625e-08, 2.1432882228608567e-07, -1.153173969337032e-06,
        6.089494725919723e-06, -3.140719643457242e-05, 0.00015703788489114615,
        -0.0007518806679662273, 0.0033692858225176092, -0.013435313873159108,
    )),
    (164.0, 36.0, -5.993621893182475, (  # [64, 100], 18 terms
        -1.0658854733564254e-17, 9.269682642961568e-17, -8.025309204770591e-16,
        6.913524943518084e-15, -5.922928877216374e-14, 5.04288839253307e-13,
        -4.263500783357725e-12, 3.5755563332939265e-11, -2.9705028342705615e-10,
        2.4404114448111067e-09, -1.9779438024735257e-08, 1.576320315521593e-07,
        -1.2292895689544654e-06, 9.31098789547998e-06, -6.7646532349246e-05,
        0.00046054908849330246, -0.002789259697851427,
    )),
)
# END generated by scripts/make_h0_table.py


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
    if not 0.0 < z < math.inf:
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
    * 2 <= x0 <= 100: x H0(x) from a frozen Chebyshev series on each
      of [2, 4], [4, 8], ..., [32, 64] and [64, 100] (_H0_TABLE, 18-22
      coefficients from 50-digit mpmath, scripts/make_h0_table.py),
      summed by Clenshaw's recurrence (C. W. Clenshaw, Math. Tables
      Aids Comput. 9, 118 (1955)): about 1 us a call anywhere in the
      range.  Verify's criterion 12 checks it against an independent
      form, scaled_e1's order-5 continued fraction;
    * x0 > 100: the combined asymptotic series of f and g (DLMF
      6.12.3-4), whose x0 orders cancel analytically,

          H0 ~ sum_k (-1)^(k+1) [(2k+2)! + 2 (2k+1)! + 2 (2k)!] / x0^(2k+1)
             = -6/x0 + 40/x0^3 - 252/x0^5 + ...,

      stopped at its first term below 1e-17 of the sum (its smallest
      term is about e^-x0, so 20 terms at most).

    scripts/sweep_branch_switches.py holds the three to 60-digit
    mpmath: the Ci/Si form to 1e-15 (measured 4.9e-16), the table to
    1e-15 (measured 2.2e-16), the series to 1e-10 (measured 4e-16 up to
    x0 = 1e12).
    """
    if not (x0 > 0.0 and math.isfinite(x0 * x0)):
        raise DomainError(f"h0 needs x0 > 0 with a finite square, got {x0}")
    if x0 > _H0_SERIES_MIN:
        return _h0_series(x0)
    if x0 < _H0_TABLE_MIN:
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
    return _h0_table(x0, math.frexp(x0)[1] - 2)


def _h0_table(x: float, piece: int) -> float:
    """H0 on 2 <= x <= 100 from the Chebyshev series of x H0(x) on
    _H0_TABLE[piece], summed by Clenshaw's recurrence
    b_k = c_k + 2 t b_(k+1) - b_(k+2), x H0 = c_0 + t b_1 - b_2."""
    ab_sum, ab_width, c0, coefs = _H0_TABLE[piece]
    t = (x + x - ab_sum) / ab_width
    t2 = t + t
    b1 = b2 = 0.0
    for c in coefs:
        b1, b2 = c + t2 * b1 - b2, b1
    return (c0 + (t * b1 - b2)) / x


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


def _vacuum_factor(atom: AtomParams, cst: PhysicalConstants) -> float:
    return cst.hbar_c_ev_um / (8.0 * math.pi) * atom.k0 * atom.alpha0


def _vacuum_at(factor: float, z3: float, h: float) -> float:
    """V0 from _vacuum_factor, z3 = _z_power(z, 3) and h = H0(2 k0 z)."""
    return factor / z3 * h


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
    return _vacuum_at(_vacuum_factor(atom, cst), z3, h0(2.0 * atom.k0 * z))


def _nonretarded_factor(atom: AtomParams, cst: PhysicalConstants) -> float:
    hbar_omega0 = cst.hbar_c_ev_um * atom.k0
    return -hbar_omega0 * atom.alpha0


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
    return _nonretarded_factor(atom, cst) / (8.0 * _z_power(z, 3))


def _retarded_factor(atom: AtomParams, cst: PhysicalConstants) -> float:
    return -3.0 / (8.0 * math.pi) * cst.hbar_c_ev_um * atom.alpha0


def retarded_asymptote(
    atom: AtomParams,
    z: float,
    constants: PhysicalConstants | None = None,
) -> float:
    """Long-distance form -(3 / 8 pi) hbar c alpha0 / z^4 (k0-free)."""
    cst = constants if constants is not None else _DEFAULT_CONSTANTS
    return _retarded_factor(atom, cst) / _z_power(z, 4)
