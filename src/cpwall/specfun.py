"""Special functions backing the closed-form potentials.

Everything here is scalar, double precision, and branch-audited.  The
central object is the scaled exponential integral

    E1t(w) = e^w E1(w),

computed as a single quantity so the e^w growth of the thermal series
prefactors never overflows.  The auxiliary functions of the vacuum
closed form follow from it on the imaginary axis,

    g(x) + i f(x) = -E1t(ix).

On the imaginary axis the |w| < 2 power series serves only
auxiliary_f / auxiliary_g.  vacuum.h0 calls no E1t: it takes H0 from
the real Ci/Si series below x0 = 2, a frozen Chebyshev table from 2 to
100 and an asymptotic series above.  The continued fraction's order 5
at w = i x0 serves verify's criterion 12, which checks that table with
it.  On the real axis thermal.thermal_series_terms takes E1t(y),
y = n theta < 40, from scaled_e1 and E1t(-y) from _e1t_power_series:
the one call on the cut, where the series' terms share one sign.

Branch map for E1t (validated in scripts/sweep_branch_switches.py):

    |w| < 2                       power series around 0, order 1 only
    |w| >= 2, |arg w| <= 3pi/4    continued fraction, any order p, evaluated
                                  backward from depth 10 + 200/(|w| + Re w)

scaled_e1 refuses the rest of the plane.  Both evaluators are
conjugate-symmetric bit for bit.

Accuracy: every operation targets 1e-12 relative and guarantees 1e-10
on its stated domain; measured worst-case errors per branch are quoted
in the sweep script output committed alongside the tests.
"""

from __future__ import annotations

import cmath
import math

from .errors import ConvergenceError, DomainError

EULER_GAMMA = 0.5772156649015328606


# ----------------------------------------------------------------------
# scaled exponential integral


def _e1t_power_series(w: complex) -> complex:
    # E1t = e^w (-gamma - ln w + sum_{k>=1} (-1)^{k+1} w^k / (k k!))
    s = 0.0 + 0.0j
    t = 1.0 + 0.0j          # w^k / k!
    for k in range(1, 400):
        t *= w / k
        term = t / k if k % 2 == 1 else -t / k
        s += term
        if abs(term) < 1e-18 * (1.0 + abs(s)):
            return cmath.exp(w) * (-EULER_GAMMA - cmath.log(w) + s)
    raise ConvergenceError(f"E1t power series stalled at w={w}")


def _e1t_fraction(w: complex, order: float) -> complex:
    # e^w E_p(w) = 1/(w+p - 1 p/(w+p+2 - 2 (p+1)/(w+p+4 - ...))),
    # p = order: a_k = -k (p+k-1), b_k = w + p + 2k, the even part of
    # DLMF 8.19.17, evaluated backward from depth n (Numerical Recipes
    # 5.2).  It converges like exp(-4 sqrt(n) Re sqrt(w)), and
    # 2 (Re sqrt(w))^2 = |w| + Re w: n = 10 + 200/(|w| + Re w) holds that
    # exponent below -40, 110 steps at w = 2i, 351 at |w| = 2, arg 3pi/4
    n = 10 + int(200.0 / (abs(w) + w.real))
    b = w + order
    t = b + 2 * n
    for k in range(n, 0, -1):
        t = b + (2 * k - 2) - k * (order + k - 1) / t
    return 1.0 / t


def scaled_e1(w: complex, order: float = 1) -> complex:
    """E1t(w) = e^w E1(w), principal branch; e^w E_p(w) for order p != 1.

    Served on the disc |w| < 2 (order 1 only) and on the continued
    fraction's sector |w| >= 2, |arg w| <= 3pi/4 (any order).  Raises
    DomainError elsewhere, at w = 0, on the negative real axis (the
    branch cut) and for non-finite w or order.
    """
    z = complex(w)
    if not cmath.isfinite(z):
        raise DomainError(f"scaled_e1 needs a finite argument, got w = {z}")
    if not math.isfinite(order):
        raise DomainError(f"scaled_e1 needs a finite order, got {order}")
    if z == 0:
        raise DomainError("scaled_e1 undefined at w = 0")
    if z.imag == 0.0 and z.real < 0.0:
        raise DomainError(f"scaled_e1 on the branch cut: w = {z}")
    if abs(z) < 2.0 and order == 1:
        e = _e1t_power_series(z)
    elif abs(z) >= 2.0 and abs(cmath.phase(z)) <= 0.75 * math.pi:
        e = _e1t_fraction(z, order)
    else:
        raise DomainError(
            f"order {order} at w = {z}: scaled_e1 serves |w| < 2 (order 1) "
            "and |w| >= 2, |arg w| <= 3pi/4"
        )
    if not cmath.isfinite(e):
        raise ConvergenceError(f"non-finite complex value {e}")
    return e


# ----------------------------------------------------------------------
# auxiliary functions of the vacuum closed form


def auxiliary_f(x: float) -> float:
    """f(x) = Ci(x) sin x - si(x) cos x = Int_0^inf e^{-xt}/(1+t^2) dt."""
    if not (math.isfinite(x) and x >= 0.0):
        raise DomainError(f"auxiliary_f needs finite x >= 0, got {x}")
    if x == 0.0:
        return 0.5 * math.pi
    return -scaled_e1(1j * x).imag


def auxiliary_g(x: float) -> float:
    """g(x) = d f/dx = Ci(x) cos x + si(x) sin x; log-divergent at 0."""
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"auxiliary_g needs finite x > 0, got {x}")
    return -scaled_e1(1j * x).real


# ----------------------------------------------------------------------
# even zeta values

# zeta(2m) = |B_{2m}| (2 pi)^{2m} / (2 (2m)!) for m = 1..27, each the
# exact rational value (pi to 60 digits) rounded once to double
# (tests/test_specfun.py re-derives them); zeta(2m) is 1.0 in float64
# from 2m = 54 on.
_ZETA_EVEN = (
    1.6449340668482264, 1.0823232337111381, 1.0173430619844492,
    1.0040773561979444, 1.000994575127818, 1.000246086553308,
    1.0000612481350588, 1.0000152822594086, 1.000003817293265,
    1.0000009539620338, 1.0000002384505027, 1.000000059608189,
    1.0000000149015549, 1.000000003725334, 1.0000000009313275,
    1.000000000232831, 1.0000000000582077, 1.000000000014552,
    1.000000000003638, 1.0000000000009095, 1.0000000000002274,
    1.0000000000000568, 1.0000000000000142, 1.0000000000000036,
    1.0000000000000009, 1.0000000000000002, 1.0,
)


def _zeta_even_unchecked(m: int) -> float:
    # zeta(2m) for an integer m >= 1, unchecked: the table's only reader
    return _ZETA_EVEN[m - 1] if m <= len(_ZETA_EVEN) else 1.0


# ----------------------------------------------------------------------
# thermal series helpers


def bose_sum_p(eta: float) -> float:
    """P(eta) = sum_{m>=1} 1/(1 + m^2 eta^2).

    Closed form pi coth(pi/eta)/(2 eta) - 1/2 below eta = 2; above,
    the alternating zeta series avoids the cancellation of the two
    half-sized terms.
    """
    if not eta > 0.0:
        raise DomainError(f"bose_sum_p needs eta > 0, got {eta}")
    if eta < 2.0:
        return 0.5 * math.pi / (math.tanh(math.pi / eta) * eta) - 0.5
    # sum_{k>=1} (-1)^{k+1} zeta(2k) / eta^{2k}
    inv2 = 1.0 / (eta * eta)
    s = 0.0
    p = 1.0
    for k in range(1, 600):
        p *= inv2
        term = _zeta_even_unchecked(k) * p
        s += term if k % 2 == 1 else -term
        if term < 1e-18 * (abs(s) + 1e-300):
            return s
    raise ConvergenceError(f"bose_sum_p series stalled at eta={eta}")
