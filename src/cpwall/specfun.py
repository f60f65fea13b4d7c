"""Special functions backing the closed-form potentials.

Everything here is scalar, double precision, and branch-audited.  The
central object is the scaled exponential integral

    E1t(w) = e^w E1(w),

computed as a single quantity so the e^w growth of the thermal series
prefactors never overflows.  The auxiliary functions of the vacuum
closed form follow from it on the imaginary axis,

    g(x) + i f(x) = -E1t(ix).

On the imaginary axis the |w| < 2 power series serves only
auxiliary_f / auxiliary_g and the cross-checks.  vacuum.h0 calls no
E1t: it takes H0 from the real Ci/Si series below x0 = 2, a frozen
Chebyshev table from 2 to 100 and an asymptotic series above.  The
continued fraction's order 5 at w = i x0 serves verify's criterion 12,
which checks that table with it.  On the real axis
thermal._h_t_series takes E1t(-y), y = n theta < 40, from
_e1t_power_series itself, past the
branch map's |w| = 35 switch (its terms share one sign there), and
E1t(y) from _scaled_e1_upper.

Branch map for E1t (validated in scripts/sweep_branch_switches.py):

    |w| < 2                       power series around 0
    |w| >= 2, |arg w| <= 3pi/4    continued fraction, any order p, evaluated
                                  backward from depth 10 + 200/(|w| + Re w)
    |arg w| > 3pi/4, |w| <= 35    power series (no cancellation there:
                                  left-half-plane terms share one sign)
    |arg w| > 3pi/4, |w| > 35     asymptotic series, optimal truncation

Accuracy: every operation targets 1e-12 relative and guarantees 1e-10
on its stated domain; measured worst-case errors per branch are quoted
in the sweep script output committed alongside the tests.
"""

from __future__ import annotations

import cmath
import math
from itertools import accumulate
from operator import mul

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


def _e1t_asymptotic(w: complex) -> complex:
    # sum (-1)^n n! / w^{n+1}, truncated at the smallest term
    term = 1.0 / w
    s = term
    for n in range(1, 2 * int(abs(w)) + 4):
        nxt = term * (-n / w)
        if abs(nxt) >= abs(term):
            break
        term = nxt
        s += term
        if abs(term) < 1e-18 * abs(s):
            break
    return s


def _scaled_e1_upper(w: complex) -> complex:
    # Im w >= 0 assumed
    r = abs(w)
    if r < 2.0:
        return _e1t_power_series(w)
    if abs(cmath.phase(w)) <= 0.75 * math.pi:
        return _e1t_fraction(w, 1)
    if r <= 35.0:
        return _e1t_power_series(w)
    return _e1t_asymptotic(w)


def scaled_e1(w: complex, order: float = 1) -> complex:
    """E1t(w) = e^w E1(w), principal branch; e^w E_p(w) for order p != 1.

    Raises DomainError at w = 0, on the negative real axis (the branch
    cut) and for non-finite w or order.  E1t(w) ~ 1/w as |w| grows in
    |arg w| < pi.
    Orders p != 1 come from the continued fraction alone and only on its
    sector |w| >= 2, |arg w| <= 3pi/4 (DomainError elsewhere).
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
    if order != 1 and (abs(z) < 2.0 or abs(cmath.phase(z)) > 0.75 * math.pi):
        raise DomainError(f"order {order} needs |w| >= 2, |arg w| <= 3pi/4: w = {z}")
    u = z.conjugate() if z.imag < 0.0 else z
    e = _scaled_e1_upper(u) if order == 1 else _e1t_fraction(u, order)
    e = e.conjugate() if z.imag < 0.0 else e
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
    return -_scaled_e1_upper(1j * x).imag


def auxiliary_g(x: float) -> float:
    """g(x) = d f/dx = Ci(x) cos x + si(x) sin x; log-divergent at 0."""
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"auxiliary_g needs finite x > 0, got {x}")
    return -_scaled_e1_upper(1j * x).real


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
# Hurwitz zeta and digamma

# B_2, B_4, ..., B_24; each quotient rounds once to the nearest double
_BERN_ASYM_F = [1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
                -3617 / 510, 43867 / 798, -174611 / 330, 854513 / 138,
                -236364091 / 2730]
# B_2j / (2j)!, j = 1..12, for the Euler-Maclaurin tail
_EM_COEF = tuple(
    b / f
    for b, f in zip(
        _BERN_ASYM_F,
        accumulate(((2 * j + 1) * (2 * j + 2) for j in range(1, 12)), mul, initial=2.0),
    )
)


def _hurwitz_range(s_lo: int, s_hi: int, z: complex) -> list[complex]:
    """[zeta(s, z) for s = s_lo..s_hi], integers 2 <= s_lo <= s_hi, Re z > 0.

    One pass shifts z rightwards, far enough for s_hi (for s_hi <= 24
    that is the shift each s needs alone; at s_hi = 161 it is Re a ~ 38),
    with one reciprocal 1/(z+n) per step and its powers by
    multiplication, so no step overflows for huge |z|; then the
    Euler-Maclaurin tail at a = z + shift for each s (DLMF 25.11.5 in
    descending powers of a), up to its first term below 1e-17 of the
    tail or 12 terms.
    """
    if not 2 <= s_lo <= s_hi:
        raise DomainError(f"_hurwitz needs integers 2 <= s_lo <= s_hi, got {s_lo}..{s_hi}")
    if z.real <= 0.0 and abs(z.imag) < 1e-12:
        raise DomainError(f"_hurwitz pole-adjacent argument z = {z}")
    n_asym = len(_EM_COEF)
    target = max(10.0, (s_hi + 2 * n_asym) / (2.0 * math.pi) * 1.3)
    shift = max(0, int(math.ceil(target - z.real)))
    out = [0.0 + 0.0j] * (s_hi - s_lo + 1)
    for n in range(shift):
        r = 1.0 / (z + n)
        p = r**s_lo
        for i in range(len(out)):
            out[i] += p
            p *= r
    ainv = 1.0 / (z + shift)
    ainv2 = ainv * ainv
    ainv2_abs = abs(ainv2)
    lead = ainv ** (s_lo - 1)           # a^{1-s}
    for i, s in enumerate(range(s_lo, s_hi + 1)):
        apow = lead * ainv              # a^{-s}
        tail = lead / (s - 1) + 0.5 * apow
        tiny = 1e-17 * abs(tail)
        # sum_j B_2j/(2j)! (s)_{2j-1} a^{-s-2j+1}, up to the first term
        # below tiny (its size from |a^{-s-2j+1}| kept as a float)
        poch = float(s)                 # (s)_1
        apow *= ainv
        size = abs(apow)
        for j, coef in enumerate(_EM_COEF, 1):
            c = coef * poch
            tail += c * apow
            if abs(c) * size <= tiny:
                break
            poch *= (s + 2 * j - 1) * (s + 2 * j)
            apow *= ainv2
            size *= ainv2_abs
        out[i] += tail
        lead *= ainv
    return out


def _digamma(z: complex) -> complex:
    # shift to |z| >= 12 then ln z - 1/(2z) - sum B_2k/(2k z^{2k})
    head = 0.0 + 0.0j
    while z.real < 12.0:
        head -= 1.0 / z
        z += 1.0
    zinv = 1.0 / z
    zinv2 = zinv * zinv
    s = cmath.log(z) - 0.5 * zinv
    zp = zinv2
    for k in range(1, 9):
        s -= _BERN_ASYM_F[k - 1] / (2 * k) * zp
        zp *= zinv2
    return head + s


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
