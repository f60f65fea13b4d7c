"""Thermal correction to the atom-wall interaction.

The thermal part of the shift comes entirely from atomic polarization by
thermal photons,

    V_T(z) = (hbar c / 8 pi) (alpha0 k0 / z^3) W(eta, x0),
    W = (x0^2 - 2) K0 + 2 K1 - 2 x0 P(eta),

with eta = lambda_T / 2z, x0 = 2 k0 z, and theta = eta x0 = k0 lambda_T
the single dimensionless temperature parameter (theta >= 10 is required
for the two-level description; we refuse smaller values rather than
extrapolate).  K0 and K1 are the paper's series of scaled exponential
integrals and P(eta) = sum_m 1/(1 + m^2 eta^2); the package sums none of
them.  Their 50-digit sum (``scripts/make_reference_values.py``, frozen
in the tests' reference values) and the thermal oracle check the two
routes below.

``thermal_potential_exact`` evaluates W by one of two routes, picked
by eta alone:

* for z < lambda_T / 8 (eta > 4, x0 < theta / 4), the exact H_T form
  (``_h_t``), one power series theta^4 h_T = sum_m c_m (-1/eta^2)^(m-2)
  whose c_m ``thermal_series_terms`` builds once per theta from zeta
  tails and, where n theta < 40, F(y) = -[Re E1t(-y) + E1t(y)] / 2;
  c_2 gives C(T);
* for z >= lambda_T / 8 (eta <= 4), the Lifshitz (Matsubara) sum plus
  the resonant term (``_w_lifshitz``),

      W = -(4 pi / theta) sum'_{n>=0} e^-y_n (1 + y_n + y_n^2 / 2)
            / (1 + (2 pi n / theta)^2) - H0(x0) + W_pole,

  y_n = 2 pi n / eta, the n = 0 term weighted 1/2.  The sum is the
  whole shift of a ground-state atom at temperature T apart from its
  resonant term W_pole = pi b [2 x0 sin x0 - (x0^2 - 2) cos x0],
  b = 1/(e^theta - 1); H0 (``vacuum.h0``) is the vacuum part it holds.
  Its n = 0 term, -2 pi / theta, is Lifshitz's result: linear in T and
  free of c, hbar and k0.  The terms fall by e^(-2 pi / eta) <= 0.21
  each, and |H0| <= 6 / x0 stays within 4 times 2 pi / theta, so
  nothing cancels.  Past eta = 4 the sum would need hundreds of terms
  and cancel against H0.

The second route takes W at the exact x0 = 2 k0 z, the float product
plus its rounding error (``_two_product``): the sum and H0 at the float
product, and at the exact one the pole term's phase, which the float
product alone would move by up to eps x0 / 2.  Against 50-digit mpmath
the route is then within 1e-13 of max(|W|, 2 pi / theta) up to
x0 = 1e9, 2 pi / theta being the Lifshitz magnitude k_B T alpha0 / 4 z^3
in W units.  W is exact for the float z given but ill-conditioned in z,
since dW/dx0 ~ pi b x0^2: one ulp of z moves it by up to eps pi b x0^3.

Short- and long-distance expansions (H_T, the first route on its own,
and L_T, the expansion of W about the static polarizability without
its pole term) and the Lifshitz total asymptote -(k_B T) alpha0 / 4 z^3
complete the module.  All series are summed in a fixed order so
repeated runs are bit-identical.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from itertools import accumulate, count, repeat
from operator import mul
from typing import Iterator

from .constants import PhysicalConstants
from .errors import ConvergenceError, DomainError, ValidityError
from .record import Record
from .specfun import _e1t_power_series, _zeta_even_unchecked, scaled_e1
from .vacuum import AtomParams, _vacuum_at, _vacuum_factor, _z_power, h0

__all__ = [
    "PotentialBreakdown",
    "ThermalEnvironment",
    "ThermalSeriesTerms",
    "THETA_MIN",
    "lifshitz_asymptote",
    "recommended_approximation",
    "thermal_potential_exact",
    "thermal_series_terms",
    "thermal_long_expansion",
    "thermal_short_expansion",
    "thermal_short_leading",
    "total_potential",
]

_DEFAULT_CONSTANTS = PhysicalConstants()

THETA_MIN = 10.0
# what the routes refuse: theta below THETA_MIN by more than rounding
_THETA_GATE = THETA_MIN * (1.0 - 1e-12)

# Leading short-distance coefficients: C(T) = (2 pi^3 / 45) hbar c
# alpha0 / lambda_T^4 and curvature (2 pi)^5 / 315.
C_SHORT = 2.0 * math.pi**3 / 45.0
CURV_SHORT = (2.0 * math.pi) ** 5 / 315.0

# Route split: the H_T form for eta > _SHORT_ETA (z < lambda_T / 8), the
# Lifshitz sum plus the resonant term below.  Both sums, and the
# static-alpha expansion of L_T, raise ConvergenceError if they have not
# stopped after _TERM_CAP terms.
_SHORT_ETA = 4.0
_TERM_CAP = 40
# thermal_series_terms takes F(n theta) from E1t below n theta = _NEAR_Y,
# from the zeta tails from there on
_NEAR_Y = 40.0
# Veltkamp's splitter 2^27 + 1, which cuts a double into two halves of
# at most 26 significant bits each
_SPLITTER = 134217729.0


class ThermalEnvironment(Record):
    """Thermal state of the field: temperature (K), thermal wavelength
    lambda_T = hbar c / k_B T (um), and theta = k0 lambda_T.

    Build with :meth:`for_atom` so lambda_T and theta are consistent
    with the constants table in use; direct construction validates only
    positivity and the theta >= 10 applicability gate.
    """

    __slots__ = ("temperature", "lambda_T", "theta")

    def _check(self) -> None:
        temperature, lambda_T, theta = self.temperature, self.lambda_T, self.theta
        if not (math.isfinite(temperature) and temperature > 0.0):
            raise DomainError(
                f"temperature must be positive and finite, got {temperature}"
            )
        if not (math.isfinite(lambda_T) and lambda_T > 0.0):
            raise DomainError(f"lambda_T must be positive and finite, got {lambda_T}")
        if not (math.isfinite(theta) and theta >= THETA_MIN):
            raise DomainError(
                f"theta = k0 lambda_T must be >= {THETA_MIN} for the two-level "
                f"description, got {theta}"
            )

    @classmethod
    def for_atom(
        cls,
        atom: AtomParams,
        temperature: float,
        constants: PhysicalConstants | None = None,
    ) -> "ThermalEnvironment":
        cst = constants if constants is not None else _DEFAULT_CONSTANTS
        lam = cst.thermal_wavelength_um(temperature)
        return cls(temperature=temperature, lambda_T=lam, theta=atom.k0 * lam)


def _reference_pair(
    theta: float, cst: PhysicalConstants, alpha0_um3: float = 1.0e-9
) -> tuple[AtomParams, ThermalEnvironment]:
    """Room-temperature atom/environment pair at the requested theta."""
    lam = cst.thermal_wavelength_um(300.0)
    return AtomParams(theta / lam, alpha0_um3), ThermalEnvironment(300.0, lam, theta)


class ThermalSeriesTerms(Record):
    """The H_T form's series at one theta: coefficients holds
    (-1)^m c_m for m = 2.._TERM_CAP (see _h_t), terms_used the number of
    near n, n theta < 40, whose F came from E1t (three at most from
    theta = 10 on, none from theta = 40 on)."""

    __slots__ = ("coefficients", "terms_used")

    def _check(self) -> None:
        if not all(map(math.isfinite, self.coefficients)):
            raise ConvergenceError("non-finite coefficient in ThermalSeriesTerms")


class PotentialBreakdown(Record):
    """Total interaction split into vacuum and thermal parts (eV); the
    total is the exact float sum of the parts, and finite.  notes is free
    text, which total_potential leaves empty (``eval`` builds the notes
    it prints); the field stays because the benchmark's tests build
    breakdowns with it."""

    __slots__ = ("vacuum", "thermal", "total", "notes")

    def _check(self) -> None:
        # a finite total that is the sum of the parts has finite parts
        if not math.isfinite(self.total):
            raise DomainError(
                f"vacuum {self.vacuum} + thermal {self.thermal} eV is not finite"
            )
        if self.total != self.vacuum + self.thermal:
            raise DomainError("PotentialBreakdown total must equal vacuum + thermal")


def _check_pair(eta: float, x0: float) -> float:
    """Validate (eta, x0) and return theta = eta * x0."""
    if not (math.isfinite(eta) and eta > 0.0):
        raise DomainError(f"eta must be positive and finite, got {eta}")
    if not (math.isfinite(x0) and x0 > 0.0):
        raise DomainError(f"x0 must be positive and finite, got {x0}")
    if not math.isfinite(x0 * x0):
        raise DomainError(f"x0 = {x0} too large: x0^2 overflows")
    theta = eta * x0
    if theta < _THETA_GATE:
        raise DomainError(
            f"theta = eta*x0 = {theta} below the applicability gate {THETA_MIN}"
        )
    return theta


def _coth_terms(eta: float, x0: float) -> Iterator[float]:
    """I_j / x0^(2j), j = 0, 1, ..., from the Taylor coefficients of coth.

    With Y = pi/eta, the coefficients t_n of coth(Y(1+h)) obey the
    Riccati recurrence (n+1) t_{n+1} = -Y sum_k t_k t_{n-k}, and
    P^(n)(1) = n! ((Y/2) t_n - (-1)^n / 2).  Subtracting the 1/(2a) pole
    in floats costs about eps (1 + eta^2)^2, hence eta <= 4.
    """
    y = math.pi / eta
    half_y = 0.5 * y
    # coth Y and -Y / sinh^2 Y from e^-2Y, which cannot overflow
    e2 = math.exp(-2.0 * y)
    t = [(1.0 + e2) / (1.0 - e2), -4.0 * y * e2 / ((1.0 - e2) * (1.0 - e2))]
    inv_x2 = 1.0 / (x0 * x0)
    scale = 1.0  # (2j)! / x0^(2j)
    for n in count(0, 2):
        while len(t) < n + 3:
            # sum_k t_k t_{m-k} over its symmetric halves
            m = len(t) - 1
            h = (m + 1) // 2
            conv = 2.0 * sum(map(mul, t[:h], t[m:m - h:-1]))
            if m % 2 == 0:
                conv += t[h] * t[h]
            t.append(-y * conv / (m + 1))
        a, b, c = half_y * t[n + 2], half_y * t[n + 1], half_y * t[n]
        f2, f1 = (n + 1) * (n + 2), 2 * (n + 1)
        bracket = -f2 * (a - 0.5) + f1 * (b + 0.5) - 2.0 * (c - 0.5)
        yield scale * bracket if n % 4 == 0 else -scale * bracket
        scale *= f2 * inv_x2


def _two_product(a: float, b: float) -> tuple[float, float]:
    """a b = p + e exactly, p the float product: Dekker's TwoProduct on
    Veltkamp's split (math.fma needs Python 3.13).  Exact while neither
    2^27 a nor 2^27 b overflows and e does not underflow."""
    p, ta, tb = a * b, _SPLITTER * a, _SPLITTER * b
    a1, b1 = ta - (ta - a), tb - (tb - b)
    a2, b2 = a - a1, b - b1
    return p, a2 * b2 - (((p - a1 * b1) - a2 * b1) - a1 * b2)


def _pole_term(x0: float, lo: float, e_th: float) -> float:
    """The resonant term W_pole = pi b [2 x sin x - (x^2 - 2) cos x] of the
    Lifshitz route at x = x0 + lo, b = e^-theta / (1 - e^-theta).  lo, up
    to half an ulp of x0, enters the phase alone: sin x and cos x come from
    the sines and cosines of x0 and of lo, which libm reduces exactly at
    any size; sin lo and cos lo round to lo and 1 where |lo| <= 2^-27."""
    s, c = math.sin(x0), math.cos(x0)
    s_lo, c_lo = (lo, 1.0) if abs(lo) <= 2.0**-27 else (math.sin(lo), math.cos(lo))
    scale = math.pi * e_th / (1.0 - e_th)
    return scale * (
        2.0 * x0 * (s * c_lo + c * s_lo) - (x0 * x0 - 2.0) * (c * c_lo - s * s_lo)
    )


def _static_alpha_sum(eta: float, x0: float) -> float:
    """W without its resonant pole term, from the expansion of
    alpha(k) = alpha0 / (1 - (k/k0)^2) in (k/k0)^2:

        W - W_pole ~ (2/x0) sum_j I_j / x0^(2j),
        I_j = (-1)^j [-P^(2j+2) + 2 P^(2j+1) - 2 P^(2j)](a = 1),
        P(a) = (pi / 2 eta) coth(pi a / eta) - 1/(2a),

    with P(1) = bose_sum_p(eta); j = 0 is the static-alpha term, the
    terms fall like (2j+1)(2j+2) / (x0^2 + theta^2) and come from
    _coth_terms, which holds for eta <= 4.  The sum stops at the first
    term below 1e-17 of it or past its smallest term, and raises
    ConvergenceError if it has not stopped after _TERM_CAP terms.
    """
    # P's poles nearest a = 1 sit at 1 +- i eta, hence the envelope step
    # (2j+1)(2j+2) / rho2 with rho2 = x0^2 |1 + i eta|^2
    theta = eta * x0
    rho2 = x0 * x0 + theta * theta
    terms = _coth_terms(eta, x0)
    total = next(terms)
    prev = abs(total)
    for j, term in zip(range(1, _TERM_CAP), terms):
        # the poles' phases can make one term small by accident, so its
        # size is the larger of it and the previous size's envelope step
        size = max(abs(term), prev * (2 * j + 1) * (2 * j + 2) / rho2)
        if size <= 1e-17 * abs(total) or (j > 1 and size >= prev):
            # first omitted term, or past the smallest one; j = 0 may sit
            # near a zero of the static term, so j = 1 never ends the sum
            return 2.0 * total / x0
        total += term
        prev = size
    raise ConvergenceError(
        f"static-alpha expansion did not stop in {_TERM_CAP} terms at "
        f"eta = {eta:.6g}, x0 = {x0:.6g}"
    )


def _w_lifshitz(eta: float, x0: float, lo: float, h: float | None = None) -> float:
    """W at x0 + lo for eta <= 4 from the Lifshitz (Matsubara) sum minus
    H0 (h, if given) plus the resonant term W_pole, as the module
    docstring writes it.  The sum and H0 take x0, W_pole x0 + lo.

    The terms of the sum are positive and fall by e^(-2 pi / eta) each:
    1 to 5 terms for eta <= 1, about 30 at eta = 4.  The sum stops at
    its first term below 1e-17 of it and raises ConvergenceError if it
    has not stopped after _TERM_CAP terms.  It is added up by fsum: at
    eta ~ 4 it and H0 cancel down to a |W| some 500 times smaller.
    """
    theta = _check_pair(eta, x0)
    step = 2.0 * math.pi / eta
    ratio = 2.0 * math.pi / theta
    total, terms = 0.5, [0.5]
    for n in range(1, _TERM_CAP):
        y = n * step
        r = n * ratio
        term = math.exp(-y) * (1.0 + y * (1.0 + 0.5 * y)) / (1.0 + r * r)
        terms.append(term)
        total += term
        if term < 1e-17 * total:
            s = math.fsum(terms)
            h = h0(x0) if h is None else h
            return -2.0 * ratio * s - h + _pole_term(x0, lo, math.exp(-theta))
    raise ConvergenceError(
        f"Lifshitz sum did not stop in {_TERM_CAP} terms at eta = {eta:.6g}, "
        f"x0 = {x0:.6g}"
    )


# _h_t's factors (-1)^m 2 (m-1)(2m-3) and guards 2 (m-1)(2m-3) zeta(2m)
_H_T_MS = range(2, _TERM_CAP + 1)
_H_T_FACTORS = tuple((-1) ** m * 2.0 * (m - 1) * (2 * m - 3) for m in _H_T_MS)
_H_T_GUARDS = tuple(
    abs(f) * _zeta_even_unchecked(m) for m, f in zip(_H_T_MS, _H_T_FACTORS)
)


@lru_cache(maxsize=64)
def thermal_series_terms(theta: float) -> ThermalSeriesTerms:
    """The H_T form's series at theta, built once per theta: _h_t's
    coefficients (-1)^m c_m for m = 2.._TERM_CAP and the number of near
    terms taken from E1t.  Raises DomainError for a non-finite theta or
    one below the gate THETA_MIN (1 - 1e-12)."""
    if not (math.isfinite(theta) and theta >= _THETA_GATE):
        raise DomainError(
            f"theta = {theta} must be finite and not below the applicability "
            f"gate {THETA_MIN}"
        )
    theta2 = theta * theta
    # J_2's near part: F(n theta) minus its head term, from E1t; E1t(-y)
    # on the cut, outside scaled_e1's domain, from the power series,
    # whose terms share one sign there
    near, inv_n2 = 0.0, []
    for n in count(1):
        y = n * theta
        if y >= _NEAR_Y:
            break
        e_minus = _e1t_power_series(complex(-y, 0.0)).real
        e_plus = scaled_e1(y).real
        f_rest = -0.5 * (e_minus + e_plus) - 1.0 / (y * y)
        near += f_rest * theta2 * theta2 / 6.0
        inv_n2.append(1.0 / (n * n))
    # heads sum n^(-2m) over the near n (0 if none); J_m's near parts,
    # left at 0 with no near n (theta2 overflows from theta ~1.34e154), tails
    powers = (accumulate(repeat(q, _TERM_CAP - 2), mul, initial=q * q) for q in inv_n2)
    heads = map(sum, zip(repeat(0.0, _TERM_CAP - 1), *powers))
    js, tails = [], []
    for m, head in zip(_H_T_MS, heads):
        js.append(near)
        if inv_n2:
            near = (near - head) * theta2 / ((2 * m) * (2 * m + 1))
        tails.append(_zeta_even_unchecked(m) - head)
    # the far terms (2j-1)! tail_j / theta^(2j) are cut before the first
    # one above its predecessor, then summed backward into J_m
    cut = 1
    while cut < len(tails) and (
        (2 * cut + 2) * (2 * cut + 3) / theta2 * abs(tails[cut]) < abs(tails[cut - 1])
    ):
        cut += 1
    far = 0.0
    for i in reversed(range(cut)):
        far = tails[i] + (2 * i + 4) * (2 * i + 5) / theta2 * far
        js[i] += far
    return ThermalSeriesTerms(tuple(map(mul, _H_T_FACTORS, js)), len(inv_n2))


def _h_t(eta: float, theta: float) -> float:
    """theta^4 h_T, h_T = W / (2 x0^3) at x0 = theta / eta, from the
    exact H_T form, for eta > 2.5.

    With F(y) = -[Re E1t(-y) + E1t(y)] / 2 (E1t(-y) on the upper side
    of its cut), whose asymptotic series is sum_{j>=1} (2j-1)! / y^(2j)
    (DLMF 6.12.1-2), and

        I_m = sum_{n>=1} [F(n theta) - sum_{j<m} (2j-1)! / (n theta)^(2j)],

    the H_T form, once I_m - I_{m+1} = (2m-1)! zeta(2m) / theta^(2m) has
    cancelled the printed form's Q(eta), is h_T = sum_{m>=2} (-1)^m
    x0^(2m-4) [2 I_m - x0^2 (1 - 1/m) I_{m+1}] / (2m-1)!.  Gathered by
    J_m = I_m theta^(2m) / (2m-1)!, which depends on theta alone and
    tends to zeta(2m), it is one power series in u^2 = 1/eta^2 with no
    power of x0 or theta that could over- or underflow,

        theta^4 h_T = sum_{m>=2} c_m (-u^2)^(m-2),  c_m = 2 (m-1)(2m-3) J_m.

    thermal_series_terms builds the c_m once per theta, and so once per
    curve, whose rows all pass the environment's theta (eta * x0 would
    take two values an ulp apart along it).  J_m's near part, from the
    n with n theta < 40 (its terms_used), takes F from E1t and sheds
    one head term per step, J_(m+1) = (J_m - sum_n n^(-2m)) theta^2 /
    (2m (2m+1)).  Its far part, from n >= n0, sums the zeta tails
    tail_j = zeta(2j) - sum_{k<n0} k^(-2j) backward, Jfar_m = tail_m +
    2m (2m+1) Jfar_(m+1) / theta^2, from the j before the first term
    (2j-1)! tail_j / theta^(2j) above its predecessor.  The sum stops at
    the first m whose guard 2 (m-1)(2m-3) zeta(2m) u^(2m-4) is at or
    below 1e-17 of it (J_m can vanish by accident, zeta(2m) cannot) and
    raises ConvergenceError if none has by m = _TERM_CAP.

    Against mpmath (50 digits) W is within 7e-15 at theta >= 44 and
    3.06e-12 below, at worst at theta 31.6, where F minus its head
    (about 6/y^4) is what is left of E1t(+-y) ~ +-1/y at y = 31.6.
    """
    _check_pair(eta, theta / eta)
    u2 = 1.0 / (eta * eta)
    total, weight = 0.0, 1.0  # weight: u^(2m-4)
    for coef, guard in zip(thermal_series_terms(theta).coefficients, _H_T_GUARDS):
        total += coef * weight
        if guard * weight <= 1e-17 * abs(total):
            return total
        weight *= u2
    raise ConvergenceError(
        f"H_T form did not stop in {_TERM_CAP} terms at eta = {eta:.6g}, "
        f"theta = {theta:.6g}"
    )


class _Factors(Record):
    """What the thermal per-point functions take of one (atom,
    environment, constants) triple: lambda_T, 2 k0, theta = k0 lambda_T,
    V0's _vacuum_factor, the Lifshitz route's hbar c alpha0 k0 (over
    8 pi z^3 per point), the H_T route's (2 / pi) hbar c alpha0 /
    lambda_T^4 (times theta^4 h_T per point; inf or 0 past the double
    range) and the short law's hbar c alpha0, C_SHORT / lambda_T^4 and
    lambda_T^6, the last two 0 where lambda_T^6 is not a normal float."""

    __slots__ = (
        "lambda_T", "two_k0", "theta", "vacuum", "w_num", "h_t_pref",
        "short_scale", "c_t", "lam6",
    )


# the last (atom, env, constants) and their factors, by identity (records are read-only)
_last_factors: tuple = (None, None, None, ())


def _thermal_factors(
    atom: AtomParams, env: ThermalEnvironment, cst: PhysicalConstants
) -> _Factors:
    """The _Factors of atom, env and constants, built once for the last
    triple and returned again, the same record, while the same three
    objects come back.  Raises DomainError if env was built for another
    atom (its theta is not k0 lambda_T)."""
    global _last_factors
    last_atom, last_env, last_cst, f = _last_factors
    if atom is last_atom and env is last_env and cst is last_cst:
        return f
    lam, hc, k0, alpha0 = env.lambda_T, cst.hbar_c_ev_um, atom.k0, atom.alpha0
    theta = k0 * lam
    if abs(theta - env.theta) > 1e-8 * theta:
        raise DomainError(
            f"environment theta {env.theta} inconsistent with k0*lambda_T "
            f"= {theta}; was it built for a different atom?"
        )
    if lam >= 1e77:  # lambda_T^4 overflows from 1.16e77 um: in halves
        h_t_pref = 2.0 * hc * alpha0 / (math.pi * lam * lam) / (lam * lam)
    elif (lam4 := lam**4) >= sys.float_info.min:
        h_t_pref = 2.0 * hc * alpha0 / (math.pi * lam4)
    else:  # lambda_T^4 is subnormal or 0 below 1.22e-77 um
        h_t_pref = 2.0 * hc * alpha0 / math.pi / lam / lam / lam / lam
    try:  # lambda_T^6 is subnormal below 5.3e-52 um and overflows from 2.38e51 um
        lam6 = lam**6
    except OverflowError:
        lam6 = 0.0
    lam6 = lam6 if lam6 >= sys.float_info.min else 0.0
    f = _Factors(
        lam, 2.0 * k0, theta, _vacuum_factor(atom, cst), hc * alpha0 * k0, h_t_pref,
        hc * alpha0, C_SHORT / lam**4 if lam6 else 0.0, lam6,
    )
    _last_factors = atom, env, cst, f
    return f


def _in_range(v: float, f: _Factors) -> float:
    """v, a thermal shift in eV, refused unless it is finite."""
    if not math.isfinite(v):
        raise DomainError(f"V_T at lambda_T = {f.lambda_T} um leaves the double range")
    return v


def _thermal_at(f: _Factors, z: float, z3: float, h: float | None = None) -> float:
    """V_T from _thermal_factors' f at z, with z3 = _z_power(z, 3) and
    h = H0(2 k0 z) if the caller has it."""
    eta = f.lambda_T / (2.0 * z)
    if eta > _SHORT_ETA:
        # with W = 2 x0^3 h_T, (hbar c / 8 pi) (alpha0 k0 / z^3) W is
        # (2 / pi) hbar c alpha0 theta^4 h_T / lambda_T^4
        return _in_range(f.h_t_pref * _h_t(eta, f.theta), f)
    # _w_lifshitz refuses an x0 whose square overflows before reading lo;
    # below that, z^3 being normal keeps 2 k0 and z in _two_product's range
    x0, lo = _two_product(f.two_k0, z)
    return f.w_num / (8.0 * math.pi * z3) * _w_lifshitz(eta, x0, lo, h)


def thermal_potential_exact(
    atom: AtomParams,
    env: ThermalEnvironment,
    z: float,
    constants: PhysicalConstants | None = None,
) -> float:
    """Ground-truth thermal correction V_T(z) in eV.

    eta = lambda_T / 2z alone picks the route: W comes from the H_T
    form for z < lambda_T / 8 (eta > 4) and from the Lifshitz sum plus
    the resonant term from there on (eta <= 4, see _w_lifshitz), at the
    exact x0 = 2 k0 z: exact for the float z given, but ill-conditioned
    in z there, since dW/dx0 ~ pi b x0^2, b = 1 / (e^theta - 1).
    """
    z3 = _z_power(z, 3)
    cst = constants if constants is not None else _DEFAULT_CONSTANTS
    return _thermal_at(_thermal_factors(atom, env, cst), z, z3)


def thermal_short_leading(
    atom: AtomParams,
    env: ThermalEnvironment,
    z: float,
    constants: PhysicalConstants | None = None,
) -> float:
    """Leading short-distance law C(T) - (2 pi)^5/315 hbar c alpha0 z^2
    / lambda_T^6 with C(T) = (2 pi^3/45) hbar c alpha0 / lambda_T^4.

    Valid (to ~5%) for z <= 0.05 lambda_T; defined for all z >= 0.
    Raises DomainError where the law leaves the double range, or, with
    lambda_T^6 not a normal float, where (z / lambda_T)^2 does.
    """
    if not 0.0 <= z < math.inf:
        raise DomainError(f"z must be >= 0 and finite, got {z}")
    cst = constants if constants is not None else _DEFAULT_CONSTANTS
    f = _thermal_factors(atom, env, cst)
    if f.lam6:
        v = f.short_scale * (f.c_t - CURV_SHORT * z * z / f.lam6)
    else:  # (pi / 2) h_t_pref is hbar c alpha0 / lambda_T^4
        r = z / f.lambda_T
        v = 0.5 * math.pi * f.h_t_pref * (C_SHORT - CURV_SHORT * r * r)
    return _in_range(v, f)


def thermal_short_expansion(
    atom: AtomParams,
    env: ThermalEnvironment,
    z: float,
    constants: PhysicalConstants | None = None,
) -> float:
    """Short-distance H_T form: V_T = (2 / pi) hbar c alpha0 k0^4 h_T,
    with h_T the exact form of _h_t (no power of z in the prefactor).

    Requires z < 0.2 lambda_T (eta > 2.5), so that the outer sum
    converges; raises ValidityError beyond.  From z < lambda_T / 8 on,
    thermal_potential_exact takes the same form.
    """
    _z_power(z, 2)
    cst = constants if constants is not None else _DEFAULT_CONSTANTS
    f = _thermal_factors(atom, env, cst)
    if z >= 0.2 * env.lambda_T:
        raise ValidityError(
            f"short-distance expansion needs z < 0.2 lambda_T, got "
            f"z/lambda_T = {z / env.lambda_T}"
        )
    return _in_range(f.h_t_pref * _h_t(env.lambda_T / (2.0 * z), f.theta), f)


def thermal_long_expansion(
    atom: AtomParams,
    env: ThermalEnvironment,
    z: float,
    constants: PhysicalConstants | None = None,
) -> float:
    """Long-distance L_T form: V_T = (hbar c / 2 pi)(alpha0 k0 / z^3) L_T,
    a series in 1/x0 whose leading term is the static-alpha term.

    Grouped by powers of 1/x0, the paper's L_T, written with polygamma
    sums of argument 1 - i/eta, has the coefficients I_k / 2 of the
    static-alpha expansion (W = 4 L_T, see _static_alpha_sum), so this
    sums that expansion, which misses the resonant pole term W_pole.
    Requires z >= 0.5 lambda_T (eta <= 1); raises ValidityError below.
    """
    z3 = _z_power(z, 3)
    cst = constants if constants is not None else _DEFAULT_CONSTANTS
    f = _thermal_factors(atom, env, cst)
    if z < 0.5 * f.lambda_T:
        raise ValidityError(
            f"long-distance expansion needs z >= 0.5 lambda_T, got "
            f"z/lambda_T = {z / env.lambda_T}"
        )
    w_static = _static_alpha_sum(f.lambda_T / (2.0 * z), f.two_k0 * z)
    return f.w_num / (8.0 * math.pi * z3) * w_static


def lifshitz_asymptote(
    atom: AtomParams,
    env: ThermalEnvironment,
    z: float,
    constants: PhysicalConstants | None = None,
) -> float:
    """Asymptote of the TOTAL interaction for z >> lambda_T:
    -(k_B T / 4) alpha0 / z^3, linear in T and hbar-free."""
    cst = constants if constants is not None else _DEFAULT_CONSTANTS
    return -cst.k_B * env.temperature * atom.alpha0 / (4.0 * _z_power(z, 3))


def recommended_approximation(z_over_lambda_t: float) -> str:
    """Auto-mode window for reporting: which approximation is expected
    to describe the thermal part best at this separation."""
    if z_over_lambda_t <= 0.05:
        return "short_leading"
    if z_over_lambda_t < 1.0:
        return "exact_series"
    return "lifshitz"


def total_potential(
    atom: AtomParams,
    z: float,
    env: ThermalEnvironment | None = None,
    constants: PhysicalConstants | None = None,
) -> PotentialBreakdown:
    """Vacuum + thermal breakdown at separation z (um).

    ``env=None`` means a zero-temperature field: the thermal part is
    exactly zero and only the vacuum term survives.
    """
    z3, h = _z_power(z, 3), h0(2.0 * atom.k0 * z)
    cst = constants if constants is not None else _DEFAULT_CONSTANTS
    if env is None:
        vac = _vacuum_at(_vacuum_factor(atom, cst), z3, h)
        return PotentialBreakdown(vac, 0.0, vac + 0.0, "")
    # one cache lookup for both parts' factors
    f = _thermal_factors(atom, env, cst)
    vac = _vacuum_at(f.vacuum, z3, h)
    th = _thermal_at(f, z, z3, h)
    return PotentialBreakdown(vac, th, vac + th, "")
