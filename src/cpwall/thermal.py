"""Thermal correction to the atom-wall interaction.

The thermal part of the shift comes entirely from atomic polarization by
thermal photons,

    V_T(z) = (hbar c / 8 pi) (alpha0 k0 / z^3) W(eta, x0),
    W = (x0^2 - 2) K0 + 2 K1 - 2 x0 P(eta),

with eta = lambda_T / 2z, x0 = 2 k0 z, and theta = eta x0 = k0 lambda_T
the single dimensionless temperature parameter (theta >= 10 is required
for the two-level description; we refuse smaller values rather than
extrapolate).  K0 and K1 are imaginary/real parts of two series of
scaled exponential integrals,

    J0+ = sum_m E1t(m theta - i x0),
    J0- = i pi e^{i x0} / (e^theta - 1) + sum_m E1t(-(m theta - i x0)),
    K0  = Im(J0+ - J0-),    K1 = -x0 Re(J0+ + J0-),

where E1t is ``specfun.scaled_e1``.  The individual sums diverge
logarithmically in their real parts; only the displayed combinations
converge, and they need only the pairs D_m = E1t(w_m) - E1t(-w_m) and
S_m = E1t(w_m) + E1t(-w_m), w_m = m theta - i x0.  We therefore sum a
finite head of pairs up to m theta ~ 240 and close both series with
asymptotic tails built from Hurwitz zeta / digamma values of argument
M + 1 - i/eta.  Head pairs with m theta < 40 come from two E1t values
each, those from 40 on from the paired asymptotic series
(``specfun._e1t_pair``, one Horner pass in 1/w^2), so theta >= 40
needs no E1t call at all.

``thermal_potential_exact`` evaluates W by one of two routes, chosen by
one deterministic rule per point:

* the expansion of alpha(k) = alpha0 / (1 - (k/k0)^2) about the static
  polarizability (``_w_expansion``), a series in 1/x0^2 whose terms fall
  like 1/theta^2 and whose leading term does not depend on k0.  Its
  derivatives of coth come from a Riccati recurrence for eta <= 4
  (z >= lambda_T / 8) and from the Laurent series of coth above, whose
  terms end where their sums would cancel (``_laurent_terms``).  One
  loop sums either route and stops at its first omitted or smallest
  term; a route whose terms run out before that falls back.  It is taken
  where its error estimate (that term, rounding, and a bound on the
  resonant pole the series misses) is at most 1e-13 |W|, which needs
  theta >~ 45;
* the E1t series above everywhere else.  It raises ValidityError where
  the rounding loss of the W bracket, estimated as 4 eps x0^2 |K0|,
  exceeds 1e-8 of max(|W|, 2 pi / theta): at large x0 for theta below
  ~45.  The factor 4 covers the measured error, up to 2.6 eps x0^2 |K0|
  in scripts/sweep_branch_switches.py.

Short- and long-distance expansions (H_T with its double zeta sum, L_T
with its polygamma sums) and the Lifshitz total asymptote
-(k_B T) alpha0 / 4 z^3 complete the module.  All series are summed in
a fixed order so repeated runs are bit-identical.
"""

from __future__ import annotations

import math
import sys
from itertools import count
from operator import mul
from typing import Iterable, Iterator

from .constants import PhysicalConstants
from .errors import ConvergenceError, DomainError, ValidityError
from .record import Record
from .specfun import (
    _PAIR_MIN,
    _digamma,
    _e1t_pair,
    _hurwitz_range,
    _polygamma_scaled,
    _zeta_even_unchecked,
    bose_sum_p,
    q_series,
    scaled_e1,
    zeta_even,
)
from .vacuum import AtomParams, _z_power, classify_regime, vacuum_potential

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

# Leading short-distance coefficients: C(T) = (2 pi^3 / 45) hbar c
# alpha0 / lambda_T^4 and curvature (2 pi)^5 / 315.
C_SHORT = 2.0 * math.pi**3 / 45.0
CURV_SHORT = (2.0 * math.pi) ** 5 / 315.0

# Head length: m-terms up to m*theta >= this are summed explicitly,
# the rest goes into the zeta/digamma tails.
_HEAD_SCALE = 240.0

# Switch rule of the static-alpha expansion: taken where its error
# estimate is at most _EXP_RTOL |W|.  Its derivatives come from coth's
# Taylor coefficients up to eta = _EXP_ETA_MAX and from P's Laurent
# series above.
_EXP_ETA_MAX = 4.0
_EXP_RTOL = 1e-13
_EXP_TERM_CAP = 40
_EPS = sys.float_info.epsilon
# The E1t route refuses when its bracket's rounding loss, estimated as
# _BRACKET_LOSS eps x0^2 |K0|, exceeds this share of |W|.
_BRACKET_RTOL = 1e-8
_BRACKET_LOSS = 4.0


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
    atom = AtomParams(k0=theta / lam, alpha0=alpha0_um3)
    env = ThermalEnvironment(temperature=300.0, lambda_T=lam, theta=theta)
    return atom, env


class ThermalSeriesTerms(Record):
    """Assembled pieces of the exact thermal series at one (eta, x0).

    k0_val = Im(J0+ - J0-) and k1_val = -x0 Re(J0+ + J0-); tail_bound
    bounds the truncation error of the W bracket (the asymptotic tails
    make it superasymptotically small for theta >= 10).
    """

    __slots__ = ("k0_val", "k1_val", "p_val", "terms_used", "tail_bound")

    def _check(self) -> None:
        isfinite = math.isfinite
        if not isfinite(self.k0_val):
            raise ConvergenceError("non-finite k0_val in ThermalSeriesTerms")
        if not isfinite(self.k1_val):
            raise ConvergenceError("non-finite k1_val in ThermalSeriesTerms")
        if not isfinite(self.p_val):
            raise ConvergenceError("non-finite p_val in ThermalSeriesTerms")
        tail_bound = self.tail_bound
        if not isfinite(tail_bound):
            raise ConvergenceError("non-finite tail_bound in ThermalSeriesTerms")
        if tail_bound < 0.0:
            raise DomainError(f"tail_bound must be >= 0, got {tail_bound}")


class PotentialBreakdown(Record):
    """Total interaction split into vacuum and thermal parts (eV); the
    total is the exact float sum of the parts."""

    __slots__ = ("vacuum", "thermal", "total", "notes")

    def _check(self) -> None:
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
    if theta < THETA_MIN * (1.0 - 1e-12):
        raise DomainError(
            f"theta = eta*x0 = {theta} below the applicability gate {THETA_MIN}"
        )
    return theta


def thermal_series_terms(eta: float, x0: float) -> ThermalSeriesTerms:
    """Exact-series building blocks of W at one geometry point.

    Sums the pairs of scaled exponential integrals for m theta up to
    ~240, from E1t below m theta = 40 and from their paired asymptotic
    series above, and closes the remainder with digamma / Hurwitz-zeta
    asymptotic tails of the same paired combinations (the pairing
    decays like 1/m^2; the unpaired real parts diverge and never appear
    alone).
    """
    theta = _check_pair(eta, x0)
    n_head = max(4, int(math.ceil(_HEAD_SCALE / theta)))

    # D_m = E1t(w_m) - E1t(-w_m) and S_m = E1t(w_m) + E1t(-w_m): K0
    # needs only Im D, K1 only Re S.  From m theta = 40 on, each pair
    # comes from its paired asymptotic series, whose error far_bound
    # sums.
    d_im = s_re = far_bound = 0.0
    for m in range(1, n_head + 1):
        w = complex(m * theta, -x0)
        if w.real < _PAIR_MIN:
            ep = scaled_e1(w)
            em = scaled_e1(-w)
            d_im += ep.imag - em.imag
            s_re += ep.real + em.real
        else:
            d, s, bound = _e1t_pair(w)
            d_im += d.imag
            s_re += s.real
            far_bound += bound

    # Tails over m > n_head from the same paired expansions:
    #   D ~ 2/w + 4/w^3 + 48/w^5 + 1440/w^7
    #   S ~ -2/w^2 - 12/w^4 - 240/w^6 - 10080/w^8
    # with sum_{m>M} w_m^{-s} = zeta(s, M+1-i/eta)/theta^s and the s=1
    # imaginary part via the digamma function.  All nine zeta values
    # come from one Hurwitz pass (one shift, one Euler-Maclaurin tail).
    zc = complex(n_head + 1, -1.0 / eta)
    psi = _digamma(zc)
    z2, z3, z4, z5, z6, z7, z8, z9, z10 = _hurwitz_range(2, 10, zc)
    imtail = (
        -2.0 * psi.imag / theta
        + 4.0 * z3.imag / theta**3
        + 48.0 * z5.imag / theta**5
        + 1440.0 * z7.imag / theta**7
    )
    retail = (
        -2.0 * z2.real / theta**2
        - 12.0 * z4.real / theta**4
        - 240.0 * z6.real / theta**6
        - 10080.0 * z8.real / theta**8
    )
    # First omitted orders bound the truncation (the expansion parameter
    # is 1/(m theta)^2 <= 1/240^2, so the remainders are dominated by
    # their leading terms; 1.5 covers the geometric excess); the far
    # head's error enters K0 and K1/x0 alike.
    tb_diff = 2.0 * math.factorial(8) * abs(z9) / theta**9
    tb_sum = 2.0 * math.factorial(9) * abs(z10) / theta**10
    tail_bound = (
        1.5 * (abs(x0 * x0 - 2.0) * tb_diff + 2.0 * x0 * tb_sum)
        + (abs(x0 * x0 - 2.0) + 2.0 * x0) * far_bound
    )

    # Pole term of J0-: i pi e^{i x0} / (e^theta - 1), Bose factor in
    # decaying-exponential form.
    bose = math.exp(-theta) / (1.0 - math.exp(-theta))
    pole_re = -math.pi * math.sin(x0) * bose
    pole_im = math.pi * math.cos(x0) * bose

    # K0 = Im(J0+ - J0-) and K1 = -x0 Re(J0+ + J0-): the tails' halves
    # in J0+ and J0- add up, the pole term is J0-'s alone.  Passed by
    # position, the record's fast path: k0_val, k1_val, p_val,
    # terms_used, tail_bound.
    return ThermalSeriesTerms(
        d_im + imtail - pole_im,
        -x0 * (s_re + retail + pole_re),
        bose_sum_p(eta),
        n_head,
        tail_bound,
    )


def _w_bracket(terms: ThermalSeriesTerms, x0: float) -> float:
    return (
        (x0 * x0 - 2.0) * terms.k0_val
        + 2.0 * terms.k1_val
        - 2.0 * x0 * terms.p_val
    )


def _coth_terms(eta: float, x0: float) -> Iterator[tuple[float, float]]:
    """I_j / x0^(2j), j = 0, 1, ..., from the Taylor coefficients of coth,
    each with the sum of the magnitudes it is built from.

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
        pieces = f2 * abs(a) + f1 * abs(b) + 2.0 * abs(c)
        yield (scale * bracket if n % 4 == 0 else -scale * bracket), scale * pieces
        scale *= f2 * inv_x2


def _laurent_terms(eta: float, theta: float) -> Iterator[tuple[float, float]]:
    """I_j / x0^(2j), j = 0, 1, ..., from the Laurent series of P (eta > 4),
    each with the sum of the magnitudes it is built from.

    P(a) = sum_k (-1)^(k+1) zeta(2k) a^(2k-1) / eta^(2k) (DLMF 4.36) has
    no pole to subtract, and the bracket of I_j sums exactly to

        I_j = sum_i (-1)^i zeta(2(j+i+2)) (2(j+i)+3)! / ((2i+3) (2i)!)
              / eta^(2(j+i+2)).

    The terms stop where that alternating sum would no longer decrease
    from its first term (it would cancel).
    """
    eta2 = eta * eta
    inv_t2 = 1.0 / (theta * theta)
    lead = 6.0 / (eta2 * eta2)  # (2j+3)! / (eta^4 theta^(2j))
    for j in count():
        if 3 * (2 * j + 4) * (2 * j + 5) > 5.0 * eta2:
            return
        u = 1.0 / 3.0
        acc = pieces = 0.0
        for i in count():
            term = u * _zeta_even_unchecked(j + i + 2)
            acc += term
            pieces += abs(term)
            if abs(term) <= 1e-17 * acc:
                break
            k = 2 * (j + i)
            u *= -(k + 4) * (k + 5) * (2 * i + 3) / (
                (2 * i + 1) * (2 * i + 2) * (2 * i + 5) * eta2
            )
        yield lead * acc, lead * pieces
        lead *= (2 * j + 4) * (2 * j + 5) * inv_t2


def _w_expansion(eta: float, x0: float) -> float | None:
    """W from its expansion about the static polarizability, or None
    where the error estimate exceeds _EXP_RTOL |W|.

    Expanding alpha(k) = alpha0 / (1 - (k/k0)^2) in (k/k0)^2 gives

        W = (2/x0) sum_j I_j / x0^(2j),
        I_j = (-1)^j [-P^(2j+2) + 2 P^(2j+1) - 2 P^(2j)](a = 1),
        P(a) = (pi / 2 eta) coth(pi a / eta) - 1/(2a),

    with P(1) = bose_sum_p(eta); j = 0 is the static-alpha term, the
    terms fall like (2j+1)(2j+2) / (x0^2 + theta^2).  The derivatives come
    from coth's Taylor coefficients for eta <= 4 and from P's Laurent
    series above.  The sum stops at the first term below 1e-17 of it or
    past its smallest term; it returns None where the terms run out first
    (the Laurent route ends where its sums would cancel, see
    _laurent_terms, and both routes at _EXP_TERM_CAP terms), and leaves
    early at j = 0 and j = 1 where the pole bound and the rounding of I_0
    already fail.  The estimate is that term, plus eps times the
    magnitudes behind I_0 (they cancel near a zero of the static term) and
    the later terms, plus pi b (x0^2 + 2 x0 + 2), b = e^-theta /
    (1 - e^-theta), a bound on the resonant pole of alpha that the
    expansion misses.
    """
    theta = _check_pair(eta, x0)
    e_th = math.exp(-theta)
    pole = math.pi * e_th / (1.0 - e_th) * (x0 * x0 + 2.0 * x0 + 2.0)
    # P's poles nearest a = 1 sit at 1 +- i eta, hence the envelope step
    # (2j+1)(2j+2) / rho2 with rho2 = x0^2 |1 + i eta|^2
    rho2 = x0 * x0 + theta * theta
    terms = _coth_terms(eta, x0) if eta <= _EXP_ETA_MAX else _laurent_terms(eta, theta)
    total = prev = spread = 0.0
    for j, (term, pieces) in zip(range(_EXP_TERM_CAP), terms):
        # the poles' phases can make one term small by accident, so its
        # size is the larger of it and the previous size's envelope step
        size = max(abs(term), prev * (2 * j + 1) * (2 * j + 2) / rho2)
        if j == 0:
            # the pole bound alone already fails: leave before the series
            if pole >= _EXP_RTOL * 2.0 * size / x0:
                return None
        elif size <= 1e-17 * abs(total) or (j > 1 and size >= prev):
            # first omitted term, or past the smallest one; j = 0 may sit
            # near a zero of the static term, so j = 1 never ends the sum
            break
        elif j == 1 and 0.5 * x0 * pole + _EPS * (spread + abs(term)) > _EXP_RTOL * (
            abs(total) + 2.0 * abs(term)
        ):
            # the pole bound and the rounding of the j = 0 pieces fail
            # against |W| read generously as |I_0| + 2 |I_1|: leave before
            # the later terms
            return None
        total += term
        spread += pieces if j == 0 else abs(term)
        prev = size
    else:
        return None
    w = 2.0 * total / x0
    err = 2.0 * (min(size, prev) + _EPS * spread) / x0 + pole
    if err > _EXP_RTOL * abs(w):
        return None
    return w


def _w_e1t(eta: float, x0: float) -> float:
    """W from the E1t series, or ValidityError where the W bracket's
    rounding loss, _BRACKET_LOSS eps x0^2 |K0|, exceeds _BRACKET_RTOL of
    max(|W|, 2 pi / theta)."""
    terms = thermal_series_terms(eta, x0)
    w = _w_bracket(terms, x0)
    # measured against |W| or, where W passes through zero, against
    # the Lifshitz magnitude 2 pi / theta (k_B T alpha0 / 4 z^3 in W
    # units), so that a sign change of V_T is not refused
    loss = _BRACKET_LOSS * _EPS * x0 * x0 * abs(terms.k0_val)
    scale = max(abs(w), 2.0 * math.pi / (eta * x0))
    if loss > _BRACKET_RTOL * scale:
        raise ValidityError(
            f"thermal series rounding loss {loss:.1e} exceeds "
            f"{_BRACKET_RTOL:g} of max(|W|, 2 pi/theta) = {scale:.1e} at "
            f"x0 = {x0:.6g}, theta = {eta * x0:.6g}"
        )
    return w


def _check_env(atom: AtomParams, env: ThermalEnvironment) -> None:
    derived = atom.k0 * env.lambda_T
    if abs(derived - env.theta) > 1e-8 * derived:
        raise DomainError(
            f"environment theta {env.theta} inconsistent with k0*lambda_T "
            f"= {derived}; was it built for a different atom?"
        )


def thermal_potential_exact(
    atom: AtomParams,
    env: ThermalEnvironment,
    z: float,
    constants: PhysicalConstants | None = None,
) -> float:
    """Ground-truth thermal correction V_T(z) in eV.

    W comes from the static-alpha expansion where its error estimate is
    at most 1e-13 |W|, and from the E1t series elsewhere; the latter
    raises ValidityError where its bracket loses more than 1e-8 of
    max(|W|, 2 pi / theta).
    """
    z3 = _z_power(z, 3)
    _check_env(atom, env)
    cst = constants if constants is not None else _DEFAULT_CONSTANTS
    eta = env.lambda_T / (2.0 * z)
    x0 = 2.0 * atom.k0 * z
    w = _w_expansion(eta, x0)
    if w is None:
        w = _w_e1t(eta, x0)
    pref = cst.hbar_c_ev_um * atom.alpha0 * atom.k0 / (8.0 * math.pi * z3)
    return pref * w


def thermal_short_leading(
    atom: AtomParams,
    env: ThermalEnvironment,
    z: float,
    constants: PhysicalConstants | None = None,
) -> float:
    """Leading short-distance law C(T) - (2 pi)^5/315 hbar c alpha0 z^2
    / lambda_T^6 with C(T) = (2 pi^3/45) hbar c alpha0 / lambda_T^4.

    Valid (to ~5%) for z <= 0.05 lambda_T; defined for all z >= 0.
    """
    if not (math.isfinite(z) and z >= 0.0):
        raise DomainError(f"z must be >= 0 and finite, got {z}")
    _check_env(atom, env)
    cst = constants if constants is not None else _DEFAULT_CONSTANTS
    lam = env.lambda_T
    scale = cst.hbar_c_ev_um * atom.alpha0
    return scale * (C_SHORT / lam**4 - CURV_SHORT * z * z / lam**6)


def _ht_inner_sum(m: int, theta: float, n_cap: int) -> float:
    """sum_{j=m}^{<=n_cap} (2j-1)! zeta(2j) / theta^{2j}, truncated at the
    smallest term of the asymptotic sequence."""
    log_t = math.lgamma(2 * m) - 2 * m * math.log(theta)
    if log_t < -700.0:
        return 0.0
    t = math.exp(log_t) * zeta_even(m)
    acc = 0.0
    prev = math.inf
    for j in range(m, n_cap + 1):
        if t > prev:
            break
        acc += t
        if t <= 1e-18 * acc:
            break
        prev = t
        t *= (2 * j) * (2 * j + 1) / (theta * theta)
        t *= zeta_even(j + 1) / zeta_even(j)
    return acc


def thermal_short_expansion(
    atom: AtomParams,
    env: ThermalEnvironment,
    z: float,
    constants: PhysicalConstants | None = None,
) -> float:
    """Short-distance H_T form: V_T = (hbar c / 2 pi)(alpha0 k0^2 / z^2)
    [Q(eta) + double zeta sum], inner sums truncated adaptively and
    capped at N = ceil(theta).

    Requires z < 0.2 lambda_T (eta > 2.5) so Q and the sums converge;
    raises ValidityError outside that window.
    """
    _z_power(z, 2)
    _check_env(atom, env)
    if z >= 0.2 * env.lambda_T:
        raise ValidityError(
            f"short-distance expansion needs z < 0.2 lambda_T, got "
            f"z/lambda_T = {z / env.lambda_T}"
        )
    cst = constants if constants is not None else _DEFAULT_CONSTANTS
    eta = env.lambda_T / (2.0 * z)
    x0 = 2.0 * atom.k0 * z
    theta = eta * x0
    n_cap = int(math.ceil(theta))

    # The sum runs on H_T / x0^2, with a_m b_m / x0^2 = x0^(2m-4)
    # (2 - x0^2 (1 - 1/m)) / (2m-1)!: its leading m = 2 term holds no
    # power of x0, so it cannot underflow however short z is.
    h_t = q_series(eta) / x0 / x0
    log_x0 = math.log(x0)
    small = 0
    for m in range(2, 601):
        inner = _ht_inner_sum(m, theta, n_cap)
        power = math.exp((2 * m - 4) * log_x0 - math.lgamma(2 * m))
        term = power * (2.0 - x0 * x0 * (1.0 - 1.0 / m)) * inner
        h_t += term if m % 2 == 0 else -term
        if abs(term) <= 1e-17 * (abs(h_t) + 1e-300):
            small += 1
            if small >= 2:
                break
        else:
            small = 0
    else:
        raise ConvergenceError(
            f"H_T outer sum did not converge at z/lambda_T = {z / env.lambda_T}"
        )
    # (hbar c / 2 pi) alpha0 k0^2 x0^2 / z^2, with x0 = 2 k0 z
    pref = 2.0 * cst.hbar_c_ev_um * atom.alpha0 * atom.k0**4 / math.pi
    return pref * h_t


def _sum_while_falling(terms: Iterable[float]) -> float:
    """Sum terms in order, stopping before the first that grows in size
    and after the first below 1e-18 of the running sum."""
    total = 0.0
    prev = math.inf
    for term in terms:
        if abs(term) > prev:
            break
        total += term
        if abs(term) <= 1e-18 * (abs(total) + 1e-300):
            break
        prev = abs(term)
    return total


def thermal_long_expansion(
    atom: AtomParams,
    env: ThermalEnvironment,
    z: float,
    constants: PhysicalConstants | None = None,
) -> float:
    """Long-distance L_T form: V_T = (hbar c / 2 pi)(alpha0 k0 / z^3) L_T
    with polygamma sums of argument -i/eta, adaptively truncated and
    capped at N = ceil(theta).

    The polygamma convention here is F^(m)(x) = psi^(m)(x + 1).
    Requires z >= 0.5 lambda_T (eta <= 1); raises ValidityError below.
    """
    z3 = _z_power(z, 3)
    _check_env(atom, env)
    if z < 0.5 * env.lambda_T:
        raise ValidityError(
            f"long-distance expansion needs z >= 0.5 lambda_T, got "
            f"z/lambda_T = {z / env.lambda_T}"
        )
    cst = constants if constants is not None else _DEFAULT_CONSTANTS
    eta = env.lambda_T / (2.0 * z)
    x0 = 2.0 * atom.k0 * z
    theta = eta * x0
    n_cap = int(math.ceil(theta))
    zarg = complex(1.0, -1.0 / eta)
    log_theta = math.log(theta)

    js = range(1, n_cap + 1)
    sum_im = _sum_while_falling(
        _polygamma_scaled(2 * j, zarg, (2 * j + 1) * log_theta).imag for j in js
    )
    sum_re = _sum_while_falling(
        _polygamma_scaled(2 * j - 1, zarg, 2 * j * log_theta).real for j in js
    )

    l_t = (
        -bose_sum_p(eta) / x0
        + (1.0 - 0.5 * x0 * x0) * sum_im
        + x0 * sum_re
    )
    pref = cst.hbar_c_ev_um * atom.alpha0 * atom.k0 / (2.0 * math.pi * z3)
    return pref * l_t


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
    vac = vacuum_potential(atom, z, constants)
    x0 = 2.0 * atom.k0 * z
    tag = classify_regime(x0).value
    if env is None:
        return PotentialBreakdown(
            vacuum=vac,
            thermal=0.0,
            total=vac + 0.0,
            notes=f"x0 = {x0:.6g} ({tag}); zero-temperature field, thermal term absent",
        )
    th = thermal_potential_exact(atom, env, z, constants)
    zr = z / env.lambda_T
    notes = (
        f"x0 = {x0:.6g} ({tag}); z/lambda_T = {zr:.6g}; "
        f"thermal part {'repulsive' if th > 0 else 'attractive'}; "
        f"auto mode: {recommended_approximation(zr)}"
    )
    # by position (vacuum, thermal, total, notes), the record's fast path
    return PotentialBreakdown(vac, th, vac + th, notes)
