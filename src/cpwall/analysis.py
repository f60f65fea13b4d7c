"""Derived features of the atom-wall potential landscape.

The thermal part of the potential is repulsive at short range and
attractive at long range, so it has a stable minimum (near 0.52
lambda_T); the total potential stays attractive because the vacuum
part dominates everywhere the thermal well lives.  The operations here
locate that equilibrium, find where the thermal term overtakes the
vacuum term, fit harmonic windows around the thermal well, and
tabulate the validity of every asymptotic regime against exact values.

Root-finding uses Brent's bracketed bisection-secant hybrid on a
5-point central finite difference of the exact series (step 1e-4
lambda_T); no analytic derivative exists in the main path, which keeps
the derivative route independent of the series internals.  Both
searches stop at ROOT_XTOL_LAMBDA_T = 1e-12 lambda_T, so every digit
that ``analyze`` prints of z* and of the crossover is computed.  ``_brent``
takes the steps of the widely used C routine ``brentq`` one for one;
the tests hold its roots and iteration counts to that routine's, bit
for bit.  The brackets are fixed, in lambda_T units, and every value
comes from ``thermal_potential_exact`` as this module binds it.

The harmonic fit is an unweighted least-squares parabola through
FIT_POINTS equally spaced samples of a window, solved in the basis 1,
t, t^2 - mean(t^2) of the centred abscissae t = u - mean(u).  That
basis is orthogonal on equally spaced points, so each coefficient is
one projection, summed with ``math.fsum``; the module needs no numpy.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Sequence

from .constants import PhysicalConstants
from .errors import ConvergenceError, DomainError, ValidityError
from .record import Record
from .thermal import (
    ThermalEnvironment,
    lifshitz_asymptote,
    thermal_long_expansion,
    thermal_potential_exact,
    thermal_short_leading,
    total_potential,
)
from .vacuum import (
    AtomParams,
    nonretarded_asymptote,
    retarded_asymptote,
    vacuum_potential,
)

__all__ = [
    "EquilibriumResult",
    "QuadraticFit",
    "RegimeErrorRow",
    "dominance_crossover",
    "find_thermal_equilibrium",
    "quadratic_fit",
    "regime_error_table",
]

_DEFAULT_CONSTANTS = PhysicalConstants()

EQUILIBRIUM_BRACKET = (0.3, 0.7)
CROSSOVER_BRACKET = (0.5, 2.0)
FD_STEP_LAMBDA_T = 1e-4
ROOT_XTOL_LAMBDA_T = 1e-12
FIT_POINTS = 25

_BRENT_RTOL = 4.0 * sys.float_info.epsilon
_BRENT_MAXITER = 100


class EquilibriumResult(Record):
    """Stable minimum of the thermal potential, in lambda_T units."""

    __slots__ = ("z_star_over_lambdaT", "iterations")

    def _check(self) -> None:
        lo, hi = EQUILIBRIUM_BRACKET
        if not lo <= self.z_star_over_lambdaT <= hi:
            raise DomainError(
                f"z* = {self.z_star_over_lambdaT} outside bracket {EQUILIBRIUM_BRACKET}"
            )


class QuadraticFit(Record):
    """Least-squares parabola a + b*u + c*u^2 in u = z/lambda_T."""

    __slots__ = ("coefficients", "rms_residual_relative")

    def _check(self) -> None:
        if not self.rms_residual_relative < 0.02:
            raise ValidityError(
                "fit residual exceeds 2% of the window value range: "
                f"{100.0 * self.rms_residual_relative:.3f}%"
            )


class RegimeErrorRow(Record):
    """Relative errors of each approximation at one grid point; NaN
    where an expansion refuses to evaluate outside its window."""

    __slots__ = (
        "x0",
        "z_over_lambdaT",
        "err_non_retarded",
        "err_retarded",
        "err_short_leading",
        "err_long_expansion",
        "err_lifshitz",
    )


def _fd_derivative(fn: Callable[[float], float], z: float, h: float) -> float:
    vm2 = fn(z - 2.0 * h)
    vm1 = fn(z - h)
    vp1 = fn(z + h)
    vp2 = fn(z + 2.0 * h)
    return (vm2 - 8.0 * vm1 + 8.0 * vp1 - vp2) / (12.0 * h)


def _fd_second_derivative(fn: Callable[[float], float], z: float, h: float) -> float:
    vm2 = fn(z - 2.0 * h)
    vm1 = fn(z - h)
    v0 = fn(z)
    vp1 = fn(z + h)
    vp2 = fn(z + 2.0 * h)
    return (-vm2 + 16.0 * vm1 - 30.0 * v0 + 16.0 * vp1 - vp2) / (12.0 * h * h)


def _brent(
    f: Callable[[float], float], a: float, b: float, xtol: float
) -> tuple[float, int]:
    """Root of f on [a, b] and its iteration count, by Brent's method
    (R. P. Brent, Algorithms for Minimization without Derivatives,
    1973) with the steps of the C routine brentq: relative tolerance 4 eps,
    at most 100 iterations, the same interpolate, extrapolate and
    bisect rules.  Raises ConvergenceError where f has the same sign at
    both ends, returns NaN, or has not converged by the last
    iteration."""
    xpre, xcur = a, b
    fpre, fcur = f(xpre), f(xcur)
    if math.isnan(fpre) or math.isnan(fcur):
        raise ConvergenceError(f"f is NaN at an end of [{a}, {b}]")
    if fpre == 0.0:
        return xpre, 0
    if fcur == 0.0:
        return xcur, 0
    if (fpre < 0.0) == (fcur < 0.0):
        raise ConvergenceError(
            f"no sign change on [{a}, {b}]: {fpre:+.3e} vs {fcur:+.3e}"
        )
    xblk = fblk = spre = scur = 0.0
    for iterations in range(1, _BRENT_MAXITER + 1):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = 0.5 * (xtol + _BRENT_RTOL * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, iterations
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate (inverse quadratic)
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
        if math.isnan(fcur):
            raise ConvergenceError(f"f is NaN at {xcur}")
    raise ConvergenceError(f"no convergence in {_BRENT_MAXITER} iterations on [{a}, {b}]")


def find_thermal_equilibrium(
    atom: AtomParams,
    env: ThermalEnvironment,
    constants: PhysicalConstants | None = None,
) -> EquilibriumResult:
    """Locate the stable minimum of the thermal potential in
    EQUILIBRIUM_BRACKET.  A root of the derivative without positive
    curvature (a maximum) raises DomainError.
    """
    cst = constants if constants is not None else _DEFAULT_CONSTANTS
    lam = env.lambda_T
    h = FD_STEP_LAMBDA_T * lam

    def value(z: float) -> float:
        return thermal_potential_exact(atom, env, z, cst)

    def deriv(zr: float) -> float:
        return _fd_derivative(value, zr * lam, h)

    try:
        z_star, iterations = _brent(deriv, *EQUILIBRIUM_BRACKET, ROOT_XTOL_LAMBDA_T)
    except ConvergenceError as exc:
        raise ConvergenceError(f"dV_T/dz, z in lambda_T: {exc}") from None

    if not _fd_second_derivative(value, z_star * lam, h) > 0.0:
        raise DomainError("equilibrium must be stable (positive curvature)")
    return EquilibriumResult(float(z_star), int(iterations))


def dominance_crossover(
    atom: AtomParams,
    env: ThermalEnvironment,
    constants: PhysicalConstants | None = None,
) -> float:
    """Distance (um) where |V_T| = |V0|, by the log-ratio root in
    CROSSOVER_BRACKET."""
    cst = constants if constants is not None else _DEFAULT_CONSTANTS
    lam = env.lambda_T

    def log_ratio(zr: float) -> float:
        z = zr * lam
        vt = thermal_potential_exact(atom, env, z, cst)
        v0 = vacuum_potential(atom, z, cst)
        if vt == 0.0:
            return -math.inf
        return math.log(abs(vt) / abs(v0))

    try:
        zr_cross, _ = _brent(log_ratio, *CROSSOVER_BRACKET, ROOT_XTOL_LAMBDA_T)
    except ConvergenceError as exc:
        raise ConvergenceError(f"log |V_T|/|V0|, z in lambda_T: {exc}") from None
    return float(zr_cross) * lam


def quadratic_fit(
    atom: AtomParams,
    env: ThermalEnvironment,
    window: tuple[float, float],
    constants: PhysicalConstants | None = None,
) -> QuadraticFit:
    """Unweighted least-squares parabola to V_T on a window (lambda_T
    units), the harmonic description of the thermal well.  A window
    outside 0 < lo < hi < 1.5, or narrower than 1e-3, raises DomainError;
    a fit whose samples are constant, or whose rms residual is 2% of
    their range or more, raises ValidityError."""
    cst = constants if constants is not None else _DEFAULT_CONSTANTS
    z_lo, z_hi = window
    if not 0.0 < z_lo < z_hi < 1.5:
        raise DomainError(
            f"fit window must satisfy 0 < lo < hi < 1.5 lambda_T, got {window}"
        )
    if z_hi - z_lo < 1e-3:
        raise DomainError(f"fit window must be at least 1e-3 lambda_T wide, got {window}")

    lam = env.lambda_T
    # bit for bit numpy's linspace, as cli._figure_grid builds its grids
    step = (z_hi - z_lo) / (FIT_POINTS - 1)
    u = [*(z_lo + i * step for i in range(FIT_POINTS - 1)), z_hi]
    v = [thermal_potential_exact(atom, env, zr * lam, cst) for zr in u]
    value_range = max(v) - min(v)
    if value_range <= 0.0:
        raise ValidityError(f"degenerate (constant) samples on window {window}")
    # one projection per coefficient on the orthogonal basis 1, t, q
    n = float(FIT_POINTS)
    u_mean = math.fsum(u) / n
    t = [x - u_mean for x in u]
    t_norm2 = math.fsum([x * x for x in t])
    t2_mean = t_norm2 / n
    q = [x * x - t2_mean for x in t]
    alpha = math.fsum(v) / n
    beta = math.fsum([y * x for y, x in zip(v, t)]) / t_norm2
    gamma = math.fsum([y * w for y, w in zip(v, q)]) / math.fsum([w * w for w in q])
    resid = [y - (alpha + beta * x + gamma * w) for y, x, w in zip(v, t, q)]
    rms_rel = math.sqrt(math.fsum([r * r for r in resid]) / n) / value_range
    # back to powers of u: gamma (u - m)^2 + beta (u - m) + alpha - gamma <t^2>
    c2 = gamma
    c1 = beta - 2.0 * gamma * u_mean
    c0 = alpha - gamma * t2_mean - beta * u_mean + gamma * u_mean * u_mean
    return QuadraticFit((c0, c1, c2), rms_rel)


def _relative_error(approx: float, exact: float) -> float:
    if exact == 0.0:
        return math.nan
    return abs(approx - exact) / abs(exact)


def regime_error_table(
    atom: AtomParams,
    env: ThermalEnvironment,
    grid: Sequence[float],
    constants: PhysicalConstants | None = None,
) -> list[RegimeErrorRow]:
    """Relative error of every approximation at each z (um, ascending):
    non-retarded and retarded against the exact vacuum potential,
    short-leading and long-expansion against the exact thermal
    potential, Lifshitz against the exact total."""
    cst = constants if constants is not None else _DEFAULT_CONSTANTS
    zs = [float(z) for z in grid]
    if any(b <= a for a, b in zip(zs, zs[1:])):
        raise DomainError("grid must be sorted strictly ascending")
    if any(not (math.isfinite(z) and z > 0.0) for z in zs):
        raise DomainError("grid points must be positive and finite")

    rows: list[RegimeErrorRow] = []
    for z in zs:
        bd = total_potential(atom, z, env, cst)
        v0, vt, vtot = bd.vacuum, bd.thermal, bd.total
        err_nr = _relative_error(nonretarded_asymptote(atom, z, cst), v0)
        err_ret = _relative_error(retarded_asymptote(atom, z, cst), v0)
        err_short = _relative_error(thermal_short_leading(atom, env, z, cst), vt)
        try:
            err_long = _relative_error(thermal_long_expansion(atom, env, z, cst), vt)
        except ValidityError:
            err_long = math.nan
        err_lif = _relative_error(lifshitz_asymptote(atom, env, z, cst), vtot)
        rows.append(
            RegimeErrorRow(
                x0=2.0 * atom.k0 * z,
                z_over_lambdaT=z / env.lambda_T,
                err_non_retarded=err_nr,
                err_retarded=err_ret,
                err_short_leading=err_short,
                err_long_expansion=err_long,
                err_lifshitz=err_lif,
            )
        )
    return rows
