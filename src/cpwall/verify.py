"""The acceptance-criteria harness behind ``cpwall verify``.

Fourteen criteria, one row each of the table ``CRITERIA``: the closed
forms against the quadrature oracles, the limiting forms against the
exact potential, the equilibrium point, identities that the routes and
oracles rest on, and the H_T discrepancy report.  A row is ``(name,
tolerance, note, check)``; its criterion number is its position, and
``check(quick, constants)`` returns ``(passed, measured)``.
``run_verification`` turns the rows into ``CriterionResult``s.
``quick`` shrinks the grids of the criteria where the verdict does not
depend on the resolution.

Importing this module loads numpy, itself and through ``oracle``, so
the command line imports it only when ``verify`` runs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .analysis import find_thermal_equilibrium
from .constants import PhysicalConstants, load_constants
from .oracle import (
    _bose_grid,
    _u3g,
    _vacuum_grid,
    bose_integral,
    bose_integral_quadrature,
    thermal_quadrature,
)
from .record import Record
from .specfun import _zeta_even_unchecked, scaled_e1
from .thermal import (
    C_SHORT,
    CURV_SHORT,
    _reference_pair,
    lifshitz_asymptote,
    thermal_potential_exact,
    thermal_short_expansion,
    total_potential,
)
from .vacuum import (
    AtomParams,
    h0,
    nonretarded_asymptote,
    retarded_asymptote,
    vacuum_potential,
)

__all__ = ["CRITERIA", "CriterionResult", "run_verification"]


class CriterionResult(Record):
    """One criterion's verdict, with what was measured against what
    tolerance."""

    __slots__ = ("number", "name", "passed", "measured", "tolerance", "note")
    _defaults = {"note": ""}


def _verify_setup(cst: PhysicalConstants):
    lam = cst.thermal_wavelength_um(300.0)
    atom, env = _reference_pair(100.0, cst, alpha0_um3=3.0e-9)
    return atom, env, lam


def _crit_vacuum_oracle(quick: bool, cst: PhysicalConstants) -> tuple[bool, str]:
    n = 10 if quick else 50
    atom = AtomParams(k0=1.0, alpha0=1.0)
    zs = (np.geomspace(0.05, 100.0, n) / 2.0).tolist()
    refs = [vacuum_potential(atom, z, cst) for z in zs]
    reps = _vacuum_grid(atom, zs, cst)
    worst = max(abs(r.value - v) / abs(v) for r, v in zip(reps, refs))
    return worst < 1e-8, f"worst rel {worst:.3e} on {n} points x0 in [0.05, 100]"


def _crit_thermal_oracle(quick: bool, cst: PhysicalConstants) -> tuple[bool, str]:
    thetas = (100.0,) if quick else (30.0, 100.0, 300.0)
    n = 8 if quick else 40
    worst = 0.0
    for theta in thetas:
        atom, env = _reference_pair(theta, cst, alpha0_um3=3.0e-9)
        zs = (np.geomspace(0.01, 2.0, n) * env.lambda_T).tolist()
        for z, rep in zip(zs, _bose_grid(atom, env, zs, cst)):
            ref = thermal_potential_exact(atom, env, z, cst)
            worst = max(worst, abs(rep.value - ref) / abs(ref))
    return worst < 1e-6, f"worst rel {worst:.3e} on {n} points x theta in {thetas}"


def _crit_nonretarded(quick: bool, cst: PhysicalConstants) -> tuple[bool, str]:
    atom = AtomParams(k0=1.0, alpha0=1.0)
    worst = 0.0
    for x0 in np.geomspace(0.01, 0.0999, 12 if quick else 25):
        z = float(x0) / 2.0
        exact = vacuum_potential(atom, z, cst)
        approx = nonretarded_asymptote(atom, z, cst)
        worst = max(worst, abs(approx - exact) / abs(exact))
    return worst < 0.02, f"worst rel {worst:.4%} (at the x0 -> 0.1 edge)"


def _crit_retarded(quick: bool, cst: PhysicalConstants) -> tuple[bool, str]:
    atom = AtomParams(k0=1.0, alpha0=1.0)
    lam0 = atom.lambda0
    worst = 0.0
    for z in np.geomspace(1.3 * lam0, 20.0 * lam0, 12 if quick else 25):
        exact = vacuum_potential(atom, float(z), cst)
        approx = retarded_asymptote(atom, float(z), cst)
        worst = max(worst, abs(approx - exact) / abs(exact))
    return worst <= 0.01, f"worst rel {worst:.4%} (at the z = 1.3 lambda0 edge)"


def _crit_lifshitz(quick: bool, cst: PhysicalConstants) -> tuple[bool, str]:
    atom, env, lam = _verify_setup(cst)
    worst = 0.0
    for zr in np.linspace(1.0, 5.0, 9 if quick else 17):
        z = float(zr) * lam
        tot = total_potential(atom, z, env, cst).total
        lif = lifshitz_asymptote(atom, env, z, cst)
        worst = max(worst, abs(lif - tot) / abs(tot))
    return worst < 0.01, f"worst rel {worst:.3e} on z/lambda_T in [1, 5]"


def _round_sig(value: float, sig: int) -> float:
    if value == 0.0:
        return 0.0
    exp = math.floor(math.log10(abs(value)))
    return round(value, sig - 1 - exp)


def _crit_thermal_constant(quick: bool, cst: PhysicalConstants) -> tuple[bool, str]:
    atom, env, lam = _verify_setup(cst)
    scale = cst.hbar_c_ev_um * atom.alpha0 / lam**4
    z = 1e-3 * lam
    c_series = thermal_potential_exact(atom, env, z, cst) / scale
    c_oracle = thermal_quadrature(atom, env, z, cst).value / scale
    mutual = abs(c_series - c_oracle) / abs(c_series)
    strict = C_SHORT  # 2 pi^3 / 45 = 1.3781...
    two_sig = _round_sig(c_series, 2) == _round_sig(strict, 2)
    passed = mutual < 1e-3 and two_sig
    return passed, (
        f"series {c_series:.6f}, oracle {c_oracle:.6f}, strict limit "
        f"{strict:.6f}, mutual rel {mutual:.2e}"
    )


def _crit_short_law(quick: bool, cst: PhysicalConstants) -> tuple[bool, str]:
    atom, env, lam = _verify_setup(cst)
    # operational constant: series at z = 1e-4 lambda_T (z^2 bias 4e-4%)
    c_op = thermal_potential_exact(atom, env, 1e-4 * lam, cst)
    curvature = CURV_SHORT * cst.hbar_c_ev_um * atom.alpha0 / lam**6
    worst = 0.0
    for zr in (0.005, 0.01, 0.02, 0.035, 0.05):
        z = zr * lam
        measured = thermal_potential_exact(atom, env, z, cst) - c_op
        predicted = -curvature * z * z
        worst = max(worst, abs(measured - predicted) / abs(predicted))
    # independent coefficient derivation: x^2 Taylor coefficient of the
    # kernel from exact rational arithmetic, times the n = 5 Bose moment
    c2 = (
        -Fraction(1, math.factorial(3))
        + 2 * Fraction(1, math.factorial(4))
        - 2 * Fraction(1, math.factorial(5))
    )
    assert c2 == Fraction(-1, 10)
    coeff = (8.0 / math.pi) * float(-c2) * bose_integral(5)
    coeff_rel = abs(coeff - CURV_SHORT) / CURV_SHORT
    # and the same -x^2/10 in _u3g, the kernel the thermal oracle integrates
    kernel_tie = abs(float(_u3g(np.array([1e-3]))[0]) / 1e-9 - (1.0 / 3.0 - 1e-6 / 10.0))
    passed = worst < 0.05 and coeff_rel < 1e-13 and kernel_tie < 1e-14
    return passed, (
        f"worst rel {worst:.4%} for z <= 0.05 lambda_T; coefficient "
        f"re-derivation rel {coeff_rel:.1e}"
    )


def _crit_equilibrium(quick: bool, cst: PhysicalConstants) -> tuple[bool, str]:
    atom, env, _ = _verify_setup(cst)
    eq = find_thermal_equilibrium(atom, env, cst)
    ok = abs(eq.z_star_over_lambdaT - 0.52) < 0.02
    return ok, f"z*/lambda_T = {eq.z_star_over_lambdaT:.6f}, curvature positive"


def _crit_attractive(quick: bool, cst: PhysicalConstants) -> tuple[bool, str]:
    atom, env, lam = _verify_setup(cst)
    n = 50 if quick else 200
    bad = 0
    for zr in np.geomspace(1e-3, 10.0, n):
        z = float(zr) * lam
        h = 1e-4 * z
        vp = total_potential(atom, z + h, env, cst).total
        vm = total_potential(atom, z - h, env, cst).total
        if (vp - vm) / (2.0 * h) <= 0.0:
            bad += 1
    return bad == 0, f"{bad} non-positive slopes on {n} points z/lambda_T in [1e-3, 10]"


def _crit_thermal_smallness(quick: bool, cst: PhysicalConstants) -> tuple[bool, str]:
    atom, env, lam = _verify_setup(cst)
    z = 0.1 * lam
    ratio = abs(thermal_potential_exact(atom, env, z, cst)) / abs(
        vacuum_potential(atom, z, cst)
    )
    return ratio < 1e-4, f"ratio {ratio:.3e}"


def _crit_lambda_anchor(quick: bool, cst: PhysicalConstants) -> tuple[bool, str]:
    lam = cst.thermal_wavelength_um(300.0)
    return 7.55 <= lam <= 7.70, f"lambda_T = {lam:.6f} um"


def _h0_e5(x0: float) -> float:
    """H0 on 2 <= x0 <= 100 from the bracket of F and G, g + i f =
    -E1t(i x0), raised to E5 by the recurrence E~_n = (1 - n E~_(n+1)) / w
    for E~_n = e^w E_n(w) (DLMF 8.19.12), so that its x0 orders cancel
    analytically,

        H0 = -6/x + 16/x^3 - 24 (x^2 - 2) Im E~5(ix) / x^4
             - 48 Re E~5(ix) / x^3,

    with E~5(ix) ~ 1/(ix) from scaled_e1's continued fraction: within
    4.2e-16 of mpmath, and independent of h0's Chebyshev table, which it
    checks."""
    e5 = scaled_e1(1j * x0, 5)
    inv_x = 1.0 / x0
    inv_x2 = inv_x * inv_x
    return -6.0 * inv_x + inv_x * inv_x2 * (
        16.0 - 24.0 * (x0 * x0 - 2.0) * inv_x * e5.imag - 48.0 * e5.real
    )


# h0's table against the E5 form: the inner piece boundaries (where h0
# takes the upper piece) and one point inside each piece
_H0_TABLE_CHECKS = (3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0, 82.0)


def _crit_identities(quick: bool, cst: PhysicalConstants) -> tuple[bool, str]:
    # zeta(2) and zeta(4) as the H_T coefficients read them; the n = 3
    # Bose moment on the oracle's panels and in closed form; h0 across
    # its switches, relative: the Ci/Si form just below 2 against the
    # table at 2, the table at 100 against the series just above; h0's
    # table against the E5 form inside (2, 100).  Each side is within
    # 5e-16 of 60-digit mpmath there and H0 moves by about 1e-16 of
    # itself in one ulp of x0, so 2e-15 is twice what they add to
    bose3 = math.pi**4 / 15.0
    h_2, h_100 = h0(2.0), h0(100.0)
    checks = [
        ("zeta(2)", abs(_zeta_even_unchecked(1) - math.pi**2 / 6.0), 1e-15),
        ("zeta(4)", abs(_zeta_even_unchecked(2) - math.pi**4 / 90.0), 1e-15),
        ("bose n=3 quadrature", abs(bose_integral_quadrature(3).value - bose3), 1e-10),
        ("bose n=3 closed", abs(bose_integral(3) - bose3), 1e-12),
        ("h0 switch 2", abs(h0(math.nextafter(2.0, 0.0)) - h_2) / abs(h_2), 2e-15),
        ("h0 switch 100", abs(h0(math.nextafter(100.0, 200.0)) - h_100) / abs(h_100), 2e-15),
    ]
    for x0 in _H0_TABLE_CHECKS:
        e5 = _h0_e5(x0)
        checks.append((f"h0 table {x0:g}", abs(h0(x0) - e5) / abs(e5), 2e-15))
    failed = [name for name, err, tol in checks if not err < tol]
    worst = max(err / tol for _, err, tol in checks)
    measured = f"{len(checks)} identities, worst error/tolerance {worst:.2e}"
    return not failed, measured + (f"; failed: {failed}" if failed else "")


def _crit_dispersion(quick: bool, cst: PhysicalConstants) -> tuple[bool, str]:
    atom, env, lam = _verify_setup(cst)
    # the grid is kept at full resolution even under --quick: the metric
    # degeneration near the V_T zero crossing sits between coarse-grid
    # points and the verdict must not depend on the mode
    zrs = np.geomspace(0.05, 2.0, 25).tolist()
    zs = [zr * lam for zr in zrs]
    static = _bose_grid(atom, env, zs, cst, static=True)
    rels = [
        abs(s.value - f.value) / abs(f.value)
        for f, s in zip(_bose_grid(atom, env, zs, cst), static)
    ]
    worst = max(rels)
    at = zrs[rels.index(worst)]
    return worst < 0.01, f"worst rel {worst:.4%} at z = {at:.3f} lambda_T"


def _crit_ht_report(quick: bool, cst: PhysicalConstants) -> tuple[bool, str]:
    # the H_T form against the thermal oracle at x0 = 2-10, one grid pass;
    # thermal_potential_exact takes the H_T form itself here
    atom, env, lam = _verify_setup(cst)
    zrs = (0.01, 0.02, 0.03, 0.04, 0.049)
    zs = [zr * lam for zr in zrs]
    rels = [
        abs(thermal_short_expansion(atom, env, z, cst) - rep.value) / abs(rep.value)
        for z, rep in zip(zs, _bose_grid(atom, env, zs, cst))
    ]
    return True, "; ".join(f"z/lambda_T={zr}: rel {rel:.2e}" for zr, rel in zip(zrs, rels))


_Check = Callable[[bool, PhysicalConstants], tuple[bool, str]]

# One row per criterion, numbered from 1 by its position:
# (name, tolerance, note, check), check(quick, constants) -> (passed, measured).
CRITERIA: Sequence[tuple[str, str, str, _Check]] = (
    ("vacuum closed form vs quadrature oracle", "< 1e-8", "", _crit_vacuum_oracle),
    ("thermal exact series vs quadrature oracle", "< 1e-6", "", _crit_thermal_oracle),
    (
        "non-retarded limit within 2% for x0 < 0.1",
        "< 2%",
        "the 1/z^3 asymptote is 3.26% off at x0 = 0.1; the 2% level "
        "is only reached for x0 < 0.062",
        _crit_nonretarded,
    ),
    (
        "retarded limit within 1% for z > 1.3 lambda0",
        "<= 1%",
        "the 1/z^4 asymptote is 2.35% off at z = 1.3 lambda0; the 1% "
        "level is only reached for z > 2.03 lambda0",
        _crit_retarded,
    ),
    ("Lifshitz limit within 1% for z >= lambda_T", "< 1%", "", _crit_lifshitz),
    (
        "thermal constant C(T) = 1.38 hbar c alpha0 / lambda_T^4",
        "mutual < 0.1%, 2 significant figures vs 1.3781",
        "the measured constant at theta = 100 sits 0.19% above the "
        "strict z -> 0 limit (finite-theta offset ~ 19/theta^2)",
        _crit_thermal_constant,
    ),
    (
        "short-distance law -(2 pi)^5/315 z^2/lambda_T^6",
        "< 5%; coefficient to machine precision",
        "",
        _crit_short_law,
    ),
    (
        "thermal equilibrium at 0.52 +- 0.02 lambda_T, stable",
        "0.52 +- 0.02, positive curvature",
        "",
        _crit_equilibrium,
    ),
    (
        "force attractive: d(total)/dz > 0 everywhere",
        "0 violations",
        "",
        _crit_attractive,
    ),
    (
        "thermal smallness |V_T|/|V0| < 1e-4 at 0.1 lambda_T",
        "< 1e-4",
        "|V_T| at 0.1 lambda_T is still dominated by the constant "
        "C(T) while |V0| falls as 1/z^4, so the ratio scales as "
        "11.6 (z/lambda_T)^4 ~ 1e-3 there, one order above the bound",
        _crit_thermal_smallness,
    ),
    ("lambda_T(300 K) in [7.55, 7.70] um", "[7.55, 7.70] um", "", _crit_lambda_anchor),
    (
        "special-function identity suite",
        "all identities within stated tolerances",
        "",
        _crit_identities,
    ),
    (
        "dispersion insensitivity: static alpha within 1%",
        "< 1%",
        "away from the V_T zero crossing (z ~ 0.307 lambda_T) the "
        "difference stays below 0.3%; at the crossing both results "
        "pass through zero at slightly different abscissae and the "
        "per-point relative metric degenerates",
        _crit_dispersion,
    ),
    (
        "H_T short-expansion discrepancy report",
        "report produced and flagged",
        "open question: the short-distance H_T expansion, with its "
        "inner sums resummed exactly, agrees with the thermal "
        "quadrature oracle here and with 50-digit mpmath at every "
        "theta >= 10 to 1e-11 or better; the suspected prefactor "
        "inconsistency of the printed form does not materialize, so "
        "the printed form is kept",
        _crit_ht_report,
    ),
)


def run_verification(
    quick: bool = False, constants: PhysicalConstants | None = None
) -> list[CriterionResult]:
    """Run every acceptance criterion; returns one result per criterion
    in order.  Shared by cmd_verify and the acceptance test suite."""
    cst = constants if constants is not None else load_constants()
    results = []
    for number, (name, tolerance, note, check) in enumerate(CRITERIA, 1):
        passed, measured = check(quick, cst)
        # a comparison against a numpy scalar gives numpy.bool_, which
        # json cannot write
        results.append(CriterionResult(number, name, bool(passed), measured, tolerance, note))
    return results
