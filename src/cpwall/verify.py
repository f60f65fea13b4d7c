"""The acceptance-criteria harness behind ``cpwall verify``.

Fourteen criteria, each a function ``(quick, constants) ->
CriterionResult`` listed in order in ``CRITERIA``: the closed forms
against the quadrature oracles, the limiting forms against the exact
potential, the equilibrium point, the special-function identities and
the H_T discrepancy report.  ``quick`` shrinks the grids of the
criteria where the verdict does not depend on the resolution.

Importing this module loads numpy and, through ``oracle`` and
``analysis``, scipy, so the command line imports it only when
``verify`` runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .analysis import find_thermal_equilibrium
from .cli import _reference_pair
from .constants import PhysicalConstants, load_constants
from .oracle import (
    bose_integral,
    bose_integral_quadrature,
    f_integral_oracle,
    thermal_quadrature,
    thermal_quadrature_static,
    vacuum_split_quadrature,
)
from .specfun import auxiliary_f, auxiliary_g, bose_sum_p, kernel_g, zeta_even
from .thermal import (
    C_SHORT,
    CURV_SHORT,
    lifshitz_asymptote,
    thermal_potential_exact,
    thermal_short_expansion,
    total_potential,
)
from .vacuum import (
    AtomParams,
    nonretarded_asymptote,
    retarded_asymptote,
    vacuum_potential,
)

__all__ = ["CRITERIA", "CriterionResult", "run_verification"]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    measured: str
    tolerance: str
    note: str = ""


def _verify_setup(cst: PhysicalConstants):
    lam = cst.thermal_wavelength_um(300.0)
    atom, env = _reference_pair(100.0, cst, alpha0_um3=3.0e-9)
    return atom, env, lam


def _crit_vacuum_oracle(quick: bool, cst: PhysicalConstants) -> CriterionResult:
    n = 10 if quick else 50
    atom = AtomParams(k0=1.0, alpha0=1.0)
    worst = 0.0
    for x0 in np.geomspace(0.05, 100.0, n):
        z = float(x0) / 2.0
        rep = vacuum_split_quadrature(atom, z, "total", cst)
        ref = vacuum_potential(atom, z, cst)
        worst = max(worst, abs(rep.value - ref) / abs(ref))
    return CriterionResult(
        1,
        "vacuum closed form vs quadrature oracle",
        worst < 1e-8,
        f"worst rel {worst:.3e} on {n} points x0 in [0.05, 100]",
        "< 1e-8",
    )


def _crit_thermal_oracle(quick: bool, cst: PhysicalConstants) -> CriterionResult:
    thetas = (100.0,) if quick else (30.0, 100.0, 300.0)
    n = 8 if quick else 40
    worst = 0.0
    for theta in thetas:
        atom, env = _reference_pair(theta, cst, alpha0_um3=3.0e-9)
        for zr in np.geomspace(0.01, 2.0, n):
            z = float(zr) * env.lambda_T
            rep = thermal_quadrature(atom, env, z, cst)
            ref = thermal_potential_exact(atom, env, z, cst)
            worst = max(worst, abs(rep.value - ref) / abs(ref))
    return CriterionResult(
        2,
        "thermal exact series vs quadrature oracle",
        worst < 1e-6,
        f"worst rel {worst:.3e} on {n} points x theta in {thetas}",
        "< 1e-6",
    )


def _crit_nonretarded(quick: bool, cst: PhysicalConstants) -> CriterionResult:
    atom = AtomParams(k0=1.0, alpha0=1.0)
    worst = 0.0
    for x0 in np.geomspace(0.01, 0.0999, 12 if quick else 25):
        z = float(x0) / 2.0
        exact = vacuum_potential(atom, z, cst)
        approx = nonretarded_asymptote(atom, z, cst)
        worst = max(worst, abs(approx - exact) / abs(exact))
    return CriterionResult(
        3,
        "non-retarded limit within 2% for x0 < 0.1",
        worst < 0.02,
        f"worst rel {worst:.4%} (at the x0 -> 0.1 edge)",
        "< 2%",
        note=(
            "the 1/z^3 asymptote is 3.26% off at x0 = 0.1; the 2% level "
            "is only reached for x0 < 0.062"
        ),
    )


def _crit_retarded(quick: bool, cst: PhysicalConstants) -> CriterionResult:
    atom = AtomParams(k0=1.0, alpha0=1.0)
    lam0 = atom.lambda0
    worst = 0.0
    for z in np.geomspace(1.3 * lam0, 20.0 * lam0, 12 if quick else 25):
        exact = vacuum_potential(atom, float(z), cst)
        approx = retarded_asymptote(atom, float(z), cst)
        worst = max(worst, abs(approx - exact) / abs(exact))
    return CriterionResult(
        4,
        "retarded limit within 1% for z > 1.3 lambda0",
        worst <= 0.01,
        f"worst rel {worst:.4%} (at the z = 1.3 lambda0 edge)",
        "<= 1%",
        note=(
            "the 1/z^4 asymptote is 2.35% off at z = 1.3 lambda0; the 1% "
            "level is only reached for z > 2.03 lambda0"
        ),
    )


def _crit_lifshitz(quick: bool, cst: PhysicalConstants) -> CriterionResult:
    atom, env, lam = _verify_setup(cst)
    worst = 0.0
    for zr in np.linspace(1.0, 5.0, 9 if quick else 17):
        z = float(zr) * lam
        tot = total_potential(atom, z, env, cst).total
        lif = lifshitz_asymptote(atom, env, z, cst)
        worst = max(worst, abs(lif - tot) / abs(tot))
    return CriterionResult(
        5,
        "Lifshitz limit within 1% for z >= lambda_T",
        worst < 0.01,
        f"worst rel {worst:.3e} on z/lambda_T in [1, 5]",
        "< 1%",
    )


def _round_sig(value: float, sig: int) -> float:
    if value == 0.0:
        return 0.0
    exp = math.floor(math.log10(abs(value)))
    return round(value, sig - 1 - exp)


def _crit_thermal_constant(quick: bool, cst: PhysicalConstants) -> CriterionResult:
    atom, env, lam = _verify_setup(cst)
    scale = cst.hbar_c_ev_um * atom.alpha0 / lam**4
    z = 1e-3 * lam
    c_series = thermal_potential_exact(atom, env, z, cst) / scale
    c_oracle = thermal_quadrature(atom, env, z, cst).value / scale
    mutual = abs(c_series - c_oracle) / abs(c_series)
    strict = C_SHORT  # 2 pi^3 / 45 = 1.3781...
    two_sig = _round_sig(c_series, 2) == _round_sig(strict, 2)
    passed = mutual < 1e-3 and two_sig
    return CriterionResult(
        6,
        "thermal constant C(T) = 1.38 hbar c alpha0 / lambda_T^4",
        passed,
        f"series {c_series:.6f}, oracle {c_oracle:.6f}, strict limit "
        f"{strict:.6f}, mutual rel {mutual:.2e}",
        "mutual < 0.1%, 2 significant figures vs 1.3781",
        note=(
            "the measured constant at theta = 100 sits 0.19% above the "
            "strict z -> 0 limit (finite-theta offset ~ 19/theta^2)"
        ),
    )


def _crit_short_law(quick: bool, cst: PhysicalConstants) -> CriterionResult:
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
    kernel_tie = abs(kernel_g(1e-3) - (1.0 / 3.0 - 1e-6 / 10.0))
    passed = worst < 0.05 and coeff_rel < 1e-13 and kernel_tie < 1e-14
    return CriterionResult(
        7,
        "short-distance law -(2 pi)^5/315 z^2/lambda_T^6",
        passed,
        f"worst rel {worst:.4%} for z <= 0.05 lambda_T; coefficient "
        f"re-derivation rel {coeff_rel:.1e}",
        "< 5%; coefficient to machine precision",
    )


def _crit_equilibrium(quick: bool, cst: PhysicalConstants) -> CriterionResult:
    atom, env, _ = _verify_setup(cst)
    eq = find_thermal_equilibrium(atom, env, cst)
    ok = abs(eq.z_star_over_lambdaT - 0.52) < 0.02
    return CriterionResult(
        8,
        "thermal equilibrium at 0.52 +- 0.02 lambda_T, stable",
        ok and eq.second_derivative_sign.value == "positive",
        f"z*/lambda_T = {eq.z_star_over_lambdaT:.6f}, curvature "
        f"{eq.second_derivative_sign.value}",
        "0.52 +- 0.02, positive curvature",
    )


def _crit_attractive(quick: bool, cst: PhysicalConstants) -> CriterionResult:
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
    return CriterionResult(
        9,
        "force attractive: d(total)/dz > 0 everywhere",
        bad == 0,
        f"{bad} non-positive slopes on {n} points z/lambda_T in [1e-3, 10]",
        "0 violations",
    )


def _crit_thermal_smallness(quick: bool, cst: PhysicalConstants) -> CriterionResult:
    atom, env, lam = _verify_setup(cst)
    z = 0.1 * lam
    ratio = abs(thermal_potential_exact(atom, env, z, cst)) / abs(
        vacuum_potential(atom, z, cst)
    )
    return CriterionResult(
        10,
        "thermal smallness |V_T|/|V0| < 1e-4 at 0.1 lambda_T",
        ratio < 1e-4,
        f"ratio {ratio:.3e}",
        "< 1e-4",
        note=(
            "|V_T| at 0.1 lambda_T is still dominated by the constant "
            "C(T) while |V0| falls as 1/z^4, so the ratio scales as "
            "11.6 (z/lambda_T)^4 ~ 1e-3 there, one order above the bound"
        ),
    )


def _crit_lambda_anchor(quick: bool, cst: PhysicalConstants) -> CriterionResult:
    lam = cst.thermal_wavelength_um(300.0)
    return CriterionResult(
        11,
        "lambda_T(300 K) in [7.55, 7.70] um",
        7.55 <= lam <= 7.70,
        f"lambda_T = {lam:.6f} um",
        "[7.55, 7.70] um",
    )


def _crit_identities(quick: bool, cst: PhysicalConstants) -> CriterionResult:
    checks: list[tuple[str, float, float]] = []

    # P(eta) closed form vs truncated sum; the tail is the midpoint-rule
    # integral from M + 1/2 plus its f'/24 Euler-Maclaurin correction
    for eta in (0.5, 5.0):
        m_vals = np.arange(1, 1001, dtype=float)
        partial = float(np.sum(1.0 / ((m_vals * eta) ** 2 + 1.0)))
        m_half = 1000.5
        fp = -2.0 * m_half * eta**2 / ((m_half * eta) ** 2 + 1.0) ** 2
        tail = (math.pi / 2.0 - math.atan(m_half * eta)) / eta + fp / 24.0
        checks.append((f"P({eta})", abs(partial + tail - bose_sum_p(eta)), 1e-10))

    # G vs finite difference of F (Richardson on central differences)
    for x in (0.5, 2.0, 10.0):
        h = 1e-4 * max(1.0, x)
        d1 = (auxiliary_f(x + h) - auxiliary_f(x - h)) / (2.0 * h)
        d2 = (auxiliary_f(x + h / 2) - auxiliary_f(x - h / 2)) / h
        fd = (4.0 * d2 - d1) / 3.0
        checks.append((f"G({x})", abs(fd - auxiliary_g(x)), 1e-7))

    # F vs its integral representation
    rep = f_integral_oracle(5.0)
    checks.append(("F(5) integral", abs(rep.value - auxiliary_f(5.0)), 1e-10))

    checks.append(("zeta(2)", abs(zeta_even(1) - math.pi**2 / 6.0), 1e-15))
    checks.append(("zeta(4)", abs(zeta_even(2) - math.pi**4 / 90.0), 1e-15))
    bose3 = bose_integral_quadrature(3)
    checks.append(("bose n=3 quadrature", abs(bose3.value - math.pi**4 / 15.0), 1e-10))
    checks.append(("bose n=3 closed", abs(bose_integral(3) - math.pi**4 / 15.0), 1e-12))

    failed = [name for name, err, tol in checks if not err < tol]
    worst = max(err / tol for _, err, tol in checks)
    return CriterionResult(
        12,
        "special-function identity suite",
        not failed,
        f"{len(checks)} identities, worst error/tolerance {worst:.2e}"
        + (f"; failed: {failed}" if failed else ""),
        "all identities within stated tolerances",
    )


def _crit_dispersion(quick: bool, cst: PhysicalConstants) -> CriterionResult:
    atom, env, lam = _verify_setup(cst)
    worst = 0.0
    worst_zr = 0.0
    # the grid is kept at full resolution even under --quick: the metric
    # degeneration near the V_T zero crossing sits between coarse-grid
    # points and the verdict must not depend on the mode
    for zr in np.geomspace(0.05, 2.0, 25):
        z = float(zr) * lam
        full = thermal_quadrature(atom, env, z, cst).value
        static = thermal_quadrature_static(atom, env, z, cst).value
        rel = abs(static - full) / abs(full)
        if rel > worst:
            worst, worst_zr = rel, float(zr)
    return CriterionResult(
        13,
        "dispersion insensitivity: static alpha within 1%",
        worst < 0.01,
        f"worst rel {worst:.4%} at z = {worst_zr:.3f} lambda_T",
        "< 1%",
        note=(
            "away from the V_T zero crossing (z ~ 0.307 lambda_T) the "
            "difference stays below 0.3%; at the crossing both results "
            "pass through zero at slightly different abscissae and the "
            "per-point relative metric degenerates"
        ),
    )


def _crit_ht_report(quick: bool, cst: PhysicalConstants) -> CriterionResult:
    atom, env, lam = _verify_setup(cst)
    rows = []
    for zr in (0.01, 0.02, 0.03, 0.04, 0.049):
        z = zr * lam
        exact = thermal_potential_exact(atom, env, z, cst)
        printed = thermal_short_expansion(atom, env, z, cst)
        rows.append((zr, abs(printed - exact) / abs(exact)))
    measured = "; ".join(f"z/lambda_T={zr}: rel {rel:.2e}" for zr, rel in rows)
    return CriterionResult(
        14,
        "H_T short-expansion discrepancy report",
        True,
        measured,
        "report produced and flagged",
        note=(
            "open question: the as-printed short-distance H_T expansion "
            "composes consistently with the exact series (relative "
            "deviation < 2e-9 for z < 0.05 lambda_T, superasymptotic in "
            "theta); the suspected prefactor inconsistency does not "
            "materialize at theta >= 30, so the printed form is kept"
        ),
    )


CRITERIA: Sequence[Callable[[bool, PhysicalConstants], CriterionResult]] = (
    _crit_vacuum_oracle,
    _crit_thermal_oracle,
    _crit_nonretarded,
    _crit_retarded,
    _crit_lifshitz,
    _crit_thermal_constant,
    _crit_short_law,
    _crit_equilibrium,
    _crit_attractive,
    _crit_thermal_smallness,
    _crit_lambda_anchor,
    _crit_identities,
    _crit_dispersion,
    _crit_ht_report,
)


def run_verification(
    quick: bool = False, constants: PhysicalConstants | None = None
) -> list[CriterionResult]:
    """Run every acceptance criterion; returns one result per criterion
    in order.  Shared by cmd_verify and the acceptance test suite."""
    cst = constants if constants is not None else load_constants()
    return [fn(quick, cst) for fn in CRITERIA]
