"""Analysis module tests: equilibrium landmarks, dominance crossover,
harmonic-window fits, and the regime error table."""

import math

import numpy as np
import pytest

from cpwall import analysis
from cpwall.analysis import (
    CROSSOVER_BRACKET,
    EQUILIBRIUM_BRACKET,
    FD_STEP_LAMBDA_T,
    ROOT_XTOL_LAMBDA_T,
    EquilibriumResult,
    QuadraticFit,
    _brent,
    _fd_derivative,
    dominance_crossover,
    find_thermal_equilibrium,
    quadratic_fit,
    regime_error_table,
)
from cpwall.constants import PhysicalConstants, load_constants
from cpwall.errors import ConvergenceError, DomainError, ValidityError
from cpwall.oracle import thermal_quadrature
from cpwall.thermal import ThermalEnvironment, _reference_pair, thermal_potential_exact
from cpwall.vacuum import AtomParams, vacuum_potential

CST = PhysicalConstants()
LAMBDA_T = 7.632948
TEMP = CST.hbar_c_ev_um / (CST.k_B * LAMBDA_T)


def make_pair(theta: float) -> tuple[AtomParams, ThermalEnvironment]:
    atom = AtomParams(k0=theta / LAMBDA_T, alpha0=3.0e-8)
    env = ThermalEnvironment(temperature=TEMP, lambda_T=LAMBDA_T, theta=theta)
    return atom, env


class TestEquilibrium:
    def test_theta_100_matches_paper_value(self):
        atom, env = make_pair(100.0)
        eq = find_thermal_equilibrium(atom, env, CST)
        assert abs(eq.z_star_over_lambdaT - 0.52) < 0.02
        assert EQUILIBRIUM_BRACKET[0] <= eq.z_star_over_lambdaT <= EQUILIBRIUM_BRACKET[1]
        assert eq.iterations > 0

    def test_landmark_locks(self):
        # the 6 decimals analyze prints, all computed since xtol is
        # 1e-12 lambda_T
        for theta, z_star in ((30.0, 0.520973), (100.0, 0.524861), (300.0, 0.525197)):
            atom, env = make_pair(theta)
            eq = find_thermal_equilibrium(atom, env, CST)
            assert abs(eq.z_star_over_lambdaT - z_star) < 5e-7

    def test_theta_insensitivity(self):
        atom1, env1 = make_pair(100.0)
        atom3, env3 = make_pair(300.0)
        z1 = find_thermal_equilibrium(atom1, env1, CST).z_star_over_lambdaT
        z3 = find_thermal_equilibrium(atom3, env3, CST).z_star_over_lambdaT
        assert abs(z1 - z3) < 0.02

    def test_bracket_independence(self, monkeypatch):
        atom, env = make_pair(100.0)
        z1 = find_thermal_equilibrium(atom, env, CST).z_star_over_lambdaT
        monkeypatch.setattr(analysis, "EQUILIBRIUM_BRACKET", (0.35, 0.65))
        z2 = find_thermal_equilibrium(atom, env, CST).z_star_over_lambdaT
        assert abs(z1 - z2) <= 1e-4

    def test_series_vs_oracle_equilibrium(self, monkeypatch):
        atom, env = make_pair(100.0)
        z_series = find_thermal_equilibrium(atom, env, CST).z_star_over_lambdaT

        def oracle_fn(a, e, z, cst):
            return thermal_quadrature(a, e, z, cst).value

        monkeypatch.setattr(analysis, "thermal_potential_exact", oracle_fn)
        z_oracle = find_thermal_equilibrium(atom, env, CST).z_star_over_lambdaT
        assert abs(z_series - z_oracle) < 1e-3

    def test_no_sign_change_raises(self, monkeypatch):
        atom, env = make_pair(100.0)
        monkeypatch.setattr(analysis, "EQUILIBRIUM_BRACKET", (0.55, 0.7))
        with pytest.raises(ConvergenceError):
            find_thermal_equilibrium(atom, env, CST)

    def test_result_validation(self):
        with pytest.raises(DomainError):
            EquilibriumResult(z_star_over_lambdaT=0.9, iterations=5)

    def test_maximum_refused(self, monkeypatch):
        # minus V_T has a maximum where V_T has its minimum
        atom, env = make_pair(100.0)

        def minus_vt(a, e, z, cst):
            return -thermal_potential_exact(a, e, z, cst)

        monkeypatch.setattr(analysis, "thermal_potential_exact", minus_vt)
        with pytest.raises(DomainError):
            find_thermal_equilibrium(atom, env, CST)


class TestCrossover:
    def test_crossover_in_paper_band(self):
        atom, env = make_pair(100.0)
        zc = dominance_crossover(atom, env, CST)
        zr = zc / LAMBDA_T
        assert 0.8 <= zr <= 1.3
        # landmark lock
        assert abs(zr - 0.95375) < 1e-3

    def test_dominance_on_either_side(self):
        atom, env = make_pair(100.0)
        z_lo = 0.5 * LAMBDA_T
        z_hi = 2.0 * LAMBDA_T
        assert abs(vacuum_potential(atom, z_lo, CST)) > abs(
            thermal_potential_exact(atom, env, z_lo, CST)
        )
        assert abs(thermal_potential_exact(atom, env, z_hi, CST)) > abs(
            vacuum_potential(atom, z_hi, CST)
        )

    def test_no_crossing_raises(self, monkeypatch):
        atom, env = make_pair(100.0)
        monkeypatch.setattr(analysis, "CROSSOVER_BRACKET", (1.5, 2.0))
        with pytest.raises(ConvergenceError):
            dominance_crossover(atom, env, CST)


# The analyze presets: _reference_pair at each theta with the built-in
# constants.  Roots and iteration counts as scipy.optimize.brentq gave
# them on the same functions, brackets and xtol.
_FROZEN_ROOTS = {
    30.0: (0.5209733937320582, 10, 7.266648149356837),
    100.0: (0.5248606345394462, 11, 7.27992426427817),
    300.0: (0.5251973452421157, 10, 7.281094921446291),
}


def _committed_root_problems(theta):
    """(f, bracket) of the two committed root searches at one theta:
    the equilibrium derivative and the dominance log-ratio."""
    cst = load_constants()
    atom, env = _reference_pair(theta, cst)
    lam = env.lambda_T

    def value(z):
        return thermal_potential_exact(atom, env, z, cst)

    def deriv(zr):
        return _fd_derivative(value, zr * lam, FD_STEP_LAMBDA_T * lam)

    def log_ratio(zr):
        z = zr * lam
        vt = thermal_potential_exact(atom, env, z, cst)
        return math.log(abs(vt) / abs(vacuum_potential(atom, z, cst)))

    return [(deriv, EQUILIBRIUM_BRACKET), (log_ratio, CROSSOVER_BRACKET)]


def _step(x):
    return 1.0 if x > 0.3 else -1.0


# analytic cases for the scipy cross-check: a root at an end (either
# one), an interior root met exactly, an odd-power root where the
# interpolation stalls and bisection steps take over, a jump with no
# root that only bisection narrows, and smooth roots of either slope
_ANALYTIC = [
    (lambda x: x - 1.0, 1.0, 3.0),
    (lambda x: x - 3.0, 1.0, 3.0),
    (lambda x: x - 0.5, 0.0, 1.0),
    (lambda x: (x - 0.3) ** 9, 0.0, 1.0),
    (_step, 0.0, 1.0),
    (lambda x: x * x - 2.0, 0.0, 2.0),
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: math.exp(x) - 1e6, 0.0, 30.0),
    (lambda x: math.tanh(50.0 * (x - 0.123)), -1.0, 1.0),
]


class TestBrent:
    @pytest.mark.parametrize("theta", sorted(_FROZEN_ROOTS))
    def test_frozen_roots(self, theta):
        z_star, iterations, z_cross = _FROZEN_ROOTS[theta]
        cst = load_constants()
        atom, env = _reference_pair(theta, cst)
        eq = find_thermal_equilibrium(atom, env, cst)
        assert eq.z_star_over_lambdaT == z_star
        assert eq.iterations == iterations
        assert dominance_crossover(atom, env, cst) == z_cross

    def test_root_at_an_end(self):
        assert _brent(lambda x: x - 1.0, 1.0, 3.0, 1e-4) == (1.0, 0)
        assert _brent(lambda x: x - 3.0, 1.0, 3.0, 1e-4) == (3.0, 0)

    def test_refusals(self):
        with pytest.raises(ConvergenceError):
            _brent(lambda x: x * x + 1.0, -1.0, 1.0, 1e-4)
        with pytest.raises(ConvergenceError):
            _brent(lambda x: math.nan if x > 0.2 else -1.0, 0.0, 1.0, 1e-4)
        # scipy reports no convergence in 100 iterations here
        with pytest.raises(ConvergenceError):
            _brent(lambda x: x**3, -1.0, 0.5, 2e-12)

    @pytest.mark.parametrize("theta", sorted(_FROZEN_ROOTS))
    def test_committed_searches_match_scipy(self, theta):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        for f, (lo, hi) in _committed_root_problems(theta):
            root, iterations = _brent(f, lo, hi, ROOT_XTOL_LAMBDA_T)
            ref, info = scipy_optimize.brentq(
                f, lo, hi, xtol=ROOT_XTOL_LAMBDA_T, full_output=True
            )
            assert root.hex() == ref.hex()
            assert iterations == info.iterations

    @pytest.mark.parametrize("case", range(len(_ANALYTIC)))
    @pytest.mark.parametrize("xtol", [1e-4, 2e-12])
    def test_analytic_roots_match_scipy(self, case, xtol):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        f, lo, hi = _ANALYTIC[case]
        ref, info = scipy_optimize.brentq(
            f, lo, hi, xtol=xtol, full_output=True, disp=False
        )
        if not info.converged:
            with pytest.raises(ConvergenceError):
                _brent(f, lo, hi, xtol)
            return
        root, iterations = _brent(f, lo, hi, xtol)
        assert root.hex() == float(ref).hex()
        if info.function_calls == 2:
            # a root at an end: scipy returns before it sets its
            # iteration count, so only the root is compared
            assert iterations == 0
        else:
            assert iterations == info.iterations


class TestQuadraticFit:
    def test_first_paper_window(self):
        atom, env = make_pair(100.0)
        fit = quadratic_fit(atom, env, (0.2, 0.45), CST)
        assert fit.rms_residual_relative < 0.02
        assert fit.coefficients[2] > 0.0

    def test_second_paper_window_exceeds_harmonic_bound(self):
        # Measured: rms/range = 2.1..2.3% on (0.5, 0.75) for every
        # theta in {30, 100, 300} and every sane sample count, so the
        # 2% harmonic-quality bound rejects this window.  Locked here;
        # the first window stays comfortably inside the bound.
        atom, env = make_pair(100.0)
        with pytest.raises(ValidityError):
            quadratic_fit(atom, env, (0.5, 0.75), CST)
        u = np.linspace(0.5, 0.75, 25)
        v = np.array(
            [thermal_potential_exact(atom, env, float(zr) * LAMBDA_T, CST) for zr in u]
        )
        c2, c1, c0 = np.polyfit(u, v, 2)
        resid = v - (c0 + c1 * u + c2 * u * u)
        rms_rel = float(np.sqrt(np.mean(resid**2)) / (v.max() - v.min()))
        assert 0.018 < rms_rel < 0.028
        # the fitted parabola still opens upward with its minimum near
        # the thermal equilibrium
        assert c2 > 0.0
        assert 0.45 < -c1 / (2.0 * c2) < 0.62

    @pytest.mark.parametrize(
        "theta,window",
        [
            (10.0, (0.3, 0.35)),
            (10.0, (0.4, 0.5)),
            (100.0, (0.2, 0.45)),
            (100.0, (0.55, 0.8)),
            (300.0, (0.2, 0.45)),
            (300.0, (0.4, 0.55)),
        ],
    )
    def test_matches_numpy_polyfit(self, theta, window):
        # windows the 2% bound accepts; numpy's linspace and polyfit are
        # the reference for the plain-Python grid and projections
        atom, env = make_pair(theta)
        fit = quadratic_fit(atom, env, window, CST)
        u = np.linspace(*window, analysis.FIT_POINTS)
        v = np.array(
            [thermal_potential_exact(atom, env, float(zr) * LAMBDA_T, CST) for zr in u]
        )
        want = np.polyfit(u, v, 2)[::-1]
        scale = float(np.max(np.abs(want)))
        assert max(abs(g - w) for g, w in zip(fit.coefficients, want)) <= 1e-12 * scale
        resid = v - (want[0] + want[1] * u + want[2] * u * u)
        rms_rel = float(np.sqrt(np.mean(resid**2)) / (v.max() - v.min()))
        assert fit.rms_residual_relative == pytest.approx(rms_rel, rel=1e-12, abs=0.0)

    def test_exact_parabola_recovered(self, monkeypatch):
        atom, env = make_pair(100.0)

        def parab(a, e, z, cst):
            u = z / LAMBDA_T
            return 3.0 - 2.0 * u + 5.0 * u * u

        monkeypatch.setattr(analysis, "thermal_potential_exact", parab)
        fit = quadratic_fit(atom, env, (0.2, 0.45), CST)
        a, b, c = fit.coefficients
        assert a == pytest.approx(3.0, rel=1e-10)
        assert b == pytest.approx(-2.0, rel=1e-10)
        assert c == pytest.approx(5.0, rel=1e-10)
        assert fit.rms_residual_relative < 1e-12

    def test_window_validation(self):
        atom, env = make_pair(100.0)
        with pytest.raises(DomainError):
            quadratic_fit(atom, env, (0.2, 1.6), CST)
        with pytest.raises(DomainError):
            quadratic_fit(atom, env, (0.0, 0.4), CST)
        with pytest.raises(DomainError):
            quadratic_fit(atom, env, (0.4, 0.2), CST)
        with pytest.raises(DomainError):
            quadratic_fit(atom, env, (0.4, 0.4004), CST)

    def test_constant_samples_refused(self, monkeypatch):
        atom, env = make_pair(100.0)
        monkeypatch.setattr(analysis, "thermal_potential_exact", lambda a, e, z, cst: 1.0)
        with pytest.raises(ValidityError, match="constant"):
            quadratic_fit(atom, env, (0.2, 0.45), CST)

    def test_fit_type_enforces_residual_bound(self):
        with pytest.raises(ValidityError):
            QuadraticFit(coefficients=(1.0, 2.0, 3.0), rms_residual_relative=0.05)


class TestRegimeErrorTable:
    def test_spec_example_rows(self):
        atom, env = make_pair(100.0)
        lam0 = atom.lambda0
        grid = sorted([0.05 * LAMBDA_T, 1.3 * lam0, 2.0 * LAMBDA_T])
        rows = regime_error_table(atom, env, grid, CST)
        by_z = {round(z, 9): r for z, r in zip(grid, rows)}

        r_short = by_z[round(0.05 * LAMBDA_T, 9)]
        assert r_short.err_short_leading < 0.05
        assert math.isnan(r_short.err_long_expansion)

        r_ret = by_z[round(1.3 * lam0, 9)]
        # measured 2.35% at the 1.3 lambda0 regime boundary
        assert 0.02 < r_ret.err_retarded < 0.025

        r_lif = by_z[round(2.0 * LAMBDA_T, 9)]
        assert r_lif.err_lifshitz < 0.01

    def test_retarded_error_monotone_beyond_20(self):
        atom, env = make_pair(100.0)
        grid = [x0 / (2.0 * atom.k0) for x0 in (25.0, 40.0, 60.0, 100.0, 200.0)]
        rows = regime_error_table(atom, env, grid, CST)
        errs = [r.err_retarded for r in rows]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_non_retarded_error_small_at_short_distance(self):
        atom, env = make_pair(100.0)
        rows = regime_error_table(atom, env, [0.01 / (2.0 * atom.k0)], CST)
        assert rows[0].err_non_retarded < 0.01

    def test_grid_validation(self):
        atom, env = make_pair(100.0)
        with pytest.raises(DomainError):
            regime_error_table(atom, env, [1.0, 0.5], CST)
        with pytest.raises(DomainError):
            regime_error_table(atom, env, [0.5, 0.5], CST)
        with pytest.raises(DomainError):
            regime_error_table(atom, env, [-1.0, 0.5], CST)
