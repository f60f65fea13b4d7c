"""Oracle module tests: honesty of the error estimates against frozen
50-digit references and against the closed forms the oracles exist to
check, window independence of the thermal oracle, frozen panel counts
and values, the thermal panel budget, and the grid cores: a point's
report does not depend on the points sharing its pass."""

import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpwall import oracle
from cpwall.constants import PhysicalConstants
from cpwall.errors import ConvergenceError, DomainError
from cpwall.oracle import (
    QuadratureReport,
    _bose_grid,
    _h0_kernel,
    _laplace,
    _vacuum_grid,
    bose_integral,
    bose_integral_quadrature,
    f_integral_oracle,
    thermal_quadrature,
    thermal_quadrature_static,
    vacuum_split_quadrature,
)
from cpwall.specfun import auxiliary_f
from cpwall.thermal import ThermalEnvironment, _reference_pair, thermal_potential_exact
from cpwall.vacuum import AtomParams, h0, vacuum_potential
from cpwall.verify import _verify_setup

from _reference_values import REFERENCE

CST = PhysicalConstants()
LAMBDA_T = 7.632948
TEMP = CST.hbar_c_ev_um / (CST.k_B * LAMBDA_T)

ATOM = AtomParams(k0=1.0, alpha0=1.0)


def make_pair(theta: float) -> tuple[AtomParams, ThermalEnvironment]:
    atom = AtomParams(k0=theta / LAMBDA_T, alpha0=3.0e-8)
    env = ThermalEnvironment(temperature=TEMP, lambda_T=LAMBDA_T, theta=theta)
    return atom, env


class TestVacuumRoute:
    def test_matches_closed_form_with_honest_estimate(self):
        # acceptance criterion 1 runs the full 50-point grid; this is
        # the fast sentinel version of the same sweep
        for x0 in np.geomspace(0.05, 100.0, 12):
            z = float(x0) / 2.0
            rep = vacuum_split_quadrature(ATOM, z, CST)
            ref = vacuum_potential(ATOM, z, CST)
            assert abs(rep.value - ref) <= rep.abs_error_estimate
            assert abs(rep.value - ref) < 1e-8 * abs(ref)

    def test_total_at_x0_one_matches_vacuum_potential(self):
        rep = vacuum_split_quadrature(ATOM, 0.5, CST)
        ref = vacuum_potential(ATOM, 0.5, CST)
        assert abs(rep.value - ref) < 1e-8 * abs(ref)

    def test_report_bookkeeping(self):
        rep = vacuum_split_quadrature(ATOM, 0.5, CST)
        assert rep.subdivisions == 63

    @pytest.mark.parametrize("key", sorted(k for k in REFERENCE if k.startswith("h0_")))
    def test_frozen_h0(self, key):
        # x0 = 0.05 to 1e9: the Laplace form reaches far past the
        # crossover, and its estimate stays tight there
        ref = REFERENCE[key]
        (val, est, _), = _laplace([float(key[3:])], _h0_kernel)
        assert abs(val - ref) <= est <= 1e-11 * abs(ref)

    def test_part_validation(self):
        # z^3 underflows at 1e-110 and overflows at 1e110
        for z in (-1.0, math.inf, 1e-110, 1e110):
            with pytest.raises(DomainError):
                vacuum_split_quadrature(ATOM, z, CST)
        # x0 = 2e160, whose square overflows, and x0 = 1e-309, whose
        # reciprocal does, are refused before any array work
        for k0, z in ((1e60, 1e100), (5e-310, 1.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError):
                    vacuum_split_quadrature(AtomParams(k0=k0, alpha0=1.0), z, CST)

    @settings(max_examples=25)
    @given(st.floats(min_value=-3.0, max_value=9.0).map(lambda e: 10.0**e))
    def test_h0_route_bracket_property(self, x0):
        (val, est, _), = _laplace([x0], _h0_kernel)
        ref = h0(x0)
        assert abs(val - ref) <= est

    @pytest.mark.parametrize("x0,panels", [(0.05, 68), (1.0, 63), (100.0, 70)])
    def test_panel_count_frozen(self, x0, panels):
        assert vacuum_split_quadrature(ATOM, x0 / 2.0, CST).subdivisions == panels


class TestThermalRoute:
    def test_matches_exact_series(self):
        # acceptance criterion 2 runs 40 points per theta; sentinel grid
        for theta in (30.0, 100.0, 300.0):
            atom, env = make_pair(theta)
            for zr in (0.01, 0.05, 0.3, 0.5, 1.0, 2.0):
                z = zr * LAMBDA_T
                rep = thermal_quadrature(atom, env, z, CST)
                ref = thermal_potential_exact(atom, env, z, CST)
                assert abs(rep.value - ref) <= rep.abs_error_estimate
                assert abs(rep.value - ref) < 1e-6 * abs(ref)

    def test_no_regulator_no_extrapolation(self):
        atom, env = make_pair(100.0)
        rep = thermal_quadrature(atom, env, 0.5 * LAMBDA_T, CST)
        assert rep.abs_error_estimate > 0.0

    def test_z_to_zero_leading_constant(self):
        # finite-theta offset from the strict constant scales like
        # ~19/theta^2 (0.19% at theta = 100), so the 0.1% example is
        # exercised at theta = 300 where the offset is 2.1e-4
        atom, env = make_pair(300.0)
        rep = thermal_quadrature(atom, env, 1e-4 * LAMBDA_T, CST)
        lead = 2.0 * math.pi**3 / 45.0 * CST.hbar_c_ev_um * atom.alpha0 / LAMBDA_T**4
        assert abs(rep.value - lead) < 1e-3 * lead

    def test_derivative_vanishes_near_equilibrium(self):
        atom, env = make_pair(100.0)
        h = 1e-3 * LAMBDA_T

        def slope(zr: float) -> float:
            vp = thermal_quadrature(atom, env, zr * LAMBDA_T + h, CST).value
            vm = thermal_quadrature(atom, env, zr * LAMBDA_T - h, CST).value
            return (vp - vm) / (2.0 * h)

        s_eq = abs(slope(0.52))
        assert s_eq < 0.2 * abs(slope(0.40))
        assert s_eq < 0.2 * abs(slope(0.65))

    # thermal_quadrature's values while it still laid its PV window and
    # decay tail past u_max = 60/eta (theta 100 and 300 here), where the
    # Bose weight is below e^-60: dropping them must not move the value
    FROZEN_VALUES = {
        30.0: 2.317236366818041e-12,
        100.0: -5.122795092818507e-13,
        300.0: -4.148838264175659e-14,
    }

    @pytest.mark.parametrize(
        "theta,zr,panels,static_panels",
        [(30.0, 0.05, 20, 20), (100.0, 0.5, 20, 20), (300.0, 2.0, 77, 77)],
    )
    def test_panel_count_frozen(self, theta, zr, panels, static_panels):
        atom, env = make_pair(theta)
        z = zr * LAMBDA_T
        rep = thermal_quadrature(atom, env, z, CST)
        assert rep.subdivisions == panels
        want = self.FROZEN_VALUES[theta]
        assert abs(rep.value - want) <= 1e-15 * abs(want)
        assert thermal_quadrature_static(atom, env, z, CST).subdivisions == static_panels

    @pytest.mark.parametrize("zr", [0.05, 0.5])
    def test_panel_count_independent_of_x0(self, zr):
        # at fixed z/lambda_T, x0 = 2 theta zr grows with theta while
        # the panels follow the Bose weight, which depends on eta alone
        counts = {
            thermal_quadrature(*make_pair(theta), zr * LAMBDA_T, CST).subdivisions
            for theta in (100.0, 300.0, 1000.0)
        }
        assert len(counts) == 1

    def test_window_shift_invariance(self, monkeypatch):
        # at theta = 30 the pole lies where the Bose weight lives, and
        # 4, 8 and 16 panels per side place the window differently
        for theta in (30.0, 100.0):
            atom, env = make_pair(theta)
            for zr in (0.1, 0.5, 1.0):
                z = zr * LAMBDA_T
                v1 = thermal_quadrature(atom, env, z, CST).value
                for n in (oracle._WINDOW_PANELS // 2, 2 * oracle._WINDOW_PANELS):
                    with monkeypatch.context() as m:
                        m.setattr(oracle, "_WINDOW_PANELS", n)
                        v2 = thermal_quadrature(atom, env, z, CST).value
                    assert abs(v1 - v2) < 1e-9 * abs(v1)

    def test_z_validation(self):
        atom, env = make_pair(100.0)
        for z in (-1.0, 1e-110, 1e110):
            with pytest.raises(DomainError):
                thermal_quadrature(atom, env, z, CST)
            with pytest.raises(DomainError):
                thermal_quadrature_static(atom, env, z, CST)

    def test_panel_budget_refuses_before_array_work(self):
        # x0 = 2e7 at theta = 100 is eta = 5e-6: 3.8 M panels to reach
        # eta u = 60, which took 13 s before the budget
        atom, env = make_pair(100.0)
        z = 2e7 / (2.0 * atom.k0)
        for quad in (thermal_quadrature, thermal_quadrature_static):
            start = time.perf_counter()
            with pytest.raises(ConvergenceError, match="budget"):
                quad(atom, env, z, CST)
            assert time.perf_counter() - start < 0.5

    def test_static_route_close_away_from_thermal_zero(self):
        atom, env = make_pair(100.0)
        for zr, tol in ((0.05, 5e-3), (1.0, 5e-4), (2.0, 1e-4)):
            z = zr * LAMBDA_T
            full = thermal_quadrature(atom, env, z, CST).value
            static = thermal_quadrature_static(atom, env, z, CST).value
            assert abs(static - full) < tol * abs(full)

    def test_static_route_relative_metric_degenerates_at_zero_crossing(self):
        # V_T crosses zero near z = 0.307 lambda_T; the static and full
        # results cross at slightly different abscissae, so the
        # per-point relative difference blows up there (measured 8% at
        # 0.31).  Locked as a regression guard for the criterion-13
        # report.
        atom, env = make_pair(100.0)
        z = 0.31 * LAMBDA_T
        full = thermal_quadrature(atom, env, z, CST).value
        static = thermal_quadrature_static(atom, env, z, CST).value
        assert abs(static - full) > 1e-2 * abs(full)


def _bits(rep: QuadratureReport) -> tuple:
    return rep.value.hex(), rep.abs_error_estimate.hex(), rep.subdivisions


class TestGrids:
    """The grid cores on verify's grids: each point's report equals its
    one-point public call bit for bit, whatever the pass size."""

    @pytest.mark.parametrize("pass_panels", [None, 1, 100, 10**6])
    def test_pass_independence(self, monkeypatch, pass_panels):
        # None keeps the module's own pass size
        if pass_panels is not None:
            monkeypatch.setattr(oracle, "_PASS_PANELS", pass_panels)
        # criterion 1
        zs = (np.geomspace(0.05, 100.0, 50) / 2.0).tolist()
        grid = _vacuum_grid(ATOM, zs, CST)
        assert [_bits(r) for r in grid] == [
            _bits(vacuum_split_quadrature(ATOM, z, CST)) for z in zs
        ]
        # criterion 2 at theta 30, then criterion 13, full and static
        atom, env = _reference_pair(30.0, CST, alpha0_um3=3.0e-9)
        grids = [(atom, env, (np.geomspace(0.01, 2.0, 40) * env.lambda_T).tolist())]
        atom, env, lam = _verify_setup(CST)
        grids.append((atom, env, (np.geomspace(0.05, 2.0, 25) * lam).tolist()))
        oracles = ((False, thermal_quadrature), (True, thermal_quadrature_static))
        for atom, env, zs in grids:
            for static, one in oracles:
                grid = _bose_grid(atom, env, zs, CST, static=static)
                assert [_bits(r) for r in grid] == [
                    _bits(one(atom, env, z, CST)) for z in zs
                ]

    def test_grid_refuses_over_budget_point_before_array_work(self):
        atom, env = make_pair(100.0)
        zs = [0.1 * LAMBDA_T, 2e7 / (2.0 * atom.k0), 0.5 * LAMBDA_T]
        for static in (False, True):
            start = time.perf_counter()
            with pytest.raises(ConvergenceError, match="budget"):
                _bose_grid(atom, env, zs, CST, static=static)
            assert time.perf_counter() - start < 0.5

    def test_grid_refuses_bad_z(self):
        atom, env = make_pair(100.0)
        for bad in (-1.0, 1e-110):
            zs = [0.1 * LAMBDA_T, bad, 0.5 * LAMBDA_T]
            for static in (False, True):
                with pytest.raises(DomainError):
                    _bose_grid(atom, env, zs, CST, static=static)
            with pytest.raises(DomainError):
                _vacuum_grid(ATOM, zs, CST)

    def test_u3g_one_sin_form(self):
        # the two-branch formula _u3g had: the closed form and the
        # small-u Taylor form, both on every node, picked by np.where
        u = np.array([0.0, 0.05, 0.0999999, 0.1, 0.5, 3.0, 100.0])
        closed = u * (u * np.sin(u) + 2.0 * np.cos(u)) - 2.0 * np.sin(u)
        x2 = u * u
        taylor = u * x2 * (
            1.0 / 3.0
            + x2
            * (-0.1 + x2 * (1.0 / 168.0 + x2 * (-1.0 / 6480.0 + x2 / 443520.0)))
        )
        want = np.where(np.abs(u) < 0.1, taylor, closed)
        assert oracle._u3g(u).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "a,b,cap",
        [(0.0, 60.0, math.pi), (12.3, 98.7, 0.3), (0.0, 1e-3, 1.0), (5.0, 5.0, 1.0)],
    )
    def test_uniform_edges_are_linspace(self, a, b, cap):
        n = max(1, math.ceil((b - a) / cap - 1e-12))
        want = np.linspace(a, b, n + 1)
        assert oracle._uniform_edges(a, b, cap).tobytes() == want.tobytes()


class TestScalarOracles:
    def test_f_integral_matches_auxiliary_f(self):
        rep5 = f_integral_oracle(5.0)
        assert abs(rep5.value - auxiliary_f(5.0)) < 1e-10
        assert abs(rep5.value - auxiliary_f(5.0)) <= rep5.abs_error_estimate
        rep01 = f_integral_oracle(0.1)
        assert abs(rep01.value - auxiliary_f(0.1)) < 1e-9

    def test_f_integral_sweep(self):
        for x in np.geomspace(0.01, 1e4, 121):
            rep = f_integral_oracle(float(x))
            ref = auxiliary_f(float(x))
            assert abs(rep.value - ref) <= 1e-10 * ref
            assert abs(rep.value - ref) <= rep.abs_error_estimate

    def test_f_integral_watson_limit(self):
        rep = f_integral_oracle(1e4)
        assert abs(rep.value * 1e4 - 1.0) < 1e-7

    def test_f_integral_domain(self):
        with pytest.raises(DomainError):
            f_integral_oracle(0.0)
        with pytest.raises(DomainError):
            f_integral_oracle(-2.0)
        with pytest.raises(DomainError):
            f_integral_oracle(math.nan)

    @pytest.mark.parametrize("x", [1e-320, 5e-324])
    def test_f_integral_refuses_where_reciprocal_overflows(self, x):
        with pytest.raises(DomainError, match="finite 1/x"):
            f_integral_oracle(x)

    @pytest.mark.parametrize("x", [1e-300, 1e-200])
    def test_f_integral_tiny_x_limit_without_warnings(self, x):
        # F(x) -> pi/2 as x -> 0; t^2 overflows to inf on the far panels
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = f_integral_oracle(x)
        assert abs(rep.value - math.pi / 2) <= rep.abs_error_estimate
        assert abs(rep.value - math.pi / 2) < 1e-12

    def test_bose_integral_closed_forms(self):
        assert bose_integral(3) == pytest.approx(math.pi**4 / 15.0, rel=1e-14, abs=0)
        assert bose_integral(5) == pytest.approx(8.0 * math.pi**6 / 63.0, rel=1e-14)

    def test_bose_integral_self_check(self):
        for n in (3, 5):
            rep = bose_integral_quadrature(n)
            closed = bose_integral(n)
            assert abs(rep.value - closed) < 1e-10 * closed
            assert abs(rep.value - closed) <= rep.abs_error_estimate

    def test_bose_integral_rejects_bad_n(self):
        # both serve the moments the checks use, n = 3 and 5, only
        for bad in (0, -1, 1, 2, 4, 6, 7, 3.0, 2.5, True):
            with pytest.raises(DomainError):
                bose_integral(bad)
            with pytest.raises(DomainError):
                bose_integral_quadrature(bad)


class TestQuadratureReport:
    def test_requires_positive_estimate(self):
        with pytest.raises(DomainError):
            QuadratureReport(
                value=1.0,
                abs_error_estimate=0.0,
                subdivisions=1,
            )

    def test_rejects_non_finite_value(self):
        with pytest.raises(ConvergenceError):
            QuadratureReport(
                value=math.nan,
                abs_error_estimate=1e-10,
                subdivisions=1,
            )

    def test_rejects_negative_counts(self):
        with pytest.raises(DomainError):
            QuadratureReport(
                value=1.0,
                abs_error_estimate=1e-10,
                subdivisions=-1,
            )
