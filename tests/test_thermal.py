"""Thermal module: exact series against frozen references, composition
invariants, expansion windows, and limiting behavior."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cpwall.constants import PhysicalConstants
from cpwall.errors import DomainError, ValidityError
from cpwall.oracle import thermal_quadrature_static
from cpwall.specfun import scaled_e1
from cpwall.thermal import (
    PotentialBreakdown,
    ThermalEnvironment,
    _coth_terms,
    _laurent_terms,
    _w_bracket,
    _w_e1t,
    _w_expansion,
    lifshitz_asymptote,
    recommended_approximation,
    thermal_long_expansion,
    thermal_potential_exact,
    thermal_series_terms,
    thermal_short_expansion,
    thermal_short_leading,
    total_potential,
)
from cpwall.vacuum import AtomParams, _z_power, vacuum_potential

from _reference_values import REFERENCE

CST = PhysicalConstants()
LAMBDA_T = 7.632948
TEMP = CST.hbar_c_ev_um / (CST.k_B * LAMBDA_T)


def make_pair(theta: float) -> tuple[AtomParams, ThermalEnvironment]:
    atom = AtomParams(k0=theta / LAMBDA_T, alpha0=3.0e-8)
    env = ThermalEnvironment(
        temperature=TEMP, lambda_T=LAMBDA_T, theta=atom.k0 * LAMBDA_T
    )
    return atom, env


class TestFrozenReferences:
    @pytest.mark.parametrize(
        "theta,zr",
        [(100.0, 0.05), (100.0, 0.3), (100.0, 1.0), (30.0, 0.5), (300.0, 0.2)],
    )
    def test_w_bracket(self, theta: float, zr: float) -> None:
        x0 = 2.0 * theta * zr
        terms = thermal_series_terms(1.0 / (2.0 * zr), x0)
        ref = REFERENCE[f"w_theta{theta:g}_zr{zr:g}"]
        assert _w_bracket(terms, x0) == pytest.approx(ref, rel=5e-10)

    @pytest.mark.parametrize(
        "theta,zr",
        [(100.0, 0.05), (100.0, 0.3), (100.0, 1.0), (30.0, 0.5), (300.0, 0.2)],
    )
    def test_vhat_dimensional_path(self, theta: float, zr: float) -> None:
        atom, env = make_pair(theta)
        v = thermal_potential_exact(atom, env, zr * LAMBDA_T)
        vhat = v / (CST.hbar_c_ev_um * atom.alpha0 / LAMBDA_T**4)
        ref = REFERENCE[f"vhat_theta{theta:g}_zr{zr:g}"]
        assert vhat == pytest.approx(ref, rel=5e-10)


# frozen points around the static-alpha expansion: coth's Taylor route
# (z >= lambda_T / 8), the Laurent route (0.01) and the E1t route; at
# eta = 4 (0.125) the expansion's rounding estimate exceeds 1e-13 |W|,
# and at theta = 10 and 20 its pole bound does (the E1t head there is
# 3 and 1 E1t pairs, the rest the paired asymptotic series)
LOW_THETA_POINTS = [
    (theta, zr) for theta in (10.0, 20.0) for zr in (0.01, 0.125, 0.5, 3.0)
]
FROZEN_POINTS = [
    (theta, zr)
    for theta in (50.0, 100.0, 1000.0)
    for zr in (0.01, 0.125, 0.5, 3.0, 1000.0)
    if (theta, zr) != (50.0, 1000.0)
] + [(30.0, 3.0)] + LOW_THETA_POINTS
E1T_POINTS = {(50.0, 0.125), (100.0, 0.125), (1000.0, 0.125), (30.0, 3.0)}
E1T_POINTS |= set(LOW_THETA_POINTS)


class TestStaticAlphaExpansion:
    @pytest.mark.parametrize("theta,zr", FROZEN_POINTS)
    def test_frozen_w(self, theta: float, zr: float) -> None:
        eta, x0 = 1.0 / (2.0 * zr), 2.0 * theta * zr
        w = _w_expansion(eta, x0)
        assert (w is None) == ((theta, zr) in E1T_POINTS)
        ref = REFERENCE[f"w_theta{theta:g}_zr{zr:g}"]
        if w is not None:
            assert w == pytest.approx(ref, rel=2e-13)
        else:
            assert _w_e1t(eta, x0) == pytest.approx(ref, rel=5e-10)

    @pytest.mark.parametrize("theta,zr", FROZEN_POINTS)
    def test_frozen_vhat(self, theta: float, zr: float) -> None:
        atom, env = make_pair(theta)
        v = thermal_potential_exact(atom, env, zr * LAMBDA_T)
        vhat = v / (CST.hbar_c_ev_um * atom.alpha0 / LAMBDA_T**4)
        ref = REFERENCE[f"vhat_theta{theta:g}_zr{zr:g}"]
        tol = 5e-10 if (theta, zr) in E1T_POINTS else 2e-13
        assert vhat == pytest.approx(ref, rel=tol)

    @pytest.mark.parametrize("theta,zr", [(10.0, 0.3), (20.0, 1.5), (30.0, 0.05)])
    def test_fallback_is_the_e1t_route(self, theta: float, zr: float) -> None:
        atom, env = make_pair(theta)
        z = zr * LAMBDA_T
        eta, x0 = env.lambda_T / (2.0 * z), 2.0 * atom.k0 * z
        assert _w_expansion(eta, x0) is None
        z3 = _z_power(z, 3)
        pref = CST.hbar_c_ev_um * atom.alpha0 * atom.k0 / (8.0 * math.pi * z3)
        w = _w_bracket(thermal_series_terms(eta, x0), x0)
        # bit for bit
        assert thermal_potential_exact(atom, env, z) == pref * w

    def test_near_zero_temperature_is_the_contact_constant(self) -> None:
        # theta = 3e6, x0 = 1: W = 4 zeta(4) / (x0 eta^4) (1 + O(1e-12)),
        # i.e. V_T = C(T); the E1t bracket cancels 13 digits here
        theta = 3e6
        atom = AtomParams(k0=13.101, alpha0=3.0e-8)
        lam = theta / atom.k0
        temp = CST.hbar_c_ev_um / (CST.k_B * lam)
        env = ThermalEnvironment(temperature=temp, lambda_T=lam, theta=theta)
        z = 0.5 / atom.k0
        v_t = thermal_potential_exact(atom, env, z)
        assert v_t == pytest.approx(thermal_short_leading(atom, env, z), rel=1e-10)


class TestLaurentEarlyExit:
    """Points whose Laurent terms run out before the sum stops leave the
    expansion for the E1t series."""

    @pytest.mark.parametrize("theta,zr", [(101.95, 0.02893), (248.3, 0.04819), (1000.0, 0.05896)])
    def test_leaves_before_its_first_term(self, theta: float, zr: float) -> None:
        eta, x0 = 1.0 / (2.0 * zr), 2.0 * theta * zr
        assert _w_expansion(eta, x0) is None


class TestStaticLimit:
    """The leading thermal term comes from the static polarizability and
    does not depend on k0; dispersion enters at order 1/theta^2."""

    @pytest.mark.parametrize("zr", [0.05, 0.15, 0.5, 2.0])
    def test_leading_term_is_static_oracle(self, zr: float) -> None:
        atom, env = make_pair(100.0)
        z = zr * LAMBDA_T
        eta = LAMBDA_T / (2.0 * z)
        # j = 0 depends on eta alone
        terms = _coth_terms(eta, 1.0) if eta <= 4.0 else _laurent_terms(eta, 1.0)
        i0, _ = next(terms)
        static = CST.hbar_c_ev_um * atom.alpha0 / (8.0 * math.pi * z**4) * i0
        rep = thermal_quadrature_static(atom, env, z)
        assert abs(static - rep.value) <= rep.abs_error_estimate

    @pytest.mark.parametrize("zr", [0.15, 0.5, 2.0])
    def test_approach_as_inverse_theta_squared(self, zr: float) -> None:
        z = zr * LAMBDA_T
        diff = {}
        for theta in (300.0, 1000.0):
            atom, env = make_pair(theta)
            static = thermal_quadrature_static(atom, env, z).value
            diff[theta] = thermal_potential_exact(atom, env, z) - static
        ratio = diff[300.0] / diff[1000.0]
        assert ratio == pytest.approx((1000.0 / 300.0) ** 2, rel=1e-3)


class TestBracketLoss:
    def test_large_x0_refused(self) -> None:
        # theta = 30, z = 1000 lambda_T: the bracket loses ~4e-7 of |W|
        atom, env = make_pair(30.0)
        with pytest.raises(ValidityError):
            thermal_potential_exact(atom, env, 1000.0 * LAMBDA_T)

    def test_loss_above_its_bare_estimate_refused(self) -> None:
        # theta = 40, z = 100 lambda_T: the error is 1.1e-8 of
        # max(|W|, 2 pi/theta) where eps x0^2 |K0| alone reads 7.1e-9
        atom, env = make_pair(40.0)
        with pytest.raises(ValidityError):
            thermal_potential_exact(atom, env, 100.0 * LAMBDA_T)

    @pytest.mark.xfail(
        strict=True,
        reason="theta = 40 at z = 5e-4 lambda_T is off by 2.4e-7 against "
        "mpmath and not refused: the E1t route's loss at large eta is not "
        "covered by eps x0^2 |K0|",
    )
    def test_large_eta_accurate_or_refused(self) -> None:
        atom, env = make_pair(40.0)
        try:
            v = thermal_potential_exact(atom, env, 5e-4 * LAMBDA_T)
        except ValidityError:
            return
        vhat = v / (CST.hbar_c_ev_um * atom.alpha0 / LAMBDA_T**4)
        ref = REFERENCE["known_fault_vhat_theta40_zr0.0005"]
        assert vhat == pytest.approx(ref, rel=1e-8)

    @pytest.mark.xfail(
        strict=True,
        reason="off by orders of magnitude and not refused at very short "
        "distance, where the expansion falls back on its pole bound and the "
        "E1t route's refusal misses its eps eta^3 loss: ROADMAP item "
        "'Short-distance thermal points below theta ~ 45: an honest "
        "estimate, then a route'",
    )
    @pytest.mark.parametrize("theta, zr", [(100.0, 1e-10), (30.0, 1e-8)])
    def test_very_short_distance_accurate_or_refused(
        self, theta: float, zr: float
    ) -> None:
        # the reference is the H_T form, not the leading law C(T): at
        # theta = 30 the plateau lies 2.2% above C(T), at theta = 100 0.19%
        atom, env = make_pair(theta)
        z = zr * LAMBDA_T
        try:
            v = thermal_potential_exact(atom, env, z)
        except (ValidityError, DomainError):
            return
        assert v == pytest.approx(thermal_short_expansion(atom, env, z), rel=1e-6)

    @pytest.mark.parametrize("theta", [10.0, 30.0, 1000.0])
    def test_sign_change_not_refused(self, theta: float) -> None:
        # V_T changes sign near 0.3 lambda_T; closing in on the zero must
        # not turn the relative rounding loss into a refusal
        atom, env = make_pair(theta)
        lo, hi = 0.2, 0.4
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if thermal_potential_exact(atom, env, mid * LAMBDA_T) > 0.0:
                lo = mid
            else:
                hi = mid
        assert 0.25 < lo < 0.31


class TestSeriesTerms:
    def test_tail_bound_small_relative_to_result(self) -> None:
        for theta in (30.0, 100.0, 300.0):
            for zr in (0.05, 0.1, 0.2, 0.5, 1.0, 2.0):
                x0 = 2.0 * theta * zr
                terms = thermal_series_terms(1.0 / (2.0 * zr), x0)
                w = _w_bracket(terms, x0)
                assert terms.tail_bound < 1e-8 * abs(w)

    def test_paired_terms_decrease_beyond_first(self) -> None:
        theta, x0 = 100.0, 100.0
        diffs, sums = [], []
        for m in range(1, 13):
            w = complex(m * theta, -x0)
            ep = scaled_e1(w)
            em = scaled_e1(-w)
            diffs.append(abs(ep.imag - em.imag))
            sums.append(abs(ep.real + em.real))
        # beyond m = 1: the m = 1 real pair is accidentally tiny when
        # theta = x0 (w^2 is then purely imaginary)
        assert all(b < a for a, b in zip(diffs[1:], diffs[2:]))
        assert all(b < a for a, b in zip(sums[1:], sums[2:]))

    def test_high_eta_limit(self) -> None:
        terms = thermal_series_terms(1e7, 1.0)
        assert abs(terms.k0_val) < 1e-6
        assert abs(terms.k1_val) < 1e-6

    def test_theta_gate(self) -> None:
        with pytest.raises(DomainError):
            thermal_series_terms(1.0, 5.0)


class TestEnvironment:
    def test_for_atom_consistency(self) -> None:
        atom, _ = make_pair(100.0)
        env = ThermalEnvironment.for_atom(atom, 300.0)
        expect = CST.hbar_c_ev_um / (CST.k_B * 300.0)
        assert env.lambda_T == pytest.approx(expect, rel=1e-12)
        assert env.theta == pytest.approx(atom.k0 * expect, rel=1e-12)

    def test_room_temperature_wavelength(self) -> None:
        atom, _ = make_pair(100.0)
        env = ThermalEnvironment.for_atom(atom, 300.0)
        assert 7.55 < env.lambda_T < 7.70

    def test_theta_refusal(self) -> None:
        with pytest.raises(DomainError):
            ThermalEnvironment(temperature=300.0, lambda_T=7.6, theta=9.0)
        cold_atom = AtomParams(k0=1.0, alpha0=1e-9)
        with pytest.raises(DomainError):
            # k0 lambda_T ~ 7.6 < 10
            ThermalEnvironment.for_atom(cold_atom, 300.0)

    def test_mismatched_atom_rejected(self) -> None:
        atom, env = make_pair(100.0)
        other = AtomParams(k0=2.0 * atom.k0, alpha0=atom.alpha0)
        with pytest.raises(DomainError):
            thermal_potential_exact(other, env, 1.0)


class TestExpansions:
    def test_short_expansion_near_leading(self) -> None:
        atom, env = make_pair(100.0)
        z = 0.01 * LAMBDA_T
        se = thermal_short_expansion(atom, env, z)
        sl = thermal_short_leading(atom, env, z)
        assert abs(se / sl - 1.0) < 0.10

    @pytest.mark.parametrize("theta", [30.0, 100.0, 300.0])
    @pytest.mark.parametrize("zr", [0.01, 0.05, 0.1, 0.19])
    def test_short_expansion_accuracy(self, theta: float, zr: float) -> None:
        atom, env = make_pair(theta)
        z = zr * LAMBDA_T
        se = thermal_short_expansion(atom, env, z)
        ex = thermal_potential_exact(atom, env, z)
        assert abs(se / ex - 1.0) < 1e-8

    @pytest.mark.parametrize("z", [1e-103, 1e-110])
    def test_short_expansion_holds_c_t_at_extreme_short_distance(self, z: float) -> None:
        # the leading term a_2 b_2 ~ x0^2/3 is a normal float here even
        # though a_2 = x0^3/3! alone underflows
        atom, env = make_pair(100.0)
        c_t = thermal_short_expansion(atom, env, 1e-100)
        assert c_t == pytest.approx(
            thermal_potential_exact(atom, env, 1e-5 * LAMBDA_T), rel=1e-8
        )
        assert thermal_short_expansion(atom, env, z) == pytest.approx(c_t, rel=1e-14)

    def test_short_leading_window(self) -> None:
        atom, env = make_pair(100.0)
        for zr in (0.005, 0.02, 0.05):
            z = zr * LAMBDA_T
            err = abs(
                thermal_short_leading(atom, env, z)
                / thermal_potential_exact(atom, env, z)
                - 1.0
            )
            assert err < 0.05
        z = 0.19 * LAMBDA_T
        err = abs(
            thermal_short_leading(atom, env, z)
            / thermal_potential_exact(atom, env, z)
            - 1.0
        )
        assert err > 0.10

    @pytest.mark.parametrize("theta", [30.0, 100.0, 300.0])
    @pytest.mark.parametrize("zr", [0.5, 1.0, 3.0])
    def test_long_expansion_accuracy(self, theta: float, zr: float) -> None:
        atom, env = make_pair(theta)
        z = zr * LAMBDA_T
        lo = thermal_long_expansion(atom, env, z)
        ex = thermal_potential_exact(atom, env, z)
        assert abs(lo / ex - 1.0) < 1e-7

    def test_long_matches_lifshitz_minus_vacuum_far_out(self) -> None:
        atom, env = make_pair(100.0)
        z = 3.0 * LAMBDA_T
        target = lifshitz_asymptote(atom, env, z) - vacuum_potential(atom, z)
        ex = thermal_potential_exact(atom, env, z)
        assert abs(ex / target - 1.0) < 1e-3

    def test_validity_windows(self) -> None:
        atom, env = make_pair(100.0)
        with pytest.raises(ValidityError):
            thermal_short_expansion(atom, env, 0.2 * LAMBDA_T)
        with pytest.raises(ValidityError):
            thermal_long_expansion(atom, env, 0.49 * LAMBDA_T)

    def test_short_leading_at_contact(self) -> None:
        atom, env = make_pair(100.0)
        c_t = thermal_short_leading(atom, env, 0.0)
        expect = 2.0 * math.pi**3 / 45.0 * CST.hbar_c_ev_um * atom.alpha0 / LAMBDA_T**4
        assert c_t == pytest.approx(expect, rel=1e-14)


class TestLifshitz:
    def test_total_within_one_percent_beyond_lambda(self) -> None:
        atom, env = make_pair(100.0)
        for zr in (1.0, 1.5, 2.0):
            z = zr * LAMBDA_T
            total = vacuum_potential(atom, z) + thermal_potential_exact(atom, env, z)
            lif = lifshitz_asymptote(atom, env, z)
            assert abs(lif / total - 1.0) < 0.01

    def test_linear_in_temperature(self) -> None:
        atom, _ = make_pair(100.0)
        env1 = ThermalEnvironment.for_atom(atom, 300.0)
        env2 = ThermalEnvironment.for_atom(atom, 600.0)
        z = 20.0
        assert lifshitz_asymptote(atom, env2, z) == pytest.approx(
            2.0 * lifshitz_asymptote(atom, env1, z), rel=1e-12
        )


class TestShape:
    def test_thermal_derivative_single_sign_change(self) -> None:
        atom, env = make_pair(100.0)
        zs = [(0.05 + 1.95 * i / 60) * LAMBDA_T for i in range(61)]
        vals = [thermal_potential_exact(atom, env, z) for z in zs]
        slopes = [b - a for a, b in zip(vals, vals[1:])]
        changes = sum(
            1 for a, b in zip(slopes, slopes[1:]) if (a < 0 <= b) or (a >= 0 > b)
        )
        assert changes == 1
        # the turning point sits near 0.52 lambda_T
        i_min = min(range(len(vals)), key=lambda i: vals[i])
        assert 0.45 < zs[i_min] / LAMBDA_T < 0.60

    def test_total_monotone_increasing(self) -> None:
        atom, env = make_pair(100.0)
        zs = [10.0 ** (-3 + 4 * i / 50) * LAMBDA_T for i in range(51)]
        vals = [
            vacuum_potential(atom, z) + thermal_potential_exact(atom, env, z)
            for z in zs
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_dispersion_insensitivity(self) -> None:
        results = {}
        for theta in (30.0, 100.0, 300.0):
            atom, env = make_pair(theta)
            v = thermal_potential_exact(atom, env, 1.0 * LAMBDA_T)
            results[theta] = v / (CST.hbar_c_ev_um * atom.alpha0 / LAMBDA_T**4)
        assert abs(results[30.0] / results[300.0] - 1.0) < 3e-3
        assert abs(results[100.0] / results[300.0] - 1.0) < 3e-4

    def test_zero_temperature_suppression(self) -> None:
        theta = 3e6
        atom = AtomParams(k0=13.101, alpha0=3.0e-8)
        lam = theta / atom.k0
        temp = CST.hbar_c_ev_um / (CST.k_B * lam)
        env = ThermalEnvironment(temperature=temp, lambda_T=lam, theta=theta)
        z = 0.5 / atom.k0  # x0 = 1
        v_t = thermal_potential_exact(atom, env, z)
        v_0 = vacuum_potential(atom, z)
        assert abs(v_t) < 1e-12 * abs(v_0)


class TestTotalPotential:
    def test_zero_temperature_breakdown(self) -> None:
        atom, _ = make_pair(100.0)
        bd = total_potential(atom, 1.0, env=None)
        assert bd.thermal == 0.0
        assert bd.total == bd.vacuum
        assert "zero-temperature" in bd.notes

    def test_breakdown_composition(self) -> None:
        atom, env = make_pair(100.0)
        bd = total_potential(atom, 2.0, env=env)
        assert bd.total == bd.vacuum + bd.thermal
        assert "z/lambda_T" in bd.notes

    def test_breakdown_rejects_bad_total(self) -> None:
        with pytest.raises(DomainError):
            PotentialBreakdown(vacuum=-1.0, thermal=0.5, total=-0.4, notes="")

    def test_recommended_windows(self) -> None:
        assert recommended_approximation(0.01) == "short_leading"
        assert recommended_approximation(0.5) == "exact_series"
        assert recommended_approximation(1.5) == "lifshitz"


@given(
    st.floats(min_value=0.02, max_value=2.0),
    st.floats(min_value=10.0, max_value=400.0),
)
def test_series_invariants(zr: float, theta: float) -> None:
    x0 = 2.0 * theta * zr
    terms = thermal_series_terms(1.0 / (2.0 * zr), x0)
    assert terms.p_val > 0.0
    assert terms.tail_bound >= 0.0
    assert math.isfinite(_w_bracket(terms, x0))


@given(st.floats(min_value=0.3, max_value=3.0))
def test_thermal_negative_beyond_crossing(zr: float) -> None:
    # V_T < 0 for z above the sign change at ~0.307 lambda_T
    if zr < 0.32:
        zr = 0.32
    atom, env = make_pair(100.0)
    assert thermal_potential_exact(atom, env, zr * LAMBDA_T) < 0.0
