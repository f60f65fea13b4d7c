"""Thermal module: exact series against frozen references, composition
invariants, expansion windows, and limiting behavior."""

from __future__ import annotations

import io
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cpwall import thermal
from cpwall.cli import CurveSpec, cmd_curve
from cpwall.constants import PhysicalConstants
from cpwall.errors import DomainError, ValidityError
from cpwall.oracle import thermal_quadrature_static
from cpwall.thermal import (
    PotentialBreakdown,
    ThermalEnvironment,
    _coth_terms,
    _h_t,
    _pole_term,
    _reference_pair,
    _two_product,
    _w_lifshitz,
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
    def test_vhat_dimensional_path(self, theta: float, zr: float) -> None:
        atom, env = make_pair(theta)
        v = thermal_potential_exact(atom, env, zr * LAMBDA_T)
        vhat = v / (CST.hbar_c_ev_um * atom.alpha0 / LAMBDA_T**4)
        ref = REFERENCE[f"vhat_theta{theta:g}_zr{zr:g}"]
        assert vhat == pytest.approx(ref, rel=5e-10, abs=0)


# frozen points of the two routes: the Lifshitz sum (z >= lambda_T / 8)
# and the H_T form (0.01); at theta = 10 and 20 the Lifshitz sum takes
# h0's Chebyshev table (x0 2.5-60)
LOW_THETA_POINTS = [
    (theta, zr) for theta in (10.0, 20.0) for zr in (0.01, 0.125, 0.5, 3.0)
]
# the far field from x0 = 40 to 8e6 below theta = 45, where the
# resonant term is up to 7e8 times the Lifshitz term
FAR_POINTS = [(10.0, 2.0), (20.0, 1.0), (30.0, 1.0), (40.0, 3.0)]
FAR_POINTS += [
    (theta, zr) for theta in (10.0, 20.0, 30.0, 40.0) for zr in (100.0, 1000.0, 1e5)
]
# the H_T form at eta 8.5-17 and x0 6-118
MID_ETA_POINTS = [(101.95, 0.02893), (248.3, 0.04819), (1000.0, 0.05896)]
# the C(T) plateau, where the E1t series is off by 2.4e-7 up to orders
# of magnitude (at theta = 30 the plateau lies 2.2% above C(T), at 100
# 0.19%)
PLATEAU_POINTS = [(40.0, 5e-4), (100.0, 1e-10), (30.0, 1e-8)]
FROZEN_POINTS = [
    (theta, zr)
    for theta in (50.0, 100.0, 1000.0)
    for zr in (0.01, 0.125, 0.5, 3.0, 1000.0)
] + [(30.0, 3.0)] + LOW_THETA_POINTS + FAR_POINTS + MID_ETA_POINTS + PLATEAU_POINTS


def _route_rtol(theta: float, zr: float) -> float:
    """Tolerance of each route against the frozen W, relative to |W|: the
    H_T form holds 2e-13 from theta = 44 and its floor of about 5e-12
    below (E1t(+-y) cancel down to F minus its head), the Lifshitz sum
    2e-13, except at z = lambda_T / 8 below theta = 45, where |W| is 110
    to 130 times below 2 pi / theta and the sum and H0 cancel down to
    it: 1e-12 (measured 4.2e-13 at theta = 10)."""
    if zr < 0.125:
        return 5e-12 if theta < 44.0 else 2e-13
    return 1e-12 if zr == 0.125 and theta < 45.0 else 2e-13


def _x0_shift_rtol(theta: float, zr: float, k0: float, z: float) -> float:
    """The most that moving x0 from the frozen 2 theta zr to the
    dimensional path's exact product 2 k0 z (they differ by about an
    ulp) moves W, |shift| pi b x0^2, relative to |W|."""
    x0 = 2.0 * theta * zr
    shift = Fraction(2.0 * k0) * Fraction(z) - 2 * Fraction(theta) * Fraction(zr)
    e_th = math.exp(-theta)
    pole = math.pi * x0 * x0 * e_th / (1.0 - e_th)
    w = abs(REFERENCE[f"w_theta{theta:g}_zr{zr:g}"])
    return abs(float(shift)) * pole / w


class TestStaticAlphaExpansion:
    """Both routes against the frozen 50-digit W and V_T.  The checks
    are relative to |W| alone: pytest.approx's default absolute
    tolerance of 1e-12 would pass most of these values outright."""

    @pytest.mark.parametrize("theta,zr", FROZEN_POINTS)
    def test_frozen_w(self, theta: float, zr: float) -> None:
        eta, x0 = 1.0 / (2.0 * zr), 2.0 * theta * zr
        if eta > 4.0:
            w = 2.0 * _h_t(eta, theta) / (eta**3 * theta)
        else:
            w = _w_lifshitz(eta, x0, 0.0)
        ref = REFERENCE[f"w_theta{theta:g}_zr{zr:g}"]
        assert abs(w - ref) <= _route_rtol(theta, zr) * abs(ref)

    @pytest.mark.parametrize("theta,zr", FROZEN_POINTS)
    def test_frozen_vhat(self, theta: float, zr: float) -> None:
        atom, env = make_pair(theta)
        z = zr * LAMBDA_T
        v = thermal_potential_exact(atom, env, z)
        vhat = v / (CST.hbar_c_ev_um * atom.alpha0 / LAMBDA_T**4)
        ref = REFERENCE[f"vhat_theta{theta:g}_zr{zr:g}"]
        tol = _route_rtol(theta, zr) + _x0_shift_rtol(theta, zr, atom.k0, z)
        assert abs(vhat - ref) <= tol * abs(ref)

    @pytest.mark.parametrize(
        "theta,zr", [(10.0, 0.3), (20.0, 0.75), (30.0, 0.2), (100.0, 0.01)]
    )
    def test_route_is_picked_by_eta(self, theta: float, zr: float) -> None:
        # bit for bit: the Lifshitz sum at the exact 2 k0 z for eta <= 4,
        # the H_T form above
        atom, env = make_pair(theta)
        z = zr * LAMBDA_T
        eta, (x0, lo) = env.lambda_T / (2.0 * z), _two_product(2.0 * atom.k0, z)
        v = thermal_potential_exact(atom, env, z)
        if eta > 4.0:
            assert v == thermal_short_expansion(atom, env, z)
        else:
            z3 = _z_power(z, 3)
            pref = CST.hbar_c_ev_um * atom.alpha0 * atom.k0 / (8.0 * math.pi * z3)
            assert v == pref * _w_lifshitz(eta, x0, lo)

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
        assert v_t == pytest.approx(
            thermal_short_leading(atom, env, z), rel=1e-10, abs=0
        )


class TestHTNearTerms:
    """_h_t takes the coefficients of its series in 1/eta^2, near terms
    of J_m (n theta < 40) included, from a cache keyed on theta alone,
    which holds whatever eta filled it."""

    @pytest.mark.parametrize("theta", [10.0, 20.0, 39.9, 100.0])
    def test_cold_and_warm_cache_agree(self, theta: float) -> None:
        etas = (8.0, 16.0, 32.0)
        cold = []
        for eta in etas:
            thermal.thermal_series_terms.cache_clear()
            cold.append(_h_t(eta, theta))
        thermal.thermal_series_terms.cache_clear()
        warm = [_h_t(eta, theta) for eta in etas]
        info = thermal.thermal_series_terms.cache_info()
        assert info.hits == len(etas) - 1
        assert info.currsize == 1
        assert warm == cold
        assert warm == [_h_t(eta, theta) for eta in etas]

    def test_a_figure_3_curve_reaches_the_cache(self) -> None:
        # one build per curve: the rows pass the environment's theta,
        # where eta * x0 would take two values an ulp apart along a curve
        for theta in (12.0, 37.0, 150.0):
            thermal.thermal_series_terms.cache_clear()
            cmd_curve(CurveSpec.for_figure(3, theta, 100), CST, io.StringIO())
            info = thermal.thermal_series_terms.cache_info()
            assert info.misses == 1
            assert info.hits > 0


class TestStaticLimit:
    """The leading thermal term comes from the static polarizability and
    does not depend on k0; dispersion enters at order 1/theta^2."""

    @pytest.mark.parametrize("zr", [0.05, 0.15, 0.5, 2.0])
    def test_leading_term_is_static_oracle(self, zr: float) -> None:
        atom, env = make_pair(100.0)
        z = zr * LAMBDA_T
        eta = LAMBDA_T / (2.0 * z)
        # j = 0 depends on eta alone; coth's Taylor route loses about
        # eps (1 + eta^2)^2 of it, 2e-12 at eta = 10 (z = 0.05 lambda_T)
        i0 = next(_coth_terms(eta, 1.0))
        static = CST.hbar_c_ev_um * atom.alpha0 / (8.0 * math.pi * z**4) * i0
        rep = thermal_quadrature_static(atom, env, z)
        assert abs(static - rep.value) <= rep.abs_error_estimate

    def test_l_t_coefficients_are_half_the_expansion_terms(self) -> None:
        # grouped by powers of 1/x0, the paper's L_T (polygamma sums of
        # argument 1 - i/eta) has the coefficients I_k / 2, since W = 4 L_T
        terms = _coth_terms(0.7, 1.0)
        for k in range(6):
            i_k = next(terms)
            ref = REFERENCE[f"lt_coef_eta0.7_k{k}"]
            assert i_k / 2.0 == pytest.approx(ref, rel=1e-12, abs=0)

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


class TestX0Rounding:
    # W at the exact product 2 k0 z of the float k0 and z: theta 10-40 at
    # x0 ~ 1e9, where the float product alone would move W by 3e-8 to
    # 3e-7 of |W|, and the two floats z either side of a zero of W at
    # theta 10, x0 ~ 1e6, where it would move W by 1e-3 to 7e-3 of
    # 2 pi / theta
    @pytest.mark.parametrize(
        "theta,zr",
        [(10.0, 5e7), (20.0, 2.5e7), (30.0, 1.5e7), (40.0, 1.25e7),
         (10.0, 50000.096417924906), (10.0, 50000.09641792491)],
    )
    def test_w_at_the_exact_product(self, theta: float, zr: float) -> None:
        atom, env = make_pair(theta)
        z = zr * LAMBDA_T
        pref = CST.hbar_c_ev_um * atom.alpha0 * atom.k0 / (8.0 * math.pi * _z_power(z, 3))
        w = thermal_potential_exact(atom, env, z) / pref
        ref = REFERENCE[f"exact_x0_theta{theta:g}_zr{zr!r}"]
        assert abs(w - ref) <= 1e-13 * max(abs(ref), 2.0 * math.pi / theta)

    def test_x0_squared_overflow_is_a_domain_error(self) -> None:
        # theta = 10 at x0 = 2e200: z^3 is a normal float, x0^2 overflows,
        # and 2^27 (2 k0) overflows in the split; refused before the low
        # part of x0 is read
        k0, lam = 1e300, 1e-299
        atom = AtomParams(k0=k0, alpha0=3.0e-8)
        env = ThermalEnvironment(temperature=TEMP, lambda_T=lam, theta=k0 * lam)
        with pytest.raises(DomainError, match="x0\\^2 overflows") as exc:
            thermal_potential_exact(atom, env, 1e-100)
        assert "nan" not in str(exc.value)

    def test_finite_at_x0_1e150(self) -> None:
        # theta = 10 at x0 = 1e150, near the largest x0 whose square is
        # finite: the low part of x0 is some 1e133, whose sine and cosine
        # libm reduces exactly
        k0, lam = 1e50, 1e-49
        atom = AtomParams(k0=k0, alpha0=3.0e-8)
        env = ThermalEnvironment(temperature=TEMP, lambda_T=lam, theta=k0 * lam)
        assert math.isfinite(thermal_potential_exact(atom, env, 5e99))


    # x0 below 2^27, where |lo| <= 2^-27 takes sin lo = lo, cos lo = 1,
    # and from 2^27 on, where half an ulp of x0 passes 2^-27
    @pytest.mark.parametrize(
        "x0", [0.5, 40.0, 1234.5678, 2.0**27 - 1.0, 2.0**27, 3.3e9, 1e15]
    )
    def test_pole_term_is_the_full_phase_formula(self, x0: float) -> None:
        def full(x0: float, lo: float, e_th: float) -> float:
            s, c = math.sin(x0), math.cos(x0)
            s_lo, c_lo = math.sin(lo), math.cos(lo)
            scale = math.pi * e_th / (1.0 - e_th)
            return scale * (
                2.0 * x0 * (s * c_lo + c * s_lo)
                - (x0 * x0 - 2.0) * (c * c_lo - s * s_lo)
            )

        half_ulp = 0.5 * math.ulp(x0)
        assert (half_ulp <= 2.0**-27) == (x0 < 2.0**27)
        rng = random.Random(x0)
        los = [0.0, -0.0, half_ulp, -half_ulp, 2.0**-27, -(2.0**-27)]
        los += [rng.uniform(-half_ulp, half_ulp) for _ in range(200)]
        for lo in los:
            for e_th in (math.exp(-10.0), math.exp(-1000.0)):
                assert _pole_term(x0, lo, e_th) == full(x0, lo, e_th)


@given(
    st.floats(min_value=1e-100, max_value=1e100),
    st.floats(min_value=1e-100, max_value=1e100),
)
def test_two_product_is_exact(a: float, b: float) -> None:
    p, e = _two_product(a, b)
    assert p == a * b
    assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)


class TestSignChange:
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


# x0 from 40 to 2e9, and z/lambda_T across the sign change of V_T
FAR_X0 = [40.0 * (5e7) ** (i / 79) for i in range(80)]
SIGN_CHANGE_ZR = [0.29 + 0.0025 * i for i in range(13)]


class TestExpansionRoute:
    """The route for z >= lambda_T / 8: the Lifshitz sum over the
    Matsubara frequencies, whose n = 0 term is the static-alpha term,
    plus the resonant term."""

    @pytest.mark.parametrize(
        "theta", [10.0, 12.5, 15.0, 20.0, 25.0, 30.0, 35.0, 38.0, 40.0, 44.0,
                  45.0, 60.0, 100.0, 300.0, 1000.0]
    )
    def test_serves_every_point_from_x0_40(self, theta: float) -> None:
        # the route refuses nothing: from x0 = 40 on, every point is
        # served, and finite
        atom, env = make_pair(theta)
        zs = [x0 / (2.0 * atom.k0) for x0 in FAR_X0]
        zs += [zr * LAMBDA_T for zr in SIGN_CHANGE_ZR if 2.0 * theta * zr >= 40.0]
        for z in zs:
            assert math.isfinite(thermal_potential_exact(atom, env, z))

    @pytest.mark.parametrize("theta", [10.0, 20.0, 30.0, 40.0, 44.0])
    def test_matches_the_frozen_w_series(self, theta: float) -> None:
        # theta below 45 from z = lambda_T / 8 on, against the paper's
        # series of W summed in 50-digit mpmath and frozen (measured
        # worst 7.6e-16 of max(|W|, 2 pi / theta))
        for zr in (0.125, 0.2, 0.3, 0.307, 0.5, 0.75, 1.0, 1.5):
            w = _w_lifshitz(1.0 / (2.0 * zr), 2.0 * theta * zr, 0.0)
            ref = REFERENCE[f"w_theta{theta:g}_zr{zr:g}"]
            assert abs(w - ref) <= 1e-13 * max(abs(ref), 2.0 * math.pi / theta)

    @pytest.mark.parametrize("zr", [10.0, 1000.0])
    def test_n0_term_is_the_lifshitz_asymptote(self, zr: float) -> None:
        # from z = 10 lambda_T on, e^(-2 pi / eta) = e^(-4 pi z / lambda_T)
        # is below 1e-54 and the resonant term ~ x0^2 e^-theta below
        # 1e-30 of W at theta >= 100: the n = 0 term, weighted 1/2, is all
        # that is left of the thermal and vacuum shifts together, the
        # Lifshitz result, linear in T and free of k0
        z = zr * LAMBDA_T
        for theta in (100.0, 300.0, 1000.0):
            atom, env = make_pair(theta)
            total = thermal_potential_exact(atom, env, z) + vacuum_potential(atom, z)
            lifshitz = lifshitz_asymptote(atom, env, z)
            assert abs(total / lifshitz - 1.0) <= 1e-14

    @pytest.mark.parametrize(
        "theta,x0",
        [(25.179, 139761.245), (22.949, 30942.115), (19.175, 5738.847),
         (44.0, 229.5213391443621)],
    )
    def test_far_field_next_to_a_zero_of_w(self, theta: float, x0: float) -> None:
        # the first three sit next to zeros of W (|W| 3e-5 to 3e-3), where
        # the E1t bracket is off by 2.2e-9 to 1.1e-6 of
        # max(|W|, 2 pi / theta); theta = 44 is a point of the sweep's
        # far grid, where the static-alpha expansion without the pole term
        # was 8.8e-14 of that scale off
        w = _w_lifshitz(theta / x0, x0, 0.0)
        ref = REFERENCE[f"far_theta{theta:g}_x0{x0!r}"]
        assert abs(w - ref) <= 1e-14 * max(abs(ref), 2.0 * math.pi / theta)


class TestSeriesTerms:
    """thermal_series_terms, the H_T form's per-theta series."""

    @pytest.mark.parametrize(
        "theta,used",
        [(10.0, 3), (13.3, 3), (13.4, 2), (20.0, 1), (39.9, 1), (40.0, 0), (1e3, 0)],
    )
    def test_terms_used(self, theta: float, used: int) -> None:
        # the near n, n theta < 40, whose F comes from E1t
        assert thermal_series_terms(theta).terms_used == used

    @pytest.mark.parametrize("theta", [1e155, 1e300])
    def test_huge_theta_keeps_the_far_coefficients(self, theta: float) -> None:
        # theta^2 overflows from theta ~1.34e154; with no near n, J_m is
        # its far part zeta(2m), as it already is at 1e150
        huge = thermal_series_terms(theta)
        assert huge.coefficients == thermal_series_terms(1e150).coefficients
        assert huge.terms_used == 0

    def test_second_call_returns_the_cached_record(self) -> None:
        thermal_series_terms.cache_clear()
        first = thermal_series_terms(25.0)
        assert thermal_series_terms(25.0) is first
        assert len(first.coefficients) == thermal._TERM_CAP - 1

    def test_theta_gate(self) -> None:
        gate = thermal.THETA_MIN * (1.0 - 1e-12)
        for bad in (math.nan, math.inf, -math.inf, 5.0, math.nextafter(gate, 0.0)):
            with pytest.raises(DomainError):
                thermal_series_terms(bad)
        # just below theta = 10, n = 4 is a near term too
        assert thermal_series_terms(gate).terms_used == 4
        # within 4 ulps of the gate the record refuses no theta that
        # _check_pair lets through at theta / eta (eta * (theta / eta)
        # may round either way), and _h_t refuses every theta below it
        below, above = [gate], [gate]
        for _ in range(4):
            below.append(math.nextafter(below[-1], 0.0))
            above.append(math.nextafter(above[-1], 20.0))
        for theta in below[1:] + above:
            for eta in (2.6, 3.0, 4.1, 7.0, 16.0, 1e3, 1e6):
                if theta < gate:
                    with pytest.raises(DomainError):
                        _h_t(eta, theta)
                    continue
                try:
                    thermal._check_pair(eta, theta / eta)
                except DomainError:
                    continue
                assert math.isfinite(_h_t(eta, theta))


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


class TestTripleFactors:
    def test_cache_keeps_the_last_triple(self) -> None:
        # the same three objects give the same record; an equal but new
        # environment an equal, new one; an environment built for another
        # atom is refused right after a cached call
        atom, env = make_pair(100.0)
        f = thermal._thermal_factors(atom, env, CST)
        assert thermal._thermal_factors(atom, env, CST) is f
        twin = ThermalEnvironment(env.temperature, env.lambda_T, env.theta)
        g = thermal._thermal_factors(atom, twin, CST)
        assert g is not f and g == f
        other = AtomParams(k0=2.0 * atom.k0, alpha0=atom.alpha0)
        for fn in (thermal_potential_exact, thermal_short_leading):
            fn(atom, env, 0.01 * LAMBDA_T, CST)
            with pytest.raises(DomainError, match="inconsistent"):
                fn(other, env, 0.01 * LAMBDA_T, CST)

    @pytest.mark.parametrize("theta", [10.0, 1000.0])
    @pytest.mark.parametrize("lam", [1e-300, 1e-90, 1e-79, 1e-60, 1e52, 1e78, 1e300])
    def test_extreme_lambda_t_is_finite_or_refused(self, lam: float, theta: float) -> None:
        # lambda_T^4 is 0 below 1.25e-81 um and overflows from 1.16e77 um,
        # lambda_T^6 is 0 below 1.17e-54 um and overflows from 2.38e51 um:
        # the factors still build, each point is a finite float or a
        # refusal, and only a V_T out of the double range is refused
        atom = AtomParams(k0=theta / lam, alpha0=1e-9)
        env = ThermalEnvironment(temperature=1.0, lambda_T=lam, theta=atom.k0 * lam)
        thermal._thermal_factors(atom, env, CST)
        z = lam / 16.0
        fns = (thermal_short_leading, thermal_short_expansion, thermal_potential_exact)
        # V_T ~ 2.5e-9 eV um^4 / lambda_T^4 is past the double range at
        # 1e-90 um and below, and z^3 overflows at 1e300 um
        refused = {1e-300: fns, 1e-90: fns, 1e300: fns[1:]}.get(lam, ())
        for fn in fns:
            if fn in refused:
                with pytest.raises(DomainError):
                    fn(atom, env, z, CST)
            else:
                v = fn(atom, env, z, CST)
                assert type(v) is float and math.isfinite(v)

    @pytest.mark.parametrize(
        "lam,alpha0",
        [(1e-79, 1e-300), (1e-60, 1e-9), (2e-54, 1e-9), (3e-52, 1e-9),
         (2.3e51, 1e-9), (2.4e51, 1e-9), (1e52, 1e-9), (1e77, 1e300),
         (1.1e77, 1e300), (1e78, 1e300)],
    )
    @pytest.mark.parametrize("zr", [0.0, 1.0 / 20.0, 1.0 / 16.0])
    def test_short_leading_past_the_sixth_power(
        self, lam: float, alpha0: float, zr: float
    ) -> None:
        # where lambda_T^6 is not a normal float (below 5.3e-52 um, from
        # 2.38e51 um) the law is hbar c alpha0 / lambda_T^4 (C_SHORT -
        # CURV_SHORT (z / lambda_T)^2): the z^2 term is 22.6 (z /
        # lambda_T)^2 of C(T), 8.8% at z = lambda_T / 16, and must not
        # drop, and a subnormal lambda_T^6 (2e-54 um: 23% off once) must
        # not be divided by; 1e-60 and 2.3e51 um are the continuity checks
        atom = AtomParams(k0=100.0 / lam, alpha0=alpha0)
        env = ThermalEnvironment(temperature=1.0, lambda_T=lam, theta=atom.k0 * lam)
        z = zr * lam
        lam_, z_ = Fraction(lam), Fraction(z)
        ref = Fraction(CST.hbar_c_ev_um) * Fraction(alpha0) * (
            Fraction(thermal.C_SHORT) / lam_**4
            - Fraction(thermal.CURV_SHORT) * z_**2 / lam_**6
        )
        v = thermal_short_leading(atom, env, z, CST)
        assert v == pytest.approx(float(ref), rel=1e-14, abs=0)


    @pytest.mark.parametrize(
        "lam,alpha0",
        [(1e-90, 1e-300), (1e-79, 1e-300), (1e-60, 1e-9), (1.1e77, 1e300)],
    )
    def test_h_t_prefactor_where_the_fourth_power_is_not_normal(
        self, lam: float, alpha0: float
    ) -> None:
        # at eta = 8 both H_T-route functions are (2 / pi) hbar c alpha0 /
        # lambda_T^4 times a shape of eta and theta alone, so they scale
        # from lambda_T = 1; lambda_T^4 is subnormal below 1.22e-77 um
        # (1.9e-8 off once at 1e-79) and overflows from 1.16e77 um
        atom = AtomParams(k0=100.0 / lam, alpha0=alpha0)
        env = ThermalEnvironment(temperature=1.0, lambda_T=lam, theta=atom.k0 * lam)
        unit = AtomParams(k0=env.theta, alpha0=1.0)
        unit_env = ThermalEnvironment(temperature=1.0, lambda_T=1.0, theta=env.theta)
        for fn in (thermal_short_expansion, thermal_potential_exact):
            ref = Fraction(fn(unit, unit_env, 1.0 / 16.0, CST)) * Fraction(alpha0)
            v = fn(atom, env, lam / 16.0, CST)
            assert v == pytest.approx(float(ref / Fraction(lam) ** 4), rel=1e-14, abs=0)


class TestExpansions:
    def test_short_expansion_near_leading(self) -> None:
        atom, env = make_pair(100.0)
        z = 0.01 * LAMBDA_T
        se = thermal_short_expansion(atom, env, z)
        sl = thermal_short_leading(atom, env, z)
        assert abs(se / sl - 1.0) < 0.10

    @pytest.mark.parametrize("theta", [10.0, 20.0, 30.0, 100.0, 300.0])
    @pytest.mark.parametrize("zr", [0.01, 0.05, 0.1, 0.19])
    def test_short_expansion_accuracy(self, theta: float, zr: float) -> None:
        # against the frozen 50-digit E1t series of W, which is
        # independent of both routes of thermal_potential_exact (measured
        # worst 2.5e-13, theta = 20)
        atom, env = make_pair(theta)
        z = zr * LAMBDA_T
        se = thermal_short_expansion(atom, env, z)
        pref = CST.hbar_c_ev_um * atom.alpha0 * atom.k0 / (8.0 * math.pi * z**3)
        ref = pref * REFERENCE[f"w_theta{theta:g}_zr{zr:g}"]
        assert abs(se / ref - 1.0) < 1e-11

    @pytest.mark.parametrize("theta", [10.0, 13.34, 31.6, 35.0, 100.0, 1000.0])
    @pytest.mark.parametrize("zr", [0.13, 0.15, 0.17, 0.199])
    def test_short_expansion_meets_lifshitz_route(self, theta: float, zr: float) -> None:
        # 2.5 < eta <= 4: the H_T form, which thermal_potential_exact
        # leaves to the Lifshitz route here, still holds its accuracy;
        # theta 35 lands one ulp above 35 at zr 0.199, where n theta
        # once passed E1t's |w| = 35 switch
        atom, env = make_pair(theta)
        z = zr * LAMBDA_T
        pref = CST.hbar_c_ev_um * atom.alpha0 * atom.k0 / (8.0 * math.pi * z**3)
        w_short = thermal_short_expansion(atom, env, z) / pref
        w_lifshitz = thermal_potential_exact(atom, env, z) / pref
        scale = max(abs(w_lifshitz), 2.0 * math.pi / env.theta)
        assert abs(w_short - w_lifshitz) <= 1e-13 * scale

    @pytest.mark.parametrize(
        "theta,eta",
        [(10.0, 2.5000001), (31.6, 2.5000001), (100.0, 2.5000001),
         (1000.0, 2.5000001), (78.0, 2.622), (79.13, 2.528)],
    )
    def test_short_form_stops_inside_its_term_cap(self, theta: float, eta: float) -> None:
        # the stop rule must end the sum inside _TERM_CAP on all of
        # eta > 2.5, where the terms fall by u^2 < 0.16 each; theta 78-79
        # at eta 2.5-2.7 included
        assert math.isfinite(_h_t(eta, theta))

    @pytest.mark.parametrize("z", [1e-103, 1e-110])
    def test_short_expansion_holds_c_t_at_extreme_short_distance(self, z: float) -> None:
        # the leading term a_2 b_2 ~ x0^2/3 is a normal float here even
        # though a_2 = x0^3/3! alone underflows
        atom, env = make_pair(100.0)
        c_t = thermal_short_expansion(atom, env, 1e-100)
        assert c_t == pytest.approx(
            thermal_potential_exact(atom, env, 1e-5 * LAMBDA_T), rel=1e-8, abs=0
        )
        assert thermal_short_expansion(atom, env, z) == pytest.approx(
            c_t, rel=1e-14, abs=0
        )

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
        # L_T is the static-alpha expansion without the resonant pole
        # term, so with V_pole added it is the exact point
        eta, (x0, x0_lo) = LAMBDA_T / (2.0 * z), _two_product(2.0 * atom.k0, z)
        w_pole = _pole_term(x0, x0_lo, math.exp(-eta * x0))
        pref = CST.hbar_c_ev_um * atom.alpha0 * atom.k0 / (8.0 * math.pi * z**3)
        assert abs((lo + pref * w_pole) / ex - 1.0) < 1e-12

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
        assert c_t == pytest.approx(expect, rel=1e-14, abs=0)


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
            2.0 * lifshitz_asymptote(atom, env1, z), rel=1e-12, abs=0
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
    def test_lambda_t_past_fourth_power_overflow(self) -> None:
        # lambda_T^4 overflows from lambda_T ~1.16e77; V_T divides by it
        # in halves from 1e77 on, and scales as lambda_T^-4 across the split
        atom = AtomParams(k0=1.0, alpha0=1e10)
        z = 1e-3
        lams = [math.nextafter(1e77, 0.0), 1e77, 1e80]
        vs = [
            thermal_potential_exact(atom, ThermalEnvironment(1e-73, lam, lam), z)
            for lam in lams
        ]
        assert vs[1] == pytest.approx(vs[0] * (lams[0] / lams[1]) ** 4, rel=1e-14)
        assert vs[2] == pytest.approx(vs[1] * 1e-12, rel=1e-14)

    def test_zero_temperature_breakdown(self) -> None:
        atom, _ = make_pair(100.0)
        bd = total_potential(atom, 1.0, env=None)
        assert bd.thermal == 0.0
        assert bd.total == bd.vacuum

    def test_breakdown_composition(self) -> None:
        atom, env = make_pair(100.0)
        bd = total_potential(atom, 2.0, env=env)
        assert bd.total == bd.vacuum + bd.thermal

    @pytest.mark.parametrize("theta", [10.0, 45.0, 1000.0])
    def test_shared_h0_is_bit_identical(self, theta: float) -> None:
        # total_potential takes H0 once for both parts; on figure 2's
        # range z/lambda_T = 0.1-3 (the H_T form below 0.125, the
        # Lifshitz sum from there on) and at zero temperature it is the
        # keyword-built breakdown of the stand-alone functions' values,
        # bit for bit
        atom, env = _reference_pair(theta, CST)
        for i in range(146):
            z = (0.1 + 0.02 * i) * env.lambda_T
            vac = vacuum_potential(atom, z, CST)
            th = thermal_potential_exact(atom, env, z, CST)
            bd = total_potential(atom, z, env, CST)
            assert bd == PotentialBreakdown(vacuum=vac, thermal=th, total=vac + th, notes="")
            bd = total_potential(atom, z, None, CST)
            assert bd == PotentialBreakdown(vacuum=vac, thermal=0.0, total=vac + 0.0, notes="")
        # a bad z is refused by the vacuum part first, as before
        for z in (0.0, -1.0, math.nan, math.inf, 1e-110, 1e110):
            with pytest.raises(DomainError) as want:
                vacuum_potential(atom, z, CST)
            for e in (env, None):
                with pytest.raises(DomainError) as got:
                    total_potential(atom, z, e, CST)
                assert str(got.value) == str(want.value)
        # an environment built for another atom, by the thermal part
        other, _ = _reference_pair(2.0 * theta, CST)
        with pytest.raises(DomainError) as want:
            thermal_potential_exact(other, env, env.lambda_T, CST)
        with pytest.raises(DomainError) as got:
            total_potential(other, env.lambda_T, env, CST)
        assert str(got.value) == str(want.value)

    def test_breakdown_rejects_bad_total(self) -> None:
        with pytest.raises(DomainError):
            PotentialBreakdown(vacuum=-1.0, thermal=0.5, total=-0.4, notes="")

    def test_recommended_windows(self) -> None:
        assert recommended_approximation(0.01) == "short_leading"
        assert recommended_approximation(0.5) == "exact_series"
        assert recommended_approximation(1.5) == "lifshitz"


@given(st.floats(min_value=0.3, max_value=3.0))
def test_thermal_negative_beyond_crossing(zr: float) -> None:
    # V_T < 0 for z above the sign change at ~0.307 lambda_T
    if zr < 0.32:
        zr = 0.32
    atom, env = make_pair(100.0)
    assert thermal_potential_exact(atom, env, zr * LAMBDA_T) < 0.0
