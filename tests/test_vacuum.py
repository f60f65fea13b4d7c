"""Vacuum module: closed form against frozen references, asymptote
windows, regime classification, and record invariants."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cpwall.errors import DomainError
from cpwall.vacuum import (
    AtomParams,
    RegimeTag,
    X0_RETARDED_MIN,
    _h0_table,
    classify_regime,
    h0,
    nonretarded_asymptote,
    retarded_asymptote,
    vacuum_potential,
)

from _reference_values import REFERENCE

# Optical transition at room temperature: lambda0 ~ 0.48 um.
ATOM = AtomParams(k0=13.101, alpha0=3.0e-8)

# the frozen h0 keys by x0; below 1e3: the Ci/Si form, the Chebyshev
# table (each piece boundary, one ulp either side of it, and a point
# inside each piece) and the series just above 100
_H0_KEYS = {float(k[3:]): k for k in REFERENCE if k.startswith("h0_")}


class TestH0:
    @pytest.mark.parametrize("x0", sorted(x for x in _H0_KEYS if x < 1e3))
    def test_frozen_reference(self, x0: float) -> None:
        # an E1t bracket lost 3.1e-15 and 5.2e-13 at 10 and 100; each
        # branch is measured within 5e-16
        ref = REFERENCE[_H0_KEYS[x0]]
        assert abs(h0(x0) - ref) <= 1e-15 * abs(ref)

    @pytest.mark.parametrize("label", ["1e3", "1e4", "1e6", "1e9"])
    def test_frozen_far_field(self, label: str) -> None:
        # an E1t bracket lost eps x0^2 here (2e-9 at 1e4, 3e-5 at 1e6,
        # the wrong sign at 1e9); the asymptotic series keeps 1e-15
        assert h0(float(label)) == pytest.approx(REFERENCE[f"h0_{label}"], rel=1e-15, abs=0)

    def test_table_pieces_meet(self) -> None:
        # at each inner boundary 2^(i+2) the series of piece i at t = 1
        # and of piece i + 1 at t = -1; h0 takes the upper one
        for i in range(5):
            x = 2.0 ** (i + 2)
            below, above = _h0_table(x, i), _h0_table(x, i + 1)
            assert above == h0(x)
            assert abs(below - above) <= 5e-16 * abs(above)

    def test_branches_meet_at_switch(self) -> None:
        # the Ci/Si form below x0 = 2, the Chebyshev table from 2 to 100
        # and the asymptotic series above
        for below, above in (
            (math.nextafter(2.0, 0.0), 2.0),
            (100.0, math.nextafter(100.0, math.inf)),
        ):
            assert abs(h0(above) - h0(below)) <= 1e-15 * abs(h0(below))

    def test_contact_limit(self) -> None:
        # H0 = -pi + x + O(x^2 log x) near the origin.
        assert h0(1e-8) == pytest.approx(-math.pi, abs=1e-7)

    def test_far_limit(self) -> None:
        x = 1e4
        assert x * h0(x) == pytest.approx(-6.0, abs=1e-6)

    def test_negative_on_wide_grid(self) -> None:
        for i in range(301):
            x0 = 10.0 ** (-3 + 15 * i / 300)
            assert h0(x0) < 0.0

    def test_domain_error_propagates(self) -> None:
        with pytest.raises(DomainError):
            h0(-1.0)
        with pytest.raises(DomainError):
            h0(0.0)


class TestVacuumPotential:
    def test_negative_and_increasing(self) -> None:
        zs = [10.0 ** (-3 + 6 * i / 180) / (2.0 * ATOM.k0) for i in range(181)]
        vals = [vacuum_potential(ATOM, z) for z in zs]
        assert all(v < 0.0 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_nonretarded_window(self) -> None:
        z = 0.01 / ATOM.k0
        exact = vacuum_potential(ATOM, z)
        approx = nonretarded_asymptote(ATOM, z)
        assert abs(approx / exact - 1.0) < 0.02

    def test_retarded_window(self) -> None:
        z = 50.0 / ATOM.k0
        exact = vacuum_potential(ATOM, z)
        approx = retarded_asymptote(ATOM, z)
        assert abs(approx / exact - 1.0) < 0.005

    def test_nonretarded_fails_far_out(self) -> None:
        for x0 in (60.0, 100.0, 300.0):
            z = x0 / (2.0 * ATOM.k0)
            exact = vacuum_potential(ATOM, z)
            approx = nonretarded_asymptote(ATOM, z)
            assert abs(approx / exact - 1.0) > 0.10

    def test_retarded_error_at_validity_edge(self) -> None:
        # Measured: 2.35% at z = 1.3 lambda0; the 1% level is reached
        # only past z ~ 2.03 lambda0.
        z_edge = 1.3 * ATOM.lambda0
        err_edge = abs(
            retarded_asymptote(ATOM, z_edge) / vacuum_potential(ATOM, z_edge) - 1.0
        )
        assert 0.02 < err_edge < 0.025
        z_far = 2.1 * ATOM.lambda0
        err_far = abs(
            retarded_asymptote(ATOM, z_far) / vacuum_potential(ATOM, z_far) - 1.0
        )
        assert err_far < 0.01

    def test_ratio_to_nonretarded_limit(self) -> None:
        z = 1e-4 / ATOM.k0
        assert nonretarded_asymptote(ATOM, z) / vacuum_potential(
            ATOM, z
        ) == pytest.approx(1.0, abs=1e-3)

    def test_scaled_plateau(self) -> None:
        # (k0 z)^3 V0 in hbar c alpha0 k0^4 units plateaus at -1/8.
        from cpwall.constants import PhysicalConstants

        cst = PhysicalConstants()
        z = 1e-3 / ATOM.k0
        unit = cst.hbar_c_ev_um * ATOM.alpha0 * ATOM.k0**4
        scaled = (ATOM.k0 * z) ** 3 * vacuum_potential(ATOM, z) / unit
        assert scaled == pytest.approx(-0.125, rel=1e-3)

    def test_domain_error(self) -> None:
        with pytest.raises(DomainError):
            vacuum_potential(ATOM, 0.0)
        with pytest.raises(DomainError):
            vacuum_potential(ATOM, -1.0)


class TestAsymptoteScaling:
    def test_nonretarded_cube_law(self) -> None:
        a = nonretarded_asymptote(ATOM, 0.3)
        b = nonretarded_asymptote(ATOM, 0.6)
        assert a / b == pytest.approx(8.0, rel=1e-14, abs=0)

    def test_retarded_quartic_law(self) -> None:
        a = retarded_asymptote(ATOM, 0.3)
        b = retarded_asymptote(ATOM, 0.6)
        assert a / b == pytest.approx(16.0, rel=1e-14, abs=0)

    def test_retarded_k0_free(self) -> None:
        other = AtomParams(k0=2.5 * ATOM.k0, alpha0=ATOM.alpha0)
        assert retarded_asymptote(ATOM, 1.7) == retarded_asymptote(other, 1.7)


class TestRegimes:
    def test_examples(self) -> None:
        assert classify_regime(0.01) is RegimeTag.NON_RETARDED
        assert classify_regime(3.0) is RegimeTag.CROSSOVER
        assert classify_regime(20.0) is RegimeTag.RETARDED

    def test_threshold_edges(self) -> None:
        assert classify_regime(0.1) is RegimeTag.CROSSOVER
        assert classify_regime(X0_RETARDED_MIN) is RegimeTag.CROSSOVER
        assert classify_regime(X0_RETARDED_MIN * 1.0001) is RegimeTag.RETARDED


class TestDataclasses:
    def test_atom_params_validation(self) -> None:
        with pytest.raises(DomainError):
            AtomParams(k0=-1.0, alpha0=1.0)
        with pytest.raises(DomainError):
            AtomParams(k0=1.0, alpha0=0.0)
        with pytest.raises(DomainError):
            AtomParams(k0=math.inf, alpha0=1.0)

    def test_lambda0(self) -> None:
        assert ATOM.lambda0 == pytest.approx(2.0 * math.pi / ATOM.k0, rel=1e-15, abs=0)


@given(st.floats(min_value=1e-3, max_value=1e3))
def test_h0_negative_everywhere(x0: float) -> None:
    assert h0(x0) < 0.0


@given(
    st.floats(min_value=0.1, max_value=100.0),
    st.floats(min_value=1e-10, max_value=1e-6),
    st.floats(min_value=1e-3, max_value=1e2),
)
def test_potential_negative(k0: float, alpha0: float, z: float) -> None:
    assert vacuum_potential(AtomParams(k0=k0, alpha0=alpha0), z) < 0.0
