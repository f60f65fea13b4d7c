import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cpwall import specfun as sf
from cpwall.errors import DomainError
from cpwall.oracle import _u3g

from _reference_values import REFERENCE as REF

TARGET = 1e-12      # per-function target
GUARANTEE = 1e-10   # guaranteed bound used where branches stack


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def u3g(u):
    # the wall-response kernel u^3 G(u) that the thermal oracle integrates
    return float(_u3g(np.array([u]))[0])


# ----------------------------------------------------------------------
# frozen high-precision references


@pytest.mark.parametrize("x", [0.5, 1.0, 20.0])
def test_ci_si_reference(x):
    # f and g rebuilt from the frozen Ci and si values
    ci, si = REF[f"ci_{x:g}"], REF[f"si_{x:g}"]
    s, c = math.sin(x), math.cos(x)
    assert rel(sf.auxiliary_f(x), ci * s - si * c) < TARGET
    assert rel(sf.auxiliary_g(x), ci * c + si * s) < TARGET


@pytest.mark.parametrize("x", [0.1, 2.0, 5.0, 30.0])
def test_auxiliary_f_reference(x):
    assert rel(sf.auxiliary_f(x), REF[f"aux_f_{x:g}"]) < TARGET


@pytest.mark.parametrize("x", [2.0, 30.0])
def test_auxiliary_g_reference(x):
    assert rel(sf.auxiliary_g(x), REF[f"aux_g_{x:g}"]) < TARGET


@pytest.mark.parametrize("u", [1e-3, 0.1, 5.0])
def test_kernel_reference(u):
    assert rel(u3g(u), u**3 * REF[f"kernel_g_{u:g}"]) < TARGET


E1_POINTS = [
    1.0, 0.5, 10.0,
    2.5 - 7.5j, 10 - 20j, 100 - 400j, 300 - 600j,
    0.3 + 0.4j, -1.5 + 0.5j,
]

# |w| >= 2, |arg w| > 3pi/4: outside both the disc and the sector
FAR_LEFT_POINTS = [-10 + 1j, -10 + 0.2j, -30 + 2j, -50 + 5j, -35.1 + 30j, -3 + 0.5j]


@pytest.mark.parametrize("w", E1_POINTS, ids=str)
def test_scaled_e1_reference(w):
    assert rel(complex(sf.scaled_e1(w)), REF[f"scaled_e1_{w}"]) < TARGET


@pytest.mark.parametrize("w", FAR_LEFT_POINTS, ids=str)
def test_scaled_e1_refuses_the_far_left(w):
    for order in (1, 2):
        with pytest.raises(DomainError):
            sf.scaled_e1(w, order)
        with pytest.raises(DomainError):
            sf.scaled_e1(w.conjugate(), order)


@pytest.mark.parametrize("eta", [0.01, 0.1, 1.0, 10.0])
def test_bose_sum_p_reference(eta):
    assert rel(sf.bose_sum_p(eta), REF[f"bose_p_{eta:g}"]) < TARGET


# ----------------------------------------------------------------------
# limits and classical values


def test_auxiliary_f_limits():
    assert sf.auxiliary_f(0.0) == 0.5 * math.pi
    # f ~ 1/x - 2/x^3: the defect dies faster than 1/x^2
    for x in (50.0, 200.0):
        assert abs(sf.auxiliary_f(x) - 1.0 / x) < 2.2 / x**3


def test_auxiliary_g_limits():
    # g ~ -1/x^2 + 6/x^4
    for x in (50.0, 200.0):
        assert abs(sf.auxiliary_g(x) + 1.0 / x**2) < 6.6 / x**4
    # log divergence at 0: g unbounded below but x g(x) -> 0
    assert sf.auxiliary_g(1e-7) < -10.0
    assert abs(1e-7 * sf.auxiliary_g(1e-7)) < 1e-5


def test_auxiliary_g_is_derivative_of_f():
    h = 1e-5
    fd = (sf.auxiliary_f(2.0 + h) - sf.auxiliary_f(2.0 - h)) / (2 * h)
    assert abs(sf.auxiliary_g(2.0) - fd) < 1e-7


def test_kernel_values():
    # G(0) = 1/3 and G(pi) = -2/pi^2
    assert u3g(0.0) == 0.0
    assert u3g(1e-8) / 1e-24 == pytest.approx(1.0 / 3.0, rel=1e-15, abs=0)
    assert u3g(math.pi) == pytest.approx(-2.0 * math.pi, rel=1e-14, abs=0)


def test_zeta_even_classical():
    assert rel(sf._zeta_even_unchecked(1), math.pi**2 / 6) < 1e-15
    assert rel(sf._zeta_even_unchecked(2), math.pi**4 / 90) < 1e-15


def test_zeta_even_forty():
    d = sf._zeta_even_unchecked(20) - 1.0
    assert 0.0 < d < 1e-12
    assert rel(d, REF["zeta_40_minus_1"]) < 1e-6  # representation-limited


def _bernoulli_even(n_max):
    # B_0, B_2, ..., B_{2 n_max} by the defining recurrence
    out = [Fraction(1)]
    b = [Fraction(1)]
    for m in range(1, 2 * n_max + 1):
        acc = Fraction(0)
        for j, bj in enumerate(b):
            acc += math.comb(m + 1, j) * bj
        b.append(-acc / (m + 1))
        if m % 2 == 0:
            out.append(b[m])
    return out


def test_zeta_even_literals_are_rounded_bernoulli_values():
    # zeta(2m) = |B_2m| (2 pi)^2m / (2 (2m)!) in exact rational arithmetic
    # with pi to 60 digits; float() of a Fraction rounds once
    pi = Fraction("3.14159265358979323846264338327950288419716939937510582097494")
    bern = _bernoulli_even(27)
    for m in range(1, 28):
        exact = abs(bern[m]) * (2 * pi) ** (2 * m) / (2 * math.factorial(2 * m))
        assert sf._zeta_even_unchecked(m) == float(exact)
    assert all(sf._zeta_even_unchecked(m) == 1.0 for m in range(27, 601))


def test_zeta_even_monotone_to_one():
    tab = [sf._zeta_even_unchecked(m) for m in range(1, 261)]
    assert all(a >= b for a, b in zip(tab, tab[1:]))
    assert all(v >= 1.0 for v in tab)
    assert tab[-1] == 1.0


def test_bose_sum_p_limits():
    assert sf.bose_sum_p(1e4) < 2e-8
    eta = 0.1
    assert abs(sf.bose_sum_p(eta) - (0.5 * math.pi / eta - 0.5)) < 1e-14


def test_bose_sum_p_direct_sum_oracle():
    # P(1) vs truncated sum with integral tail estimate
    m = np.arange(1, 1_000_001, dtype=float)
    direct = float(np.sum(1.0 / (1.0 + m * m)))
    tail = 1.0 / 1_000_000.5  # Int_{1e6}^inf dm/m^2 at eta = 1, midpoint
    closed = sf.bose_sum_p(1.0)
    assert abs(closed - (direct + tail)) < 1e-10
    assert rel(closed, 0.5 * math.pi / math.tanh(math.pi) - 0.5) < 1e-15


# ----------------------------------------------------------------------
# domain errors


def test_domain_errors():
    with pytest.raises(DomainError):
        sf.auxiliary_f(-1.0)
    with pytest.raises(DomainError):
        sf.auxiliary_g(0.0)
    with pytest.raises(DomainError):
        sf.scaled_e1(0.0)
    with pytest.raises(DomainError):
        sf.scaled_e1(-3.0)  # branch cut
    # orders p != 1 only on the continued fraction's sector
    for w, order in ((1.9j, 5), (-3 + 2.9j, 2), (-3 - 2.9j, 0.5), (1.0, 2)):
        with pytest.raises(DomainError):
            sf.scaled_e1(w, order)
    # a non-finite order is a bad input, not a failed continued fraction
    for order in (math.nan, math.inf):
        with pytest.raises(DomainError, match="finite order"):
            sf.scaled_e1(2.0, order)
    for bad_eta in (0.0, math.nan):
        with pytest.raises(DomainError):
            sf.bose_sum_p(bad_eta)


@pytest.mark.parametrize(
    "name,args",
    [
        ("scaled_e1", (complex(math.nan, 1.0),)),
        ("scaled_e1", (complex(-math.inf, 1.0),)),
        ("scaled_e1", (complex(1.0, math.inf),)),
        ("auxiliary_f", (math.nan,)),
        ("auxiliary_f", (math.inf,)),
        ("auxiliary_g", (math.nan,)),
        ("auxiliary_g", (math.inf,)),
    ],
    ids=str,
)
def test_non_finite_arguments_refused(name, args):
    with pytest.raises(DomainError):
        getattr(sf, name)(*args)


# ----------------------------------------------------------------------
# branch-consistency grids (straddling every switch point)


def test_kernel_branch_consistency():
    # Taylor (package) vs closed form (reference route) across the switch
    for u in np.linspace(0.05, 0.2, 100):
        s, c = math.sin(u), math.cos(u)
        closed = u * u * s + 2 * u * c - 2 * s
        assert rel(u3g(float(u)), closed) < GUARANTEE


def test_scaled_e1_radial_switch_consistency():
    # power series vs continued fraction (backward, fixed depth) across |w| = 2
    for r in np.linspace(1.7, 2.4, 10):
        for ph in np.linspace(-0.74 * math.pi, 0.74 * math.pi, 10):
            w = r * cmath.exp(1j * ph)
            assert rel(sf._e1t_power_series(w), sf._e1t_fraction(w, 1)) < GUARANTEE


def test_scaled_e1_angular_switch_consistency():
    # continued fraction (backward, fixed depth) vs power series up to
    # the sector's edge arg w = 3pi/4, where the fraction is deepest
    for r in np.geomspace(2.5, 33.0, 10):
        for ph in np.linspace(0.72 * math.pi, 0.75 * math.pi, 10):
            w = r * cmath.exp(1j * ph)
            assert rel(sf._e1t_power_series(w), sf._e1t_fraction(w, 1)) < GUARANTEE


def test_orders_obey_the_recurrence():
    # e^w E_p(w) of successive orders: p E~_(p+1) = 1 - w E~_p (DLMF
    # 8.19.12); verify's check of h0 takes order 5 on the imaginary
    # axis.  The right side cancels to p/w, so the check holds to 1e-13
    # rather than 1e-15.  The last two points sit on the sector's edge,
    # where the fraction is deepest
    edge = (cmath.rect(4.4, 0.75 * math.pi), cmath.rect(2.0, -0.75 * math.pi))
    for w in (2.5j, 10j, 40j, 3 + 4j, 20 - 5j, 2.0, -3 + 3.2j, *edge):
        for p in (0.5, 1, 2, 3, 4):
            lhs = p * sf.scaled_e1(w, p + 1)
            assert rel(lhs, 1.0 - w * sf.scaled_e1(w, p)) < 1e-13


def test_bose_branch_consistency():
    # closed form vs alternating series around eta = 2
    for eta in np.linspace(1.5, 2.5, 100):
        eta = float(eta)
        closed = 0.5 * math.pi / (math.tanh(math.pi / eta) * eta) - 0.5
        inv2 = 1.0 / (eta * eta)
        s, p = 0.0, 1.0
        for k in range(1, 400):
            p *= inv2
            term = sf._zeta_even_unchecked(k) * p
            s += term if k % 2 == 1 else -term
            if term < 1e-18:
                break
        assert rel(sf.bose_sum_p(eta), closed) < GUARANTEE
        assert rel(sf.bose_sum_p(eta), s) < GUARANTEE


# ----------------------------------------------------------------------
# property-based checks


@given(st.floats(min_value=1e-3, max_value=1e3))
def test_f_bounds_and_sign(x):
    f = sf.auxiliary_f(x)
    assert 0.0 < f <= min(0.5 * math.pi, 1.0 / x) * (1 + 1e-12)


@given(st.floats(min_value=1e-3, max_value=1e3))
def test_g_negative_and_bounded(x):
    g = sf.auxiliary_g(x)
    assert g < 0.0
    assert abs(g) <= 1.0 / (x * x) * (1 + 1e-9) + 1e-300


@given(st.floats(min_value=1e-3, max_value=500.0), st.floats(min_value=1.001, max_value=2.0))
def test_f_monotone_decreasing(x, factor):
    assert sf.auxiliary_f(x) > sf.auxiliary_f(x * factor)


@given(
    st.floats(min_value=0.05, max_value=60.0),
    st.floats(min_value=-math.pi * 0.97, max_value=math.pi * 0.97),
)
def test_scaled_e1_conjugate_symmetry(r, phase):
    # on the disc |w| < 2 and the sector |w| >= 2, |arg w| <= 3pi/4
    w = r * cmath.exp(1j * phase)
    assume(abs(w) < 2.0 or abs(cmath.phase(w)) <= 0.75 * math.pi)
    a = complex(sf.scaled_e1(w))
    b = complex(sf.scaled_e1(w.conjugate()))
    assert a == b.conjugate()


@given(st.floats(min_value=0.0, max_value=1e4))
def test_kernel_bounded(x):
    # |G| <= 1
    assert abs(u3g(x)) <= x**3


@given(st.floats(min_value=0.01, max_value=50.0), st.floats(min_value=1.1, max_value=3.0))
def test_bose_sum_p_positive_decreasing(eta, factor):
    p1 = sf.bose_sum_p(eta)
    p2 = sf.bose_sum_p(eta * factor)
    assert p1 > 0.0
    assert p1 > p2


@given(st.floats(min_value=1e6, max_value=1e12))
def test_scaled_e1_tends_to_inverse(x):
    assert rel(complex(sf.scaled_e1(x)), 1.0 / x) < 2.0 / x
