"""Audit every branch switch in cpwall.specfun and cpwall.thermal, and
the thermal oracle's kernel, against mpmath.

Run from the repository root:

    PYTHONPATH=src python scripts/sweep_branch_switches.py

For each function with multiple evaluation branches this sweeps dense
grids straddling the switch locus and reports the worst relative error
per region.  The numbers quoted in the specfun docstrings come from
this script's output.  The h0 section checks the vacuum shape from
x0 = 1e-3 to 1e12, its three branches apart: the Ci/Si form below
x0 = 2, the Chebyshev table up to 100, with verify's E5 form that
checks it, and the asymptotic series above; on the
same grid it holds the vacuum oracle, in the grid passes verify
takes, to its own error estimate.  The thermal oracle section holds
thermal_quadrature's grid passes, one call per theta row, to their own
estimate of thermal_potential_exact on theta 10-1000 x z/lambda_T
1e-3-10.  The other
thermal sections check W of both routes of thermal_potential_exact: the
H_T form on the whole domain of the short expansion, eta > 2.5 (theta
10-1000 x x0/theta 1e-10-0.4, of which thermal_potential_exact takes
x0/theta < 0.25), and the Lifshitz sum plus the resonant term from
there on (next to the route switch, from x0 = 40 to 1e9 below
theta = 45, and on theta 10-44 x z/lambda_T 0.125-1000, where the E1t
series once served), at the same float x0 as mpmath.  The exact-x0
section checks thermal_potential_exact itself, which takes W at the
exact product x0 = 2 k0 z of the float k0 and z it is given, against
mpmath at that product: theta 10-44 x x0 40-1e9, and next to zeros of
W at theta 10 and 25, x0 1e6, 5e7 and 4e8.  The
Lifshitz route is measured against max(|W|, 2 pi/theta), since W
passes through zero.  The script exits with status 1 when the thermal
oracle's kernel u^3 G(u) (oracle._u3g, u = 1e-4-0.5 across its 0.1
switch) is off by more than 1e-13, when auxiliary_f or auxiliary_g
(x = 0.01-200) is off by more than 3e-15, scaled_e1 of order 1 (on
the disc |w| < 2 and across its |w| = 2 switch within the sector
|arg w| <= 3pi/4) by more than 3e-14 or bose_sum_p (eta =
0.02-50) by more than 1e-15, when scaled_e1 of any order on its
continued fraction's sector (p = 0.5-1000, |w| = 2-300,
|arg w| <= 3pi/4) is off by more than 1e-14, when h0's Ci/Si form, its
Chebyshev table (2 <= x0 <= 100) or verify's E5 form of it is off by
more than 1e-15 or h0's series by more than 1e-10, when the vacuum
oracle is off by more than its own estimate, when the thermal oracle differs
from thermal_potential_exact by more than its own, when the H_T form is off by
more than 1e-11 of |W|, when the Lifshitz route is off by more than
1e-14 of the scale next to its switch and in the far field, or by more
than 1e-13 on the low-theta grid, or when thermal_potential_exact at the
exact x0 is off by more than 1e-13 of the scale.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import mpmath as mp

from cpwall import specfun as sf
from cpwall import thermal as th

mp.mp.dps = 40


def report_scaled(name: str, pts, errs) -> float:
    """Print the worst of errors already taken relative to their scale,
    and return it."""
    i = int(np.argmax(errs))
    print(f"{name:34s} n={len(pts):4d}  worst {errs[i]:.3e} at {pts[i]}")
    return errs[i]


def w_scale(w: float, theta: float) -> float:
    """The accuracy scale of W, max(|W|, 2 pi/theta): 2 pi/theta, the
    Lifshitz magnitude k_B T alpha0 / 4 z^3 in W units, where W passes
    through zero."""
    return max(abs(w), 2.0 * math.pi / theta)


def report(name: str, pts, got, want) -> float:
    """Print the worst relative error of got against want, and return it."""
    rel = [abs(g - w) / max(abs(w), 1e-300) for g, w in zip(got, want)]
    return report_scaled(name, pts, rel)


KERNEL_RTOL = 1e-13


def sweep_kernel() -> bool:
    """oracle._u3g, the kernel u^3 G(u) that the thermal oracle
    integrates, against mpmath on u = 1e-4-0.5, across its Taylor
    branch's switch at 0.1: the Taylor form below is within 3.2e-16,
    the closed form just above loses up to 6.6e-14 to cancellation.
    True when the worst error is within KERNEL_RTOL."""
    from cpwall.oracle import _u3g

    grid = np.geomspace(1e-4, 0.5, 300)
    want = [
        float(mp.mpf(u) ** 2 * mp.sin(u) + 2 * mp.mpf(u) * mp.cos(u) - 2 * mp.sin(u))
        for u in grid
    ]
    errs = [abs(g - w) / abs(w) for g, w in zip(_u3g(grid).tolist(), want)]
    return report_scaled("oracle _u3g (switch 0.1)", grid, errs) <= KERNEL_RTOL


AUX_RTOL = 3e-15


def sweep_aux() -> bool:
    """auxiliary_f and auxiliary_g against mpmath on x = 0.01-200 (worst
    5.1e-16 and 1.5e-15, both near x = 1.7).  True when both are within
    AUX_RTOL."""
    grid = np.geomspace(0.01, 200.0, 400)
    want_f = [float(mp.ci(x) * mp.sin(x) - (mp.si(x) - mp.pi / 2) * mp.cos(x)) for x in grid]
    want_g = [float(mp.ci(x) * mp.cos(x) + (mp.si(x) - mp.pi / 2) * mp.sin(x)) for x in grid]
    worst = max(
        report("auxiliary_f (0.01..200)", grid, [sf.auxiliary_f(float(x)) for x in grid], want_f),
        report("auxiliary_g (0.01..200)", grid, [sf.auxiliary_g(float(x)) for x in grid], want_g),
    )
    return worst <= AUX_RTOL


E1T_RTOL = 3e-14


def sweep_e1t() -> bool:
    """scaled_e1 of order 1 against mpmath on the disc |w| < 2, every
    phase off the cut, and across the |w| = 2 switch within the sector
    |arg w| <= 3pi/4 (worst 1.3e-14, at the switch).  True when both
    regions are within E1T_RTOL."""

    def ref(w: complex) -> complex:
        return complex(mp.exp(w) * mp.e1(w))

    worst = []
    for tag, radii, edge in (
        ("disc |w|<2", np.geomspace(0.01, 1.99, 25), 0.99 * np.pi),
        ("switch |w|=2", np.linspace(1.6, 2.5, 19), 0.75 * np.pi),
    ):
        pts = [r * np.exp(1j * p) for r in radii for p in np.linspace(-edge, edge, 41)]
        got = [complex(sf.scaled_e1(w)) for w in pts]
        want = [ref(w) for w in pts]
        worst.append(report(f"scaled_e1 ({tag})", pts, got, want))
    return max(worst) <= E1T_RTOL


ORDERS_RTOL = 1e-14


def sweep_orders() -> bool:
    """scaled_e1(w, p), the continued fraction evaluated backward from
    its depth 10 + 200/(|w| + Re w), against mpmath on its sector: p =
    0.5, 1, 2, 5, 10, 50 and 1000 at |w| = 2-300 and |arg w| up to
    3pi/4, the edge and the conjugates included.  True when the worst
    error of every order is within ORDERS_RTOL."""
    radii = np.geomspace(2.0, 300.0, 13)
    angs = np.linspace(0.0, 0.75 * np.pi, 7)
    pts = [r * np.exp(1j * a) for r in radii for a in angs]
    pts += [p.conjugate() for p in pts if p.imag != 0.0]
    ok = True
    for p in (0.5, 1, 2, 5, 10, 50, 1000):
        got = [complex(sf.scaled_e1(w, p)) for w in pts]
        want = [complex(mp.exp(w) * mp.expint(p, w)) for w in pts]
        errs = [abs(g - w) / abs(w) for g, w in zip(got, want)]
        ok = report_scaled(f"scaled_e1 order {p} (sector)", pts, errs) <= ORDERS_RTOL and ok
    return ok


BOSE_RTOL = 1e-15


def sweep_bose() -> bool:
    """bose_sum_p against mpmath on eta = 0.02-50, across its switch at
    2 (worst 7.6e-16).  True when it is within BOSE_RTOL."""
    grid = np.geomspace(0.02, 50.0, 200)
    want = [float(mp.pi / mp.tanh(mp.pi / e) / (2 * e) - mp.mpf(1) / 2) for e in grid]
    got = [sf.bose_sum_p(float(e)) for e in grid]
    return report("bose_sum_p (switch 2)", grid, got, want) <= BOSE_RTOL


H0_SMALL_RTOL = 1e-15
H0_TABLE_RTOL = 1e-15
H0_SERIES_RTOL = 1e-10


def sweep_h0() -> bool:
    """h0 against mpmath from x0 = 1e-3 to 1e12, each branch apart: the
    Ci/Si form below x0 = 2, the Chebyshev table up to 100 (1,507
    log-spaced points, and each piece boundary with one ulp either
    side) and the asymptotic series above; on the table's points also
    the E5 form with which verify's criterion 12 checks it; then the
    vacuum oracle's grid core, _vacuum_grid (k0 = 1, z = x0/2, the path
    verify's criterion 1 takes), on the same grid against the same
    references times the prefactor.  The reference runs at 60 digits,
    since the bracket cancels 2 log10 x0 of them.  True when the Ci/Si
    form is within H0_SMALL_RTOL, the table and the E5 form within
    H0_TABLE_RTOL and the series within H0_SERIES_RTOL wherever they are
    taken, and the oracle within its own estimate at every point."""
    from cpwall.oracle import _vacuum_grid
    from cpwall.constants import PhysicalConstants
    from cpwall.vacuum import (
        _H0_SERIES_MIN, _H0_TABLE_MIN, AtomParams, _vacuum_at, _vacuum_factor, h0,
    )
    from cpwall.verify import _h0_e5
    from make_reference_values import h0 as h0_mp

    bounds = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 100.0)
    grid = sorted({
        *np.geomspace(1e-3, 1e12, 481).tolist(),
        *np.linspace(1.5, 2.5, 41).tolist(),
        *np.geomspace(2.0, 100.0, 1507).tolist(),
        *np.linspace(90.0, 110.0, 41).tolist(),
        *(math.nextafter(b, d) for b in bounds for d in (0.0, math.inf)),
    })
    with mp.workdps(60):
        want = [float(h0_mp(mp.mpf(x))) for x in grid]
    got = [h0(x) for x in grid]
    # branch of each point: the Ci/Si form below _H0_TABLE_MIN, the
    # table up to and at _H0_SERIES_MIN, the series above
    branch = [(x >= _H0_TABLE_MIN) + (x > _H0_SERIES_MIN) for x in grid]
    ok = True
    for b, name, rtol in (
        (0, "h0 Ci/Si form (1e-3..2)", H0_SMALL_RTOL),
        (1, "h0 table (2..100)", H0_TABLE_RTOL),
        (2, "h0 series (100..1e12)", H0_SERIES_RTOL),
    ):
        idx = [i for i in range(len(grid)) if branch[i] == b]
        errs = [abs(got[i] - want[i]) / abs(want[i]) for i in idx]
        worst = report_scaled(name, [grid[i] for i in idx], errs)
        ok = ok and worst <= rtol
        if b == 1:
            errs = [abs(_h0_e5(grid[i]) - want[i]) / abs(want[i]) for i in idx]
            worst = report_scaled("h0 E5 check form (2..100)", [grid[i] for i in idx], errs)
            ok = ok and worst <= H0_TABLE_RTOL

    atom = AtomParams(k0=1.0, alpha0=1.0)
    reps = _vacuum_grid(atom, [x / 2.0 for x in grid])
    factor = _vacuum_factor(atom, PhysicalConstants())
    refs = [_vacuum_at(factor, (x / 2.0) ** 3, w) for x, w in zip(grid, want)]
    for name, num in (
        ("vacuum oracle error / |V0|", [abs(r.value - v) for r, v in zip(reps, refs)]),
        ("vacuum oracle estimate / |V0|", [r.abs_error_estimate for r in reps]),
    ):
        report_scaled(name, grid, [n / abs(v) for n, v in zip(num, refs)])
    ratios = [abs(r.value - v) / r.abs_error_estimate for r, v in zip(reps, refs)]
    return report_scaled("vacuum oracle error / estimate", grid, ratios) <= 1.0 and ok


def sweep_thermal_oracle() -> bool:
    """The thermal oracle, its grid core _bose_grid called once per
    theta row (the path verify's criteria 2 and 13 take), against
    thermal_potential_exact (which the sections below hold to mpmath)
    on theta 10-1000 x z/lambda_T 1e-3-10, where the pole x0 lies both
    inside the Bose weight's reach u_max and past it.  True when the
    oracle is within its own estimate at every point."""
    from cpwall.constants import PhysicalConstants
    from cpwall.oracle import _bose_grid

    cst = PhysicalConstants()
    pts, errs, ests = [], [], []
    for theta in (10.0, 30.0, 100.0, 300.0, 1000.0):
        atom, env = th._reference_pair(theta, cst, alpha0_um3=3.0e-9)
        zrs = np.geomspace(1e-3, 10.0, 80).tolist()
        zs = [zr * env.lambda_T for zr in zrs]
        for zr, z, rep in zip(zrs, zs, _bose_grid(atom, env, zs, cst)):
            ref = th.thermal_potential_exact(atom, env, z, cst)
            pts.append((theta, zr))
            errs.append(abs(rep.value - ref) / abs(ref))
            ests.append(rep.abs_error_estimate / abs(ref))
    report_scaled("thermal oracle error / |V_T|", pts, errs)
    report_scaled("thermal oracle estimate / |V_T|", pts, ests)
    ratios = [e / s for e, s in zip(errs, ests)]
    return report_scaled("thermal oracle error / estimate", pts, ratios) <= 1.0


SHORT_RTOL = 1e-11


def sweep_short() -> bool:
    """W of the H_T form, which thermal_potential_exact takes for
    z < lambda_T / 8 and thermal_short_expansion for z < 0.2 lambda_T,
    against the mpmath E1t series on theta 10-1000 x x0/theta
    1e-10-0.3999 (eta > 2.5) and x0 = 2 (where the m = 2 factor of the
    printed form vanishes), with the thetas where n theta = 40 switches
    F from E1t to the zeta tail and theta = 35 and just above it, where
    E1t(-n theta) once switched series.  _h_t gets each grid theta
    itself, as curve rows get the environment's k0 lambda_T, and mpmath
    the same float eta and x0 = theta / eta.  True when the worst error
    is within SHORT_RTOL of |W|."""
    from make_reference_values import w_series  # sets mp.mp.dps = 50

    thetas = sorted({
        *np.geomspace(10.0, 1000.0, 13).tolist(),
        13.34, 20.0, 35.0, math.nextafter(35.0, 40.0), 35.5, 40.0, 44.0,
    })
    qs = [*np.geomspace(1e-10, 0.25, 12).tolist(), 0.3, 0.35, 0.3999]
    pts, got, want = [], [], []
    with mp.workdps(50):
        for theta in thetas:
            for q in [*qs, 2.0 / theta]:
                x0 = q * theta
                eta = theta / x0
                pts.append((theta, q))
                got.append(2.0 * th._h_t(eta, theta) / (eta**3 * theta))
                want.append(float(w_series(mp.mpf(theta) / eta, mp.mpf(eta))))
    report("thermal H_T form (x0/theta)", pts, got, want)
    return max(abs(g - w) / abs(w) for g, w in zip(got, want)) <= SHORT_RTOL


THERMAL_RTOL = 1e-14


def _lifshitz_errors(grid):
    """Errors of the Lifshitz route (``_w_lifshitz``) against the mpmath
    E1t series at (label, eta, x0) points, relative to
    max(|W|, 2 pi/theta): against |W| alone a point next to a zero of W,
    such as theta = 42 at 0.307 lambda_T, reads orders of magnitude
    worse than the route's error.  mpmath gets the same float x0 and
    eta, and _w_lifshitz no low part of x0, since cos x0 inherits the
    rounding of x0 itself (relative eps x0)."""
    from make_reference_values import w_series  # sets mp.mp.dps = 50

    errs = []
    with mp.workdps(50):
        for _, eta, x0 in grid:
            want = float(w_series(mp.mpf(x0), mp.mpf(eta)))
            errs.append(abs(th._w_lifshitz(eta, x0, 0.0) - want) / w_scale(want, eta * x0))
    return [pt for pt, _, _ in grid], errs


def sweep_thermal() -> bool:
    """W of the Lifshitz sum plus the resonant term: 40 points next to
    its switch (theta 38-1000; z/lambda_T from the H_T form's switch,
    eta = 4, to the sign change of V_T near 0.307 and beyond), and a far
    grid on theta 10-44 x x0 40-1e9.  True when the worst error on each
    is within THERMAL_RTOL of max(|W|, 2 pi/theta)."""
    thetas = (38.0, 42.0, 45.0, 48.0, 52.0, 60.0, 100.0, 1000.0)
    zrs = (0.125, 0.13, 0.307, 1.0, 30.0)
    near = [
        ((theta, zr), 1.0 / (2.0 * zr), 2.0 * theta * zr)
        for theta in thetas
        for zr in zrs
    ]
    far_thetas = (10.0, 12.5, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 44.0)
    far = [
        ((theta, x0), theta / x0, x0)
        for theta in far_thetas
        for x0 in np.geomspace(40.0, 1e9, 40).tolist()
    ]
    ok = True
    for name, grid in (
        ("thermal Lifshitz route (switch)", near),
        ("thermal Lifshitz (x0 40..1e9)", far),
    ):
        ok = report_scaled(name, *_lifshitz_errors(grid)) <= THERMAL_RTOL and ok
    return ok


LOW_THETA_RTOL = 1e-13


def sweep_low_theta() -> bool:
    """W of the Lifshitz route for theta 10-44 and z/lambda_T 0.125-1000,
    where theta and x0 both below ~40 once took the E1t series.  True
    when every point is within LOW_THETA_RTOL of max(|W|, 2 pi/theta)."""
    thetas = (10.0, 12.5, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 44.0)
    zrs = sorted({*np.geomspace(3e-3, 1000.0, 24).tolist(), 0.125, 0.307, 100.0})
    grid = [
        ((theta, zr), 1.0 / (2.0 * zr), 2.0 * theta * zr)
        for theta in thetas
        for zr in zrs
        if 1.0 / (2.0 * zr) <= th._SHORT_ETA
    ]
    pts, errs = _lifshitz_errors(grid)
    return report_scaled("thermal Lifshitz (theta 10..44)", pts, errs) <= LOW_THETA_RTOL


EXACT_X0_RTOL = 1e-13


def _zero_pair(atom, env, cst, x0: float) -> tuple[float, float]:
    """The two floats z either side of the first sign change of V_T from
    2 k0 z = x0 on, by the sign thermal_potential_exact gives: x0 steps
    of 0.05, well inside the pole term's period 2 pi, then bisection."""

    def positive(z: float) -> bool:
        return th.thermal_potential_exact(atom, env, z, cst) > 0.0

    step = 0.05 / (2.0 * atom.k0)
    a = x0 / (2.0 * atom.k0)
    sign = positive(a)
    b = a + step
    while positive(b) == sign:
        a, b = b, b + step
    while (m := 0.5 * (a + b)) not in (a, b):
        if positive(m) == sign:
            a = m
        else:
            b = m
    return a, b


def sweep_exact_x0() -> bool:
    """W of thermal_potential_exact at the exact product x0 = 2 k0 z of
    the float k0 and z it is given (the pairs of _reference_pair,
    z = x0 / 2 k0): theta 10-44 x x0 40-1e9, and the two floats z either
    side of a zero of W at theta 10 and 25, x0 1e6, 5e7 and 4e8, where
    the float product alone moves W by up to 7e-3 of the scale.  W is
    V_T over the prefactor the route multiplies by; mpmath gets the
    exact product and eta = lambda_T / 2z.  True when the worst error on
    each is within EXACT_X0_RTOL of max(|W|, 2 pi/theta)."""
    from cpwall.constants import PhysicalConstants
    from make_reference_values import w_series  # sets mp.mp.dps = 50

    cst = PhysicalConstants()
    pairs = {theta: th._reference_pair(theta, cst) for theta in
             (10.0, 12.5, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 44.0)}
    grid = [
        (theta, x0 / (2.0 * pairs[theta][0].k0))
        for theta in pairs
        for x0 in np.geomspace(40.0, 1e9, 40).tolist()
    ]
    zeros = [
        (theta, z)
        for theta in (10.0, 25.0)
        for x0 in (1e6, 5e7, 4e8)
        for z in _zero_pair(*pairs[theta], cst, x0)
    ]
    ok = True
    with mp.workdps(50):
        for name, pts in (
            ("thermal exact x0 (x0 40..1e9)", grid),
            ("thermal exact x0 (zeros of W)", zeros),
        ):
            labels, errs = [], []
            for theta, z in pts:
                atom, env = pairs[theta]
                pref = cst.hbar_c_ev_um * atom.alpha0 * atom.k0 / (8.0 * math.pi * z**3)
                w = th.thermal_potential_exact(atom, env, z, cst) / pref
                x0 = mp.mpf(2.0 * atom.k0) * mp.mpf(z)
                want = float(w_series(x0, mp.mpf(env.lambda_T) / (2 * mp.mpf(z))))
                labels.append((theta, float(x0)))
                errs.append(abs(w - want) / w_scale(want, env.theta))
            ok = report_scaled(name, labels, errs) <= EXACT_X0_RTOL and ok
    return ok


if __name__ == "__main__":
    ok = sweep_kernel()
    ok = sweep_aux() and ok
    ok = sweep_e1t() and ok
    ok = sweep_bose() and ok
    ok = sweep_orders() and ok
    ok = sweep_h0() and ok
    ok = sweep_thermal_oracle() and ok
    ok = sweep_short() and ok
    ok = sweep_thermal() and ok
    ok = sweep_low_theta() and ok
    ok = sweep_exact_x0() and ok
    sys.exit(0 if ok else 1)
