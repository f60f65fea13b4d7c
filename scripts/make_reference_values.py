"""Regenerate tests/_reference_values.py from 50-digit mpmath evaluations.

Run from the repository root:

    python scripts/make_reference_values.py

The emitted file freezes double-precision reference values for the unit
tests so that mpmath is never needed at test time.  Keys are stable
identifiers; values are floats or complex numbers rounded to float64.
"""

from __future__ import annotations

import math
import pathlib

import mpmath as mp

mp.mp.dps = 50

# the thermal wavelength (um) of the tests' atom/environment pairs
LAMBDA_T = 7.632948

OUT = pathlib.Path(__file__).resolve().parent.parent / "tests" / "_reference_values.py"


def ci(x):
    return mp.ci(x)


def si_shift(x):
    # si(x) = Si(x) - pi/2
    return mp.si(x) - mp.pi / 2


def aux_f(x):
    return ci(x) * mp.sin(x) - si_shift(x) * mp.cos(x)


def aux_g(x):
    return ci(x) * mp.cos(x) + si_shift(x) * mp.sin(x)


def h0(x):
    return (x * x - 2) * aux_f(x) + 2 * x * aux_g(x) - x


def kernel_g(u):
    u = mp.mpf(u)
    return (u * u * mp.sin(u) + 2 * u * mp.cos(u) - 2 * mp.sin(u)) / u**3


def scaled_e1(w):
    w = mp.mpc(w)
    return mp.exp(w) * mp.e1(w)


def bose_p(eta):
    eta = mp.mpf(eta)
    return mp.pi / mp.tanh(mp.pi / eta) / (2 * eta) - mp.mpf(1) / 2


def lt_coef(eta, k):
    """Coefficient of x0^-(2k+1) in the paper's L_T form,

        L_T = -P(eta) / x0 + (1 - x0^2 / 2) sum_{j>=1} Im psi^(2j)(z) / theta^(2j+1)
              + x0 sum_{j>=1} Re psi^(2j-1)(z) / theta^(2j),

    z = 1 - i/eta, theta = eta x0: the polygamma sums grouped by powers
    of 1/x0."""
    eta = mp.mpf(eta)
    z = mp.mpc(1, -1 / eta)

    def a(j):
        return mp.im(mp.psi(2 * j, z)) / eta ** (2 * j + 1)

    def b(j):
        return mp.re(mp.psi(2 * j - 1, z)) / eta ** (2 * j)

    c = b(k + 1) - a(k + 1) / 2
    return c - bose_p(eta) if k == 0 else c + a(k)


def w_series(x0, eta, M=60):
    """Thermal series W(x0, eta); validated against PV quadrature."""
    x0 = mp.mpf(x0)
    eta = mp.mpf(eta)
    th = eta * x0
    zc = mp.mpc(M + 1, 0) - 1j / eta
    head_im = mp.mpf(0)
    head_re = mp.mpf(0)
    for m in range(1, M + 1):
        w = m * th - 1j * x0
        ep = scaled_e1(w)
        en = scaled_e1(-w)
        head_im += mp.im(ep - en)
        head_re += mp.re(ep + en)
    imtail = (
        2 * (-mp.im(mp.psi(0, zc))) / th
        + 4 * mp.im(mp.zeta(3, zc)) / th**3
        + 48 * mp.im(mp.zeta(5, zc)) / th**5
        + 1440 * mp.im(mp.zeta(7, zc)) / th**7
    )
    retail = (
        -2 * mp.re(mp.zeta(2, zc)) / th**2
        - 12 * mp.re(mp.zeta(4, zc)) / th**4
        - 240 * mp.re(mp.zeta(6, zc)) / th**6
        - 10080 * mp.re(mp.zeta(8, zc)) / th**8
    )
    bose = mp.exp(-th) / (1 - mp.exp(-th))
    K0 = head_im + imtail - mp.pi * mp.cos(x0) * bose
    K1 = -x0 * (head_re + retail) + x0 * mp.pi * mp.sin(x0) * bose
    return (x0 * x0 - 2) * K0 + 2 * K1 - 2 * x0 * bose_p(eta)


def vhat(theta, zr):
    """V_T in units hbar*c*alpha0/lambda_T^4."""
    theta = mp.mpf(theta)
    zr = mp.mpf(zr)
    x0 = 2 * theta * zr
    eta = 1 / (2 * zr)
    return theta * w_series(x0, eta) / (8 * mp.pi * zr**3)


def main() -> None:
    ref: dict[str, object] = {}

    for x in (0.5, 1.0, 20.0):
        ref[f"ci_{x:g}"] = float(ci(mp.mpf(x)))
        ref[f"si_{x:g}"] = float(si_shift(mp.mpf(x)))
    for x in (0.1, 2.0, 5.0, 30.0):
        ref[f"aux_f_{x:g}"] = float(aux_f(mp.mpf(x)))
    for x in (2.0, 30.0):
        ref[f"aux_g_{x:g}"] = float(aux_g(mp.mpf(x)))
    for x in (0.05, 1.0, 10.0, 100.0):
        ref[f"h0_{x:g}"] = float(h0(mp.mpf(x)))
    # the far field, where h0 takes its asymptotic series (x0 = 1e9
    # cancels 18 of the 50 digits)
    for label in ("1e3", "1e4", "1e6", "1e9"):
        ref[f"h0_{label}"] = float(h0(mp.mpf(label)))
    # h0's Chebyshev table (2 <= x0 <= 100): each piece boundary and one
    # ulp either side of it, and one point inside each piece
    table_points = [
        x
        for b in (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 100.0)
        for x in (math.nextafter(b, 0.0), b, math.nextafter(b, math.inf))
    ]
    table_points += [3.0, 6.0, 12.0, 24.0, 48.0, 82.0]
    for x in table_points:
        label = f"{x:g}" if float(f"{x:g}") == x else repr(x)
        ref[f"h0_{label}"] = float(h0(mp.mpf(x)))
    for u in (1e-3, 0.1, 5.0):
        ref[f"kernel_g_{u:g}"] = float(kernel_g(u))

    e1_points = [
        1.0, 0.5, 10.0,
        2.5 - 7.5j, 10 - 20j, 100 - 400j, 300 - 600j,
        0.3 + 0.4j, -1.5 + 0.5j,
    ]
    for w in e1_points:
        val = scaled_e1(w)
        ref[f"scaled_e1_{w}"] = complex(val)

    for eta in (0.01, 0.1, 1.0, 10.0):
        ref[f"bose_p_{eta:g}"] = float(bose_p(eta))
    ref["zeta_40_minus_1"] = float(mp.zeta(40) - 1)
    # L_T's coefficients, which are I_k / 2 of the static-alpha expansion
    # (W = 4 L_T); not w_ or vhat_ keys, since they are no thermal point
    for k in range(6):
        ref[f"lt_coef_eta0.7_k{k}"] = float(lt_coef(0.7, k))

    thermal_points = [
        (100.0, 0.05), (100.0, 0.3), (100.0, 1.0),
        (30.0, 0.5), (300.0, 0.2),
    ]
    # the Lifshitz route's range (z >= lambda_T / 8) and the H_T form
    # (z = 0.01 lambda_T)
    thermal_points += [
        (theta, zr)
        for theta in (50.0, 100.0, 1000.0)
        for zr in (0.01, 0.125, 0.5, 3.0, 1000.0)
    ]
    thermal_points += [(30.0, 3.0)]
    # low theta, where theta and x0 both below ~40 once took the E1t
    # series
    thermal_points += [
        (theta, zr) for theta in (10.0, 20.0) for zr in (0.01, 0.125, 0.5, 3.0)
    ]
    # the far field from x0 = 40 to 8e6 below theta = 45, where the E1t
    # series lost up to 1.7e-9 or was refused
    # (theta = 30 at 1000 lambda_T, 40 at 100 lambda_T); x0 = 2 theta zr
    # here is exact in mpmath, while 2 k0 z on the dimensional path can
    # differ from it in the last bit (exact_x0 keys below)
    thermal_points += [(10.0, 2.0), (20.0, 1.0), (30.0, 1.0), (40.0, 3.0)]
    thermal_points += [
        (theta, zr) for theta in (10.0, 20.0, 30.0, 40.0) for zr in (100.0, 1000.0, 1e5)
    ]
    # the H_T form at eta 8.5-17 and x0 6-118
    thermal_points += [(101.95, 0.02893), (248.3, 0.04819), (1000.0, 0.05896)]
    # the C(T) plateau: theta = 40 at z = 5e-4 lambda_T, 100 at 1e-10 and
    # 30 at 1e-8, where the E1t series is off by 2.4e-7 up to orders of
    # magnitude
    thermal_points += [(40.0, 0.0005), (100.0, 1e-10), (30.0, 1e-8)]
    # the thermal tests' route grids: the Lifshitz route at theta 10-44
    # from z = lambda_T / 8 to 1.5 lambda_T (x0 2.5-132), and the H_T
    # form at theta 10-300 over its whole eta > 2.5
    thermal_points += [
        (theta, zr)
        for theta in (10.0, 20.0, 30.0, 40.0, 44.0)
        for zr in (0.125, 0.2, 0.3, 0.307, 0.5, 0.75, 1.0, 1.5)
    ]
    thermal_points += [
        (theta, zr)
        for theta in (10.0, 20.0, 30.0, 100.0, 300.0)
        for zr in (0.01, 0.05, 0.1, 0.19)
    ]
    for theta, zr in thermal_points:
        x0 = 2 * theta * zr
        eta = 1 / (2 * mp.mpf(zr))
        ref[f"w_theta{theta:g}_zr{zr:g}"] = float(w_series(x0, eta))
        ref[f"vhat_theta{theta:g}_zr{zr:g}"] = float(vhat(theta, zr))
    # far-field points at the float eta = theta / x0: three next to zeros
    # of W, where the E1t bracket is off by 2.2e-9 to 1.1e-6 of
    # max(|W|, 2 pi / theta), and one of the sweep's far grid, where the
    # static-alpha expansion without the pole term is 8.8e-14 of that
    # scale off.
    # Not w_ keys: |W| next to a zero is too small to hold through the
    # dimensional path to a share of |W|
    far_points = (
        (25.179, 139761.245), (22.949, 30942.115), (19.175, 5738.847),
        (44.0, 229.5213391443621),
    )
    for theta, x0 in far_points:
        ref[f"far_theta{theta:g}_x0{x0!r}"] = float(w_series(x0, theta / x0))
    # W at the exact product of the float 2 k0 and z that the tests'
    # make_pair gives (k0 = theta / LAMBDA_T, z = zr * LAMBDA_T), with
    # eta = LAMBDA_T / 2z: theta 10-40 at x0 ~ 1e9, where the rounding of
    # the float product alone moves W by 3e-8 to 3e-7 of |W|, and the two
    # floats z either side of a zero of W at theta 10, x0 ~ 1e6, where
    # it moves W by 1e-3 to 7e-3 of 2 pi / theta
    exact_x0_points = (
        (10.0, 5e7), (20.0, 2.5e7), (30.0, 1.5e7), (40.0, 1.25e7),
        (10.0, 50000.096417924906), (10.0, 50000.09641792491),
    )
    for theta, zr in exact_x0_points:
        k0, z = theta / LAMBDA_T, zr * LAMBDA_T
        x0 = mp.mpf(2.0 * k0) * mp.mpf(z)
        eta = mp.mpf(LAMBDA_T) / (2 * mp.mpf(z))
        ref[f"exact_x0_theta{theta:g}_zr{zr!r}"] = float(w_series(x0, eta))
    lines = [
        "# Generated by scripts/make_reference_values.py -- do not edit by hand.",
        "# 50-digit mpmath evaluations rounded to float64.",
        "",
        "REFERENCE = {",
    ]
    for key, val in ref.items():
        lines.append(f"    {key!r}: {val!r},")
    lines.append("}")
    OUT.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {OUT} ({len(ref)} values)")


if __name__ == "__main__":
    main()
