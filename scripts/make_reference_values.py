"""Regenerate tests/_reference_values.py from 50-digit mpmath evaluations.

Run from the repository root:

    python scripts/make_reference_values.py

The emitted file freezes double-precision reference values for the unit
tests so that mpmath is never needed at test time.  Keys are stable
identifiers; values are floats or complex numbers rounded to float64.
"""

from __future__ import annotations

import pathlib

import mpmath as mp

mp.mp.dps = 50

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


def q_series(x, terms=400):
    x = mp.mpf(x)
    s = mp.mpf(0)
    for m in range(2, terms):
        s += (-1) ** m * (1 - mp.mpf(1) / m) * mp.zeta(2 * m) / x ** (2 * m)
    return s


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
    for u in (1e-3, 0.1, 5.0):
        ref[f"kernel_g_{u:g}"] = float(kernel_g(u))

    e1_points = [
        1.0, 0.5, 10.0,
        2.5 - 7.5j, -10 + 1j, -10 + 0.2j, -30 + 2j, -50 + 5j,
        -35.1 + 30j, 10 - 20j, 100 - 400j, 300 - 600j,
        0.3 + 0.4j, -3 + 0.5j,
    ]
    for w in e1_points:
        val = scaled_e1(w)
        ref[f"scaled_e1_{w}"] = complex(val)

    # Hurwitz zeta: shifted (Re z < 10), unshifted and direct-sum cases
    for z in (5 - 0.6j, 21 - 3j):
        for s in range(2, 11):
            ref[f"hurwitz_{s}_{z}"] = complex(mp.zeta(s, mp.mpc(z)))
    ref[f"hurwitz_45_{1 - 2j}"] = complex(mp.zeta(45, mp.mpc(1, -2)))

    ref["psi1_1-2j"] = complex(mp.psi(1, mp.mpc(1, -2)))
    ref["psi5_0.5-4j"] = complex(mp.psi(5, mp.mpc(0.5, -4)))
    ref["psi0_1-0.5j"] = complex(mp.psi(0, mp.mpc(1, -0.5)))
    ref["psi4_-20j"] = complex(mp.psi(4, mp.mpc(0, -20)))

    for eta in (0.01, 0.1, 1.0, 10.0):
        ref[f"bose_p_{eta:g}"] = float(bose_p(eta))
    ref["q_10"] = float(q_series(10.0))
    ref["q_2"] = float(q_series(2.0))
    ref["zeta_40_minus_1"] = float(mp.zeta(40) - 1)

    thermal_points = [
        (100.0, 0.05), (100.0, 0.3), (100.0, 1.0),
        (30.0, 0.5), (300.0, 0.2),
    ]
    for theta, zr in thermal_points:
        x0 = 2 * theta * zr
        eta = 1 / (2 * mp.mpf(zr))
        ref[f"w_theta{theta:g}_zr{zr:g}"] = float(w_series(x0, eta))
        ref[f"vhat_theta{theta:g}_zr{zr:g}"] = float(vhat(theta, zr))

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
