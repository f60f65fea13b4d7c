"""Brute-force quadrature oracles for every closed form in the package.

Everything here is verification infrastructure: deliberately different
algorithms from the main path, built from elementary functions and this
module's own quadrature only.  None of the special-function machinery
in ``specfun`` (Ci/si, scaled exponential integrals) is ever called.

Vacuum route.  Only the pole-free total is computed.  Its mode
integral, int_0^inf u^3 G(u)/(u + x0) du = H0(x0), does not converge on
the real axis (the integrand grows like u sin u), but u^3 G(u) =
Im[(u^2 + 2iu - 2) e^{iu}], and on the rotated contour u = i s it
becomes a Laplace integral whose integrand has one sign,

    H0(x0) = -int_0^inf e^{-s} (s^2 + 2s + 2) x0/(x0^2 + s^2) ds
           = -int_0^inf e^{-x0 t} (x0^2 t^2 + 2 x0 t + 2)/(1 + t^2) dt,

with the kernel e^{-xt}/(1 + t^2) of F's Laplace form (DLMF 6.7(iii)).
It tends to -pi at contact and to -6/x0 far out.  No regulator and no
extrapolation: one panel routine, _laplace, takes it and F alike.  An
x0 whose square overflows is refused.  Against 60-digit references
(scripts/sweep_branch_switches.py) the value is within 6e-16 on x0 in
[1e-3, 1e12], and the estimate covers the error at every point while
staying at or below 3.1e-12 of the value.

Thermal route.  The Bose weight makes every integral absolutely
convergent and is below e^-60 past u_max = 60/eta, so the panels,
GL16-vs-GL8 and at most cap = min(pi, 3/eta) long, follow it: from 0 to
the principal-value window or u_max, the window (_WINDOW_PANELS panels
on each side of x0, clipped symmetrically at 0) and a short decay tail.
In the window a smooth-quotient pole subtraction integrates to zero and
carries the exponentially small Bose residue at u = x0; a window that
starts at or past u_max would add nothing and is dropped, with its tail
and the subtraction.  As eta x0 = theta, the panel count does not grow
with x0.  No regulator, no extrapolation.

Grid passes.  Each route's core (_laplace, _bose_grid) takes a grid of
points; the public oracles are its one-point calls.  It checks every
point, the thermal one against _PANEL_BUDGET (z past about 520
lambda_T), before any array work.  A pass of about _PASS_PANELS panels
is one node array, integrand evaluation and _panel_sums, whose sums do
not depend on the pass.

Scalar oracles.  The Bose moments int u^n/(e^u - 1) du run on the same
GL16-vs-GL8 panels; the closed Bose moments use zeta(4) = pi^4/90 and
zeta(6) = pi^6/945.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np
from numpy.polynomial.legendre import leggauss

from .constants import PhysicalConstants
from .errors import ConvergenceError, DomainError
from .record import Record
from .thermal import ThermalEnvironment
from .vacuum import AtomParams, _z_power

__all__ = [
    "QuadratureReport",
    "bose_integral",
    "bose_integral_quadrature",
    "f_integral_oracle",
    "thermal_quadrature",
    "thermal_quadrature_static",
    "vacuum_split_quadrature",
]

_DEFAULT_CONSTANTS = PhysicalConstants()

_N16, _W16 = leggauss(16)
_N8, _W8 = leggauss(8)
_PI = math.pi

_COMPARISON_FLOOR = 2e-10
# PV window half-width of the thermal oracle, in cap-long panels
_WINDOW_PANELS = 8
# cap-long panels on [0, u_max] past which the thermal oracles refuse:
# about 40 ms and 25 MB a call there; the package's calls stay below 120
_PANEL_BUDGET = 20_000
# Rounding floor of the Laplace and Bose oracles' estimates, per unit of
# gross panel magnitude: auxiliary_f, the closed form f_integral_oracle
# is held against, is off by up to 6.6e-15 relative on x in [0.01, 1e4]
# (measured against 25-digit mpmath), taken with 3x headroom; h0 is
# within 4.9e-16 on x0 in [1e-3, 1e12] (60-digit mpmath).
_SCALAR_FLOOR = 2e-14


class QuadratureReport(Record):
    """One oracle evaluation: value with an honest absolute error
    estimate and its panel count.  The oracles build it per point with
    every field by position, (value, abs_error_estimate, subdivisions)."""

    __slots__ = ("value", "abs_error_estimate", "subdivisions")

    def _check(self) -> None:
        if not math.isfinite(self.value):
            raise ConvergenceError(f"quadrature produced non-finite value {self.value}")
        err = self.abs_error_estimate
        if not (math.isfinite(err) and err > 0):
            raise DomainError(f"abs_error_estimate must be positive, got {err}")
        if self.subdivisions < 0:
            raise DomainError(f"subdivisions must be >= 0, got {self.subdivisions}")


# ----------------------------------------------------------------------
# panel machinery

_NODES = np.concatenate([_N16, _N8])
# panels per array pass of a grid core, which bounds a pass's arrays
_PASS_PANELS = 256


def _gl_points(*edges: np.ndarray):
    """Quadrature nodes of every panel of the edge arrays, in their
    order, shape (panels, nodes), and the panel half-widths: the GL16
    nodes followed by the GL8."""
    a = np.concatenate([e[:-1] for e in edges])
    b = np.concatenate([e[1:] for e in edges])
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid[:, None] + half[:, None] * _NODES[None, :], half


def _panel_sums(fu: np.ndarray, half: np.ndarray, counts: list[int]):
    """Sums of integrand values fu at the _gl_points nodes, per point of
    counts consecutive panels: the GL16 sum, |GL16 - GL8| as the error
    estimate, and the gross panel magnitude sum(|panel_i|), the scale of
    accumulated rounding once GL16 - GL8 is machine noise.  Each point
    gets its own matmul (BLAS rounds a row by its place among the rows
    it is given) and a leading zero, so reduceat sums in np.sum's order."""
    first = np.cumsum([0, *counts[:-1]])
    g = np.empty((3, half.size))
    for a, n in zip(first.tolist(), counts):
        np.matmul(fu[a : a + n, :16], _W16, out=g[0, a : a + n])
        np.matmul(fu[a : a + n, 16:], _W8, out=g[1, a : a + n])
    g[:2] *= half
    np.abs(g[0], out=g[2])
    lead = np.zeros((3, half.size + len(counts)))
    lead[:, np.arange(half.size) + np.repeat(np.arange(1, len(counts) + 1), counts)] = g
    s16, s8, gross = np.add.reduceat(lead, first + np.arange(len(counts)), axis=1)
    return s16, np.abs(s16 - s8), gross


def _passes(counts: list[int]) -> list[slice]:
    """Runs of whole points, of these panel counts, whose first panels
    fall in one block of _PASS_PANELS panels."""
    block = [first // _PASS_PANELS for first in accumulate([0, *counts])][:-1]
    cuts = [i for i, b in enumerate(block) if i == 0 or b != block[i - 1]]
    return [slice(a, b) for a, b in zip(cuts, [*cuts[1:], len(counts)])]


def _uniform_edges(a: float, b: float, cap: float) -> np.ndarray:
    # the floats of np.linspace(a, b, n + 1), without its overhead
    n = max(1, int(math.ceil((b - a) / cap - 1e-12)))
    edges = np.arange(n + 1) * ((b - a) / n) + a
    edges[-1] = b
    return edges


# ----------------------------------------------------------------------
# Laplace integrals: the vacuum route and F


def _laplace_head_edges(x: float, t_split: float) -> np.ndarray:
    """Panels over [0, t_split] doubling from 0.5 min(1, 1/x): the first
    resolves both the e^{-xt} decay length and the 1/(1 + t^2) poles at
    t = +-i, and doubling keeps every later panel as long as its
    distance from either."""
    edges = [0.0]
    t = 0.5 * min(1.0, 1.0 / x)
    while t < t_split:
        edges.append(t)
        t *= 2.0
    edges.append(t_split)
    return np.array(edges)


# v = 2^-k, k = 60..0, after [0, 2^-60]: halving toward the log term
# of the mapped tail at v = 0
_TAIL_V, _TAIL_HALF = _gl_points(np.concatenate([[0.0], 0.5 ** np.arange(60, -1, -1.0)]))
_TAIL_LOG_V = np.log(_TAIL_V).reshape(1, -1)


def _laplace(xs, kernel) -> list[tuple[float, float, int]]:
    """int_0^inf e^{-xt} kernel(xt)/(1 + t^2) dt for each x > 0 of xs, with
    a finite 1/x, on GL16-vs-GL8 panels split at T = max(1, 1/x); kernel
    is a polynomial in s = xt, evaluated on arrays.  The head [0, T] is
    taken in t; the tail is mapped to [0, 1] by v = e^{-x(t-T)}, which
    leaves e^{-xT}/x times int_0^1 kernel(xT - ln v)/(1 + (T - ln(v)/x)^2)
    dv, smooth at v = 1 because xT >= 1.

    Returns each x's value, estimate and panel count.  The estimate
    adds to |GL16 - GL8| a floor of _SCALAR_FLOOR times the gross panel
    magnitude, which covers the rounding of the closed form this value
    is compared with once the GL difference has fallen below it."""
    heads = [_laplace_head_edges(x, max(1.0, 1.0 / x)) for x in xs]
    n_head = [e.size - 1 for e in heads]
    n_tail = _TAIL_HALF.size
    out = []
    for run in _passes([n + n_tail for n in n_head]):
        x = np.array(xs[run], dtype=float)[:, None]
        t_split = np.maximum(1.0, 1.0 / x)
        t, t_half = _gl_points(*heads[run])
        xt = np.repeat(x, n_head[run], axis=0) * t
        # below x ~ 1e-154, t^2, ln(v)/x and s^2 may overflow to inf,
        # where kernel/(1 + inf) = 0 is the integrand's limit to within x^2
        with np.errstate(over="ignore"):
            head_fu = np.exp(-xt) * kernel(xt) / (1.0 + t * t)
            s = t_split - _TAIL_LOG_V / x
            tail_fu = kernel(x * t_split - _TAIL_LOG_V) / (1.0 + s * s)
        head_sums = _panel_sums(head_fu, t_half, n_head[run])
        tail_fu = tail_fu.reshape(-1, _NODES.size)
        tail_sums = _panel_sums(tail_fu, np.tile(_TAIL_HALF, len(x)), [n_tail] * len(x))
        for xi, ti, n, head, e_head, g_head, tail, e_tail, g_tail in zip(
            x.ravel(), t_split.ravel(), n_head[run], *head_sums, *tail_sums
        ):
            scale = math.exp(-xi * ti) / xi
            err = e_head + scale * e_tail + _SCALAR_FLOOR * (g_head + scale * g_tail)
            out.append((float(head + scale * tail), float(err) + 1e-300, n + n_tail))
    return out


def _h0_kernel(s: np.ndarray) -> np.ndarray:
    # H0(x0) = _laplace([x0], _h0_kernel), the kernel -(s^2 + 2s + 2)
    return -(s * (s + 2.0) + 2.0)


def _vacuum_grid(atom: AtomParams, zs, constants=None) -> list[QuadratureReport]:
    """vacuum_split_quadrature at every z of zs, in _laplace's passes."""
    cst = constants if constants is not None else _DEFAULT_CONSTANTS
    pref = cst.hbar_c_ev_um * atom.alpha0 * atom.k0
    prefs = [pref / (8.0 * _PI * _z_power(z, 3)) for z in zs]
    x0s = [2.0 * atom.k0 * z for z in zs]
    for x0 in x0s:
        if not (x0 > 0.0 and math.isfinite(x0 * x0) and math.isfinite(1.0 / x0)):
            raise DomainError(
                f"vacuum_split_quadrature needs x0 = 2 k0 z with a finite square "
                f"and reciprocal, got {x0}"
            )
    reps = _laplace(x0s, _h0_kernel)
    return [QuadratureReport(p * v, p * e, n) for p, (v, e, n) in zip(prefs, reps)]


def vacuum_split_quadrature(
    atom: AtomParams,
    z: float,
    constants: PhysicalConstants | None = None,
) -> QuadratureReport:
    """Quadrature reconstruction of the vacuum shift (eV) from the
    pole-free combination alpha+ + alpha- = alpha0 k0/(k + k0): H0(x0)
    as the Laplace integral of the module docstring.  x0 = 2 k0 z whose
    square or reciprocal overflows is refused."""
    return _vacuum_grid(atom, (z,), constants)[0]


def f_integral_oracle(x: float) -> QuadratureReport:
    """F(x) = int_0^inf e^{-xt}/(1+t^2) dt, by _laplace."""
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"f_integral_oracle needs x > 0, got {x}")
    if 1.0 / x == math.inf:
        raise DomainError(f"f_integral_oracle needs a finite 1/x, got x = {x}")
    return QuadratureReport(*_laplace([x], lambda s: 1.0)[0])


# ----------------------------------------------------------------------
# thermal route: absolutely convergent, Bose-weighted


def _u3g(u: np.ndarray) -> np.ndarray:
    """u^3 G(u) = u^2 sin u + 2u cos u - 2 sin u, with the small-u
    Taylor form on the nodes below 0.1, where the closed form loses
    digits to cancellation."""
    sin = np.sin(u)
    out = u * (u * sin + 2.0 * np.cos(u)) - 2.0 * sin
    small = np.abs(u) < 0.1
    x = u[small]
    x2 = x * x
    out[small] = x * x2 * (
        1.0 / 3.0
        + x2
        * (-0.1 + x2 * (1.0 / 168.0 + x2 * (-1.0 / 6480.0 + x2 / 443520.0)))
    )
    return out


def _bose_weight(y: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        w = 1.0 / np.expm1(np.minimum(y, 700.0))
    return np.where(y > 700.0, 0.0, w)


def _decay_tail_edges(a: float, pole: float, cap: float, b: float) -> np.ndarray:
    """Geometric growth away from the pole, capped, covering [a, b]."""
    edges = [a]
    while edges[-1] < b - 1e-12:
        length = min(cap, max(0.75 * abs(edges[-1] - pole), 1e-3 * cap))
        edges.append(min(b, edges[-1] + length))
    return np.array(edges)


def _bose_span(env: ThermalEnvironment, z: float) -> tuple[float, float, float]:
    """eta = lambda_T / 2z, the panel cap min(pi, 3/eta) and u_max = 60/eta,
    or ConvergenceError when u_max is past _PANEL_BUDGET panels."""
    eta = env.lambda_T / (2.0 * z)
    cap = min(_PI, 3.0 / eta)
    u_max = 60.0 / eta
    if u_max > _PANEL_BUDGET * cap:
        raise ConvergenceError(
            f"thermal oracle needs {math.ceil(u_max / cap)} panels to reach "
            f"eta*u = 60 at eta = {eta:.3g}, past its budget of {_PANEL_BUDGET}"
        )
    return eta, cap, u_max


def _bose_grid(
    atom: AtomParams, env: ThermalEnvironment, zs, constants=None, static=False
) -> list[QuadratureReport]:
    """thermal_quadrature (or thermal_quadrature_static) at every z of
    zs, each checked and held to the panel budget before any pass."""
    cst = constants if constants is not None else _DEFAULT_CONSTANTS
    spans = [(z, _z_power(z, 4 if static else 3), *_bose_span(env, z)) for z in zs]
    points = []  # (prefactor, eta, x0, edge arrays, window panels)
    for z, z_pow, eta, cap, u_max in spans:
        x0 = 2.0 * atom.k0 * z
        # Segments in order of u: to the PV window or u_max (no panel if
        # the window starts at 0), the window, its decay tail; the first
        # alone when the window starts at or past u_max.
        reach = min(_WINDOW_PANELS * cap, x0)
        lo, hi = x0 - reach, x0 + reach
        if static or lo >= u_max:
            edges, window = [_uniform_edges(0.0, u_max, cap)], slice(0, 0)
        else:
            pv = _uniform_edges(lo, hi, cap)
            pre = _uniform_edges(0.0, lo, cap) if lo > 0.0 else pv[:1]
            tail = _decay_tail_edges(hi, x0, cap, max(u_max, hi + 2.0 * cap))
            edges, window = [pre, pv, tail], slice(pre.size - 1, pre.size + pv.size - 2)
        pref = cst.hbar_c_ev_um * atom.alpha0 * (1.0 if static else atom.k0)
        points.append((pref / (8.0 * _PI * z_pow), eta, x0, edges, window))

    counts = [sum(e.size - 1 for e in p[3]) for p in points]
    reports = []
    for run in _passes(counts):
        prefs, etas, x0s, edges, windows = zip(*points[run])
        n = counts[run]
        u, half = _gl_points(*[e for point in edges for e in point])
        # h(u) = u^3 G(u) / (e^{eta u} - 1)
        fu = h = _u3g(u) * _bose_weight(np.repeat(etas, n)[:, None] * u)
        if not static:
            # The PV numerator, h(x0) subtracted on the window's panels,
            # where h(x0)/(u - x0) integrates to zero; h itself when no
            # point of the pass has a window.
            pv = h
            if any(w.stop > w.start for w in windows):
                pv = h.copy()
                h_poles = _u3g(np.array(x0s)) * _bose_weight(np.multiply(etas, x0s))
                for first, w, h_x0 in zip(np.cumsum([0, *n[:-1]]), windows, h_poles):
                    pv[first + w.start : first + w.stop] -= h_x0
            x0 = np.repeat(x0s, n)[:, None]
            fu = h / (u + x0) - pv / (u - x0)
        for pref, k, v, err, gross in zip(prefs, n, *_panel_sums(fu, half, n)):
            # GL16-vs-GL8 saturates once converged; the floor on the gross
            # magnitude covers the closed form's rounding, amplified by its
            # (x0^2 - 2) bracket (8e-12 needed on verify's grids, taken 6x)
            est = pref * (err + _COMPARISON_FLOOR * gross) + 1e-300
            reports.append(QuadratureReport(float(pref * v), float(est), k))
    return reports


def thermal_quadrature(
    atom: AtomParams,
    env: ThermalEnvironment,
    z: float,
    constants: PhysicalConstants | None = None,
) -> QuadratureReport:
    """Direct quadrature of the thermal integral (eV): Bose-weighted
    plus-part minus the principal-value part across k = k0."""
    return _bose_grid(atom, env, (z,), constants)[0]


def thermal_quadrature_static(
    atom: AtomParams,
    env: ThermalEnvironment,
    z: float,
    constants: PhysicalConstants | None = None,
) -> QuadratureReport:
    """Thermal integral with the dispersive polarizability frozen at its
    static value alpha0 (the k << k0 form); used to measure how little
    dispersion matters at theta >= 10."""
    return _bose_grid(atom, env, (z,), constants, static=True)[0]


# ----------------------------------------------------------------------
# scalar oracles


# zeta(n + 1) for the moments bose_integral serves
_BOSE_ZETA = {3: _PI**4 / 90.0, 5: _PI**6 / 945.0}


def _check_bose_n(n: int, name: str) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n not in _BOSE_ZETA:
        raise DomainError(f"{name} serves n in {{3, 5}} only, got {n!r}")


def bose_integral(n: int) -> float:
    """int_0^inf x^n/(e^x - 1) dx = Gamma(n+1) zeta(n+1) for n in {3, 5},
    from zeta(4) = pi^4/90 and zeta(6) = pi^6/945 (independent of
    specfun)."""
    _check_bose_n(n, "bose_integral")
    return math.gamma(n + 1) * _BOSE_ZETA[n]


def bose_integral_quadrature(n: int) -> QuadratureReport:
    """Self-check companion of :func:`bose_integral`: the same integral
    on GL16-vs-GL8 panels of length pi over [0, 32 pi], short enough
    for the integrand's poles at u = +-2 pi i; the cut tail is below
    1e-33."""
    _check_bose_n(n, "bose_integral_quadrature")
    u, half = _gl_points(_uniform_edges(0.0, 32.0 * _PI, _PI))
    (v,), (e,), (g,) = _panel_sums(u**n * _bose_weight(u), half, [half.size])
    est = float(e + _SCALAR_FLOOR * g) + 1e-300
    return QuadratureReport(float(v), est, half.size)
