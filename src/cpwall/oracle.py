"""Brute-force quadrature oracles for every closed form in the package.

Everything here is verification infrastructure: deliberately different
algorithms from the main path, built from elementary functions and this
module's own quadrature only.  None of the special-function machinery
in ``specfun`` (Ci/si, scaled exponential integrals) is ever called.

Vacuum route.  Only the pole-free total is computed.  Its bare
integral is conditionally convergent (the integrand grows like
u sin u), so values are defined by an Abel regulator e^{-c u} in
u = 2kz with the printed sequence c_j = 0.1 * 2^{-j}, j = 0..7,
extrapolated to c = 0 through a Neville table.  Naive truncation of
the regulated integral at u ~ 1/c feeds sin(u) argument-quantization
noise (~eps/c^3 coherent worst case) into the deepest Richardson
levels, so the regulated integrand is first split by polynomial long
division,

    u^3 G(u)/(u + x0) = (u - x0) sin u + 2 cos u
                        + [(x0^2 - 2) sin u - 2 x0 cos u]/(u + x0).

The polynomial part has elementary closed c-moments; the remainder
decays like 1/u and is integrated over pole-resolved geometric panels
followed by a pi-aligned tail summed with Euler (repeated-averaging)
acceleration.  The integration range then never exceeds a few hundred,
which keeps the extrapolation table noise-free.  The panel edges do not
depend on c, so one call evaluates the remainder once on nodes shared
by all eight levels (an array with a level axis), and the Euler
averaging is applied in closed form, as binomially weighted means of
the partial sums.  Error estimates
combine the GL16-vs-GL8 panel difference, the Euler tail increment,
and 4x the last Richardson correction; measured worst case against
50-digit references is 1.5e-11 relative over x0 in [0.05, 100], with
the estimate honest at every point.

Thermal route.  The Bose weight makes every integral absolutely
convergent: plain graded panels (length capped by min(pi, 3/eta)), a
principal-value window [x0(1-s), x0(1+s)] with smooth-quotient pole
subtraction (the subtracted term integrates to zero over the symmetric
window and carries the exponentially small Bose residue at u = x0),
and integration carried to eta*u >= 60 where the weight is ~1e-26.
No regulator, no extrapolation.  One call evaluates the weighted
integrand h(u) = u^3 G(u)/(e^{eta u} - 1) once, on the GL16 and GL8
nodes of every segment together with u = x0, and then applies each
segment's denominator.

Scalar oracles.  F(x) as its Laplace integral and the Bose moments
int u^n/(e^u - 1) du run on the same GL16-vs-GL8 panels; the closed
Bose moments use zeta(4) = pi^4/90 and zeta(6) = pi^6/945.
"""

from __future__ import annotations

import math

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

_ABEL_LEVELS = 8
_ABEL_C0 = 0.1
_TAIL_PANELS = 64
_COMPARISON_FLOOR = 2e-10
# Rounding floor of the scalar oracles' estimates, per unit of gross
# panel magnitude: auxiliary_f, the closed form f_integral_oracle is
# held against, is off by up to 6.6e-15 relative on x in [0.01, 1e4]
# (measured against 25-digit mpmath), taken with 3x headroom.
_SCALAR_FLOOR = 2e-14


class QuadratureReport(Record):
    """One oracle evaluation: value with an honest absolute error
    estimate and its panel count."""

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

# Euler (repeated-averaging) acceleration in closed form: after n - 1
# averaging passes over n partial sums the one entry left is their
# binom(n-1, j)/2^(n-1)-weighted mean, and the entry before it (the last
# one of the pass before) the binom(n-2, j)/2^(n-2)-weighted mean of the
# partial sums shifted by one.
_EULER_LAST = np.array(
    [math.comb(_TAIL_PANELS - 1, j) for j in range(_TAIL_PANELS)], dtype=float
) / 2.0 ** (_TAIL_PANELS - 1)
_EULER_PREV = np.array(
    [math.comb(_TAIL_PANELS - 2, j) for j in range(_TAIL_PANELS - 1)], dtype=float
) / 2.0 ** (_TAIL_PANELS - 2)


def _gl_points(edges: np.ndarray, nodes: np.ndarray = _NODES):
    """Quadrature nodes of every panel, shape (panels, nodes), and the
    panel half-widths; by default the GL16 nodes followed by the GL8."""
    a = edges[:-1]
    b = edges[1:]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid[:, None] + half[:, None] * nodes[None, :], half


def _panel_sums(fu: np.ndarray, half: np.ndarray):
    """Sums along the panel axis of integrand values fu at the
    _gl_points nodes: the GL16 sum, |GL16 - GL8| as the error estimate,
    and the gross panel magnitude sum(|panel_i|), the scale of
    accumulated rounding once the GL16/GL8 difference has saturated at
    machine noise.  Leading axes of fu (regulator levels) are kept."""
    v16 = (fu[..., :16] @ _W16) * half
    s16 = np.sum(v16, axis=-1)
    s8 = np.sum((fu[..., 16:] @ _W8) * half, axis=-1)
    return s16, np.abs(s16 - s8), np.sum(np.abs(v16), axis=-1)


def _euler_sum(terms: np.ndarray):
    """Euler acceleration of oscillatory panel series (last axis, of
    _TAIL_PANELS terms) by repeated averaging of partial sums; the last
    increment is the estimate."""
    s = np.cumsum(terms, axis=-1)
    last = s @ _EULER_LAST
    return last, np.abs(last - s[..., 1:] @ _EULER_PREV)


def _geometric_edges(a0: float, pole: float, cap: float, scale: float = 0.75):
    """Panels from a0 with length min(scale*dist-to-pole, cap) until the
    cap is reached, closed at the next pi multiple (tail alignment)."""
    edges = [a0]
    a = a0
    while True:
        length = min(scale * abs(a - pole), cap)
        if length >= cap - 1e-12:
            break
        a += length
        edges.append(a)
    u2 = _PI * math.ceil(a / _PI + 1e-12)
    if u2 > a + 1e-12:
        edges.append(u2)
    return np.array(edges), u2


def _uniform_edges(a: float, b: float, cap: float) -> np.ndarray:
    n = max(1, int(math.ceil((b - a) / cap - 1e-12)))
    return np.linspace(a, b, n + 1)


# ----------------------------------------------------------------------
# vacuum route: regulated remainders and closed polynomial moments


def _q_plus(x0: float, cs: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """int_0^inf [(x0^2-2) sin u - 2 x0 cos u] e^{-cu}/(u + x0) du for
    every regulator c in cs at once: the panel edges do not depend on c,
    so all levels share one set of nodes.  Returns values, error
    estimates and the panel count of one level."""
    aa = x0 * x0 - 2.0
    c = cs[:, None, None]

    def f(u):
        return (aa * np.sin(u) - 2.0 * x0 * np.cos(u)) * np.exp(-c * u) / (u + x0)

    head_edges, u2 = _geometric_edges(0.0, -x0, _PI)
    head_u, head_half = _gl_points(head_edges)
    head, e_head, _ = _panel_sums(f(head_u), head_half)
    tail_u, tail_half = _gl_points(u2 + _PI * np.arange(_TAIL_PANELS + 1), _N16)
    tail, e_tail = _euler_sum((f(tail_u) @ _W16) * tail_half)
    panels = (head_edges.size - 1) + _TAIL_PANELS
    return head + tail, e_head + e_tail, panels


def _poly_plus(x0: float, c):
    # closed moments of (u - x0) sin u + 2 cos u under e^{-cu}
    d = 1.0 + c * c
    return 2.0 * c / (d * d) - x0 / d + 2.0 * c / d


def _richardson(vals: list[float], cs: list[float]) -> tuple[float, float]:
    t = list(vals)
    prev_top = math.nan
    for k in range(1, len(t)):
        t = [
            t[i + 1] + (t[i + 1] - t[i]) * cs[i + k] / (cs[i] - cs[i + k])
            for i in range(len(t) - 1)
        ]
        if len(t) == 2:
            prev_top = t[0]
    return t[0], abs(t[0] - prev_top)


def _h0_quadrature(x0: float, c0: float = _ABEL_C0) -> tuple[float, float, int]:
    """Abel limit of int u^3 G(u)/(u + x0) du (equals H0(x0))."""
    cs = c0 * 0.5 ** np.arange(_ABEL_LEVELS)
    q, q_errs, panels = _q_plus(x0, cs)
    val, r_err = _richardson((_poly_plus(x0, cs) + q).tolist(), cs.tolist())
    q_err = float(np.max(q_errs))
    est = 4.0 * r_err + 10.0 * q_err + 1e-15 * abs(val)
    if est > 1e-4 * (abs(val) + 1.0):
        raise ConvergenceError(
            f"Abel/Richardson extrapolation did not converge: value={val}, "
            f"richardson_err={r_err}, quadrature_err={q_err}"
        )
    return val, est, _ABEL_LEVELS * panels


def vacuum_split_quadrature(
    atom: AtomParams,
    z: float,
    constants: PhysicalConstants | None = None,
) -> QuadratureReport:
    """Quadrature reconstruction of the vacuum shift (eV) from the
    pole-free combination alpha+ + alpha- = alpha0 k0/(k + k0)."""
    z3 = _z_power(z, 3)
    cst = constants if constants is not None else _DEFAULT_CONSTANTS
    x0 = 2.0 * atom.k0 * z
    pref = cst.hbar_c_ev_um * atom.alpha0 * atom.k0 / (16.0 * _PI * z3)
    val, est, panels = _h0_quadrature(x0)
    return QuadratureReport(
        value=2.0 * pref * val,
        abs_error_estimate=2.0 * pref * est,
        subdivisions=panels,
    )


# ----------------------------------------------------------------------
# thermal route: absolutely convergent, Bose-weighted


def _u3g(u: np.ndarray) -> np.ndarray:
    """u^3 G(u) = u^2 sin u + 2u cos u - 2 sin u, with the small-u
    Taylor form below 0.1 where the closed form loses digits to
    cancellation."""
    closed = u * (u * np.sin(u) + 2.0 * np.cos(u)) - 2.0 * np.sin(u)
    x2 = u * u
    taylor = u * x2 * (
        1.0 / 3.0
        + x2
        * (-0.1 + x2 * (1.0 / 168.0 + x2 * (-1.0 / 6480.0 + x2 / 443520.0)))
    )
    return np.where(np.abs(u) < 0.1, taylor, closed)


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


def _bose_h(eta: float, us: list[np.ndarray]) -> list[np.ndarray]:
    """h(u) = u^3 G(u) / (e^{eta u} - 1) on each array of us, from one
    evaluation on all of them together."""
    u = np.concatenate([a.ravel() for a in us])
    h = _u3g(u) * _bose_weight(eta * u)
    ends = np.cumsum([a.size for a in us])
    return [h[end - a.size:end].reshape(a.shape) for a, end in zip(us, ends)]


def thermal_quadrature(
    atom: AtomParams,
    env: ThermalEnvironment,
    z: float,
    constants: PhysicalConstants | None = None,
    window_scale: float = 1.0,
) -> QuadratureReport:
    """Direct quadrature of the thermal integral (eV): Bose-weighted
    plus-part minus the principal-value part across k = k0."""
    z3 = _z_power(z, 3)
    if not 0.0 < window_scale <= 1.0:
        raise DomainError(f"window_scale must be in (0, 1], got {window_scale}")
    cst = constants if constants is not None else _DEFAULT_CONSTANTS
    eta = env.lambda_T / (2.0 * z)
    x0 = 2.0 * atom.k0 * z
    cap = min(_PI, 3.0 / eta)
    u_max = 60.0 / eta

    # Segments: the plus part h/(u + x0) over [0, u_max], then the
    # principal-value part h/(u - x0) over the window [lo, hi], the
    # stretch before it and the decay tail after it.
    s = window_scale
    lo = x0 * (1.0 - s)
    hi = x0 * (1.0 + s)
    plus_u, plus_half = _gl_points(_uniform_edges(0.0, u_max, cap))
    pv = [_gl_points(_uniform_edges(lo, hi, cap))]
    if lo > 0.0:
        pv.append(_gl_points(_uniform_edges(0.0, lo, min(cap, 0.25 * s * x0))))
    tail_edges = _decay_tail_edges(hi, x0, cap, max(u_max, hi + 2.0 * cap))
    if tail_edges.size >= 2:
        pv.append(_gl_points(tail_edges))
    h_plus, *h_pv, h_x0 = _bose_h(eta, [plus_u, *(u for u, _ in pv), np.array([x0])])

    v_plus, err, gross = _panel_sums(h_plus / (plus_u + x0), plus_half)
    panels = plus_half.size
    # Smooth-quotient subtraction in the PV window: the subtracted
    # h(x0)/(u - x0) integrates to zero over the symmetric window.
    h_pv[0] = h_pv[0] - float(h_x0[0])
    v_pv = 0.0
    for h, (u, half) in zip(h_pv, pv):
        v, e, g = _panel_sums(h / (u - x0), half)
        v_pv += v
        err += e
        gross += g
        panels += half.size

    pref = cst.hbar_c_ev_um * atom.alpha0 * atom.k0 / (8.0 * _PI * z3)
    value = pref * (v_plus - v_pv)
    # GL16-vs-GL8 saturates once converged, so a floor on the gross
    # panel magnitude keeps the estimate honest when this value is
    # differenced against a closed form evaluated in double precision:
    # the series side carries ~1e-12 per-term rounding amplified by the
    # (x0^2 - 2) bracket cancellation at large x0 (measured need 8e-12
    # on the acceptance grids, taken with 6x headroom).
    est = pref * (err + _COMPARISON_FLOOR * gross) + 1e-300
    return QuadratureReport(
        value=float(value),
        abs_error_estimate=float(est),
        subdivisions=panels,
    )


def thermal_quadrature_static(
    atom: AtomParams,
    env: ThermalEnvironment,
    z: float,
    constants: PhysicalConstants | None = None,
) -> QuadratureReport:
    """Thermal integral with the dispersive polarizability frozen at its
    static value alpha0 (the k << k0 form); used to measure how little
    dispersion matters at theta >= 10."""
    z4 = _z_power(z, 4)
    cst = constants if constants is not None else _DEFAULT_CONSTANTS
    eta = env.lambda_T / (2.0 * z)
    cap = min(_PI, 3.0 / eta)
    u_max = 60.0 / eta

    u, half = _gl_points(_uniform_edges(0.0, u_max, cap))
    v, e, g = _panel_sums(*_bose_h(eta, [u]), half)
    pref = cst.hbar_c_ev_um * atom.alpha0 / (8.0 * _PI * z4)
    value = pref * v
    return QuadratureReport(
        value=float(value),
        abs_error_estimate=float(pref * (e + _COMPARISON_FLOOR * g) + 1e-300),
        subdivisions=half.size,
    )


# ----------------------------------------------------------------------
# scalar oracles


def _f_head_edges(x: float, t_split: float) -> np.ndarray:
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
_F_TAIL_EDGES = np.concatenate([[0.0], 0.5 ** np.arange(60, -1, -1.0)])


def f_integral_oracle(x: float) -> QuadratureReport:
    """F(x) = int_0^inf e^{-xt}/(1+t^2) dt on GL16-vs-GL8 panels, split
    at T = max(1, 1/x).  The head [0, T] is taken in t; the tail is
    mapped to [0, 1] by v = e^{-x(t-T)}, which leaves e^{-xT}/x times
    int_0^1 dv/(1 + (T - ln(v)/x)^2), smooth at v = 1 because xT >= 1.

    The estimate adds to |GL16 - GL8| a floor of _SCALAR_FLOOR times the
    gross panel magnitude, which covers the rounding of the closed form
    this value is compared with once the GL difference has fallen below
    it."""
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"f_integral_oracle needs x > 0, got {x}")
    t_split = max(1.0, 1.0 / x)
    if t_split == math.inf:
        raise DomainError(f"f_integral_oracle needs a finite 1/x, got x = {x}")

    t, t_half = _gl_points(_f_head_edges(x, t_split))
    v, v_half = _gl_points(_F_TAIL_EDGES)
    # below x ~ 1e-154, t^2, ln(v)/x and s^2 may overflow to inf, where
    # 1/(1 + inf) = 0 is the integrand's exact limit
    with np.errstate(over="ignore"):
        head, e_head, g_head = _panel_sums(np.exp(-x * t) / (1.0 + t * t), t_half)
        s = t_split - np.log(v) / x
        tail, e_tail, g_tail = _panel_sums(1.0 / (1.0 + s * s), v_half)

    scale = math.exp(-x * t_split) / x
    value = float(head + scale * tail)
    err = e_head + scale * e_tail + _SCALAR_FLOOR * (g_head + scale * g_tail)
    return QuadratureReport(
        value=value,
        abs_error_estimate=float(err) + 1e-300,
        subdivisions=t_half.size + v_half.size,
    )


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
    v, e, g = _panel_sums(u**n * _bose_weight(u), half)
    return QuadratureReport(
        value=float(v),
        abs_error_estimate=float(e + _SCALAR_FLOOR * g) + 1e-300,
        subdivisions=half.size,
    )
