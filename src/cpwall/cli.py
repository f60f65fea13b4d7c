"""Command-line surface: point evaluation, figure-data emission,
verification runs, and analysis reports.

Subcommands: eval, curve, figure (alias of curve), verify, analyze.
Constants can be pinned through a flat key=value file named by the
CPWALL_CONFIG environment variable (keys hbar_c_ev_nm, k_b_ev_per_k,
default_theta), so emitted CSVs stay reproducible even if the default
constants table is ever updated.

Exit codes: 0 success, 1 verification failure, 2 invalid flags,
3 domain/validity errors, 4 convergence failures.

The scaled figure curves are dimensionless functions of (theta, z/x
abscissa) only, so curve emission fixes T = 300 K and alpha0 = 1 nm^3
internally; both cancel in the plotted ratios.  CSV cells carry 17
significant digits, comma separators, '.' decimal; output is
bit-identical across runs with identical flags (fixed grids, fixed
summation order, single-threaded assembly).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, TextIO

from .constants import PhysicalConstants, load_constants
from .errors import ConvergenceError, CpwallError, DomainError, ValidityError
from .thermal import (
    ThermalEnvironment,
    lifshitz_asymptote,
    recommended_approximation,
    thermal_potential_exact,
    thermal_short_leading,
    total_potential,
)
from .vacuum import (
    AtomParams,
    classify_regime,
    nonretarded_asymptote,
    retarded_asymptote,
    vacuum_potential,
)

if TYPE_CHECKING:
    import numpy as np

    from .verify import CriterionResult

__all__ = [
    "CurveSpec",
    "cmd_analyze",
    "cmd_curve",
    "cmd_eval",
    "cmd_verify",
    "main",
    "run_verification",
]

EV_TO_J = 1.602176634e-19
UM_TO_M = 1e-6

PAPER_FIT_WINDOWS = ((0.2, 0.45), (0.5, 0.75))

_FIGURE_RANGES = {1: (0.01, 50.0), 2: (0.1, 3.0), 3: (0.0, 1.5)}
_FIGURE_COLUMNS = {
    1: ("k0z", "exact_scaled", "nonretarded_scaled", "retarded_scaled"),
    2: ("z_over_lambdaT", "total_scaled", "lifshitz_scaled"),
    3: (
        "z_over_lambdaT",
        "thermal_scaled",
        "short_leading_scaled",
        "vacuum_retarded_scaled",
    ),
}


@dataclass(frozen=True)
class CurveSpec:
    """One figure-data request; per-figure defaults give the standard
    ranges (figure 3 runs over z/lambda_T in (0, 1.5), open at 0)."""

    figure_id: int
    theta: float
    points: int
    x_range: tuple[float, float]
    columns: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.figure_id not in (1, 2, 3):
            raise DomainError(f"figure_id must be 1, 2 or 3, got {self.figure_id}")
        if self.points < 2:
            raise DomainError(f"need at least 2 points, got {self.points}")
        lo, hi = self.x_range
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi and lo >= 0.0):
            raise DomainError(f"bad x_range {self.x_range}")
        if self.figure_id == 1 and lo == 0.0:
            # figure 1 runs on a geometric grid, which cannot start at 0
            raise DomainError(f"figure 1 needs x_range lo > 0, got {self.x_range}")
        if tuple(self.columns) != _FIGURE_COLUMNS[self.figure_id]:
            raise DomainError(
                f"figure {self.figure_id} emits columns "
                f"{_FIGURE_COLUMNS[self.figure_id]}, got {self.columns}"
            )

    @classmethod
    def for_figure(
        cls,
        figure_id: int,
        theta: float,
        points: int = 200,
        x_range: tuple[float, float] | None = None,
    ) -> "CurveSpec":
        if figure_id not in (1, 2, 3):
            raise DomainError(f"figure_id must be 1, 2 or 3, got {figure_id}")
        rng = x_range if x_range is not None else _FIGURE_RANGES[figure_id]
        return cls(
            figure_id=figure_id,
            theta=theta,
            points=points,
            x_range=(float(rng[0]), float(rng[1])),
            columns=_FIGURE_COLUMNS[figure_id],
        )


def _fmt(value: float) -> str:
    # 17 significant digits, enough to round-trip any double
    return f"{value:.16e}"


def _figure_grid(spec: CurveSpec) -> np.ndarray:
    import numpy as np

    lo, hi = spec.x_range
    if spec.figure_id == 1:
        return np.geomspace(lo, hi, spec.points)
    if lo == 0.0:
        # open-left interval: the integrands are singular or undefined
        # at contact, so a range starting at 0 excludes the endpoint
        steps = np.arange(1, spec.points + 1, dtype=float)
        return lo + (hi - lo) * steps / float(spec.points)
    return np.linspace(lo, hi, spec.points)


def _reference_pair(
    theta: float, cst: PhysicalConstants, alpha0_um3: float = 1.0e-9
) -> tuple[AtomParams, ThermalEnvironment]:
    """Room-temperature atom/environment pair at the requested theta."""
    lam = cst.thermal_wavelength_um(300.0)
    atom = AtomParams(k0=theta / lam, alpha0=alpha0_um3)
    env = ThermalEnvironment(temperature=300.0, lambda_T=lam, theta=theta)
    return atom, env


def cmd_curve(
    spec: CurveSpec,
    constants: PhysicalConstants | None = None,
    stream: TextIO | None = None,
) -> int:
    """Emit one figure's data as CSV with a header row."""
    cst = constants if constants is not None else load_constants()
    out = stream if stream is not None else sys.stdout
    grid = _figure_grid(spec)
    if spec.figure_id != 1:
        # before the header, so a bad theta leaves no partial output
        atom, env = _reference_pair(spec.theta, cst)
    out.write(",".join(spec.columns) + "\n")

    if spec.figure_id == 1:
        atom = AtomParams(k0=1.0, alpha0=1.0)
        denom = cst.hbar_c_ev_um  # alpha0 = k0 = 1
        for x in grid:
            z = float(x)
            v = vacuum_potential(atom, z, cst)
            nr = nonretarded_asymptote(atom, z, cst)
            ret = retarded_asymptote(atom, z, cst)
            s = z**3 / denom
            out.write(
                ",".join((_fmt(z), _fmt(v * s), _fmt(nr * s), _fmt(ret * s))) + "\n"
            )
        return 0

    lam = env.lambda_T
    scale = cst.hbar_c_ev_um * atom.alpha0 / lam**4

    if spec.figure_id == 2:
        for u in grid:
            zr = float(u)
            z = zr * lam
            tot = total_potential(atom, z, env, cst).total
            lif = lifshitz_asymptote(atom, env, z, cst)
            s = zr**3 / scale
            out.write(",".join((_fmt(zr), _fmt(tot * s), _fmt(lif * s))) + "\n")
        return 0

    for u in grid:
        zr = float(u)
        z = zr * lam
        vt = thermal_potential_exact(atom, env, z, cst)
        short = thermal_short_leading(atom, env, z, cst)
        ret = retarded_asymptote(atom, z, cst)
        out.write(
            ",".join(
                (_fmt(zr), _fmt(vt / scale), _fmt(short / scale), _fmt(ret / scale))
            )
            + "\n"
        )
    return 0


# ----------------------------------------------------------------------
# eval


def _eval_payload(args: argparse.Namespace, cst: PhysicalConstants) -> dict:
    alpha0_um3 = args.alpha0 * 1e-9  # nm^3 -> um^3
    temperature = args.temperature
    preset_label = None

    if temperature < 0.0 or not math.isfinite(temperature):
        raise DomainError(f"temperature must be >= 0 K, got {temperature}")
    if temperature > 0.0:
        lam = cst.thermal_wavelength_um(temperature)
    else:
        lam = None

    if args.k0 is not None:
        k0 = args.k0
    elif args.lambda0 is not None:
        if args.lambda0 <= 0.0:
            raise DomainError(f"--lambda0 must be positive, got {args.lambda0}")
        k0 = 2.0 * math.pi / args.lambda0
    else:
        if lam is None:
            raise _FlagError(
                "with --temperature 0 an explicit --k0 or --lambda0 is required"
            )
        k0 = cst.default_theta / lam
        if cst.default_theta == 100.0:
            preset_label = "optical transition at room temperature"

    atom = AtomParams(k0=k0, alpha0=alpha0_um3)
    env = (
        ThermalEnvironment(temperature=temperature, lambda_T=lam, theta=k0 * lam)
        if lam is not None
        else None
    )
    breakdown = total_potential(atom, args.z, env, cst)

    x0 = 2.0 * atom.k0 * args.z
    tag = classify_regime(x0).value
    if env is not None:
        recommended = recommended_approximation(args.z / env.lambda_T)
    else:
        recommended = {
            "non_retarded": "nonretarded_asymptote",
            "crossover": "exact_closed_form",
            "retarded": "retarded_asymptote",
        }[tag]

    si = args.units == "si"
    e_scale = EV_TO_J if si else 1.0
    l_scale = UM_TO_M if si else 1.0
    payload = {
        "inputs": {
            "k0": atom.k0 / l_scale if si else atom.k0,  # 1/m in SI
            "lambda0": atom.lambda0 * l_scale,
            "alpha0": alpha0_um3 * l_scale**3,
            "z": args.z * l_scale,
            "temperature_K": temperature,
        },
        "units": {
            "energy": "J" if si else "eV",
            "length": "m" if si else "um",
        },
        "derived": {
            "lambda_T": (lam * l_scale) if lam is not None else None,
            "theta": (k0 * lam) if lam is not None else None,
            "x0": x0,
            "z_over_lambda0": args.z / atom.lambda0,
            "z_over_lambda_T": (args.z / lam) if lam is not None else None,
            "regime_tag": tag,
        },
        "potential": {
            "vacuum": breakdown.vacuum * e_scale,
            "thermal": breakdown.thermal * e_scale,
            "total": breakdown.total * e_scale,
        },
        "recommended_approximation": recommended,
        "preset_label": preset_label,
        "notes": breakdown.notes,
    }
    return payload


def _flatten(payload: dict, prefix: str = "") -> list[tuple[str, object]]:
    items: list[tuple[str, object]] = []
    for key, val in payload.items():
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            items.extend(_flatten(val, prefix=f"{name}."))
        else:
            items.append((name, val))
    return items


def _print_eval(payload: dict, fmt: str, out: TextIO) -> None:
    if fmt == "json":
        json.dump(payload, out, indent=2)
        out.write("\n")
        return
    if fmt == "csv":
        cells = _flatten(payload)
        out.write(",".join(name for name, _ in cells) + "\n")
        row = []
        for _, val in cells:
            if isinstance(val, float):
                row.append(_fmt(val))
            elif val is None:
                row.append("")
            else:
                row.append(str(val))
        out.write(",".join(row) + "\n")
        return
    inp = payload["inputs"]
    der = payload["derived"]
    pot = payload["potential"]
    u_e = payload["units"]["energy"]
    u_l = payload["units"]["length"]
    if payload["preset_label"]:
        out.write(f"preset: {payload['preset_label']}\n")
    out.write(f"k0 = {inp['k0']:.9g} 1/{u_l} (lambda0 = {inp['lambda0']:.9g} {u_l})\n")
    out.write(f"alpha0 = {inp['alpha0']:.9g} {u_l}^3\n")
    if der["lambda_T"] is not None:
        out.write(
            f"temperature = {inp['temperature_K']:.9g} K, "
            f"lambda_T = {der['lambda_T']:.9g} {u_l}, theta = {der['theta']:.6g}\n"
        )
    else:
        out.write("temperature = 0 K (vacuum only)\n")
    out.write(
        f"z = {inp['z']:.9g} {u_l} (x0 = {der['x0']:.6g}, "
        f"regime = {der['regime_tag']})\n"
    )
    out.write(f"vacuum  = {pot['vacuum']:+.12e} {u_e}\n")
    out.write(f"thermal = {pot['thermal']:+.12e} {u_e}\n")
    out.write(f"total   = {pot['total']:+.12e} {u_e}\n")
    out.write(f"recommended approximation: {payload['recommended_approximation']}\n")
    out.write(f"notes: {payload['notes']}\n")


def cmd_eval(
    args: argparse.Namespace,
    constants: PhysicalConstants | None = None,
    stream: TextIO | None = None,
) -> int:
    cst = constants if constants is not None else load_constants()
    out = stream if stream is not None else sys.stdout
    payload = _eval_payload(args, cst)
    _print_eval(payload, args.fmt, out)
    return 0


# ----------------------------------------------------------------------
# analyze


def cmd_analyze(
    args: argparse.Namespace,
    constants: PhysicalConstants | None = None,
    stream: TextIO | None = None,
) -> int:
    from .analysis import (
        dominance_crossover,
        find_thermal_equilibrium,
        quadratic_fit,
        regime_error_table,
    )

    cst = constants if constants is not None else load_constants()
    out = stream if stream is not None else sys.stdout
    theta = args.theta if args.theta is not None else cst.default_theta
    atom, env = _reference_pair(theta, cst)
    lam = env.lambda_T

    eq = find_thermal_equilibrium(atom, env, cst)
    out.write(
        f"equilibrium: z*/lambda_T = {eq.z_star_over_lambdaT:.6f} "
        f"({eq.second_derivative_sign.value} curvature), "
        f"bracket [{eq.bracket[0]:g}, {eq.bracket[1]:g}], "
        f"{eq.iterations} iterations\n"
    )
    zc = dominance_crossover(atom, env, cst)
    out.write(
        f"dominance crossover |V_T| = |V0|: z = {zc:.6f} um "
        f"= {zc / lam:.5f} lambda_T\n"
    )

    windows = [tuple(args.fit_window)] if args.fit_window else list(PAPER_FIT_WINDOWS)
    for win in windows:
        # reject malformed user windows up front: the try below is only
        # allowed to absorb the fit-quality bound, not input errors
        if not (0.0 < win[0] < win[1] < 1.5 and win[1] - win[0] >= 1e-3):
            raise DomainError(
                f"fit window must satisfy 0 < lo < hi < 1.5 lambda_T, got {win}"
            )
        try:
            fit = quadratic_fit(atom, env, win, cst)
        except DomainError as exc:
            out.write(f"fit window ({win[0]:g}, {win[1]:g}) lambda_T: rejected: {exc}\n")
            continue
        a, b, c = fit.coefficients
        out.write(
            f"fit window ({win[0]:g}, {win[1]:g}) lambda_T: "
            f"V_T ~ a + b u + c u^2 with a = {a:.6e}, b = {b:.6e}, "
            f"c = {c:.6e}, rms residual {100.0 * fit.rms_residual_relative:.3f}% "
            f"of range\n"
        )

    grid_zr = (0.02, 0.05, 0.1, 0.2, 0.5, 0.75, 1.0, 1.5, 2.0)
    rows = regime_error_table(atom, env, [zr * lam for zr in grid_zr], cst)
    out.write(
        "regime error table (relative errors vs exact):\n"
        "z_over_lambdaT,x0,err_non_retarded,err_retarded,"
        "err_short_leading,err_long_expansion,err_lifshitz\n"
    )
    for row in rows:
        out.write(
            f"{row.z_over_lambdaT:.4f},{row.x0:.6g},"
            f"{row.err_non_retarded:.3e},{row.err_retarded:.3e},"
            f"{row.err_short_leading:.3e},{row.err_long_expansion:.3e},"
            f"{row.err_lifshitz:.3e}\n"
        )
    return 0


# ----------------------------------------------------------------------
# verify


def run_verification(
    quick: bool = False, constants: PhysicalConstants | None = None
) -> list[CriterionResult]:
    """Run every acceptance criterion (see ``cpwall.verify``); returns
    one result per criterion in order."""
    from . import verify

    return verify.run_verification(quick, constants)


def cmd_verify(
    args: argparse.Namespace,
    constants: PhysicalConstants | None = None,
    stream: TextIO | None = None,
) -> int:
    cst = constants if constants is not None else load_constants()
    out = stream if stream is not None else sys.stdout
    t0 = time.monotonic()
    results = run_verification(quick=args.quick, constants=cst)
    elapsed = time.monotonic() - t0

    if args.fmt == "json":
        payload = {
            "quick": args.quick,
            "elapsed_s": elapsed,
            "all_passed": all(r.passed for r in results),
            "criteria": [
                {
                    "number": r.number,
                    "name": r.name,
                    "passed": r.passed,
                    "measured": r.measured,
                    "tolerance": r.tolerance,
                    "note": r.note,
                }
                for r in results
            ],
        }
        json.dump(payload, out, indent=2)
        out.write("\n")
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            out.write(
                f"criterion {r.number:02d} [{status}] {r.name}: "
                f"{r.measured} (tolerance {r.tolerance})\n"
            )
            if r.note:
                out.write(f"             note: {r.note}\n")
        n_fail = sum(not r.passed for r in results)
        out.write(
            f"{len(results) - n_fail}/{len(results)} criteria passed "
            f"in {elapsed:.1f} s"
            + (f"; {n_fail} documented failures" if n_fail else "")
            + "\n"
        )
    return 0 if all(r.passed for r in results) else 1


# ----------------------------------------------------------------------
# argument parsing


class _FlagError(Exception):
    """Invalid flag combination detected after argparse."""


def _add_curve_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--figure", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--points", type=int, default=200)
    p.add_argument(
        "--x-range", type=float, nargs=2, default=None, metavar=("LO", "HI")
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpwall",
        description=(
            "Casimir-Polder potential of a two-level atom near a perfectly "
            "conducting wall, in vacuum and at finite temperature"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate the potential at one point")
    group = p_eval.add_mutually_exclusive_group()
    group.add_argument("--k0", type=float, help="transition wavenumber (1/um)")
    group.add_argument("--lambda0", type=float, help="transition wavelength (um)")
    p_eval.add_argument(
        "--alpha0", type=float, default=1.0, help="static polarizability (nm^3)"
    )
    p_eval.add_argument("--z", type=float, required=True, help="wall distance (um)")
    p_eval.add_argument("--temperature", type=float, default=300.0, help="kelvin")
    p_eval.add_argument("--units", choices=("si", "natural"), default="natural")
    p_eval.add_argument(
        "--format", dest="fmt", choices=("json", "csv", "text"), default="text"
    )
    p_eval.set_defaults(handler="eval")

    for name in ("curve", "figure"):
        p_curve = sub.add_parser(
            name, help="emit figure data as CSV" + (" (alias of curve)" if name == "figure" else "")
        )
        _add_curve_args(p_curve)
        p_curve.set_defaults(handler="curve")

    p_verify = sub.add_parser("verify", help="run the acceptance criteria")
    p_verify.add_argument("--quick", action="store_true", help="reduced grids")
    p_verify.add_argument(
        "--format", dest="fmt", choices=("json", "text"), default="text"
    )
    p_verify.set_defaults(handler="verify")

    p_an = sub.add_parser("analyze", help="equilibrium, crossover, fits, regimes")
    p_an.add_argument("--theta", type=float, default=None)
    p_an.add_argument(
        "--fit-window", type=float, nargs=2, default=None, metavar=("LO", "HI")
    )
    p_an.set_defaults(handler="analyze")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        constants = load_constants()
        if args.handler == "eval":
            return cmd_eval(args, constants)
        if args.handler == "curve":
            theta = args.theta if args.theta is not None else constants.default_theta
            spec = CurveSpec.for_figure(
                args.figure,
                theta=theta,
                points=args.points,
                x_range=tuple(args.x_range) if args.x_range else None,
            )
            return cmd_curve(spec, constants)
        if args.handler == "verify":
            return cmd_verify(args, constants)
        if args.handler == "analyze":
            return cmd_analyze(args, constants)
        raise AssertionError(f"unhandled command {args.handler}")
    except _FlagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, ValidityError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 4
    except CpwallError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
