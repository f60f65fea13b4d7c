"""Correctness gates.

Every timed operation's output is checked after timing; a check that
fails counts the operation as failed.  Each ``check_*`` function
returns ``None`` when the output is right and a one-line reason when it
is not.  The frozen 50-digit references are checked once per run.

The references are independent of the code under test where that is
possible: mpmath for H0, the package's quadrature oracle for the
thermal part, and the frozen values of ``tests/_reference_values.py``.
"""

from __future__ import annotations

import ast
import io
import json
import math
import re
from pathlib import Path
from typing import Sequence

import mpmath

from cpwall import cli
from cpwall.thermal import ThermalEnvironment, thermal_potential_exact, total_potential
from cpwall.oracle import thermal_quadrature
from cpwall.vacuum import AtomParams, vacuum_potential

from .workloads import CurveCall

# stated accuracy: 1e-10 for special-function shapes, 1e-8 composed
SPECFUN_RTOL = 1e-10
COMPOSED_RTOL = 1e-8
# bound of verify criterion 2 (thermal series against its oracle)
THERMAL_RTOL = 1e-6
# criteria whose stated tolerances the closed forms do not meet
VERIFY_EXPECTED_FAILURES = frozenset({3, 4, 10, 13})
VERIFY_CRITERIA = frozenset(range(1, 15))
EQUILIBRIUM_Z = 0.52
EQUILIBRIUM_TOL = 0.02

EV_TO_J = 1.602176634e-19
# curve emission fixes T = 300 K and alpha0 = 1 nm^3 (both cancel)
CURVE_TEMPERATURE = 300.0
CURVE_ALPHA0_UM3 = 1.0e-9


def h0_mp(x: float) -> float:
    """H0(x) = (x^2 - 2) F + 2 x G - x from mpmath Ci/Si at 40 digits,
    with F = Ci sin - si cos and G = dF/dx, si = Si - pi/2."""
    with mpmath.workdps(40):
        xm = mpmath.mpf(x)
        ci = mpmath.ci(xm)
        si = mpmath.si(xm) - mpmath.pi / 2
        s, c = mpmath.sin(xm), mpmath.cos(xm)
        f = ci * s - si * c
        g = ci * c + si * s
        return float((xm * xm - 2) * f + 2 * xm * g - xm)


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


# ----------------------------------------------------------------------
# frozen references


def load_references(path: Path) -> dict:
    """The REFERENCE dict of a generated reference file, read as data."""
    tree = ast.parse(path.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "REFERENCE" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise ValueError(f"no REFERENCE assignment in {path}")


_THERMAL_KEY = re.compile(r"(w|vhat)_theta([0-9.]+)_zr([0-9.]+)$")


def check_references(path: Path, cst) -> list[dict]:
    """Compare every h0_*, w_theta* and vhat_theta* entry through the
    public potentials; one record per entry."""
    refs = load_references(path)
    lam = cst.thermal_wavelength_um(CURVE_TEMPERATURE)
    records = []
    for key in sorted(refs):
        ref = refs[key]
        if key.startswith("h0_"):
            x0 = float(key[3:])
            z = 0.5 * x0  # k0 = alpha0 = 1
            v0 = vacuum_potential(AtomParams(k0=1.0, alpha0=1.0), z, cst)
            value = v0 * 8.0 * math.pi * z**3 / cst.hbar_c_ev_um
            tol = SPECFUN_RTOL
        else:
            m = _THERMAL_KEY.match(key)
            if m is None:
                continue
            kind, theta, zr = m.group(1), float(m.group(2)), float(m.group(3))
            atom = AtomParams(k0=theta / lam, alpha0=CURVE_ALPHA0_UM3)
            env = ThermalEnvironment(CURVE_TEMPERATURE, lam, atom.k0 * lam)
            z = zr * lam
            vt = thermal_potential_exact(atom, env, z, cst)
            if kind == "vhat":
                value = vt * lam**4 / (cst.hbar_c_ev_um * atom.alpha0)
            else:
                value = vt * 8.0 * math.pi * z**3 / (cst.hbar_c_ev_um * atom.alpha0 * atom.k0)
            tol = COMPOSED_RTOL
        rel = _rel(value, ref)
        records.append({"key": key, "rel": rel, "tol": tol, "ok": rel <= tol})
    return records


# ----------------------------------------------------------------------
# curve_grids rows


def check_curve_row(call: CurveCall, header: str, row: str, cst) -> str | None:
    """Check one emitted CSV row against mpmath H0 (vacuum column) and
    the thermal quadrature oracle (thermal column)."""
    names = header.split(",")
    cells = dict(zip(names, (float(c) for c in row.split(","))))
    if call.figure == 1:
        # exact_scaled = V0 z^3 / (hbar c) at k0 = alpha0 = 1
        ref = h0_mp(2.0 * cells["k0z"]) / (8.0 * math.pi)
        err = abs(cells["exact_scaled"] - ref)
        return None if err <= COMPOSED_RTOL * abs(ref) else (
            f"figure 1 k0z={cells['k0z']!r}: exact_scaled rel {err / abs(ref):.2e}"
        )

    zr = cells["z_over_lambdaT"]
    lam = cst.thermal_wavelength_um(CURVE_TEMPERATURE)
    atom = AtomParams(k0=call.theta / lam, alpha0=CURVE_ALPHA0_UM3)
    env = ThermalEnvironment(CURVE_TEMPERATURE, lam, call.theta)
    scale = cst.hbar_c_ev_um * atom.alpha0 / lam**4
    rep = thermal_quadrature(atom, env, zr * lam, cst)
    vt = rep.value / scale
    vt_tol = THERMAL_RTOL * abs(vt) + rep.abs_error_estimate / scale
    if call.figure == 3:
        err = abs(cells["thermal_scaled"] - vt)
        return None if err <= vt_tol else (
            f"figure 3 theta={call.theta!r} zr={zr!r}: thermal_scaled off by "
            f"{err:.3e} (allowed {vt_tol:.3e})"
        )
    # figure 2: total_scaled = (V0 + V_T) zr^3 / scale, V0 scaled is theta H0 / 8 pi
    v0 = call.theta * h0_mp(2.0 * call.theta * zr) / (8.0 * math.pi)
    ref = v0 + vt * zr**3
    err = abs(cells["total_scaled"] - ref)
    tol = COMPOSED_RTOL * abs(v0) + vt_tol * zr**3
    return None if err <= tol else (
        f"figure 2 theta={call.theta!r} zr={zr!r}: total_scaled off by "
        f"{err:.3e} (allowed {tol:.3e})"
    )


def curve_digest(call: CurveCall, text: str) -> tuple[int, str, str]:
    """What the row check needs of a curve's output: line count, header
    and the seeded row (kept instead of the whole text)."""
    lines = text.splitlines()
    row = lines[1 + call.check_row] if len(lines) > 1 + call.check_row else ""
    return len(lines), lines[0] if lines else "", row


def check_curve(call: CurveCall, digest: tuple[int, str, str], cst) -> str | None:
    n_lines, header, row = digest
    if n_lines != call.points + 1:
        return f"figure {call.figure}: {n_lines - 1} rows for {call.points} points"
    return check_curve_row(call, header, row, cst)


# ----------------------------------------------------------------------
# verify and analyze


def check_verdicts(failed: set[int], numbers: set[int]) -> str | None:
    if numbers != VERIFY_CRITERIA:
        return f"criteria {sorted(numbers)} instead of 1..14"
    if failed != VERIFY_EXPECTED_FAILURES:
        return f"failed criteria {sorted(failed)}, documented {sorted(VERIFY_EXPECTED_FAILURES)}"
    return None


def check_verification(results: Sequence) -> str | None:
    """In-process ``run_verification`` results."""
    return check_verdicts(
        {r.number for r in results if not r.passed}, {r.number for r in results}
    )


def check_verify_json(returncode: int, stdout: str) -> str | None:
    """``verify --quick --format json``: exit 1 and the documented failures."""
    if returncode != 1:
        return f"verify exited {returncode}, expected 1"
    criteria = json.loads(stdout)["criteria"]
    return check_verdicts(
        {c["number"] for c in criteria if not c["passed"]},
        {c["number"] for c in criteria},
    )


_EQUILIBRIUM = re.compile(r"z\*/lambda_T = ([0-9.eE+-]+)")


def check_analyze(text: str) -> str | None:
    m = _EQUILIBRIUM.search(text)
    if m is None:
        return "no equilibrium line in analyze output"
    z_star = float(m.group(1))
    if abs(z_star - EQUILIBRIUM_Z) > EQUILIBRIUM_TOL:
        return f"z*/lambda_T = {z_star} outside {EQUILIBRIUM_Z} +- {EQUILIBRIUM_TOL}"
    return None


# ----------------------------------------------------------------------
# eval


def eval_reference(argv: Sequence[str], cst):
    """In-process ``total_potential`` for the inputs of an eval argv,
    built with the same unit conversions the command documents."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    if "--k0" in opts:
        k0 = float(opts["--k0"])
    else:
        k0 = 2.0 * math.pi / float(opts["--lambda0"])
    atom = AtomParams(k0=k0, alpha0=float(opts["--alpha0"]) * 1e-9)
    temperature = float(opts["--temperature"])
    env = None
    if temperature > 0.0:
        lam = cst.thermal_wavelength_um(temperature)
        env = ThermalEnvironment(temperature=temperature, lambda_T=lam, theta=k0 * lam)
    return total_potential(atom, float(opts["--z"]), env, cst)


def check_eval(argv: Sequence[str], returncode: int, stdout: str, cst) -> str | None:
    """JSON values must match exactly, text and CSV to the printed digits."""
    if returncode != 0:
        return f"eval exited {returncode}"
    opts = dict(zip(argv[1::2], argv[2::2]))
    ref = eval_reference(argv, cst)
    si = opts["--units"] == "si"
    scale = EV_TO_J if si else 1.0
    expected = {
        part: getattr(ref, part) * scale for part in ("vacuum", "thermal", "total")
    }
    fmt = opts["--format"]
    if fmt == "json":
        got = json.loads(stdout)["potential"]
        bad = [p for p, v in expected.items() if got[p] != v]
    elif fmt == "csv":
        header, row = stdout.splitlines()[:2]
        cells = dict(zip(header.split(","), row.split(",")))
        bad = [p for p, v in expected.items() if cells[f"potential.{p}"] != f"{v:.16e}"]
    else:
        unit = "J" if si else "eV"
        lines = set(stdout.splitlines())
        bad = [
            p for p, v in expected.items()
            if f"{p:<7} = {v:+.12e} {unit}" not in lines
        ]
    return f"eval {fmt}: {bad} differ from total_potential" if bad else None


# ----------------------------------------------------------------------
# cold commands


def check_command(kind: str, argv: Sequence[str], returncode: int, stdout: str, cst) -> str | None:
    """Gate for one ``python -m cpwall`` command of the cli_cold stream."""
    if kind == "eval":
        return check_eval(argv, returncode, stdout, cst)
    if kind == "verify_quick":
        return check_verify_json(returncode, stdout)
    if returncode != 0:
        return f"{kind} exited {returncode}"
    if kind == "analyze":
        return check_analyze(stdout)
    opts = dict(zip(argv[1::2], argv[2::2]))
    buf = io.StringIO()
    spec = cli.CurveSpec.for_figure(int(opts["--figure"]), float(opts["--theta"]))
    cli.cmd_curve(spec, cst, buf)
    return None if stdout == buf.getvalue() else (
        f"curve {' '.join(argv[1:])}: CSV bytes differ from in-process cmd_curve"
    )
