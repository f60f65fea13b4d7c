"""CLI surface: flag parsing, exit codes, figure CSV contracts,
config pinning, unit round-trips, and the verification harness."""

import functools
import importlib
import io
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys

import numpy as np
import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: pyproject.toml is read with a regex
    tomllib = None

from cpwall import cli
from cpwall.constants import PhysicalConstants
from cpwall.errors import ConvergenceError, DomainError

EV_TO_J = 1.602176634e-19

_CELL_RE = re.compile(r"^-?\d\.\d{16}e[+-]\d{2,3}$")

_REPO = pathlib.Path(__file__).resolve().parents[1]


def run_main(argv, monkeypatch=None):
    """Invoke cli.main in-process, capturing stdout."""
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = cli.main(argv)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def _one_line_domain_error(err):
    return err.startswith("domain error: ") and err.count("\n") == 1


def eval_json(extra):
    code, out = run_main(["eval", "--format", "json", *extra])
    assert code == 0
    return json.loads(out)


class TestArgParsing:
    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--z", "1.0", "--nonsense", "3"])
        assert exc.value.code == 2

    def test_eval_requires_z(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval"])
        assert exc.value.code == 2

    def test_k0_and_lambda0_mutually_exclusive(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["eval", "--z", "1.0", "--k0", "10", "--lambda0", "0.6"])
        assert exc.value.code == 2

    def test_curve_requires_figure(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["curve"])
        assert exc.value.code == 2

    def test_figure_id_choices(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["curve", "--figure", "4"])
        assert exc.value.code == 2


class TestEval:
    def test_preset_label_and_thermal_wavelength(self):
        code, out = run_main(["eval", "--z", "1.0"])
        assert code == 0
        assert "preset: optical transition at room temperature" in out
        assert "theta = 100" in out
        lam = float(re.search(r"lambda_T = ([0-9.]+)", out).group(1))
        assert abs(lam - 7.63) < 0.05

    def test_zero_temperature_thermal_is_exactly_zero(self):
        data = eval_json(["--z", "1.0", "--temperature", "0", "--lambda0", "0.5"])
        assert data["potential"]["thermal"] == 0.0
        assert data["potential"]["total"] == data["potential"]["vacuum"]
        assert data["derived"]["lambda_T"] is None
        assert data["recommended_approximation"] == "retarded_asymptote"

    def test_zero_temperature_without_k0_is_flag_error(self):
        code, _ = run_main(["eval", "--z", "1.0", "--temperature", "0"])
        assert code == 2

    def test_small_theta_is_domain_error(self):
        # k0 = 1/um at 300 K gives theta = 7.6 < 10
        code, _ = run_main(["eval", "--z", "1.0", "--k0", "1.0"])
        assert code == 3

    def test_negative_temperature_is_domain_error(self):
        code, _ = run_main(["eval", "--z", "1.0", "--temperature", "-5"])
        assert code == 3

    def test_underflowing_temperature_is_domain_error(self, capsys):
        # k_B * T underflows to 0 for a subnormal T
        with pytest.raises(DomainError):
            PhysicalConstants().thermal_wavelength_um(1e-320)
        code, out = run_main(["eval", "--z", "1", "--k0", "1", "--temperature", "1e-320"])
        assert (code, out) == (3, "")
        assert _one_line_domain_error(capsys.readouterr().err)

    def test_lambda0_and_k0_agree(self):
        a = eval_json(["--z", "0.7", "--lambda0", "0.5"])
        b = eval_json(["--z", "0.7", "--k0", str(2.0 * math.pi / 0.5)])
        assert a["potential"]["total"] == b["potential"]["total"]

    def test_si_round_trip(self):
        nat = eval_json(["--z", "0.5", "--alpha0", "3"])
        si = eval_json(["--z", "0.5", "--alpha0", "3", "--units", "si"])
        for key in ("vacuum", "thermal", "total"):
            a = nat["potential"][key]
            b = si["potential"][key] / EV_TO_J
            assert abs(a - b) <= 1e-12 * abs(a)
        assert abs(si["inputs"]["z"] / 1e-6 / nat["inputs"]["z"] - 1) < 1e-12
        assert abs(si["inputs"]["k0"] * 1e-6 / nat["inputs"]["k0"] - 1) < 1e-12
        assert (
            abs(si["inputs"]["alpha0"] / 1e-18 / nat["inputs"]["alpha0"] - 1) < 1e-12
        )
        assert si["units"] == {"energy": "J", "length": "m"}

    def test_csv_format_single_row(self):
        code, out = run_main(["eval", "--z", "1.0", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        header = lines[0].split(",")
        row = lines[1].split(",")
        assert len(header) == len(row)
        idx = header.index("potential.total")
        assert _CELL_RE.match(row[idx])

    def test_breakdown_additivity_in_json(self):
        data = eval_json(["--z", "2.0"])
        pot = data["potential"]
        assert pot["total"] == pot["vacuum"] + pot["thermal"]


class TestCurve:
    @pytest.mark.parametrize(
        "figure_id,header",
        [
            (1, "k0z,exact_scaled,nonretarded_scaled,retarded_scaled"),
            (2, "z_over_lambdaT,total_scaled,lifshitz_scaled"),
            (
                3,
                "z_over_lambdaT,thermal_scaled,short_leading_scaled,"
                "vacuum_retarded_scaled",
            ),
        ],
    )
    def test_headers_and_row_count(self, figure_id, header):
        code, out = run_main(["curve", "--figure", str(figure_id), "--points", "12"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == header
        assert len(lines) == 13
        for line in lines[1:]:
            for cell in line.split(","):
                assert _CELL_RE.match(cell), cell

    def test_figure_alias_matches_curve(self):
        _, a = run_main(["curve", "--figure", "1", "--points", "20"])
        _, b = run_main(["figure", "--figure", "1", "--points", "20"])
        assert a == b

    def test_emission_is_deterministic(self):
        _, a = run_main(["curve", "--figure", "3", "--points", "60"])
        _, b = run_main(["curve", "--figure", "3", "--points", "60"])
        assert a == b

    @staticmethod
    def parse(out):
        lines = out.strip().splitlines()
        cols = lines[0].split(",")
        rows = [[float(c) for c in line.split(",")] for line in lines[1:]]
        return cols, rows

    def test_figure1_plateaus(self):
        _, out = run_main(["curve", "--figure", "1", "--points", "40"])
        cols, rows = self.parse(out)
        first = rows[0]
        # k0z = 0.01: exact sits on the -1/8 van der Waals plateau
        assert abs(first[cols.index("nonretarded_scaled")] + 0.125) < 1e-12
        assert abs(first[cols.index("exact_scaled")] + 0.125) < 0.01 * 0.125
        last = rows[-1]
        # k0z = 50: exact hugs the retarded curve
        ret = last[cols.index("retarded_scaled")]
        assert abs(last[cols.index("exact_scaled")] - ret) < 1e-3 * abs(ret)

    def test_figure2_lifshitz_plateau(self):
        _, out = run_main(["curve", "--figure", "2", "--points", "30"])
        cols, rows = self.parse(out)
        for row in rows:
            assert abs(row[cols.index("lifshitz_scaled")] + 0.25) < 1e-12
        # the total joins the plateau at the far end of the range
        assert abs(rows[-1][cols.index("total_scaled")] + 0.25) < 1e-6

    def test_figure3_thermal_minimum_near_equilibrium(self):
        _, out = run_main(["curve", "--figure", "3", "--points", "150"])
        cols, rows = self.parse(out)
        zr = [row[cols.index("z_over_lambdaT")] for row in rows]
        vt = [row[cols.index("thermal_scaled")] for row in rows]
        assert zr[0] > 0.0  # open-left grid, no contact point
        z_min = zr[vt.index(min(vt))]
        assert 0.50 < z_min < 0.55

    def test_x_range_and_points_respected(self):
        _, out = run_main(
            ["curve", "--figure", "2", "--points", "5", "--x-range", "0.5", "1.0"]
        )
        cols, rows = self.parse(out)
        assert len(rows) == 5
        assert abs(rows[0][0] - 0.5) < 1e-15
        assert abs(rows[-1][0] - 1.0) < 1e-15

    def test_figure1_range_from_zero_is_domain_error(self, capsys):
        with pytest.raises(DomainError):
            cli.CurveSpec.for_figure(1, theta=100.0, x_range=(0.0, 1.0))
        code, out = run_main(["curve", "--figure", "1", "--x-range", "0", "1"])
        assert (code, out) == (3, "")
        assert _one_line_domain_error(capsys.readouterr().err)

    @pytest.mark.parametrize("figure_id", [2, 3])
    def test_figures_2_and_3_keep_the_open_grid_at_zero(self, figure_id):
        code, out = run_main(
            ["curve", "--figure", str(figure_id), "--points", "4", "--x-range", "0", "1"]
        )
        assert code == 0
        _, rows = self.parse(out)
        assert [row[0] for row in rows] == [0.25, 0.5, 0.75, 1.0]

    @pytest.mark.parametrize("theta", ["nan", "-5"])
    def test_bad_theta_leaves_stdout_empty(self, theta, capsys):
        code, out = run_main(["curve", "--figure", "2", "--theta", theta])
        assert (code, out) == (3, "")
        assert _one_line_domain_error(capsys.readouterr().err)

    def test_curve_spec_validation(self):
        with pytest.raises(DomainError):
            cli.CurveSpec.for_figure(5, theta=100.0)
        with pytest.raises(DomainError):
            cli.CurveSpec(
                figure_id=1,
                theta=100.0,
                points=1,
                x_range=(0.1, 1.0),
            )
        with pytest.raises(DomainError):
            cli.CurveSpec(
                figure_id=1,
                theta=100.0,
                points=10,
                x_range=(1.0, 0.1),
            )


class TestFigureGrid:
    """The plain-Python grids against the numpy grids they replaced."""

    @staticmethod
    def grid(figure_id, lo, hi, n):
        return cli._figure_grid(cli.CurveSpec(figure_id, 100.0, n, (lo, hi)))

    def test_linear_grids_match_numpy_bit_for_bit(self):
        rng = random.Random(20261018)
        for _ in range(600):
            n = rng.randint(2, 400)
            lo = 10.0 ** rng.uniform(-6.0, 3.0)
            hi = lo + 10.0 ** rng.uniform(-6.0, 3.0)
            want = np.linspace(lo, hi, n).tolist()
            for figure_id in (2, 3):
                got = self.grid(figure_id, lo, hi, n)
                assert list(map(float.hex, got)) == list(map(float.hex, want))
            # a range from 0 runs on the open-left grid
            lo = 0.0
            want = (lo + (hi - lo) * np.arange(1, n + 1, dtype=float) / float(n)).tolist()
            for figure_id in (2, 3):
                got = self.grid(figure_id, lo, hi, n)
                assert list(map(float.hex, got)) == list(map(float.hex, want))

    def test_geometric_grid_within_1e13_of_numpy(self):
        rng = random.Random(1018)
        for _ in range(600):
            n = rng.randint(2, 400)
            lo = 10.0 ** rng.uniform(-4.0, 3.0)
            hi = lo * 10.0 ** rng.uniform(0.001, 5.0)
            got = self.grid(1, lo, hi, n)
            want = np.geomspace(lo, hi, n)
            assert len(got) == n and all(type(x) is float for x in got)
            assert (got[0], got[-1]) == (lo, hi)
            assert np.all(np.abs(np.array(got) - want) <= 1e-13 * want)


class TestConfig:
    def test_constants_override(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cpwall.cfg"
        cfg.write_text("hbar_c_ev_nm = 200.0\ndefault_theta = 50\n")
        monkeypatch.setenv("CPWALL_CONFIG", str(cfg))
        code, out = run_main(["eval", "--z", "1.0"])
        assert code == 0
        assert "theta = 50" in out
        assert "preset:" not in out  # labeled preset is the theta = 100 one

    def test_unknown_key_is_domain_error(self, tmp_path, monkeypatch):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus_key = 1\n")
        monkeypatch.setenv("CPWALL_CONFIG", str(cfg))
        code, _ = run_main(["eval", "--z", "1.0"])
        assert code == 3

    @pytest.mark.parametrize(
        "line",
        [
            "hbar_c_ev_nm = -197.3269804",
            "hbar_c_ev_nm = inf",
            "k_b_ev_per_k = 0",
            "default_theta = nan",
        ],
    )
    def test_nonpositive_or_nonfinite_constant_is_domain_error(
        self, line, tmp_path, monkeypatch
    ):
        # a negative hbar c used to print a positive vacuum potential
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        monkeypatch.setenv("CPWALL_CONFIG", str(cfg))
        code, out = run_main(["eval", "--temperature", "0", "--k0", "1", "--z", "1"])
        assert (code, out) == (3, "")

    def test_missing_file_is_domain_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CPWALL_CONFIG", str(tmp_path / "absent.cfg"))
        code, _ = run_main(["eval", "--z", "1.0"])
        assert code == 3


class TestExitCodeMapping:
    def test_convergence_error_maps_to_4(self, monkeypatch):
        def boom(*args, **kwargs):
            raise ConvergenceError("forced")

        monkeypatch.setattr("cpwall.analysis.find_thermal_equilibrium", boom)
        code, _ = run_main(["analyze"])
        assert code == 4

    def test_inverted_fit_window_maps_to_3(self):
        code, _ = run_main(["analyze", "--fit-window", "0.45", "0.2"])
        assert code == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--z", "1e300", "--k0", "100"],
            ["eval", "--z", "1", "--temperature", "1e308"],
            ["curve", "--figure", "3", "--x-range", "0", "1e300", "--points", "3"],
            ["curve", "--figure", "3", "--x-range", "0", "1e110", "--points", "3"],
            ["curve", "--figure", "1", "--x-range", "1", "1e100", "--points", "3"],
        ],
        ids=" ".join,
    )
    def test_huge_distance_maps_to_3(self, argv, capsys):
        # z^3, z^4 or x0^2 would overflow: refused before computing, and
        # curve writes nothing, not even its header
        code, out = run_main(argv)
        assert (code, out) == (3, "")
        assert _one_line_domain_error(capsys.readouterr().err)

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--z", "1e-120"],
            ["curve", "--figure", "1", "--x-range", "1e-300", "1", "--points", "3"],
            ["curve", "--figure", "2", "--points", "3", "--x-range", "1e-300", "1e-299"],
            ["curve", "--figure", "3", "--points", "2", "--x-range", "0", "1e-300"],
        ],
        ids=" ".join,
    )
    def test_tiny_distance_maps_to_3(self, argv, capsys):
        # z^3 would underflow below the smallest normal float and the
        # prefactor would divide by zero: refused, and curve writes nothing
        code, out = run_main(argv)
        assert (code, out) == (3, "")
        assert _one_line_domain_error(capsys.readouterr().err)

    def test_thermal_rounding_loss_maps_to_3(self, capsys):
        # theta = 30 at z = 1000 lambda_T: the E1t bracket would lose ~4e-7
        lam = PhysicalConstants().thermal_wavelength_um(300.0)
        argv = ["eval", "--k0", repr(30.0 / lam), "--z", repr(1000.0 * lam),
                "--temperature", "300"]
        code, out = run_main(argv)
        assert (code, out) == (3, "")
        assert _one_line_domain_error(capsys.readouterr().err)


class TestAnalyze:
    def test_default_report(self):
        code, out = run_main(["analyze"])
        assert code == 0
        assert "equilibrium: z*/lambda_T = 0.5248" in out
        assert "positive curvature" in out
        assert "0.95375 lambda_T" in out
        # the second default window fails its own residual bound and the
        # report says so instead of printing a bad fit
        assert "fit window (0.5, 0.75) lambda_T: rejected" in out
        assert "regime error table" in out

    def test_explicit_window_only(self):
        code, out = run_main(["analyze", "--fit-window", "0.2", "0.45"])
        assert code == 0
        assert "rejected" not in out
        assert out.count("fit window") == 1

    def test_theta_override(self):
        code, out = run_main(["analyze", "--theta", "30"])
        assert code == 0
        z_star = float(re.search(r"z\*/lambda_T = ([0-9.]+)", out).group(1))
        assert abs(z_star - 0.520995) < 1e-3


@pytest.fixture(scope="module")
def results():
    return cli.run_verification(quick=True)


class TestVerify:

    def test_all_criteria_present_in_order(self, results):
        assert [r.number for r in results] == list(range(1, 15))
        assert all(r.measured for r in results)
        assert all(r.tolerance for r in results)

    def test_known_failure_set(self, results):
        failed = [r.number for r in results if not r.passed]
        assert failed == [3, 4, 10, 13]

    def test_open_question_flag(self, results):
        r14 = results[13]
        assert r14.passed
        assert "open question" in r14.note

    def test_text_output_and_exit_code(self):
        code, out = run_main(["verify", "--quick"])
        assert code == 1
        assert out.count("criterion") >= 14
        assert "[FAIL]" in out and "[PASS]" in out
        assert "open question" in out

    def test_json_output(self):
        code, out = run_main(["verify", "--quick", "--format", "json"])
        assert code == 1
        data = json.loads(out)
        assert data["all_passed"] is False
        assert len(data["criteria"]) == 14
        assert [c["number"] for c in data["criteria"] if not c["passed"]] == [
            3,
            4,
            10,
            13,
        ]


def _child_env():
    """Environment for a child interpreter that imports cpwall from this
    checkout: the absolute path of ``src`` first on PYTHONPATH, inherited
    entries kept, so neither the working directory nor an install matters."""
    env = dict(os.environ)
    paths = [str(_REPO / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def _console_script_target(name):
    """The ``module:attr`` that pyproject.toml's [project.scripts] declares
    for the console script ``name``."""
    text = (_REPO / "pyproject.toml").read_text(encoding="utf-8")
    if tomllib is not None:
        scripts = tomllib.loads(text).get("project", {}).get("scripts", {})
        target = scripts.get(name)
    else:
        table = re.search(
            r"^\[project\.scripts\][ \t]*$(.*?)(?=^\[|\Z)", text, re.M | re.S
        )
        entry = table and re.search(
            rf'^{re.escape(name)}\s*=\s*"([^"]*)"', table.group(1), re.M
        )
        target = entry and entry.group(1)
    assert target, f"pyproject.toml [project.scripts] declares no {name!r}"
    return target


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cpwall", "eval", "--z", "1.0"],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0
        assert "total" in proc.stdout

    def test_console_script(self):
        # The installed `cpwall` wrapper runs `sys.exit(<attr>())` on the
        # declared target; do the same without needing it on PATH.
        target = _console_script_target("cpwall")
        module, _, attr = target.partition(":")
        assert all(part.isidentifier() for part in module.split(".")) and (
            attr.isidentifier()
        ), f"[project.scripts] cpwall = {target!r} is not 'module:function'"
        assert callable(getattr(importlib.import_module(module), attr, None)), (
            f"[project.scripts] cpwall = {target!r} does not name a callable"
        )
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                f"import sys; from {module} import {attr}; sys.exit({attr}())",
                "verify",
                "--quick",
                "--format",
                "json",
            ],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 1, proc.stderr
        json.loads(proc.stdout)


# Runs one command through cli.main in a fresh interpreter and prints its
# exit code, then which of the watched modules the command loaded.
_IMPORT_PROBE = """
import sys
before = set(sys.modules)
import contextlib, io
from cpwall import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
watched = ("numpy", "scipy", "fractions", "dataclasses", "inspect", "json")
print(code, *(m for m in watched if m in sys.modules and m not in before))
"""


@functools.lru_cache(maxsize=None)
def _loaded_by(argv):
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.split()
    return int(code), frozenset(loaded)


def _modules_loaded_by(argv, watched=("numpy", "scipy", "fractions"), code=0):
    exit_code, loaded = _loaded_by(tuple(argv))
    assert exit_code == code
    return set(loaded) & set(watched)


# Runs one command with scipy made unimportable, before cpwall loads.
_NO_SCIPY_PROBE = """
import sys
sys.modules["scipy"] = None
from cpwall import cli
sys.exit(cli.main(sys.argv[1:]))
"""


def _run_without_scipy(argv):
    return subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_PROBE, *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
    )


_EVAL_ARGV = {fmt: ("eval", "--z", "1.0", "--format", fmt) for fmt in ("json", "csv", "text")}
_CURVE_ARGV = {fig: ("curve", "--figure", fig, "--points", "5") for fig in ("1", "2", "3")}
# verify --quick exits 1: its documented failures (criteria 3, 4, 10, 13)
_EVERY_COMMAND = [
    (_EVAL_ARGV["json"], 0),
    (_CURVE_ARGV["3"], 0),
    (("verify", "--quick"), 1),
    (("analyze",), 0),
]


class TestImportFootprint:
    """No command loads scipy: the root finder and the quadratures are
    the package's own.  eval and curve need neither the oracles nor the
    root finders, so they must not pay for importing numpy or fractions;
    their records are plain classes, so they load neither dataclasses
    nor the inspect module behind it; json loads only to write JSON."""

    @pytest.mark.parametrize("argv,code", _EVERY_COMMAND)
    def test_no_command_loads_scipy(self, argv, code):
        assert _modules_loaded_by(argv, ("scipy",), code) == set()

    def test_verify_runs_without_scipy(self):
        proc = _run_without_scipy(("verify", "--quick", "--format", "json"))
        assert proc.returncode == 1, proc.stderr
        report = json.loads(proc.stdout)
        failed = [c["number"] for c in report["criteria"] if not c["passed"]]
        assert failed == [3, 4, 10, 13]

    def test_analyze_runs_without_scipy(self):
        proc = _run_without_scipy(("analyze",))
        assert proc.returncode == 0, proc.stderr
        assert "8 iterations" in proc.stdout

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_eval_loads_neither_numpy_nor_scipy(self, fmt):
        assert _modules_loaded_by(_EVAL_ARGV[fmt]) == set()

    @pytest.mark.parametrize("figure_id", ["1", "2", "3"])
    def test_curve_loads_neither_numpy_nor_scipy(self, figure_id):
        assert _modules_loaded_by(_CURVE_ARGV[figure_id]) == set()

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_eval_loads_neither_dataclasses_nor_inspect(self, fmt):
        assert _modules_loaded_by(_EVAL_ARGV[fmt], ("dataclasses", "inspect")) == set()

    @pytest.mark.parametrize("figure_id", ["1", "2", "3"])
    def test_curve_loads_neither_dataclasses_nor_inspect(self, figure_id):
        argv = _CURVE_ARGV[figure_id]
        assert _modules_loaded_by(argv, ("dataclasses", "inspect")) == set()

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_eval_loads_json_only_for_json(self, fmt):
        loaded = _modules_loaded_by(_EVAL_ARGV[fmt], ("json",))
        assert loaded == ({"json"} if fmt == "json" else set())

    @pytest.mark.parametrize("figure_id", ["1", "2", "3"])
    def test_curve_does_not_load_json(self, figure_id):
        assert _modules_loaded_by(_CURVE_ARGV[figure_id], ("json",)) == set()

    def test_cli_import_loads_neither_dataclasses_nor_inspect(self):
        probe = (
            "import sys; before = set(sys.modules); import cpwall.cli; "
            "print(*(m for m in ('dataclasses', 'inspect', 'json') "
            "if m in sys.modules and m not in before))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=_child_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []

    def test_verify_import_does_not_load_cli(self):
        # the command line imports the verification harness, never the
        # other way round
        probe = "import sys, cpwall.verify; print('cpwall.cli' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=_child_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]
