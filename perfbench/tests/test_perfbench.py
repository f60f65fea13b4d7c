"""Tests of the benchmark itself: seeded inputs, correctness gates and
the traced run.  Run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import itertools
import json
import math
import shutil
import subprocess
import sys

import pytest

from conftest import ROOT
from cpwall import cli, load_constants
from cpwall.thermal import PotentialBreakdown
from perfbench import gates, run, workloads

CST = load_constants()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


def _first(gen, n=40):
    return list(itertools.islice(gen, n))


@pytest.mark.parametrize(
    "make", [workloads.curve_calls, workloads.cli_commands, workloads.audit_rounds]
)
def test_generator_is_deterministic_for_a_seed(make):
    assert _first(make(7)) == _first(make(7))
    assert _first(make(7)) != _first(make(8))


def test_generated_inputs_stay_in_range():
    for call in _first(workloads.curve_calls(3), 240):
        assert 10.0 <= call.theta <= 1000.0
        assert 0 <= call.check_row < call.points
    kinds = [c.kind for c in _first(workloads.cli_commands(3), 100)]
    assert kinds.count("eval") == 70
    for cmd in _first(workloads.cli_commands(3), 100):
        if cmd.kind == "eval":
            ref = gates.eval_reference(cmd.argv, CST)
            assert math.isfinite(ref.total)


def _scaled(fn, factor):
    def scaled(*args, **kwargs):
        b = fn(*args, **kwargs)
        vac, th = b.vacuum * factor, b.thermal * factor
        return PotentialBreakdown(vacuum=vac, thermal=th, total=vac + th, notes=b.notes)

    return scaled


def _eval_output(argv, capsys):
    rc = cli.main(list(argv))
    return rc, capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_gate_counts_a_failure_for_a_scaled_total_potential(fmt, monkeypatch, capsys):
    argv = next(
        c.argv for c in workloads.cli_commands(5)
        if c.kind == "eval" and c.argv[c.argv.index("--format") + 1] == fmt
    )
    cmd = workloads.Command("eval", argv)
    checks = run.Checks(CST)
    run.check("command", [(cmd, _eval_output(argv, capsys), 0.0)], checks, gates)
    assert (checks.attempted, checks.failures) == (1, [])

    monkeypatch.setattr(cli, "total_potential", _scaled(cli.total_potential, 1 + 1e-5))
    run.check("command", [(cmd, _eval_output(argv, capsys), 0.0)], checks, gates)
    assert checks.attempted == 2
    assert len(checks.failures) == 1


def test_curve_gate_counts_a_failure_for_a_scaled_total_potential(monkeypatch):
    call = workloads.CurveCall(figure=2, theta=100.0, points=60, check_row=17)
    ops = run.InProcess(CST)
    checks = run.Checks(CST)
    run.check("curve", [(call, gates.curve_digest(call, ops.curve(call)), 0.0)], checks, gates)
    assert checks.failures == []

    monkeypatch.setattr(cli, "total_potential", _scaled(cli.total_potential, 1 + 1e-5))
    run.check("curve", [(call, gates.curve_digest(call, ops.curve(call)), 0.0)], checks, gates)
    assert checks.attempted == 2
    assert len(checks.failures) == 1


def test_frozen_references_pass():
    records = gates.check_references(run.REFERENCES, CST)
    assert {r["key"].split("_")[0] for r in records} == {"h0", "w", "vhat"}
    assert all(r["ok"] for r in records)


def test_causal_map_covers_every_per_layer_metric():
    cmap = json.loads((ROOT / "perfbench" / "causal_map.json").read_text())
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    names = {w["name"] for w in SPEC["workloads"]}
    assert set(cmap["workloads"]) == names
    assert set(cmap["per_layer"]) == set(PER_LAYER)
    for entry in cmap["per_layer"].values():
        for metric, workload in entry["moves"]:
            assert metric in e2e and workload in names


def _traced(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "4", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def traced_runs():
    return {w: (_traced(w), _traced(w)) for w in ("curve_grids", "audit")}


def test_traced_run_emits_every_per_layer_metric(traced_runs):
    for first, _ in traced_runs.values():
        assert first["correct"] and first["failed"] == 0
        assert list(first["metrics"]) == PER_LAYER


def test_traced_counts_repeat_for_a_seed(traced_runs):
    for first, second in traced_runs.values():
        for name in COUNTS:
            assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
        assert first["metrics"]["specfun.scaled_e1.calls"]["value"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "audit",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
