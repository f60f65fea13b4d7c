"""cpwall benchmark: run one seeded workload, time it, check every output.

Run from the repository root:

    python3 perfbench/run.py --workload curve_grids --seed 1 --seconds 20 --trace 0

Workloads (inputs generated from ``--seed`` by ``perfbench/workloads.py``):

* ``cli_cold``: sequential ``python -m cpwall`` commands with
  ``PYTHONPATH=src``; runs ``--seconds`` and at least 40 commands.
* ``curve_grids``: in-process ``cli.cmd_curve`` calls for ``--seconds``.
* ``audit``: in-process full verification and ``cmd_analyze`` rounds.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs a fixed, seed-determined amount of work untraced and
then traced, and prints the per-layer metrics, whose counts repeat
exactly for a seed.  The last line of standard output is one JSON
object; a diffable record with the environment is written under
``.perfbench/``.  ``perfbench/README.md`` describes every metric.
"""

from __future__ import annotations

import argparse
import bisect
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from itertools import islice
from pathlib import Path
from time import perf_counter
from typing import Any, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCES = ROOT / "tests" / "_reference_values.py"
OUT_DIR = ROOT / ".perfbench"

if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402
from perfbench.workloads import CurveCall  # noqa: E402

MIN_SAMPLES = 40  # the tail percentile then has >= 10 samples beyond it
TAIL_PERCENTILE = 75
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120.0
# The host's speed drifts by tens of percent within seconds (CPU time
# moves with wall time), so times are scaled to a reference speed by a
# Timer: calibration points, each the median of three runs of a fixed
# pure-Python loop, are taken before and after every timed operation (at
# most every CALIBRATION_EVERY_S), and an operation's time is multiplied
# by CALIBRATION_REF_S / (median of the points within
# max(CALIBRATION_WINDOW_S, CALIBRATION_SPAN x its duration) of it).
# Short in-process operations follow the loop closely; a point right
# after a child exits can read several times slow, so a subprocess takes
# the median over several neighbours.  CALIBRATION_REF_S is about the
# loop's median on a 2-vCPU x86-64 VM with Python 3.11.  The loop does
# not touch cpwall, so a change to the program moves the scaled times in
# full.
CALIBRATION_ITERS = 20_000
CALIBRATION_REF_S = 2.0e-3
CALIBRATION_EVERY_S = 0.05
CALIBRATION_WINDOW_S = 0.25
CALIBRATION_SPAN = 5.0
# fixed in-process work that measures, on every workload, the metrics
# whose operations are not part of the workload's own stream; it runs
# between the stream's operations at this share of the wall time
SENTINEL_CURVES = tuple(
    CurveCall(figure, theta, 100, 50)
    for figure in (1, 2, 3)
    for theta in (10.0, 100.0, 1000.0)
)
SENTINEL_SHARE = 0.25
SENTINEL_MIN_UNITS = 3
SENTINEL_NEEDS = frozenset({"curve_rows_per_s", "verify_s", "analyze_s"})
STREAM_METRICS = {
    "cli_cold": frozenset(),
    "curve_grids": frozenset({"curve_rows_per_s"}),
    "audit": frozenset({"verify_s", "analyze_s"}),
}
COUNT_NAMES = {"terms_used": "head_terms", "subdivisions": "panels", "iterations": "iterations"}
CLI_KINDS = ("eval", "curve", "verify_quick", "analyze")
_SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import cpwall.cli\n"
    "from cpwall import load_constants\n"
    "load_constants()\n"
    "print(time.perf_counter() - t0)\n"
)


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "CPWALL_CONFIG"}
    env["PYTHONPATH"] = str(SRC)
    return env


def _run_child(args: list[str]) -> subprocess.CompletedProcess:
    # subprocess.run kills and reaps the child when the timeout expires
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )


def calibration_s() -> float:
    t0 = perf_counter()
    x = 0.0
    for i in range(CALIBRATION_ITERS):
        x += (i * 0.5) ** 0.5
    return perf_counter() - t0


class Sample(NamedTuple):
    op: Any
    result: Any
    start: float
    end: float

    @property
    def wall_s(self) -> float:
        return self.end - self.start


class Timer:
    """Times operations and scales them to the reference host speed."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.loops: list[float] = []

    def _calibrate(self) -> None:
        if not self.times or perf_counter() - self.times[-1] > CALIBRATION_EVERY_S:
            self.loops.append(statistics.median(calibration_s() for _ in range(3)))
            self.times.append(perf_counter())

    def time(self, do, op, keep=None) -> Sample:
        """Run ``do(op)``; ``keep`` runs untimed on the result."""
        self._calibrate()
        t0 = perf_counter()
        result = do(op)
        t1 = perf_counter()
        self._calibrate()
        return Sample(op, keep(op, result) if keep else result, t0, t1)

    def factor(self, sample: Sample) -> float:
        window = max(CALIBRATION_WINDOW_S, CALIBRATION_SPAN * sample.wall_s)
        lo = bisect.bisect_left(self.times, sample.start - window)
        hi = bisect.bisect_right(self.times, sample.end + window)
        return CALIBRATION_REF_S / statistics.median(self.loops[lo:hi])

    def scaled_s(self, sample: Sample) -> float:
        return sample.wall_s * self.factor(sample)


def _tail(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=100)[TAIL_PERCENTILE - 1]


class Checks:
    """Counts operations attempted and the ones whose output failed."""

    def __init__(self, cst) -> None:
        self.cst = cst
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append(reason)


def closed_loop(timer, ops, do, keep=None, seconds=None, count=None, sentinel=None) -> list[Sample]:
    """One client: time ``do(op)`` for each op in turn, until ``count``
    ops, or until ``seconds`` of wall time have passed and MIN_SAMPLES
    ops are done.  A ``sentinel`` gets its share of the time between ops."""
    done = []
    t_start = perf_counter()
    for op in ops:
        done.append(timer.time(do, op, keep))
        elapsed = perf_counter() - t_start
        if sentinel is not None:
            sentinel.keep_up(elapsed)
        if count is not None:
            if len(done) >= count:
                break
        elif len(done) >= MIN_SAMPLES and elapsed >= seconds:
            break
    return done


# ----------------------------------------------------------------------
# operations


def measure_setup() -> dict[str, float]:
    """Fresh interpreters: bare start-up, and import of cpwall.cli plus
    load_constants() timed inside the child (medians, unscaled: the
    in-child time read steadier from run to run than its scaled value)."""
    bare, wall, inner = [], [], []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        _run_child(["-c", "pass"]).check_returncode()
        bare.append(perf_counter() - t0)
        t0 = perf_counter()
        proc = _run_child(["-c", _SETUP_CODE])
        wall.append(perf_counter() - t0)
        proc.check_returncode()
        inner.append(float(proc.stdout))
    return {
        "setup_s": statistics.median(inner),
        "interp_ms": 1e3 * statistics.median(bare),
        "import_ms": 1e3 * (statistics.median(wall) - statistics.median(bare)),
    }


def run_command(cmd: workloads.Command) -> tuple[int, str]:
    try:
        proc = _run_child(["-m", "cpwall", *cmd.argv])
    except subprocess.TimeoutExpired:
        return -1, ""
    return proc.returncode, proc.stdout


class InProcess:
    """The in-process operations, on the cpwall.cli module."""

    def __init__(self, cst) -> None:
        from cpwall import cli

        self.cli = cli
        self.cst = cst
        self.analyze_args = cli.build_parser().parse_args(["analyze"])

    def curve(self, call: CurveCall) -> str:
        buf = io.StringIO()
        spec = self.cli.CurveSpec.for_figure(call.figure, call.theta, call.points)
        self.cli.cmd_curve(spec, self.cst, buf)
        return buf.getvalue()

    def verify(self, _=None):
        return self.cli.run_verification(quick=False, constants=self.cst)

    def analyze(self, _=None) -> str:
        buf = io.StringIO()
        self.cli.cmd_analyze(self.analyze_args, self.cst, buf)
        return buf.getvalue()

    def audit_round(self, order: tuple[str, str]) -> dict:
        out = {}
        for part in order:
            t0 = perf_counter()
            result = self.verify() if part == "verify" else self.analyze()
            out[part] = (result, perf_counter() - t0)
        return out


def check(kind: str, done: list[Sample], checks: Checks, gates) -> None:
    """Run the gate of each op of a closed_loop result (untimed)."""
    cst = checks.cst
    for op, result, *_ in done:
        if kind == "curve":
            checks.add(gates.check_curve(op, result, cst))
        elif kind == "verify":
            checks.add(gates.check_verification(result))
        elif kind == "analyze":
            checks.add(gates.check_analyze(result))
        elif kind == "audit":
            checks.add(gates.check_verification(result["verify"][0]))
            checks.add(gates.check_analyze(result["analyze"][0]))
        else:
            returncode, stdout = result
            checks.add(gates.check_command(op.kind, op.argv, returncode, stdout, cst))


class Sentinel:
    """Fixed in-process ops for the metrics in ``need`` that the
    workload's stream does not produce.  Units of 9 curves, 1 full
    verification and 3 analyses (as needed) run between the stream's
    ops, so their samples span the run like the stream's own."""

    def __init__(self, timer: Timer, ops: InProcess, need, gates) -> None:
        self.timer = timer
        self.unit: list[tuple[str, Any]] = []
        if "curve_rows_per_s" in need:
            self.unit += [("curve", call) for call in SENTINEL_CURVES]
        if "verify_s" in need:
            self.unit.insert(len(self.unit) // 2, ("verify", None))
        if "analyze_s" in need:
            self.unit += [("analyze", None)] * 3
        self.runs = {"curve": ops.curve, "verify": ops.verify, "analyze": ops.analyze}
        self.keep = {"curve": gates.curve_digest}
        self.done: dict[str, list[Sample]] = {kind: [] for kind in self.runs}
        self.steps = 0
        self.spent_s = 0.0

    def step(self) -> None:
        t0 = perf_counter()
        kind, op = self.unit[self.steps % len(self.unit)]
        self.done[kind].append(self.timer.time(self.runs[kind], op, self.keep.get(kind)))
        self.steps += 1
        self.spent_s += perf_counter() - t0

    def keep_up(self, elapsed_s: float) -> None:
        while self.unit and self.spent_s < SENTINEL_SHARE * elapsed_s:
            self.step()

    def finish(self, units: int = SENTINEL_MIN_UNITS) -> dict[str, float]:
        """Complete at least ``units`` units; returns the metrics."""
        while self.steps < units * len(self.unit):
            self.step()
        metrics = {}
        if self.done["curve"]:
            metrics["curve_rows_per_s"] = _rows_per_s(self.timer, self.done["curve"])
        for kind in ("verify", "analyze"):
            if self.done[kind]:
                metrics[f"{kind}_s"] = statistics.median(
                    self.timer.scaled_s(s) for s in self.done[kind]
                )
        return metrics

    def todo(self) -> list[tuple[str, list[Sample]]]:
        return [(kind, done) for kind, done in self.done.items() if done]


def _rows_per_s(timer: Timer, done: list[Sample]) -> float:
    return sum(s.op.points for s in done) / sum(timer.scaled_s(s) for s in done)


def cli_kind_p50_ms(done: list[Sample], seconds_of) -> dict[str, float]:
    by_kind: dict[str, list[float]] = {}
    for s in done:
        by_kind.setdefault(s.op.kind, []).append(seconds_of(s))
    return {
        kind: 1e3 * statistics.median(by_kind[kind]) for kind in CLI_KINDS if kind in by_kind
    }


# ----------------------------------------------------------------------
# the two kinds of run


def end_to_end(
    timer: Timer, workload: str, seed: int, seconds: float, ops: InProcess, checks, gates
):
    """Untraced run: the workload's stream for ``seconds``, with the
    sentinel interleaved for the metrics the stream does not produce."""
    extra: dict = {}
    metrics: dict[str, float] = {}
    rusage = resource.RUSAGE_SELF
    if workload == "cli_cold":
        stream, do, keep, kind = workloads.cli_commands(seed), run_command, None, "command"
        rusage = resource.RUSAGE_CHILDREN
    elif workload == "curve_grids":
        stream, do, keep, kind = workloads.curve_calls(seed), ops.curve, gates.curve_digest, "curve"
    else:
        stream, do, keep, kind = workloads.audit_rounds(seed), ops.audit_round, None, "audit"
    sentinel = Sentinel(timer, ops, SENTINEL_NEEDS - STREAM_METRICS[workload], gates)
    done = closed_loop(timer, stream, do, keep, seconds=seconds, sentinel=sentinel)
    if workload == "cli_cold":
        extra["cli_kind_p50_ms"] = cli_kind_p50_ms(done, timer.scaled_s)
    elif workload == "curve_grids":
        metrics["curve_rows_per_s"] = _rows_per_s(timer, done)
    else:
        for part in ("verify", "analyze"):
            metrics[f"{part}_s"] = statistics.median(
                s.result[part][1] * timer.factor(s) for s in done
            )
    latencies = [timer.scaled_s(s) for s in done]
    metrics["cli_p50_ms"] = 1e3 * statistics.median(latencies)
    metrics["cli_tail_ms"] = 1e3 * _tail(latencies)
    metrics.update(sentinel.finish())
    metrics["peak_rss_mb"] = resource.getrusage(rusage).ru_maxrss / 1024.0
    for group in [(kind, done), *sentinel.todo()]:
        check(*group, checks, gates)
    extra["operations"] = len(done)
    extra["sentinel_steps"] = sentinel.steps
    extra["host_factor_median"] = statistics.median(timer.factor(s) for s in done)
    extra["unscaled_p50_ms"] = 1e3 * statistics.median(s.wall_s for s in done)
    return metrics, extra


def traced(
    timer: Timer,
    workload: str,
    seed: int,
    seconds: float,
    ops: InProcess,
    checks,
    gates,
    spans_path: Path,
):
    """Traced run: a fixed amount of in-process work (the workload's own
    ops plus one sentinel unit, so every layer is reached), timed once
    untraced and once traced; plus cold commands for the cli layer."""
    from perfbench.tracing import LAYERS, Tracer

    n_cmds = 10 * max(1, int(seconds) // 10) if workload == "cli_cold" else 10
    cmds = list(islice(workloads.cli_commands(seed), n_cmds))
    stream, do, keep, kind = [], None, None, None
    if workload == "curve_grids":
        stream = list(islice(workloads.curve_calls(seed), max(12, 6 * int(seconds))))
        do, keep, kind = ops.curve, gates.curve_digest, "curve"
    elif workload == "audit":
        stream = list(islice(workloads.audit_rounds(seed), max(2, int(seconds) // 2)))
        do, kind = ops.audit_round, "audit"

    def work() -> tuple[float, list]:
        done = closed_loop(timer, stream, do, keep, count=len(stream))
        sentinel = Sentinel(timer, ops, SENTINEL_NEEDS, gates)
        sentinel.finish(units=1)
        todo = [(kind, done), *sentinel.todo()]
        return sum(s.wall_s for _, group in todo for s in group), todo

    untraced_s, _ = work()
    with Tracer() as tracer:
        traced_s, todo = work()
    done = closed_loop(timer, cmds, run_command, count=len(cmds))
    for group in [*todo, ("command", done)]:
        check(*group, checks, gates)
    tracer.dump(spans_path)

    stats = tracer.layer_stats()
    values: dict[str, float] = {}
    for name, _, _, counter in LAYERS:
        values[f"{name}.calls"] = stats[name]["calls"]
        values[f"{name}.self_s"] = stats[name]["self_s"]
        if counter is not None:
            values[f"{name}.{COUNT_NAMES[counter]}"] = stats[name]["count"]
    for cli_kind, p50 in cli_kind_p50_ms(done, lambda s: s.wall_s).items():
        values[f"cli.{cli_kind}.p50_ms"] = p50
    values["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    extra = {"spans": len(tracer.start), "untraced_s": untraced_s, "traced_s": traced_s}
    return values, extra


# ----------------------------------------------------------------------
# environment and output


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _git_commit(),
    }


def pin_to_one_cpu() -> int | None:
    """Keep this process and its children on one CPU.  The CPUs of a
    shared VM can differ in speed from moment to moment; on one CPU the
    calibration loop sees the speed the timed work sees.  Returns the
    CPU, or None where affinity cannot be set."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run; returns the full record (see main for what is printed)."""
    env = environment()
    env["pinned_cpu"] = pin_to_one_cpu()
    setup = measure_setup()
    timer = Timer()
    from cpwall import load_constants
    from perfbench import gates

    cst = load_constants()
    checks = Checks(cst)
    references = gates.check_references(REFERENCES, cst)
    ops = InProcess(cst)
    spans_path = OUT_DIR / f"{workload}_seed{seed}_spans.json.gz"
    if trace:
        values, extra = traced(timer, workload, seed, seconds, ops, checks, gates, spans_path)
        values["cli.interp_ms"] = setup["interp_ms"]
        values["cli.import_ms"] = setup["import_ms"]
    else:
        values, extra = end_to_end(timer, workload, seed, seconds, ops, checks, gates)
        values["setup_s"] = setup["setup_s"]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": env,
        "setup": setup,
        "values": values,
        "extra": extra,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "failures": checks.failures[:50],
        "references": references,
        "correct": not checks.failures and all(r["ok"] for r in references),
    }


def _declared(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cpwall" / "cli.py").is_file() or not REFERENCES.is_file():
        print(
            f"perfbench: no cpwall sources or frozen references under {ROOT}",
            file=sys.stderr,
        )
        return 2
    os.environ.pop("CPWALL_CONFIG", None)
    sys.path.insert(0, str(SRC))

    OUT_DIR.mkdir(exist_ok=True)
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = {
        m["name"]: {"value": record["values"][m["name"]], "unit": m["unit"]}
        for m in _declared(bool(args.trace))
    }
    record["metrics"] = metrics
    out = OUT_DIR / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    env = record["environment"]
    print(
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
        f"trace {args.trace}  python {env['python']}  numpy {env['numpy']}  "
        f"scipy {env['scipy']}  nproc {env['nproc']}  commit {env['commit']}"
    )
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>16.6g} {m['unit']}")
    n_ref_ok = sum(r["ok"] for r in record["references"])
    print(
        f"  checked {record['attempted']} operations, {record['failed']} failed; "
        f"frozen references {n_ref_ok}/{len(record['references'])} ok; record {out.name}"
    )
    for reason in record["failures"][:10]:
        print(f"  FAILED {reason}")
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
