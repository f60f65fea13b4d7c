"""Seeded inputs of the three workloads.

The seed is an argument of the benchmark; the program only ever sees the
inputs generated here.  Every stream is built in stratified blocks, so
the mix of work in a run (figure, theta band, command kind) is the same
for every seed and only the points inside each stratum move with it.
That keeps run-to-run spread down without narrowing any range.

Nothing here imports cpwall: the inputs must not depend on the code
under test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator

WORKLOADS = ("cli_cold", "curve_grids", "audit")

# CODATA values, used only to place eval inputs at a chosen theta.
_HBAR_C_EV_UM = 0.1973269804
_K_B_EV_PER_K = 8.617333262e-5

THETA_RANGE = (10.0, 1000.0)
# eval keeps a margin above the theta >= 10 gate so that rounding in
# k0 = 2 pi / lambda0 can never push an input below it
EVAL_THETA_RANGE = (10.5, 1000.0)
THETA_BANDS = 4
CURVE_POINTS = (50, 150)
EVAL_PER_BLOCK = 7  # of 10 cli_cold commands; the other 3 are one of each


@dataclass(frozen=True)
class CurveCall:
    """One in-process ``cmd_curve`` call and the row checked after timing."""

    figure: int
    theta: float
    points: int
    check_row: int


@dataclass(frozen=True)
class Command:
    """One cold ``python -m cpwall`` invocation."""

    kind: str  # eval | curve | verify_quick | analyze
    argv: tuple[str, ...]


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _theta_band(rng: random.Random, band: int, lo: float, hi: float) -> float:
    step = (math.log(hi) - math.log(lo)) / THETA_BANDS
    a = math.log(lo) + band * step
    return math.exp(rng.uniform(a, a + step))


def curve_calls(seed: int) -> Iterator[CurveCall]:
    """Endless curve_grids stream: blocks of 3 figures x 4 theta bands
    (log-uniform in [10, 1000]), shuffled, with a seeded point count."""
    rng = random.Random(f"curve_grids/{seed}")
    while True:
        block = []
        for figure in (1, 2, 3):
            for band in range(THETA_BANDS):
                points = rng.randint(*CURVE_POINTS)
                block.append(
                    CurveCall(
                        figure=figure,
                        theta=_theta_band(rng, band, *THETA_RANGE),
                        points=points,
                        check_row=rng.randrange(points),
                    )
                )
        rng.shuffle(block)
        yield from block


def _eval_argv(rng: random.Random) -> tuple[str, ...]:
    alpha0 = _loguniform(rng, 1.0, 100.0)  # nm^3
    if rng.random() < 0.2:
        temperature = 0.0
        k0 = _loguniform(rng, 0.1, 100.0)  # 1/um
        z = _loguniform(rng, 0.01, 20.0)  # um
    else:
        temperature = _loguniform(rng, 30.0, 3000.0)
        lam = _HBAR_C_EV_UM / (_K_B_EV_PER_K * temperature)
        k0 = _loguniform(rng, *EVAL_THETA_RANGE) / lam
        z = lam * _loguniform(rng, 1e-3, 10.0)
    if rng.random() < 0.5:
        atom = ("--k0", repr(k0))
    else:
        atom = ("--lambda0", repr(2.0 * math.pi / k0))
    return (
        "eval",
        *atom,
        "--alpha0", repr(alpha0),
        "--z", repr(z),
        "--temperature", repr(temperature),
        "--units", rng.choice(("natural", "si")),
        "--format", rng.choice(("json", "csv", "text")),
    )


def _command(rng: random.Random, kind: str) -> Command:
    if kind == "eval":
        return Command(kind, _eval_argv(rng))
    if kind == "curve":
        figure = rng.choice((1, 2, 3))
        theta = _loguniform(rng, *THETA_RANGE)
        return Command(kind, ("curve", "--figure", str(figure), "--theta", repr(theta)))
    if kind == "verify_quick":
        return Command(kind, ("verify", "--quick", "--format", "json"))
    return Command(kind, ("analyze",))


def cli_commands(seed: int) -> Iterator[Command]:
    """Endless cli_cold stream: blocks of 7 eval, 1 curve, 1 verify
    --quick and 1 analyze, shuffled."""
    rng = random.Random(f"cli_cold/{seed}")
    while True:
        kinds = ["eval"] * EVAL_PER_BLOCK + ["curve", "verify_quick", "analyze"]
        rng.shuffle(kinds)
        for kind in kinds:
            yield _command(rng, kind)


def audit_rounds(seed: int) -> Iterator[tuple[str, str]]:
    """Endless audit stream of (verify, analyze) rounds in seeded order.

    Both run at the defaults: the documented verdicts and z*/lambda_T =
    0.52 hold there, so the seed only decides which goes first.
    """
    rng = random.Random(f"audit/{seed}")
    while True:
        pair = ("verify", "analyze")
        yield pair if rng.random() < 0.5 else pair[::-1]
