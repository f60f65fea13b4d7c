"""Print a digest of the command line's output over a fixed command list.

Run from anywhere, pointing at a checkout:

    python scripts/output_digest.py --root .
    python scripts/output_digest.py --root /path/to/other/checkout

Each command runs as ``python -m cpwall ...`` in a fresh interpreter
from ``ROOT/src``, with ``CPWALL_CONFIG`` removed from the environment so
the built-in constants apply.  For each command one line is printed: the
exit code, the sha256 of stdout and the argv.  ``verify --format json``
drops its ``elapsed_s`` field before hashing, since wall time differs
from run to run; a verify that printed nothing (it fails before writing
without numpy) keeps its exit code and the hash of its empty stdout.
Two checkouts that print the same lines give the same exit codes and
byte-identical stdout on every command of the list, so a refactor can
be checked with

    diff <(python scripts/output_digest.py --root OLD) \
         <(python scripts/output_digest.py --root NEW)

With ``--against OLD`` each command also runs from a second checkout,
and under every command whose exit code or stdout differs there one
indented line says by how much: the largest relative move of any number
in its output (CSV and JSON cells, and the numbers of the text formats)
from OLD's value, and how many numbers moved, or that the two outputs
differ in more than their numbers:

    python scripts/output_digest.py --root NEW --against OLD

``tests/output_digest.txt`` holds this tree's digest, and CI diffs a
fresh run against it, so a change that moves an output shows the moved
lines in its own diff:

    python scripts/output_digest.py --root . > tests/output_digest.txt

Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

# lambda_T at 300 K from the package's default constants (hbar c in
# eV um, k_B in eV/K), so that k0 = theta / lambda_T gives each theta
LAMBDA_T = 0.1973269804 / (8.617333262e-5 * 300.0)
EVAL_THETAS = (10.5, 45.0, 1000.0)
EVAL_Z_OVER_LAMBDA_T = (1e-3, 0.125, 0.307, 3.0)
CURVE_THETAS = ("10", "30", "45", "100", "424.66", "1000")


def commands() -> list[list[str]]:
    cmds = []
    for theta in EVAL_THETAS:
        for zr in EVAL_Z_OVER_LAMBDA_T:
            for fmt in ("text", "json", "csv"):
                cmds.append([
                    "eval", "--k0", repr(theta / LAMBDA_T), "--z", repr(zr * LAMBDA_T),
                    "--temperature", "300", "--format", fmt,
                ])
    cmds += [
        ["eval", "--temperature", "0", "--k0", "12", "--z", "1"],
        ["eval", "--z", "1", "--units", "si"],
        ["eval", "--lambda0", "0.5", "--z", "1000"],
    ]
    for figure in ("1", "2", "3"):
        for theta in CURVE_THETAS:
            cmds.append(["curve", "--figure", figure, "--theta", theta])
    # non-default grids with H_T rows below theta 40, as the curve
    # benchmark draws them
    cmds += [
        ["curve", "--figure", "3", "--theta", "12", "--points", "57"],
        ["curve", "--figure", "2", "--theta", "33", "--points", "149"],
    ]
    cmds += [
        ["verify", "--format", "json"],
        ["verify", "--quick", "--format", "json"],
        ["analyze"],
        ["analyze", "--theta", "10"],
        ["analyze", "--theta", "30"],
        ["analyze", "--theta", "1000"],
        ["analyze", "--fit-window", "0.2", "0.45"],
        # refusals: a negative distance, theta below 10 and an inverted
        # fit window
        ["eval", "--z", "-1"],
        ["curve", "--figure", "2", "--theta", "5"],
        ["analyze", "--fit-window", "0.45", "0.2"],
        # refusals of results outside the double range: the vacuum part,
        # the H_T route's prefactor over a lambda_T^4 that underflows, and
        # both parts
        ["eval", "--k0", "2.72e14", "--z", "2.07e-74", "--temperature", "2.69e-28",
         "--alpha0", "1.54e87"],
        ["eval", "--k0", "3.1e96", "--z", "1.51e-97", "--temperature", "4.11e97",
         "--alpha0", "3.27e55"],
        ["eval", "--temperature", "1e83", "--k0", "1e100", "--z", "1e-100"],
    ]
    return cmds


# a decimal number, optionally signed and with an exponent
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def run(root: Path, argv: list[str]) -> tuple[int, bytes]:
    src = root / "src"
    env = {k: v for k, v in os.environ.items() if k != "CPWALL_CONFIG"}
    env["PYTHONPATH"] = str(src)
    proc = subprocess.run(
        [sys.executable, "-m", "cpwall", *argv],
        cwd=src, env=env, capture_output=True,
    )
    out = proc.stdout
    if argv[0] == "verify" and proc.returncode in (0, 1) and out:
        payload = json.loads(out)
        payload.pop("elapsed_s")
        out = (json.dumps(payload, indent=2) + "\n").encode()
    return proc.returncode, out


def largest_move(old: bytes, new: bytes) -> str:
    """How far the numbers of new moved from those of old."""
    a, b = old.decode(), new.decode()
    if _NUMBER.sub("#", a) != _NUMBER.sub("#", b):
        return "output differs in more than its numbers"
    numbers = zip(map(float, _NUMBER.findall(a)), map(float, _NUMBER.findall(b)))
    pairs = [(x, y) for x, y in numbers if x != y]
    worst = max(
        (abs(y - x) / abs(x) if x else math.inf for x, y in pairs), default=0.0
    )
    return f"largest relative cell move {worst:.2e} ({len(pairs)} numbers moved)"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, required=True, help="checkout to run")
    parser.add_argument(
        "--against", type=Path, help="second checkout to measure the moves from"
    )
    args = parser.parse_args()
    root = args.root.resolve()
    for argv in commands():
        code, out = run(root, argv)
        print(code, hashlib.sha256(out).hexdigest(), " ".join(argv), flush=True)
        if args.against is None:
            continue
        old_code, old = run(args.against.resolve(), argv)
        if old_code != code:
            print(f"  exit code {old_code} -> {code}", flush=True)
        elif old != out:
            print("  " + largest_move(old, out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
