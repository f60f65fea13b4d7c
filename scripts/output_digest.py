"""Print a digest of the command line's output over a fixed command list.

Run from anywhere, pointing at a checkout:

    python scripts/output_digest.py --root .
    python scripts/output_digest.py --root /path/to/other/checkout

Each command runs as ``python -m cpwall ...`` in a fresh interpreter
from ``ROOT/src``, with ``CPWALL_CONFIG`` removed from the environment so
the built-in constants apply.  For each command one line is printed: the
exit code, the sha256 of stdout and the argv.  ``verify --format json``
drops its ``elapsed_s`` field before hashing, since wall time differs
from run to run.  Two checkouts that print the same lines give the same
exit codes and byte-identical stdout on every command of the list, so a
refactor can be checked with

    diff <(python scripts/output_digest.py --root OLD) \
         <(python scripts/output_digest.py --root NEW)

Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
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
    cmds += [
        ["verify", "--format", "json"],
        ["verify", "--quick", "--format", "json"],
        ["analyze"],
        ["analyze", "--theta", "30"],
        ["analyze", "--theta", "1000"],
        # refusals: a negative distance, and theta below 10
        ["eval", "--z", "-1"],
        ["curve", "--figure", "2", "--theta", "5"],
    ]
    return cmds


def digest(root: Path, argv: list[str]) -> tuple[int, str]:
    src = root / "src"
    env = {k: v for k, v in os.environ.items() if k != "CPWALL_CONFIG"}
    env["PYTHONPATH"] = str(src)
    proc = subprocess.run(
        [sys.executable, "-m", "cpwall", *argv],
        cwd=src, env=env, capture_output=True,
    )
    out = proc.stdout
    if argv[0] == "verify" and proc.returncode in (0, 1):
        payload = json.loads(out)
        payload.pop("elapsed_s")
        out = (json.dumps(payload, indent=2) + "\n").encode()
    return proc.returncode, hashlib.sha256(out).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, required=True, help="checkout to run")
    args = parser.parse_args()
    root = args.root.resolve()
    for argv in commands():
        code, sha = digest(root, argv)
        print(code, sha, " ".join(argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
