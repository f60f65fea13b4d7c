"""Benchmark the working tree against a parent revision, in alternating pairs.

Run from the repository root:

    python scripts/bench_pairs.py --parent HEAD --pairs 10 --seed 31 \
        --workloads audit curve_grids cli_cold --out BENCH_5.json

The parent revision is cloned into a temporary directory (under
``$TMPDIR``, removed afterwards), so the repository's own metadata is
left untouched.  Each pair runs
``perfbench/run.py --trace 0`` once in the parent checkout and once in
the working tree, with the same seed and ``--seconds``; the side that
runs first alternates from pair to pair.  The output JSON holds every
pair's end-to-end metrics, each side's median and quartiles, how many
pairs the change won (ties count for neither side), the attempted and
failed operation counts, and perfbench's environment block of each side.
On ``cli_cold`` each pair also keeps both sides' per-command medians
(perfbench's ``extra.cli_kind_p50_ms``: eval, curve, verify_quick,
analyze), summarized per kind, so the record shows which command moved
the tail.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run; its summary line plus the record's
    environment and extra blocks."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench failed in {checkout}:\n{proc.stderr}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    record = checkout / ".perfbench" / f"{workload}_seed{seed}_trace0.json"
    full = json.loads(record.read_text())
    summary["environment"] = full["environment"]
    summary["extra"] = full["extra"]
    return summary


def spread(values: list[float]) -> dict:
    q1, _, q3 = (
        statistics.quantiles(values, n=4, method="inclusive")
        if len(values) > 1 else (values[0],) * 3
    )
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(pairs: list[dict], declared: list[dict]) -> dict:
    out = {}
    for m in declared:
        name, lower = m["name"], m["better"] == "lower"
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        p_med, c_med = statistics.median(parent), statistics.median(change)
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "parent": spread(parent),
            "change": spread(change),
            "change_wins": wins,
            "ties": ties,
            "median_change_pct": 100.0 * (c_med - p_med) / p_med if p_med else None,
        }
    return out


def summarize_kinds(pairs: list[dict]) -> dict:
    """Per cli_cold command kind found in every run: each side's median
    and quartiles of the per-run medians, and the median change in
    percent."""
    out = {}
    sides = [p["cli_kind_p50_ms"][s] for p in pairs for s in ("parent", "change")]
    for kind in sorted(set.intersection(*map(set, sides))):
        parent = [p["cli_kind_p50_ms"]["parent"][kind] for p in pairs]
        change = [p["cli_kind_p50_ms"]["change"][kind] for p in pairs]
        p_med, c_med = statistics.median(parent), statistics.median(change)
        out[kind] = {
            "unit": "ms",
            "parent": spread(parent),
            "change": spread(change),
            "median_change_pct": 100.0 * (c_med - p_med) / p_med,
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=["audit", "curve_grids", "cli_cold"])
    parser.add_argument("--seed", type=int, default=31)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent_rev = git("rev-parse", args.parent)
    report = {
        "parent": parent_rev,
        "change": {"head": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))},
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "environment": {},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        parent_dir = Path(tmp) / "parent"
        git("clone", "--quiet", "--no-checkout", str(ROOT), str(parent_dir))
        git("-C", str(parent_dir), "checkout", "--quiet", "--detach", parent_rev)
        for workload in args.workloads:
            pairs, failed = [], {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                runs = {}
                for side in order:
                    checkout = parent_dir if side == "parent" else ROOT
                    runs[side] = run_once(checkout, workload, args.seed, args.seconds)
                    failed[side].append([runs[side]["failed"], runs[side]["attempted"]])
                    report["environment"][side] = runs[side]["environment"]
                pair = {
                    "first": order[0],
                    **{s: {k: v["value"] for k, v in runs[s]["metrics"].items()} for s in runs},
                }
                if workload == "cli_cold":
                    pair["cli_kind_p50_ms"] = {
                        s: runs[s]["extra"]["cli_kind_p50_ms"] for s in runs
                    }
                pairs.append(pair)
                print(f"{workload} pair {i + 1}/{args.pairs} done", file=sys.stderr)
            report["workloads"][workload] = {
                "pairs": pairs,
                "failed_of_attempted": failed,
                "summary": summarize(pairs, declared),
            }
            if workload == "cli_cold":
                report["workloads"][workload]["cli_kind_p50_ms"] = summarize_kinds(pairs)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
