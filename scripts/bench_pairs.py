#!/usr/bin/env python3
"""Alternating before/after pairs of the stage-timed benchmark.

Runs ``perfbench/run.py`` in two checkouts of the repository, a base
and a change, in pairs: pair i runs the base first when i is even and
the change first when i is odd, so that a drift of the host's speed
falls on both alike.  Each run's end-to-end metrics (the last line of
its standard output) are kept, and for every metric the file records
both sides' medians and quartiles and the number of pairs in which the
change was better.  The host is read from the base's own run record
(``perfbench/out/<workload>-seed<n>-trace0/run.json``).

A gain is resolved when the change is better in at least nine of ten
pairs and its median differs from the base's by more than the spread
between the base's quartiles; the file marks each metric so.

Usage, from the root of the repository:
    python3 scripts/bench_pairs.py --base ../parent --change . \\
        --workload desk_wide --workload many_windows --pairs 10 \\
        --seconds 30 --seed 1 --out BENCH_<n>.json
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``checkout``: its result object."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "correct": result["correct"],
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
    }


def summarize(pairs: list[dict], metrics: dict) -> dict:
    """Per metric: medians, quartiles (inclusive method, as numpy's
    linear percentiles) and the pairs the change won."""
    out = {}
    for name, spec in metrics.items():
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        lower = spec["better"] == "lower"
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        q_base = statistics.quantiles(base, n=4, method="inclusive")
        q_change = statistics.quantiles(change, n=4, method="inclusive")
        gap = q_base[1] - q_change[1]
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "base_median": q_base[1],
            "base_quartiles": [q_base[0], q_base[2]],
            "change_median": q_change[1],
            "change_quartiles": [q_change[0], q_change[2]],
            "change_over_base": q_change[1] / q_base[1],
            "change_better_pairs": wins,
            "pairs": len(pairs),
            "gain_resolved": wins >= 0.9 * len(pairs)
            and (gap if lower else -gap) > q_base[2] - q_base[0],
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    checkouts = {"base": args.base.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    record = {
        "command": f"perfbench/run.py --seed {args.seed} --seconds {args.seconds:g} --trace 0",
        "order": "pair i runs the base first when i is even, the change first when odd",
        "host": None,
        "workloads": {},
    }
    for workload in args.workload:
        pairs = []
        for i in range(args.pairs):
            sides = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {"first": sides[0]}
            for side in sides:
                pair[side] = run_once(checkouts[side], workload, args.seed, args.seconds)
                print(
                    f"{workload} pair {i} {side}: "
                    + " ".join(f"{k}={v:.3f}" for k, v in pair[side]["metrics"].items()),
                    file=sys.stderr,
                    flush=True,
                )
            pairs.append(pair)
        if record["host"] is None:
            run_json = (
                checkouts["base"] / "perfbench" / "out"
                / f"{workload}-seed{args.seed}-trace0" / "run.json"
            )
            record["host"] = json.loads(run_json.read_text())["host"]
        record["workloads"][workload] = {
            "all_correct": all(p[s]["correct"] for p in pairs for s in checkouts),
            "summary": summarize(pairs, metrics),
            "runs": pairs,
        }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
