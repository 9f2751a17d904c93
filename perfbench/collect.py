#!/usr/bin/env python3
"""Run the benchmark over several seeds and store a reference set.

Runs ``perfbench/run.py`` once per (seed, workload), seeds in turn and
workloads interleaved within a seed, with tracing off; then one traced
run per workload.  Writes every result plus, per workload and
end-to-end metric, the median, the quartiles (``statistics.quantiles``,
n=4) and the spread (quartile distance over median) to ``--out``.

Usage, from the root of the repository:
    python3 perfbench/collect.py --seeds 1 2 3 4 5 6 7 8 9 10 \
        --out perfbench/reference/set_a.json
"""

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_benchmark() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    host = next(l for l in lines if l.startswith("rounds "))
    accuracy = next(l for l in lines if l.startswith("accuracy "))
    return {
        "seed": seed,
        "host": json.loads(host.split(" host ", 1)[1]),
        "accuracy": json.loads(accuracy.split(") ", 1)[1]),
        **json.loads(lines[-1]),
    }


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    started = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    runs = {w: [] for w in workloads}
    for seed in args.seeds:
        for w in workloads:
            result = run_once(w, seed, seconds, 0)
            runs[w].append(result)
            shown = {k: round(v["value"], 3) for k, v in result["metrics"].items()}
            print(f"{w} seed {seed}: correct={result['correct']} {shown}", flush=True)
    traced = {w: run_once(w, args.seeds[0], seconds, 1) for w in workloads}

    summary = {}
    for w in workloads:
        summary[w] = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            s = summarize([r["metrics"][name]["value"] for r in runs[w]])
            summary[w][name] = s
            flag = "" if s["spread"] < metric["bound"] / 3 else "  <-- above bound/3"
            print(f"{w:13s} {name:13s} median {s['median']:10.4f}  q1 {s['q1']:10.4f}  "
                  f"q3 {s['q3']:10.4f}  spread {s['spread']:.4f} (bound {metric['bound']}){flag}")
    record = {
        "started": started,
        "command": " ".join(["python3", "perfbench/collect.py"] + sys.argv[1:]),
        "run_seconds": seconds,
        "host": runs[workloads[0]][0]["host"],
        "summary": summary,
        "runs": runs,
        "traced": traced,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
