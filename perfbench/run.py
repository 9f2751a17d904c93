#!/usr/bin/env python3
"""Stage-timed benchmark of the mimosense pipeline.

One process runs the pipeline through the public ``mimosense.pipeline``
functions with ``workers=1``, as ``scripts/desk_experiment.py`` does:
``run_simulate`` is the set-up, then rounds of ``run_featurize``,
``run_train_eval``, ``run_sweep`` and ``run_control``, each timed from
outside, until ``--seconds`` have passed (whole rounds only).  After the
rounds the outputs are checked, and the last line of standard output is
one JSON object with the result.

With ``--trace 0`` it reports the end-to-end metrics (medians over the
run); with ``--trace 1`` the stages run under the span tracer of
``spans.py`` and it reports the per-layer metrics.

Usage, from the root of the repository:
    python3 perfbench/run.py --workload desk_wide --seed 0 --seconds 30 --trace 0
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# One BLAS/OpenMP thread: on a small shared host extra threads buy little
# wall time for much CPU time and make timings depend on the neighbours.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 5


def host_info() -> dict:
    import numpy as np
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def setup_times(manifest_path: Path) -> list[float]:
    """Wall time of separate processes that import the package and run
    run_simulate; each rewrites the same content-addressed dataset."""
    cmd = [sys.executable, str(HERE / "simulate.py"), str(manifest_path)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True)
        times.append(time.perf_counter() - t0)
    return times


def file_state(root: Path) -> dict:
    return {p: (p.stat().st_mtime_ns, p.stat().st_size) for p in root.rglob("*") if p.is_file()}


def written_since(before: dict, root: Path) -> tuple[int, int]:
    after = file_state(root)
    changed = [p for p, state in after.items() if before.get(p) != state]
    return len(changed), sum(after[p][1] for p in changed)


def call_plan(repeats: dict) -> list[str]:
    """Stage calls of one untraced round, in order: featurize, then the
    repeats of train-eval and control split into two halves around the
    sweep, so that their medians span two moments of the host's
    drifting speed instead of one.  The sweep neither reads nor writes
    what train-eval and control use."""
    te, ctl = repeats["train_eval"], repeats["control"]
    return (
        ["featurize"]
        + ["train_eval"] * ((te + 1) // 2)
        + ["control"] * ((ctl + 1) // 2)
        + ["sweep"]
        + ["train_eval"] * (te // 2)
        + ["control"] * (ctl // 2)
    )


def timed_round(stages: dict, manifest, repeats: dict) -> tuple[dict, dict]:
    """One untraced round; each stage's value is its median call time."""
    times = {stage: [] for stage in stages}
    results = {stage: [] for stage in stages}
    for stage in call_plan(repeats):
        t0 = time.perf_counter()
        results[stage].append(stages[stage](manifest))
        times[stage].append(time.perf_counter() - t0)
    sample = {f"{stage}_s": statistics.median(t) for stage, t in times.items()}
    sample["pipeline_s"] = sum(sample.values())
    return sample, results


def traced_round(tracer, stages: dict, manifest, work: Path, simulate_s: float) -> tuple[dict, dict, dict]:
    """One traced round: each stage called once inside its own span.
    Returns the round's per-layer metrics, results and hook counters."""
    from spans import layer_metrics

    first, before, files = len(tracer.start), dict(tracer.counters), file_state(work)
    results = {}
    for stage, fn in stages.items():
        with tracer.span(f"pipeline.{stage}"):
            results[stage] = [fn(manifest)]
    counters = {k: v - before.get(k, 0.0) for k, v in tracer.counters.items()}
    sample = layer_metrics(tracer.totals(first), counters, simulate_s, written_since(files, work))
    return sample, results, counters


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "mimosense" / "pipeline.py").is_file():
        print(f"mimosense sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # Imported only now: the thread count must be fixed before numpy loads.
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from checks import check_trace_counts, run_checks
    from mimosense.features import load_features_bin
    from mimosense.manifest import manifest_from_dict
    from mimosense.pipeline import (
        features_dir,
        run_control,
        run_featurize,
        run_simulate,
        run_sweep,
        run_train_eval,
    )
    from spans import PER_LAYER, STAGES, Tracer, instrument
    from workloads import WORKLOADS, manifest_dict

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    repeats = WORKLOADS[args.workload]["repeats"]
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    work = run_dir / "pipeline"
    work.mkdir(parents=True)
    raw = manifest_dict(args.workload, args.seed, str(work))
    manifest = manifest_from_dict(raw)
    manifest_path = run_dir / "manifest.json"
    manifest_path.write_text(json.dumps(raw, indent=1))

    tracer = Tracer() if args.trace else None
    attempted = 0
    if tracer is None:
        setup = setup_times(manifest_path)
        attempted += len(setup)
    else:
        instrument(tracer)
        with tracer.span("pipeline.simulate"):
            run_simulate(manifest, workers=1)
        simulate_s = tracer.totals()["channel.simulate"][1]
        attempted += 1

    stages = dict(zip(STAGES, (run_featurize, run_train_eval, run_sweep, run_control)))
    rounds: list[dict] = []
    round_counters: list[dict] = []
    outputs = {stage: [] for stage in STAGES}
    t_start = time.perf_counter()
    while not rounds or time.perf_counter() - t_start < args.seconds:
        if tracer is None:
            sample, results = timed_round(stages, manifest, repeats)
        else:
            sample, results, counters = traced_round(tracer, stages, manifest, work, simulate_s)
            round_counters.append(counters)
        rounds.append(sample)
        for stage, calls in results.items():
            outputs[stage] += calls
            attempted += len(calls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.restore()

    feats = load_features_bin(features_dir(manifest) / "features.bin")
    te_last = outputs["train_eval"][-1]
    checks = run_checks(manifest, args.seed, feats, te_last, outputs["sweep"][-1])
    te_acc = [float(r["accuracy"]) for r in outputs["train_eval"]]
    ctl_acc = [r["accuracies"] for r in outputs["control"]]
    if tracer is None:
        # The repeats of train-eval and control run on identical inputs
        # and must give identical results.
        checks.append(
            (
                "repeats_identical",
                all(a == te_acc[0] for a in te_acc) and all(c == ctl_acc[0] for c in ctl_acc),
                f"{len(te_acc)} train-evals, {len(ctl_acc)} controls",
            )
        )
    else:
        checks.append(check_trace_counts(manifest, list(zip(rounds, round_counters))))

    if tracer is None:
        values = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
        values["setup_s"] = statistics.median(setup)
        values["peak_rss_mb"] = peak_rss_mb
        units = {k: "MB" if k == "peak_rss_mb" else "s" for k in values}
    else:
        values = {k: statistics.median(r[k] for r in rounds) for k in PER_LAYER}
        units = {k: PER_LAYER[k][0] for k in values}
    metrics = {k: {"value": values[k], "unit": units[k]} for k in sorted(values)}
    correct = all(ok for _, ok, _ in checks)
    result = {"correct": correct, "attempted": attempted, "failed": 0, "metrics": metrics}

    host = host_info()
    for name, ok, detail in checks:
        print(f"check {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    accuracy = {
        "train_eval": float(te_last["accuracy"]),
        "sweep": outputs["sweep"][-1],
        "control": ctl_acc[-1],
    }
    print(f"accuracy (control not gated) {json.dumps(accuracy)}")
    print(f"rounds {len(rounds)}; host {json.dumps(host)}")
    record = {
        "args": vars(args),
        "host": host,
        "rounds": rounds,
        "accuracy": accuracy,
        "checks": [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks],
        "result": result,
    }
    (run_dir / "run.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.save(run_dir / "spans.npz")
    shutil.rmtree(work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
