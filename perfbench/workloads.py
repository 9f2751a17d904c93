"""Workload manifests for the pipeline benchmark.

Every workload runs all five stages.  Each keeps an even number of
windows per record and two records per activity, so the early/late
control has whole records to hold out and equal early and late halves.
The seed reseeds simulation, ALS and training together, as the CLI's
``--seed`` does; shapes and counts never depend on it.
"""

from __future__ import annotations

RECORDS_PER_ACTIVITY = 2

WORKLOADS = {
    # The desk window shape on short records.  CP-ALS on the
    # (100, 100, 32) and (100, 100, 16) time-correlation tensors is
    # dense BLAS work and takes nearly all of each stage; the sweep
    # includes the full array, so re-featurizing M=32 shows.
    "desk_wide": {
        "sim": {"t": 200, "f": 16, "m": 32, "snr_db": 20.0, "scenario": "LOS"},
        "t_w": 100,
        "antenna_sweep": [16, 32],
        # Fixed repeats of the short stages per round, so their medians
        # rest on several seconds of work.
        "repeats": {"train_eval": 16, "control": 4},
    },
    # Small windows in quantity: per-call overhead dominates CP-ALS,
    # the classifier trains on 170 rows, frame-loss interpolation runs,
    # and the sweep leaves out the full array.  20 windows per record
    # (200 in all) keep one run near a minute on a 2-vCPU host, where
    # 30 per record would take about 85 s.
    "many_windows": {
        "sim": {
            "t": 400,
            "f": 8,
            "m": 8,
            "snr_db": 20.0,
            "scenario": "NLOS",
            "frame_loss_prob": 0.02,
        },
        "t_w": 20,
        "antenna_sweep": [4],
        "repeats": {"train_eval": 6, "control": 4},
    },
}


def manifest_dict(name: str, seed: int, output_dir: str) -> dict:
    """The pipeline manifest of workload ``name`` at ``seed``."""
    spec = WORKLOADS[name]
    return {
        "sim": dict(spec["sim"], seed=seed),
        "t_w": spec["t_w"],
        "r_max": 10,
        "als": {"max_iters": 16, "rel_tol": 1e-6, "seed": seed},
        "train": {"epochs": 200, "batch_size": 32, "seed": seed},
        "experiments_per_activity": {
            f"A{i}": RECORDS_PER_ACTIVITY for i in range(1, 6)
        },
        "antenna_sweep": list(spec["antenna_sweep"]),
        "output_dir": output_dir,
    }
