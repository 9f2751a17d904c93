"""Command-line entry point.

Subcommands mirror the pipeline stages; every one takes the same small
set of flags and reads everything else from the JSON manifest.  Exit
codes: 0 success, 2 validation error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys

from .errors import DataError, NumericError
from .manifest import load_manifest, reseed
from .pipeline import (
    run_control,
    run_featurize,
    run_simulate,
    run_sweep,
    run_train_eval,
)

__all__ = ["build_parser", "main"]

_COMMANDS = ("simulate", "featurize", "train-eval", "sweep-antennas", "control")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mimosense",
        description=(
            "Simulate massive-MIMO channel records, extract CP-weight "
            "features, and train/evaluate the activity classifier."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "simulate": "generate the simulated record dataset",
        "featurize": "turn records into CP-weight feature tables",
        "train-eval": "train the classifier and write metrics reports",
        "sweep-antennas": "accuracy versus antenna-subset size",
        "control": "early/late leakage control per activity",
    }
    for name in _COMMANDS:
        cmd = sub.add_parser(name, help=helps[name])
        cmd.add_argument(
            "--manifest", required=True, help="path to the JSON manifest"
        )
        cmd.add_argument(
            "--out", default=None, help="override the manifest output_dir"
        )
        cmd.add_argument(
            "--seed",
            type=int,
            default=None,
            help="override simulation/CP/training seeds with one value",
        )
        cmd.add_argument(
            "--workers", type=int, default=1, help="process-pool size"
        )
        cmd.add_argument(
            "--verbose", action="store_true", help="log progress to stderr"
        )
    return parser


def _dispatch(args: argparse.Namespace) -> None:
    manifest = load_manifest(args.manifest)
    if args.out is not None:
        manifest = dataclasses.replace(manifest, output_dir=args.out)
    if args.seed is not None:
        manifest = reseed(manifest, args.seed)
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    if args.command == "simulate":
        print(run_simulate(manifest, workers=args.workers))
    elif args.command == "featurize":
        print(run_featurize(manifest, workers=args.workers))
    elif args.command == "train-eval":
        result = run_train_eval(manifest)
        print(result["report_dir"])
        print(f"accuracy {result['accuracy']:.4f}")
    elif args.command == "sweep-antennas":
        for m, accuracy in run_sweep(manifest, workers=args.workers):
            print(f"M={m} accuracy {accuracy:.4f}")
    elif args.command == "control":
        result = run_control(manifest)
        print(result["control_dir"])
        print(f"verdict {result['verdict']}")
    else:  # pragma: no cover - argparse enforces the choices
        raise ValueError(f"unknown command {args.command}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        _dispatch(args)
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
