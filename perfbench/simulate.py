"""Set-up step of the benchmark, run as its own process so that its wall
time covers interpreter start, imports and dataset generation.

Usage: python3 perfbench/simulate.py MANIFEST_JSON
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mimosense.manifest import load_manifest  # noqa: E402
from mimosense.pipeline import run_simulate  # noqa: E402

if __name__ == "__main__":
    run_simulate(load_manifest(sys.argv[1]), workers=1)
