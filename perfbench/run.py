"""Benchmark entry point: one workload, one seed, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload seq-flu-100k --seed 0 --seconds 30 --trace 0

The last line of standard output is the JSON result; the line before it
holds the environment, per-iteration timings and the checks made.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"no program sources at {src}")
    sys.path.insert(0, str(src))
    from measure import main

    sys.exit(main())
