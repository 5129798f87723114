"""Write reference.json: the epidemics and exact counts at the default seed.

Run from the repository root, once, when a workload is added or
changed (never to make a failing check pass)::

    python3 perfbench/pin.py

Each workload runs one untraced and one traced iteration; both must
give the same epidemic, and every workload that shares an epidemic
with another must reproduce it exactly.
"""

import json
import sys
from pathlib import Path

if __name__ == "__main__":
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    from measure import REFERENCE, measure
    from workloads import DEFAULT_SEED, WORKLOADS

    epidemics, counts = {}, {}
    for name, workload in WORKLOADS.items():
        result = measure(name, DEFAULT_SEED, 0, trace=True, reference=None)
        if result["errors"]:
            sys.exit("".join(result["errors"]))
        pinned = epidemics.setdefault(workload.epidemic, result["epidemic"])
        if pinned != result["epidemic"]:
            sys.exit(f"{name} does not reproduce {workload.epidemic}")
        counts[name] = result["counts"]
        print(name, result["epidemic"]["total_infections"], counts[name])
    REFERENCE.write_text(json.dumps(
        {"seed": DEFAULT_SEED, "epidemics": epidemics, "counts": counts},
        indent=1, sort_keys=True,
    ) + "\n")
