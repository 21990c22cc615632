"""Write bench/reference.json: the checks every workload must reproduce.

    python3 bench/make_reference.py

Runs each workload at two seeds and keeps each check's name, verdict and
witness.  It refuses to write unless every check passes, no criterion
raised and both seeds agree, since the reference must hold for any seed.
"""

from __future__ import annotations

import json
import sys

from run import BENCH, WORKLOADS, run_batch


def main() -> int:
    reference = {}
    for name in WORKLOADS:
        first, second = (run_batch(name, seed) for seed in (1, 2))
        for record in (first, second):
            if record["crashed"]:
                print(f"{name}: criteria raised: {record['crashed']}", file=sys.stderr)
                return 1
            bad = [c["name"] for c in record["checks"] if c["verdict"] != "pass"]
            if bad:
                print(f"{name}: checks did not pass: {bad}", file=sys.stderr)
                return 1
        if first["checks"] != second["checks"]:
            print(f"{name}: checks differ between seeds 1 and 2", file=sys.stderr)
            return 1
        reference[name] = first["checks"]
        print(f"{name}: {len(first['checks'])} checks")
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
