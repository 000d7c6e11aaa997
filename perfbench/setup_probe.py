"""Set-up time of one workload in a fresh interpreter.

Times the import of ``repunif`` and the workload's set-up (constants,
parameters, instances, the first exact mean), then prints one JSON line.
``run.py`` starts this several times per run and reports the median.
"""

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path[:0] = [str(SRC), str(HERE)]
    t0 = time.perf_counter()
    import repunif  # noqa: F401
    import_s = time.perf_counter() - t0
    import workloads
    wl = workloads.make(args.workload, args.seed)
    setup_s = time.perf_counter() - t0
    print(json.dumps({"setup_s": setup_s, "import_s": import_s, **wl.setup_times}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
