"""Time one cold start of a workload in this fresh interpreter.

Imports roadqueue, loads the scenario, builds the config and makes the
workload's first (warm-up) op, then prints one JSON line with the time
taken and any problem the op's output check found:

    python3 bench/cold_start.py --workload sweep-c18 --seed 1
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    workloads.pin_threads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    ctx = workload.context(Path(__file__).resolve().parents[1])
    first = next(workload.inputs(args.seed))
    output = workload.run(ctx, first)
    elapsed = time.perf_counter() - START
    print(json.dumps({"setup_s": elapsed, "problems": workload.check(first, output)}))


if __name__ == "__main__":
    main()
