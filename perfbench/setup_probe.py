"""Print the seconds a fresh interpreter takes to set up one workload.

Set-up is importing flexdp and building the workload's inputs.  json, which
only the benchmark uses, and the yardstick (yardstick.py) are imported
before the clock starts.  The yardstick runs before and after set-up, and
the mean of the two runs is printed after the set-up time, so the caller
can take the host's speed out of it.

    python3 perfbench/setup_probe.py <workload> <seed>
"""
import json  # noqa: F401  (used only by the benchmark; loaded before timing)
import sys
import time
from pathlib import Path

import yardstick

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    yardstick.run()  # warm-up
    before, _ = yardstick.run()
    start = time.perf_counter()
    import workloads
    workloads.WORKLOADS[name].build(seed)
    setup = time.perf_counter() - start
    after, _ = yardstick.run()
    print(repr(setup), repr((before + after) / 2))


if __name__ == "__main__":
    main()
