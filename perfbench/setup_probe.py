"""Print the set-up time of one fresh process: importing ``matchcover`` from
the checkout and building one workload's inputs.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED SECONDS
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    workload, seed, seconds = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    mc = workloads.load_package()
    workloads.build_inputs(mc, workload, seed, seconds)
    print(time.perf_counter() - START)


if __name__ == "__main__":
    main()
