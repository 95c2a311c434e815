"""Fixed calibration load, run as its own process around every benchmark spawn.

Usage: python3 calibration_child.py STAMP_FILE

It does the two kinds of work a CLI repetition does, and STAMP_FILE receives
the CLOCK_MONOTONIC times at which each ended, as cli_child.py writes them:
starting an interpreter and importing numpy (`setup_end`), then a fixed
compute load of interpreted integer arithmetic, products of coefficient
lists and fresh small objects (`compute_end`).  The times measure the host's
speed of the moment for each kind.  It touches nothing of the package under
test, so a change to the package leaves it as it is.
"""

import json
import sys
import time

import numpy  # noqa: F401  (the import is part of the load)


def compute_load() -> int:
    acc = 0
    for i in range(250_000):
        acc = (acc * 31 + i) % 1_000_003
    f = [(i * 7919) % 1000 + 1 for i in range(160)]
    g = [(i * 104729) % 1000 + 1 for i in range(160)]
    for _ in range(2):
        product = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                product[i + j] += a * b
        acc += product[len(f)]
    rows = [[i * j for j in range(32)] for i in range(10_000)]
    for row in rows:
        acc += row[-1]
    return acc


def main(argv: list[str]) -> int:
    stamps = {"setup_end": time.monotonic()}
    compute_load()
    stamps["compute_end"] = time.monotonic()
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(stamps, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
