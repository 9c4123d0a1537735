"""Machine-speed sampler, run next to the program on the program's CPUs.

Usage: ``python bench/calibrate.py LOG`` — runs until terminated.

Every ``PERIOD_S`` it times one fixed kernel of the kinds of work the
program does (sorting and reducing small numpy arrays, JSON round trips)
and appends ``<perf_counter at start> <CPU seconds>`` to ``LOG``.  CPU
time, not wall time, so being preempted by the program does not count;
what remains is how fast the processor runs this code right now.  The
kernel takes about 1 ms, under 1% of the CPU it shares with the program.
"""

import json
import sys
import time

import numpy as np

PERIOD_S = 0.1

_rng = np.random.default_rng(0)
_KEYS = _rng.random(48)
_TIES = _rng.random(48)
_REQUEST = {"op": "submit", "work": 1.25, "span": 1.25, "mode": "sequential", "weight": 1.0, "release": 123.5}


def kernel() -> float:
    total = 0.0
    for _ in range(60):
        order = np.lexsort((_TIES, _KEYS))
        total += float(np.minimum(_KEYS[order], 0.5).sum())
    for _ in range(80):
        total += len(json.loads(json.dumps(_REQUEST)))
    return total


def main() -> None:
    with open(sys.argv[1], "w") as log:
        while True:
            start = time.perf_counter()
            cpu = time.process_time()
            kernel()
            log.write(f"{start!r} {time.process_time() - cpu!r}\n")
            log.flush()
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    main()
