"""Host-speed probe, run beside the workload on one processor.

    python3 probe.py CPU

Pinned to processor CPU, it runs every PERIOD seconds one fixed chunk of the
kind of work hardyball's solver and kernel do (scalar spline evaluations
from Python, and one adaptive ``quad``), and prints one line ``<monotonic
clock at the chunk's midpoint> <thread CPU seconds of the chunk>``.  The
CPU time of the probe's own thread is used, so a chunk that waits for the
processor does not read as slow; a chunk reads slow only when the processor
runs instructions slower.  It stops at SIGTERM or when its standard input
closes.

A chunk takes about 1 ms every 40 ms, so the probe takes a few per cent of
its processor from the workload, the same share on every commit.
"""

from __future__ import annotations

import math
import os
import signal
import sys
import threading
import time

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

PERIOD = 0.04
SPLINE_CALLS = 100
KNOTS = np.linspace(0.0, 5.0, 200)
SPLINE = CubicSpline(KNOTS, np.sin(KNOTS))


def chunk():
    acc = 0.0
    for i in range(SPLINE_CALLS):
        acc += float(SPLINE(np.log(1.0 + 0.01 * i)))
    acc += quad(lambda t: math.exp(-t) * math.sqrt(t), 0.0, 3.0)[0]
    return acc


def main(argv):
    os.sched_setaffinity(0, {int(argv[0])})
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    # the parent closes our stdin when it is done with us, or when it dies
    threading.Thread(target=lambda: (sys.stdin.read(), stop.set()),
                     daemon=True).start()
    out = sys.stdout
    chunk()
    while not stop.is_set():
        start = time.monotonic()
        cpu = time.thread_time()
        chunk()
        cpu = time.thread_time() - cpu
        end = time.monotonic()
        out.write(f"{0.5 * (start + end):.6f} {cpu:.9f}\n")
        out.flush()
        stop.wait(max(0.0, PERIOD - (end - start)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
