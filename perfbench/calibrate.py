"""Fixed reference work that measures how fast the host runs right now.

    python3 perfbench/calibrate.py

run.py launches this as a fresh interpreter next to every timed tiltsense
command and divides the command's times by this process's times, so that a
slow spell of a shared host scales both alike and cancels.  The work mixes
what the workloads spend their time on: interpreter start-up and a numpy
import, scalar Python calls into ``math`` (like QUADPACK's callbacks) and
numpy arithmetic on 1e4-point arrays (like the likelihood calls).  It never
imports tiltsense, so a change to the package cannot change it.
"""

import math

import numpy as np

SCALAR_POINTS = 1_200_000
ARRAY_POINTS = 10_000
ARRAY_ROUNDS = 2_400


def scalar_part():
    total = 0.0
    step = 8.0 / SCALAR_POINTS
    for i in range(SCALAR_POINTS):
        x = -4.0 + step * (i + 0.5)
        total += math.exp(-0.5 * x * x) * math.cos(0.3 * x) * step
    return total


def array_part():
    x = np.linspace(-4.0, 4.0, ARRAY_POINTS)
    total = 0.0
    for k in range(ARRAY_ROUNDS):
        shifted = x - 1e-4 * k
        density = np.exp(-0.5 * shifted * shifted) * (1.0 + 0.1 * np.sin(shifted))
        total += float(np.log(density + 1e-300).sum())
    return total


if __name__ == "__main__":
    # the results are checked so the work cannot be skipped or go wrong unseen
    scalar = scalar_part()
    expected = math.sqrt(2.0 * math.pi) * math.exp(-0.045)
    if not abs(scalar - expected) < 1e-3 or not math.isfinite(array_part()):
        raise SystemExit("calibration work gave a wrong result")
