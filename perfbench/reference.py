"""Reference kernel of the benchmark: times fixed work that calls no epsim code.

child.py starts this script once per measured process and, before the first
pass and after every pass, writes a line to its stdin; for each line the script
runs the kernel and prints its time in seconds. It ends at end of input. It
runs in a process of its own so that its arrays stay out of the measured
process's peak memory.

The kernel mixes what the workloads spend their time on: a plain Python loop,
eigensolves of a 64x64 matrix, products of 400x400 matrices (BLAS, with the
same thread count as the passes) and in-place passes over a 64 MB array
(memory bandwidth). A pass's wall time divided by the kernel's time around it
cancels most of a shared host's slow phases, which last minutes and slow the
program and the kernel alike.
"""

import sys
import time

import numpy as np


def kernel(small: np.ndarray, big: np.ndarray, stream: np.ndarray) -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc += i * i
    for _ in range(60):
        np.linalg.eig(small)
    for _ in range(60):
        big @ big
    for _ in range(20):
        np.multiply(stream, 1.0000001, out=stream)
    return time.perf_counter() - start


def main() -> int:
    rng = np.random.default_rng(0)
    small = rng.standard_normal((64, 64))
    big = rng.standard_normal((400, 400))
    stream = np.ones(8_000_000)
    for _ in sys.stdin:
        print(repr(kernel(small, big, stream)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
