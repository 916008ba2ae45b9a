"""The reference loop, the unit the benchmark's op timings are given in.

The machines this benchmark runs on share their cores with other work, and
their speed changes by up to 1.5x for seconds to minutes at a time: every
time measured on them moves with it, ferrospin's and this loop's alike.
So the worker runs this loop between every two ops, and every
SAMPLE_INTERVAL seconds while an op runs (`Sampler`), and gives each op's
latency as a multiple of the loop's median time over the op (the unit
`ref`).  That ratio keeps what a change to ferrospin does and drops what
the host does.

The loop counts the self-avoiding walks from a corner of a 3x5 grid, one
stack entry with a walk tuple and a visited frozenset per walk, the way
`regions.verify_region` walks; it takes about 1 ms on a 2-core Xeon.  It is
benchmark code and imports nothing from ferrospin, so no change to the
library changes the unit.
"""

from __future__ import annotations

import signal
import time

ROWS, COLS = 3, 5
NODES = 1137  # walks from a corner of the 3x5 grid, the empty walk included
SAMPLE_INTERVAL = 0.05


def _grid(rows: int, cols: int) -> dict[int, tuple[int, ...]]:
    adj = {}
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            adj[v] = tuple(w for w, ok in ((v - cols, r > 0),
                                           (v + cols, r < rows - 1),
                                           (v - 1, c > 0),
                                           (v + 1, c < cols - 1)) if ok)
    return adj


_ADJ = _grid(ROWS, COLS)


def walk_count() -> int:
    nodes = 0
    stack = [(0, (0,), frozenset((0,)))]
    while stack:
        u, walk, seen = stack.pop()
        nodes += 1
        for x in _ADJ[u]:
            if x not in seen:
                stack.append((x, walk + (x,), seen | {x}))
    return nodes


def timed() -> float:
    """Seconds one run of the loop takes now."""
    t0 = time.perf_counter()
    nodes = walk_count()
    seconds = time.perf_counter() - t0
    if nodes != NODES:
        raise RuntimeError(f"reference loop counted {nodes} walks, not {NODES}")
    return seconds


class Sampler:
    """Times the reference loop every SAMPLE_INTERVAL seconds while an op
    runs, from a SIGALRM handler, which runs in the main thread between
    two bytecodes (inside a long BLAS call it waits for the call to
    return).  `spent` is the time the handler took, to be taken off the
    op's latency."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(timed())
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self.samples, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
