"""Reference kernels that time the host's speed beside each op.

The benchmark runs on a few cores of a shared host, and how fast those
cores run changes from second to second with what else the host runs:
the same 1e6-event simulation has taken from 0.7 s to 1.3 s within one
minute.  Longer runs do not average this away.  A fixed kernel timed
right before and right after each op measures the speed the op ran at,
so the benchmark scales every op's time by nominal / measured kernel
time and reports times at the nominal speed.

Host load does not slow every kind of work alike: an interpreted event
loop, many small Python calls and dense LAPACK solves slow by different
factors at different moments.  So there is one kernel for each kind of
work, and each workload names the ones that look like its own work
(``Workload.reference``).  No kernel calls roadqueue, so a change to the
package moves the op times and never the kernels.

The kernels are fixed by this file: their inputs come from fixed seeds,
and ``NOMINAL_S`` holds each kernel's median time over 4,206 runs, the
three kernels in turn, on an Intel Xeon with 2 vCPUs (Python 3.11,
numpy 2.4, one BLAS thread).
"""

from __future__ import annotations

import math
import statistics
import time

REPEATS = 2  # kernel runs per sample; a sample follows every op


def loop(buffer, rates) -> float:
    """An event loop in the style of a birth-death simulation."""
    occupancy = [0.0] * (len(rates) + 1)
    n, lam, top = 0, 0.8, len(rates)
    for i in range(0, buffer.size, 2):
        birth = lam if n < top else 0.0
        death = rates[n - 1] if n > 0 else 0.0
        total = birth + death
        occupancy[n] += -math.log1p(-buffer[i]) / total
        if buffer[i + 1] * total < birth:
            n += 1
        else:
            n -= 1
    return math.fsum(occupancy)


class _Section:
    """Attribute reads, as a scenario's section object gives them."""

    __slots__ = ("length", "vmax", "jam")

    def __init__(self):
        self.length, self.vmax, self.jam = 1000.0, 30.0, 0.18


def _rate(section, n):
    if n <= 0:
        return 0.0
    density = n / section.length
    return min(section.vmax, section.vmax * (1.0 - density / section.jam) + 1e-3) * density


def solver(section, vector) -> float:
    """Many small Python calls, then small-array numpy ops, as a solver core makes."""
    import numpy as np

    total = 0.0
    for _ in range(40):
        total += sum([_rate(section, n) for n in range(181)])
    x = vector
    for _ in range(400):
        y = np.cumsum(x)
        x = np.maximum(y / y[-1], 0.001) * vector
    return total + float(x.sum())


def dense(matrix) -> float:
    """One dense LU solve with as many right-hand sides as unknowns."""
    import numpy as np

    return float(np.linalg.solve(matrix, matrix).trace())


KERNELS = {"loop": loop, "solver": solver, "dense": dense}
NOMINAL_S = {"loop": 0.0095, "solver": 0.0067, "dense": 0.0068}
# A cold start is mostly imports: many small Python calls, and loading
# native libraries and touching fresh memory.  Scaled by these kernels,
# ten rounds of five cold starts of each workload spread 0.04-0.11 of
# their median, against 0.10-0.39 unscaled.
SETUP_KERNELS = ("solver", "dense")


def kernel_inputs() -> dict[str, tuple]:
    """Each kernel's fixed arguments; imports numpy."""
    import numpy as np

    return {
        "loop": (np.random.default_rng(0).random(30_000), [0.5 * (j + 1) for j in range(19)]),
        "solver": (_Section(), np.random.default_rng(1).random(200)),
        "dense": (np.random.default_rng(2).random((300, 300)) + 300 * np.eye(300),),
    }


class Speed:
    """Times one workload's reference kernels and scales op times by them.

    Build it after the thread pools are pinned: it imports numpy.
    """

    def __init__(self, kernels: tuple[str, ...]):
        if not kernels or not set(kernels) <= set(KERNELS):
            raise ValueError(f"reference kernels must be some of {sorted(KERNELS)}, got {kernels!r}")
        inputs = kernel_inputs()
        self._calls = [(KERNELS[k], inputs[k]) for k in kernels]
        self.nominal_s = sum(NOMINAL_S[k] for k in kernels)

    def sample(self) -> list[float]:
        """``REPEATS`` timings of all the workload's kernels run in turn."""
        samples = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            for fn, args in self._calls:
                fn(*args)
            samples.append(time.perf_counter() - start)
        return samples

    def scale(self, samples: list[float]) -> float:
        """Nominal over measured kernel time: the factor for an op's seconds."""
        return self.nominal_s / statistics.median(samples)
