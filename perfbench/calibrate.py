"""Frozen calibration kernel: the machine's current speed at the kind of work
the program does, independent of the program's code.

It is a fixed IMEX-style march (stencils, a banded Cholesky solve per step,
small elementwise updates) plus CSV-style formatting of the final frames
with repr(), as in the trajectory export. Its arrays are as wide as the
workload's grid, so the host's load moves it as it moves the workload: on
48 points Python call overhead and small numpy/scipy calls dominate, as in
the program's hot loops; on 256 points array work weighs in. Nothing here
imports mchcontrol, so a change to the program cannot move it.
"""

import signal
import time

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

# grid width -> (steps of one march, reference seconds of one march); the
# reference is about what one march takes on a 2-vCPU Intel Xeon VM
# (family 6, model 143), the speed the benchmark's times are scaled to
KERNELS = {48: (300, 0.025), 256: (150, 0.060)}
DEFAULT_POINTS = 48
# a Sampler runs one march per this many reference march times of the
# command's own time, so it adds about a sixth to the command's wall time
SAMPLE_EVERY = 5
N_CSV_FRAMES = 40


def reference_s(n_points: int = DEFAULT_POINTS) -> float:
    return KERNELS[n_points][1]


def _march(n_points: int):
    n_steps = KERNELS[n_points][0]
    h = 2.0 / (n_points + 1)
    x = h * np.arange(1, n_points + 1)
    r = 0.1 / h ** 2
    band = np.zeros((2, n_points))
    band[0, 1:] = -r
    band[1, :] = 1.0 + 2.0 * r
    factor = (cholesky_banded(band), False)
    y = 0.35 * np.sin(np.pi * x / 2.0)
    frames = []
    for _ in range(n_steps):
        u = cho_solve_banded(factor, y)
        ux = np.empty_like(u)
        ux[1:-1] = u[2:] - u[:-2]
        ux[0], ux[-1] = u[1], -u[-2]
        ux /= 2.0 * h
        y = cho_solve_banded(factor, y - 1e-3 * (u * u - ux * ux) * ux)
        frames.append(y)
    rows = [",".join((repr(float(xi)), repr(float(yi)), repr(float(ui))))
            for f in frames[-N_CSV_FRAMES:] for xi, yi, ui in zip(x, f, u)]
    return len("\n".join(rows))


def sample(n_points: int = DEFAULT_POINTS) -> float:
    """Seconds for one calibration march."""
    t0 = time.perf_counter()
    _march(n_points)
    return time.perf_counter() - t0


def samples(budget_s: float, n_points: int = DEFAULT_POINTS) -> list:
    """Calibration marches until budget_s is spent, and at least three."""
    out = []
    while len(out) < 3 or sum(out) < budget_s:
        out.append(sample(n_points))
    return out


class Sampler:
    """Calibration marches interleaved with a command that is running.

    A one-shot SIGALRM timer, armed again after each march, interrupts the
    main thread every SAMPLE_EVERY reference march times; the handler runs
    one march and keeps its time. The host's speed then comes from inside
    the command's own interval: the command's time is its wall time less
    the marches', and its speed is their mean. Main thread only.
    """

    def __init__(self, n_points: int = DEFAULT_POINTS):
        self.n_points = n_points
        self.period_s = SAMPLE_EVERY * reference_s(n_points)
        self.samples = []
        self._active = False
        signal.signal(signal.SIGALRM, self._handler)

    def _handler(self, signum, frame):
        # a signal delivered after stop() must neither sample nor re-arm
        if not self._active:
            return
        self.samples.append(sample(self.n_points))
        signal.setitimer(signal.ITIMER_REAL, self.period_s)

    def start(self):
        self.samples = []
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, self.period_s)

    def stop(self):
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
