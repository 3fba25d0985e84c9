"""Shared fixtures: a small solver setup and the twin-recovery problem."""

import shutil
import tempfile
from functools import partial

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from mchcontrol.grid import Domain1D, TimeGrid
from mchcontrol.forward import (ModelParams, ControlWindow, solve_forward,
                                apply_B)
from mchcontrol.control import OptimOptions, TrackingProblem, optimize


# finite states whose verify threshold passes the float range: max|y|**3
# scales weak_residual's and max(E)**2 energy_identity's
HUGE_STATES = {
    "weak_residual": {"domain": {"L": 2.0, "n_interior": 3},
                      "time": {"T": 0.5, "n_steps": 5},
                      "model": {"epsilon": 0.1, "k": 0.4},
                      "initial": {"coefficients": [20.0]}},
    "energy_identity": {"domain": {"L": 2.0, "n_interior": 4},
                        "time": {"T": 0.5, "n_steps": 7},
                        "model": {"epsilon": 0.1, "k": 0.4},
                        "cost": {"z_d": "uncontrolled"},
                        "initial": {"coefficients": [0.0, 8.0]}},
}


def bump_control(window: ControlWindow, amplitude: float = 0.8) -> np.ndarray:
    """Smooth space-time bump supported inside the window."""
    dom, tg = window.domain, window.tg
    a, b, t0, t1 = window.a, window.b, window.t0, window.t1
    xs = np.clip((dom.x - a) / (b - a), 0.0, 1.0)
    ts = np.clip((tg.t - t0) / (t1 - t0), 0.0, 1.0)
    prof = np.outer(np.sin(np.pi * ts) ** 2, np.sin(np.pi * xs) ** 2)
    return amplitude * prof * window.mask


def twin_problem(n: int = 48, n_steps: int = 240, epsilon: float = 0.08,
                 k: float = 0.6, delta: float = 1e-4,
                 amplitude: float = 0.8):
    """Tracking problem whose target is generated by a known bump control.

    The window covers the middle half of the cylinder in both space and
    time; returns (problem, omega_true).
    """
    dom = Domain1D(2.0, n)
    tg = TimeGrid(0.8, n_steps)
    p = ModelParams(epsilon=epsilon, k=k)
    window = ControlWindow(dom, tg, 0.5, 1.5, 0.2, 0.6)
    y0 = 0.35 * np.sin(np.pi * dom.x / 2.0) \
        + 0.15 * np.sin(2.0 * np.pi * dom.x / 2.0)
    omega_true = bump_control(window, amplitude)
    z_d = solve_forward(dom, tg, p, y0, apply_B(window, omega_true)).y
    return TrackingProblem(dom, tg, p, window, y0, z_d, delta), omega_true


def solved_state(problem: TrackingProblem, omega):
    """optimize's state at omega itself, with no iteration: the trajectory,
    gradient and finished multiplier that the checks read."""
    return optimize(problem, omega, OptimOptions(max_iters=0))


def pytest_configure(config):
    """Hypothesis caches the constants it parses from the source in its
    home directory, ./.hypothesis by default, as it collects; a run keeps
    them in a temporary directory that it removes at exit."""
    home = tempfile.mkdtemp(prefix="hypothesis-")
    config.add_cleanup(partial(shutil.rmtree, home, ignore_errors=True))
    set_hypothesis_home_dir(home)


@pytest.fixture
def rng():
    return np.random.default_rng(20260818)


@pytest.fixture(scope="session")
def small_setup():
    """Modest forward setup shared by read-only tests."""
    dom = Domain1D(2.0, 32)
    tg = TimeGrid(0.5, 80)
    p = ModelParams(epsilon=0.1, k=0.4)
    window = ControlWindow(dom, tg, 0.5, 1.5, 0.125, 0.375)
    y0 = 0.3 * np.sin(np.pi * dom.x / 2.0) \
        + 0.1 * np.sin(3.0 * np.pi * dom.x / 2.0)
    return dom, tg, p, window, y0


@pytest.fixture(scope="session")
def twin48():
    return twin_problem()
