import math

import numpy as np
import pytest

from conftest import bump_control
from mchcontrol.grid import Domain1D, TimeGrid, d1
from mchcontrol.forward import (ModelParams, ControlWindow, apply_B,
                                solve_forward)
from mchcontrol.analysis import (make_report, energy_series, energy_identity,
                                 momentum_identity)


@pytest.fixture(scope="module")
def free_run(small_setup):
    dom, tg, p, window, y0 = small_setup
    return solve_forward(dom, tg, p, y0)


@pytest.fixture(scope="module")
def forced_run(small_setup):
    dom, tg, p, window, y0 = small_setup
    omega = bump_control(window, 0.6)
    return solve_forward(dom, tg, p, y0, apply_B(window, omega)), omega


def test_make_report_semantics():
    """A report is the entry verify.json holds, with plain float and bool
    values, also for numpy inputs."""
    rep = make_report("x", np.float64(1.0), 0.5)
    assert rep == {"name": "x", "lhs": 1.0, "rhs": 0.5, "margin": -0.5,
                   "passed": False}
    assert [type(v) for v in rep.values()] == [str, float, float, float, bool]
    # the boundary passes: a check holds when its margin is exactly 0
    assert make_report("x", 0.5, 0.5) == {"name": "x", "lhs": 0.5, "rhs": 0.5,
                                          "margin": 0.0, "passed": True}


def test_energy_series_formula(free_run):
    ft = free_run
    dom = ft.domain
    E = energy_series(ft)
    h = dom.h
    for n in (0, 7, ft.tg.n_steps):
        u = ft.u[n]
        ux = d1(dom, u)
        s0 = (4.0 * u[0] - u[1]) / (2.0 * h)
        sL = (-4.0 * u[-1] + u[-2]) / (2.0 * h)
        direct = 0.5 * (h * float(u @ u) + h * float(ux @ ux)
                        + 0.5 * h * (s0 * s0 + sL * sL))
        assert E[n] == pytest.approx(direct, rel=1e-15)
    assert E.shape == (ft.tg.n_steps + 1,)


def test_energy_identity_reconstructs_increment(forced_run, small_setup):
    dom, tg, p, window, _ = small_setup
    ft, omega = forced_run
    bq = apply_B(window, omega)
    out = energy_identity(ft, p, bq)
    E, r = out["energy"], out["residual"]
    scale = 1.0 + float(np.max(np.abs(E)))
    for n in range(tg.n_steps):
        work = dom.h * float(bq[n] @ ft.u[n + 1])
        recon = tg.dt * (r[n] - out["dissipation"][n]
                         + out["wall_flux"][n] + work)
        assert abs((E[n + 1] - E[n]) - recon) <= 1e-12 * scale


def test_energy_residual_refines_in_time():
    dom = Domain1D(2.0, 64)
    p = ModelParams(epsilon=0.1, k=0.7)
    y0 = 0.4 * np.sin(np.pi * dom.x / 2.0) \
        + 0.2 * np.sin(2.0 * np.pi * dom.x / 2.0)
    res = []
    for N in (40, 80, 160):
        ft = solve_forward(dom, TimeGrid(0.5, N), p, y0)
        res.append(energy_identity(ft, p)["max_abs"])
    assert math.log2(res[0] / res[1]) >= 0.8
    assert math.log2(res[1] / res[2]) >= 0.8


def test_energy_decays_without_control(free_run, small_setup):
    _, tg, p, _, _ = small_setup
    out = energy_identity(free_run, p)
    E, r, flux = out["energy"], out["residual"], out["wall_flux"]
    for n in range(tg.n_steps):
        slack = tg.dt * (abs(r[n]) + max(flux[n], 0.0))
        assert E[n + 1] - E[n] <= slack
    assert E[-1] < E[0]
    assert np.all(out["dissipation"] >= 0.0)


def test_energy_identity_accounts_for_control(forced_run, small_setup):
    _, _, p, window, _ = small_setup
    ft, omega = forced_run
    with_work = energy_identity(ft, p, apply_B(window, omega))["max_abs"]
    without = energy_identity(ft, p)["max_abs"]
    assert without > 5.0 * with_work


def test_momentum_identity_second_order():
    errs = []
    for n in (64, 128):
        dom = Domain1D(2.0, n)
        y = np.sin(np.pi * dom.x / 2.0) + 0.3 * np.sin(np.pi * dom.x)
        lhs, rhs, relerr = momentum_identity(dom, y)
        assert lhs > 0 and rhs > 0
        errs.append(relerr)
    assert errs[0] / errs[1] >= 3.0


def test_momentum_identity_zero_field():
    dom = Domain1D(2.0, 16)
    lhs, rhs, relerr = momentum_identity(dom, np.zeros(16))
    assert lhs == 0.0 and rhs == 0.0 and relerr == 0.0
