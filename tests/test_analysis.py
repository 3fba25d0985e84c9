import math

import numpy as np
import pytest

from conftest import bump_control
from mchcontrol.grid import Domain1D, TimeGrid, d1, norm_wv
from mchcontrol.forward import (ModelParams, ControlWindow, apply_B,
                                solve_forward)
from mchcontrol.analysis import (EstimateReport, make_report, energy_series,
                                 energy_identity, momentum_identity,
                                 fit_growth_constant, gronwall_bound,
                                 wv_bound, smallness_margin)


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
    rep = make_report("x", 1.0, 0.5)
    assert isinstance(rep, EstimateReport)
    assert rep.margin == -0.5 and not rep.passed
    assert make_report("x", 1.0, 0.5, tol=0.6).passed
    d = rep.to_dict()
    assert d["name"] == "x" and d["meta"] == {}


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
    out = energy_identity(ft, p, omega, window)
    E, r = out["energy"], out["residual"]
    bq = apply_B(window, omega)
    scale = 1.0 + float(np.max(np.abs(E)))
    for n in range(tg.n_steps):
        work = dom.h * float(bq[n] @ ft.u[n + 1])
        recon = tg.dt * (r[n] - out["dissipation"][n]
                         + out["wall_flux"][n] + work)
        assert abs((E[n + 1] - E[n]) - recon) <= 1e-12 * scale


def test_energy_identity_requires_window(free_run, small_setup):
    _, _, p, window, _ = small_setup
    with pytest.raises(ValueError):
        energy_identity(free_run, p, omega=window.zero_control())


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
    with_work = energy_identity(ft, p, omega, window)["max_abs"]
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


def test_fit_growth_constant_floor_and_rate():
    dom = Domain1D(2.0, 16)
    tg = TimeGrid(0.5, 20)
    decay = np.exp(-tg.t)[:, None] * np.sin(np.pi * dom.x / 2.0)
    assert fit_growth_constant(dom, tg, decay) == 1e-12
    grow = np.exp(tg.t)[:, None] * np.sin(np.pi * dom.x / 2.0)
    assert fit_growth_constant(dom, tg, grow) == pytest.approx(2.0, rel=1e-9)


def test_gronwall_fitted_constant_passes(free_run, small_setup):
    dom, tg, _, _, _ = small_setup
    C = fit_growth_constant(dom, tg, free_run.y)
    rep = gronwall_bound(dom, tg, free_run.y, C)
    assert rep.passed
    assert rep.meta["n_valid_frames"] == tg.n_steps + 1
    assert rep.meta["first_violation_time"] is None
    assert "note" not in rep.meta


def gronwall_gaps(dom, tg, Y, C, A):
    """bound - measured per frame, one frame at a time."""
    return [math.exp(C * t) * A
            / math.sqrt((1.0 - math.exp(2.0 * C * t)) * A + 1.0)
            - dom.h * float(Y[n] @ Y[n]) for n, t in enumerate(tg.t)]


def test_gronwall_reports_tightest_frame(free_run, small_setup):
    dom, tg, _, _, _ = small_setup
    Y = free_run.y
    # A = ||y(0)||^2 by default, so frame 0 is exactly tight
    rep = gronwall_bound(dom, tg, Y, fit_growth_constant(dom, tg, Y))
    assert rep.passed and rep.lhs > 0.0
    assert rep.margin == 0.0
    assert rep.meta["worst_frame_time"] == 0.0
    assert min(gronwall_gaps(dom, tg, Y, rep.meta["C"], rep.meta["A"])) \
        == pytest.approx(0.0, abs=1e-15)
    # growth close to the bound's rate moves the tightest frame to t > 0
    dom = Domain1D(2.0, 16)
    tg = TimeGrid(0.5, 40)
    Y = np.exp(tg.t)[:, None] * (0.2 * np.sin(np.pi * dom.x / 2.0))
    A = 1.5 * dom.h * float(Y[0] @ Y[0])
    rep = gronwall_bound(dom, tg, Y, 1.2, A=A)
    assert rep.passed and rep.lhs > 0.0
    assert rep.meta["n_valid_frames"] == tg.n_steps + 1
    gaps = gronwall_gaps(dom, tg, Y, 1.2, A)
    assert rep.margin == pytest.approx(min(gaps), rel=1e-12)
    assert rep.meta["worst_frame_time"] == tg.t[int(np.argmin(gaps))] > 0.0


def test_gronwall_growing_trajectory():
    dom = Domain1D(2.0, 16)
    tg = TimeGrid(0.5, 40)
    Y = np.exp(tg.t)[:, None] * (0.2 * np.sin(np.pi * dom.x / 2.0))
    C = fit_growth_constant(dom, tg, Y)
    rep = gronwall_bound(dom, tg, Y, C)
    assert rep.passed


def test_gronwall_blowup_time_reported():
    dom = Domain1D(2.0, 16)
    tg = TimeGrid(0.5, 40)
    Y = np.ones((41, 16)) * 0.1
    rep = gronwall_bound(dom, tg, Y, C=1.0, A=5.0)
    t_star = math.log(1.0 + 1.0 / 5.0) / 2.0
    assert rep.meta["t_star"] == pytest.approx(t_star, rel=1e-12)
    assert rep.meta["n_valid_frames"] < tg.n_steps + 1
    assert "note" in rep.meta
    assert rep.passed


def test_wv_bound_implied_and_explicit(forced_run, small_setup):
    dom, tg, _, window, _ = small_setup
    ft, omega = forced_run
    rep = wv_bound(dom, tg, ft.y, window, omega)
    assert rep.passed
    assert rep.meta["C"] == rep.meta["implied_C"]
    assert rep.lhs == pytest.approx(norm_wv(dom, tg, ft.y), rel=1e-15)
    tight = wv_bound(dom, tg, ft.y, window, omega,
                     C=0.5 * rep.meta["implied_C"])
    assert not tight.passed


def test_smallness_margin_cases(small_setup):
    dom, tg, _, window, y0 = small_setup
    omega = bump_control(window, 0.6)
    rep = smallness_margin(dom, tg, window, y0, omega, C_eps=0.0)
    assert rep.rhs == math.inf and rep.passed
    big = smallness_margin(dom, tg, window, 3.0 * y0 + 1.0, omega, C_eps=2.0)
    assert not big.passed
    with pytest.raises(ValueError):
        smallness_margin(dom, tg, window, y0, omega, C_eps=-1.0)
