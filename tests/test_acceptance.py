"""Acceptance battery: one test per advertised guarantee, each checked at
its stated tolerance and reported as a single PASS/FAIL line."""

import math

import numpy as np
import pytest

from conftest import bump_control, solved_state, twin_problem
from mchcontrol.grid import (Domain1D, TimeGrid, d2, norm_ct_h, norm_h,
                            norm_l2h)
from mchcontrol.helmholtz import get_operator
from mchcontrol.forward import (ModelParams, ControlWindow, inner_q0,
                                norm_q0, solve_forward)
from mchcontrol.tangent_adjoint import (solve_tangent, solve_adjoint_discrete,
                                        solve_adjoint_continuous,
                                        adjoint_equation_residual,
                                        pairing_defect)
from mchcontrol.control import (TrackingProblem, OptimOptions, cost,
                                reduced_gradient, optimize, constants,
                                quadratic_form, coercivity_check)
from mchcontrol.analysis import energy_identity, momentum_identity
from mchcontrol.config import resolve_config
from mchcontrol.runners import run_verify


def _line(ok: bool, name: str, detail: str):
    print(f"{'PASS' if ok else 'FAIL'}: {name} ({detail})", flush=True)
    assert ok, f"{name}: {detail}"


_OPTIMA = {}


def twin_optimum(n: int, n_steps: int):
    """Solved twin problem at one resolution, cached across criteria."""
    key = (n, n_steps)
    if key not in _OPTIMA:
        prob, om_true = twin_problem(n=n, n_steps=n_steps)
        state = optimize(prob, prob.window.zero_control(),
                         OptimOptions(tol_g=1e-6, max_iters=200))
        _OPTIMA[key] = (prob, om_true, state)
    return _OPTIMA[key]


def test_c01_velocity_solve_round_trip():
    rng = np.random.default_rng(101)
    worst = 0.0
    for n in (32, 128, 512):
        dom = Domain1D(2.0, n)
        op = get_operator(dom)
        for _ in range(34):
            y = rng.standard_normal(n)
            u = op.solve(y)
            back = u - d2(dom, u)
            worst = max(worst, norm_h(dom, back - y) / norm_h(dom, y))
    _line(worst <= 1e-10, "velocity solve round trip",
          f"max rel defect {worst:.2e} <= 1e-10 over 102 fields")


def test_c02_velocity_solve_second_order():
    errs = []
    for n in (64, 128, 256):
        dom = Domain1D(1.0, n)
        target = np.sin(np.pi * dom.x)
        u = get_operator(dom).solve((1.0 + np.pi ** 2) * target)
        errs.append(float(np.max(np.abs(u - target))))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    _line(min(orders) >= 1.9, "velocity solve order",
          f"max errors {errs[0]:.2e} -> {errs[2]:.2e}, "
          f"orders {orders[0]:.2f}, {orders[1]:.2f} >= 1.9")


def test_c03_energy_balance_first_order_and_decay():
    # space kept fine (n = 128) so the first-order-in-time defect dominates
    # the second-order quadrature floor across the whole step sweep
    dom = Domain1D(2.0, 128)
    p = ModelParams(epsilon=0.1, k=0.7)
    y0 = 0.4 * np.sin(np.pi * dom.x / 2.0) \
        + 0.2 * np.sin(2.0 * np.pi * dom.x / 2.0)
    res = []
    finest = None
    for N in (20, 40, 80, 160):
        tg = TimeGrid(0.5, N)
        ft = solve_forward(dom, tg, p, y0)
        out = energy_identity(ft, p)
        res.append(out["max_abs"])
        finest = (tg, out)
    slope = math.log2(res[0] / res[-1]) / 3.0
    tg, out = finest
    E, r, flux = out["energy"], out["residual"], out["wall_flux"]
    decay_ok = all(E[n + 1] - E[n] <= tg.dt * (abs(r[n]) + max(flux[n], 0.0))
                   for n in range(tg.n_steps))
    _line(slope >= 1.0 and decay_ok, "energy balance",
          f"residual slope {slope:.3f} >= 1, per-step decay bound holds")


def test_c04_momentum_norm_identity_second_order():
    def relerr(n):
        dom = Domain1D(2.0, n)
        y = np.sin(np.pi * dom.x / 2.0) + 0.3 * np.sin(np.pi * dom.x)
        return momentum_identity(dom, y)[2]

    c_ref = relerr(64) / (2.0 / 65) ** 2
    worst = 0.0
    for n in (96, 128, 192, 256):
        h = 2.0 / (n + 1)
        worst = max(worst, relerr(n) / (c_ref * h * h))
    _line(worst <= 5.0, "momentum norm identity",
          f"rel defect <= {worst:.2f} * C_ref h^2, bound 5")


def test_c05_state_map_linearization_quadratic_remainder():
    dom = Domain1D(2.0, 32)
    tg = TimeGrid(0.5, 100)
    p = ModelParams(epsilon=0.1, k=0.4)
    w = ControlWindow(dom, tg, 0.5, 1.5, 0.125, 0.375)
    y0 = 0.3 * np.sin(np.pi * dom.x / 2.0) \
        + 0.1 * np.sin(3.0 * np.pi * dom.x / 2.0)
    omega = bump_control(w, 0.4)
    base = solve_forward(dom, tg, p, y0, w, omega)
    rng = np.random.default_rng(777)
    slopes = []
    for _ in range(5):
        q = w.random_control(rng)
        q = q / norm_q0(w, q)
        tan = solve_tangent(base, w, q, p)
        rems = []
        for h in (1e-2, 1e-3, 1e-4, 1e-5):
            pert = solve_forward(dom, tg, p, y0, w, omega + h * q)
            rems.append(norm_l2h(dom, tg, pert.y - base.y - h * tan.m))
        slopes.append(math.log10(rems[0] / rems[-1]) / 3.0)
    _line(min(slopes) >= 1.9, "linearization remainder",
          f"5 directions, remainder slopes in [{min(slopes):.2f}, "
          f"{max(slopes):.2f}], all >= 1.9")


def test_c06_tangent_adjoint_transpose_identity():
    dom = Domain1D(2.0, 32)
    tg = TimeGrid(0.5, 50)
    p = ModelParams(epsilon=0.1, k=0.4)
    w = ControlWindow(dom, tg, 0.5, 1.5, 0.125, 0.375)
    y0 = 0.3 * np.sin(np.pi * dom.x / 2.0) \
        + 0.1 * np.sin(3.0 * np.pi * dom.x / 2.0)
    ft = solve_forward(dom, tg, p, y0)
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(20):
        q = w.random_control(rng)
        s = rng.standard_normal((tg.n_steps + 1, dom.n_interior))
        worst = max(worst, pairing_defect(ft, w, q, s, p))
    _line(worst <= 1e-10, "tangent/adjoint transpose identity",
          f"max rel defect {worst:.2e} <= 1e-10 over 20 pairs")


def test_c07_reduced_gradient_fd_and_continuous_limit():
    prob, om_true = twin_problem(n=32, n_steps=100)
    w = prob.window
    omega = 0.5 * om_true
    g, _ = reduced_gradient(prob, omega)
    rng = np.random.default_rng(707)
    h = 1e-5
    worst = 0.0
    for _ in range(5):
        q = w.random_control(rng)
        q = q / norm_q0(w, q)
        Jp, _ = cost(prob, omega + h * q)
        Jm, _ = cost(prob, omega - h * q)
        fd = (Jp - Jm) / (2.0 * h)
        dg = inner_q0(w, g, q)
        worst = max(worst, abs(fd - dg) / max(abs(fd), abs(dg)))

    gaps = []
    for n, N in ((16, 80), (32, 160), (64, 320), (128, 640)):
        p2, _ = twin_problem(n=n, n_steps=N)
        om2 = bump_control(p2.window, 0.3)
        gd, info = reduced_gradient(p2, om2)
        ft = info["ftraj"]
        lam = solve_adjoint_continuous(ft, p2.z_d - ft.y, p2.model)
        gc = p2.delta * om2 - lam[p2.window.block]
        gaps.append(norm_q0(p2.window, gc - gd))
    slope = math.log2(gaps[0] / gaps[-1]) / 3.0
    _line(worst <= 1e-6 and slope >= 1.0, "reduced gradient",
          f"max FD rel error {worst:.2e} <= 1e-6; "
          f"continuous-scheme gap slope {slope:.3f} >= 1")


def test_c08_twin_recovery_convergence_and_stationarity():
    prob, om_true, state = twin_optimum(48, 240)
    w = prob.window
    drop = state.costs[0] / state.costs[-1]
    fine = optimize(prob, state.omega,
                    OptimOptions(tol_g=0.0, tol_g_abs=2e-10, max_iters=400))
    g, info = reduced_gradient(prob, fine.omega)
    lam_win = info["adjoint"].lam[w.block]
    ratio = norm_q0(w, g) / norm_q0(w, lam_win)
    thresh = 1e-6 * (1.0 + state.grad_norms[0])
    ok = (state.converged and state.n_iters <= 200 and drop >= 100.0
          and state.grad_norms[-1] <= thresh and ratio <= 1e-4)
    _line(ok, "twin recovery",
          f"converged in {state.n_iters} iters, cost drop {drop:.0f}x "
          f">= 100, ||g|| <= 1e-6(1+||g0||), "
          f"gradient/multiplier ratio {ratio:.2e} <= 1e-4")


def test_c09_optimality_system_identities_and_refinement():
    residuals = []
    exact_ok = True
    for n, N in ((24, 120), (48, 240), (96, 480)):
        prob, _, state = twin_optimum(n, N)
        ft = prob.solve(state.omega)
        _, info = reduced_gradient(prob, state.omega, ft)
        adj = info["adjoint"]
        exact_ok = exact_ok and bool(np.all(adj.lam[-1] == 0.0)) \
            and np.array_equal(adj.mu, adj.lam[0])
        eq = adjoint_equation_residual(ft, adj.lam, prob.z_d - ft.y,
                                       prob.model)
        residuals.append(eq["max_h"])
    slope = math.log2(residuals[0] / residuals[-1]) / 2.0
    _line(exact_ok and slope >= 1.0, "optimality system",
          f"terminal and initial multiplier identities exact at 3 "
          f"resolutions; adjoint equation residual slope {slope:.3f} >= 1")


def test_c10_growth_constants_closed_form():
    dom = Domain1D(1.0, 7)
    tg = TimeGrid(1.0, 2)
    dev = 0.0
    _, _, c1 = constants(norm_ct_h(dom, tg, np.zeros((3, 7))), tg.T,
                         ModelParams(epsilon=1.0))
    dev = max(dev, abs(c1 - 13.0))
    spike = np.zeros((3, 7))
    spike[0, 0] = math.sqrt(6.0 / dom.h)
    _, c2, _ = constants(norm_ct_h(dom, tg, spike), tg.T,
                         ModelParams(epsilon=0.5))
    dev = max(dev, abs(c2 - 1.0))
    spike[0, 0] = math.sqrt(1.0 / dom.h)
    c0, _, _ = constants(norm_ct_h(dom, tg, spike), tg.T,
                         ModelParams(epsilon=1.0))
    dev = max(dev, abs(c0 - 8.0625))
    _line(dev <= 1e-12, "growth constants",
          f"closed-form values 13, 1, 8.0625 reproduced, "
          f"max deviation {dev:.2e} <= 1e-12")


def test_c11_degenerate_second_variation_coercivity():
    dom = Domain1D(2.0, 32)
    tg = TimeGrid(0.5, 100)
    p = ModelParams(epsilon=0.1, k=0.4)
    w = ControlWindow(dom, tg, 0.5, 1.5, 0.125, 0.375)
    y0 = 0.3 * np.sin(np.pi * dom.x / 2.0)
    z_d = solve_forward(dom, tg, p, y0).y
    prob = TrackingProblem(dom, tg, p, w, y0, z_d, delta=1e-4)
    ft = prob.solve(w.zero_control())
    adj = solve_adjoint_discrete(ft, prob.z_d - ft.y, prob.model)
    rng = np.random.default_rng(1111)
    floor = min(1.0, prob.delta)
    coercive = True
    b_zero = True
    for _ in range(50):
        q = w.random_control(rng)
        total, parts = quadratic_form(prob, q, ft, adj)
        xnorm2 = parts["m_wv_sq"] + norm_q0(w, q) ** 2
        coercive = coercive and total >= floor * xnorm2 * (1.0 - 1e-8)
        b_zero = b_zero and parts["b_integral"] == 0.0
    rep = coercivity_check(prob, solved_state(prob, w.zero_control()), rng,
                           n_samples=10, n_embed_samples=8)
    cond_ok = rep["cond2_pass"] and rep["cond2_lhs"] < rep["cond2_rhs"] \
        and rep["kappa2"] > 0.0
    _line(coercive and b_zero and cond_ok, "degenerate coercivity",
          f"form >= min(1, delta)||(m, q)||^2 on 50 directions, multiplier "
          f"term exactly zero, margin condition holds with kappa2 = "
          f"{rep['kappa2']:.2e} > 0")


def test_c12_verification_battery_deterministic(tmp_path):
    cfg = resolve_config({
        "domain": {"L": 2.0, "n_interior": 24},
        "time": {"T": 0.5, "n_steps": 60},
        "model": {"epsilon": 0.1, "k": 0.4},
        "initial": {"kind": "sine_mix", "coefficients": [0.3, 0.1]},
        "control": {"kind": "bump", "amplitude": 0.6},
    })
    out1, out2 = tmp_path / "a", tmp_path / "b"
    code1 = run_verify(cfg, out1)
    code2 = run_verify(cfg, out2)
    same = (out1 / "verify.json").read_bytes() == \
        (out2 / "verify.json").read_bytes()
    _line(code1 == 0 and code2 == 0 and same, "verification battery",
          "all hard checks pass and repeated runs are byte-identical")
