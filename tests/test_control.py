import math

import numpy as np
import pytest

from conftest import bump_control, twin_problem
from mchcontrol.errors import ConfigError
from mchcontrol.grid import Domain1D, TimeGrid, d2, norm_h, norm_vstar
from mchcontrol.forward import (ModelParams, ControlWindow, apply_B,
                                restrict_B, inner_q0, norm_q0, solve_forward,
                                transport_terms)
from mchcontrol.helmholtz import get_operator
from mchcontrol.control import (TrackingProblem, OptimOptions, cost,
                                reduced_gradient, optimize, lagrangian,
                                state_equation_residual,
                                first_order_residuals, constants,
                                lambda_bound_check, quadratic_form,
                                kernel_bound_check, coercivity_check)
from mchcontrol.tangent_adjoint import solve_tangent


@pytest.fixture(scope="module")
def twin_small():
    return twin_problem(n=24, n_steps=60)


def test_problem_validation(twin_small):
    prob, _ = twin_small
    with pytest.raises(ValueError):
        TrackingProblem(prob.domain, prob.tg, prob.model, prob.window,
                        prob.y0, prob.z_d, delta=0.0)


def test_cost_parts(twin_small):
    prob, om_true = twin_small
    J, parts = cost(prob, om_true)
    assert parts["total"] == pytest.approx(
        parts["tracking"] + parts["regularization"], rel=1e-15)
    assert J == parts["total"]
    # at the generating control the misfit vanishes identically
    assert parts["tracking"] == 0.0
    assert parts["regularization"] == pytest.approx(
        0.5 * prob.delta * norm_q0(prob.window, om_true) ** 2, rel=1e-15)


def test_gradient_matches_fd(twin_small, rng):
    prob, om_true = twin_small
    w = prob.window
    omega = 0.4 * om_true
    g, info = reduced_gradient(prob, omega)
    assert np.all(g[-1] == 0.0)
    h = 1e-5
    worst = 0.0
    for _ in range(3):
        q = w.random_control(rng)
        q = q / norm_q0(w, q)
        Jp, _ = cost(prob, omega + h * q)
        Jm, _ = cost(prob, omega - h * q)
        fd = (Jp - Jm) / (2.0 * h)
        dg = inner_q0(w, g, q)
        worst = max(worst, abs(fd - dg) / max(abs(fd), abs(dg)))
    assert worst <= 1e-7


def test_gradient_requires_l2_observer(twin_small):
    """Only the discrete and continuous adjoint schemes are accepted."""
    prob, _ = twin_small
    with pytest.raises(ConfigError):
        reduced_gradient(prob, prob.window.zero_control(), scheme="euler")


def test_continuous_scheme_close(twin_small):
    prob, om_true = twin_small
    omega = 0.4 * om_true
    gd, _ = reduced_gradient(prob, omega, scheme="discrete")
    gc, _ = reduced_gradient(prob, omega, scheme="continuous")
    rel = norm_q0(prob.window, gc - gd) / norm_q0(prob.window, gd)
    assert rel < 0.1


def test_state_equation_residual_zero_on_solution(twin_small):
    prob, om_true = twin_small
    ft = prob.solve(om_true)
    r = state_equation_residual(prob, om_true, ft)
    assert r <= 1e-12 * (1.0 + float(np.max(np.abs(ft.y))))


def state_residual_oracle(prob, omega, Y):
    """Frame-by-frame Y-norm of the step residual and the initial defect."""
    dom, tg, p = prob.domain, prob.tg, prob.model
    op = get_operator(dom)
    bq = apply_B(prob.window, omega)
    acc = 0.0
    for n in range(tg.n_steps):
        u, ux, _ = op.velocity(Y[n])
        mdt_next = Y[n + 1] - tg.dt * p.epsilon * d2(dom, Y[n + 1])
        e1 = ((mdt_next - Y[n]) / tg.dt
              + transport_terms(dom, Y[n], u, ux, p.k) - bq[n])
        acc += tg.dt * norm_vstar(dom, e1) ** 2
    return math.sqrt(acc + norm_h(dom, Y[0] - prob.y0) ** 2)


def test_state_equation_residual_matches_frame_oracle(twin_small, rng):
    prob, om_true = twin_small
    Y = prob.solve(om_true).y + 0.05 * rng.standard_normal(prob.z_d.shape)
    omega = prob.window.random_control(rng)
    want = state_residual_oracle(prob, omega, Y)
    assert want > 1.0  # far from feasible
    assert state_equation_residual(prob, omega, Y) == pytest.approx(
        want, rel=1e-12)


def assert_state_is_solved(prob, st):
    """The handed-back trajectory, gradient and adjoint equal a fresh solve
    at st.omega bit for bit."""
    ft = prob.solve(st.omega)
    g, info = reduced_gradient(prob, st.omega, ft)
    assert np.array_equal(st.ftraj.y, ft.y)
    assert np.array_equal(st.grad, g)
    assert np.array_equal(st.adjoint.lam, info["adjoint"].lam)


def test_optimize_recovers(twin_small):
    prob, _ = twin_small
    st = optimize(prob, prob.window.zero_control(),
                  OptimOptions(tol_g=1e-6, max_iters=100))
    assert st.converged and not st.stalled
    assert st.costs[-1] < st.costs[0] / 50.0
    rows = st.log_rows()
    assert rows[0][0] == 0 and len(rows) == len(st.costs)
    assert_state_is_solved(prob, st)


def test_optimize_immediate_when_optimal():
    prob, _ = twin_problem(n=24, n_steps=60, amplitude=0.0)
    st = optimize(prob, prob.window.zero_control())
    assert st.converged and st.n_iters == 0
    assert_state_is_solved(prob, st)


def test_optimize_gd_and_bad_method(twin_small):
    prob, _ = twin_small
    st = optimize(prob, prob.window.zero_control(),
                  OptimOptions(method="gd", tol_g=1e-2, max_iters=60))
    assert st.costs[-1] < st.costs[0]
    with pytest.raises(ConfigError):
        optimize(prob, prob.window.zero_control(), OptimOptions(method="x"))


@pytest.mark.filterwarnings("ignore::mchcontrol.errors.StabilityWarning")
def test_optimize_stall_diagnostics(twin_small):
    prob, _ = twin_small
    st = optimize(prob, prob.window.zero_control(),
                  OptimOptions(method="gd", step0=1e12, max_halvings=0,
                               max_iters=5))
    assert st.stalled and not st.converged
    assert st.message
    assert_state_is_solved(prob, st)


def test_lagrangian_on_feasible_trajectory(twin_small, rng):
    prob, om_true = twin_small
    omega = 0.5 * om_true
    ft = prob.solve(omega)
    J, _ = cost(prob, omega, ft)
    lam = rng.standard_normal(ft.y.shape)
    mu = rng.standard_normal(prob.domain.n_interior)
    for c in (0.0, 3.0):
        L = lagrangian(prob, omega, ft.y, lam, mu, c)
        assert abs(L - J) <= 1e-12 * (1.0 + abs(J))


def test_lagrangian_penalty_scaling(twin_small, rng):
    prob, om_true = twin_small
    ft = prob.solve(om_true)
    Y = ft.y.copy()
    Y[3] += 1e-3 * rng.standard_normal(prob.domain.n_interior)
    lam = np.zeros_like(Y)
    mu = np.zeros(prob.domain.n_interior)
    L0 = lagrangian(prob, om_true, Y, lam, mu, 0.0)
    L1 = lagrangian(prob, om_true, Y, lam, mu, 1.0)
    L2 = lagrangian(prob, om_true, Y, lam, mu, 2.0)
    # the penalty is linear in c with slope ||e||^2/2
    assert L2 - L1 == pytest.approx(L1 - L0, rel=1e-10)
    assert L1 > L0


def test_lagrangian_control_derivative_matches_gradient(twin_small, rng):
    """d/ds L(omega + s q) at the solved trajectory equals <g, q> in Q0."""
    prob, om_true = twin_small
    w = prob.window
    omega = 0.6 * om_true
    ft = prob.solve(omega)
    g, info = reduced_gradient(prob, omega, ft)
    lam = info["adjoint"].lam
    mu = info["adjoint"].mu
    q = w.random_control(rng)
    q = q / norm_q0(w, q)
    s = 1e-6
    Lp = lagrangian(prob, omega + s * q, ft.y, lam, mu, 0.0)
    Lm = lagrangian(prob, omega - s * q, ft.y, lam, mu, 0.0)
    fd = (Lp - Lm) / (2.0 * s)
    dg = inner_q0(w, g, q)
    assert abs(fd - dg) / max(abs(fd), abs(dg)) <= 1e-8


def test_first_order_residuals_keys(twin_small):
    prob, om_true = twin_small
    fo = first_order_residuals(prob, 0.2 * om_true)
    assert set(fo) == {"grad_norm", "state_residual", "adjoint_residual",
                       "adjoint_residual_rel", "mu_minus_lambda0", "lambda_T"}
    assert fo["lambda_T"] == 0.0
    assert fo["mu_minus_lambda0"] == 0.0
    assert fo["state_residual"] < 1e-11


def test_constants_unit_values():
    dom = Domain1D(1.0, 7)
    tg = TimeGrid(1.0, 2)
    zero = np.zeros((3, 7))
    _, _, c1 = constants(dom, tg, zero, ModelParams(epsilon=1.0))
    assert abs(c1 - 13.0) <= 1e-12
    spike = np.zeros((3, 7))
    spike[0, 0] = math.sqrt(6.0 / dom.h)
    _, c2, _ = constants(dom, tg, spike, ModelParams(epsilon=0.5))
    assert abs(c2 - 1.0) <= 1e-12
    spike[0, 0] = math.sqrt(1.0 / dom.h)
    c0, _, _ = constants(dom, tg, spike, ModelParams(epsilon=1.0))
    assert abs(c0 - 8.0625) <= 1e-12


def test_lambda_bound_structure(twin_small):
    prob, om_true = twin_small
    out = lambda_bound_check(prob, 0.5 * om_true)
    assert set(out) == {"lhs", "rhs", "passed", "c0"}
    assert out["lhs"] >= 0.0 and out["rhs"] > 0.0
    assert out["passed"]


def test_quadratic_form_zero_multiplier(rng):
    """With z_d the uncontrolled run, lambda vanishes and the form is
    the plain squared norm, positive definite."""
    dom = Domain1D(2.0, 24)
    tg = TimeGrid(0.5, 60)
    p = ModelParams(epsilon=0.1, k=0.4)
    w = ControlWindow(dom, tg, 0.5, 1.5, 0.125, 0.375)
    y0 = 0.3 * np.sin(math.pi * dom.x / 2.0)
    z_d = solve_forward(dom, tg, p, y0).y
    prob = TrackingProblem(dom, tg, p, w, y0, z_d, delta=1e-4)
    ft = prob.solve(w.zero_control())
    g, info = reduced_gradient(prob, w.zero_control(), ft)
    adj = info["adjoint"]
    assert np.all(adj.lam == 0.0)
    for _ in range(5):
        q = w.random_control(rng)
        tan = solve_tangent(ft, w, q, p)
        total, parts = quadratic_form(prob, q, ft, adj, tan)
        assert parts["b_integral"] == 0.0
        xnorm2 = parts["m_wv_sq"] + norm_q0(w, q) ** 2
        assert total >= min(1.0, prob.delta) * xnorm2 * (1.0 - 1e-8)


def test_quadratic_form_scaling(twin_small):
    prob, om_true = twin_small
    omega = 0.3 * om_true
    _, info = reduced_gradient(prob, omega)
    base = info["ftraj"], info["adjoint"]
    q = bump_control(prob.window, 1.0)
    t1, _ = quadratic_form(prob, q, *base)
    t2, _ = quadratic_form(prob, 2.0 * q, *base)
    assert t2 == pytest.approx(4.0 * t1, rel=1e-12)


def test_kernel_bound(twin_small, rng):
    prob, _ = twin_small
    ft = prob.solve(prob.window.zero_control())
    q = prob.window.random_control(rng)
    out = kernel_bound_check(prob, q, ft)
    assert out["passed"] and out["ratio"] <= out["c1"]
    zero = kernel_bound_check(prob, prob.window.zero_control(), ft)
    assert zero["ratio"] == 0.0 and zero["passed"]


def test_coercivity_report_keys(twin_small, rng):
    prob, om_true = twin_small
    rep = coercivity_check(prob, 0.2 * om_true, rng, n_samples=4,
                           n_embed_samples=4)
    d = rep.to_dict()
    for key in ("c0", "c2", "c1", "kappa1", "kappa2", "empirical_min_ratio",
                "kernel_bound_ratio", "cond1_pass", "cond2_pass",
                "lambda_bound_pass", "n_samples"):
        assert key in d
    assert d["n_samples"] == 4
    assert d["empirical_min_ratio"] > 0.0
