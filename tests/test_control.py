import math

import numpy as np
import pytest

from conftest import bump_control, twin_problem
from mchcontrol.errors import ConfigError, NumericsError, StabilityWarning
from mchcontrol.grid import (Domain1D, TimeGrid, d1, d2,
                             measure_embedding_constant, norm_wv)
from mchcontrol.forward import (ModelParams, ControlWindow, apply_B,
                                restrict_B, inner_q0, norm_q0, solve_forward,
                                transport_terms)
from mchcontrol.helmholtz import get_operator
from mchcontrol.control import (TrackingProblem, OptimOptions, cost,
                                reduced_gradient, optimize, lagrangian,
                                state_equation_residual,
                                first_order_residuals, constants,
                                lambda_bound_check, quadratic_form,
                                coercivity_check)
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
    """Frame-by-frame Y-norm of the step residual and the initial defect,
    from one-column kernel solves and dot products."""
    dom, tg, p = prob.domain, prob.tg, prob.model
    ksolve = get_operator(dom).kernel.solve
    bq = apply_B(prob.window, omega)
    acc = 0.0
    for n in range(tg.n_steps):
        u = ksolve(Y[n])
        mdt_next = Y[n + 1] - tg.dt * p.epsilon * d2(dom, Y[n + 1])
        e1 = ((mdt_next - Y[n]) / tg.dt
              + transport_terms(dom, Y[n], u, d1(dom, u), p.k) - bq[n])
        acc += tg.dt * dom.h * float(e1 @ ksolve(e1))
    e2 = Y[0] - prob.y0
    return math.sqrt(acc + dom.h * float(e2 @ e2))


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


@pytest.mark.filterwarnings("ignore::mchcontrol.errors.StabilityWarning")
def test_optimize_stall_diagnostics(twin_small):
    prob, _ = twin_small
    # the first iteration has no curvature memory, so it tries step0
    st = optimize(prob, prob.window.zero_control(),
                  OptimOptions(step0=1e12, max_halvings=0, max_iters=5))
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


def test_checks_reuse_a_solved_state(twin_small, rng):
    """Given the trajectory and multiplier, the checks report exactly what
    they report when they solve for themselves."""
    prob, om_true = twin_small
    omega = 0.2 * om_true
    g, info = reduced_gradient(prob, omega)
    ft, adj = info["ftraj"], info["adjoint"]
    assert (first_order_residuals(prob, omega, ft, adj)
            == first_order_residuals(prob, omega))
    assert (lambda_bound_check(prob, omega, ft, adj)
            == lambda_bound_check(prob, omega))
    seed = int(rng.integers(1 << 31))
    reports = [coercivity_check(prob, omega, np.random.default_rng(seed),
                                n_samples=3, n_embed_samples=3, **given)
               for given in ({}, {"ftraj": ft, "adj": adj})]
    assert reports[0].to_dict() == reports[1].to_dict()


def bits(ft):
    return [a.tobytes() for a in (ft.y, ft.u, ft.ux)]


def fresh_solve(prob, omega):
    return solve_forward(prob.domain, prob.tg, prob.model, prob.y0,
                         apply_B(prob.window, omega))


def test_problem_solve_resumes_bit_for_bit(rng):
    """Later solves resume from the first solve's control-free head and
    still equal a fresh march bit for bit."""
    prob, om_true = twin_problem(n=24, n_steps=80)
    w = prob.window
    k0 = w.block[0].start
    first_row = w.zero_control()
    first_row[k0] = rng.standard_normal(w.mask.shape[1]) * w.mask[k0]
    for omega in (om_true, w.zero_control(), first_row,
                  w.random_control(rng), -2.0 * om_true):
        assert bits(prob.solve(omega)) == bits(fresh_solve(prob, omega))
    assert len(prob._head.y) == k0 + 1
    # a NaN before the window bypasses the head and fails where it enters
    bad = om_true.copy()
    bad[k0 - 3, 7] = np.nan
    with pytest.raises(NumericsError) as exc:
        prob.solve(bad)
    assert exc.value.time_index == k0 - 2


def test_problem_solve_after_failed_first_solve(rng):
    prob, om_true = twin_problem(n=24, n_steps=80)
    k0 = prob.window.block[0].start
    bad = om_true.copy()
    bad[k0 + 4, 7] = np.nan
    with pytest.raises(NumericsError) as exc:
        prob.solve(bad)
    assert exc.value.time_index == k0 + 5
    assert prob._head is None
    for omega in (om_true, prob.window.random_control(rng)):
        assert bits(prob.solve(omega)) == bits(fresh_solve(prob, omega))


def test_problem_solve_warns_like_a_fresh_march():
    """The CFL rows of the head are rebuilt: a breach at step 0, before the
    window (k0 = 2), is still reported by a resumed solve."""
    dom = Domain1D(2.0, 64)
    tg = TimeGrid(1.0, 4)
    w = ControlWindow(dom, tg, 0.5, 1.5, 0.5, 1.0)
    y0 = 1.5 * np.sin(math.pi * dom.x / 2.0)
    prob = TrackingProblem(dom, tg, ModelParams(epsilon=0.05), w, y0,
                           np.zeros((5, 64)), 1e-4)
    for _ in range(2):
        with pytest.warns(StabilityWarning) as rec:
            prob.solve(w.zero_control())
        assert [str(r.message) for r in rec] == [
            "dt=2.500e-01 exceeds advisory CFL bound 3.344e-02 at step 0"]
    assert len(prob._head.y) == 3


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
    """kernel_bound_ratio is the largest ||m||_WV^2 / ||q||_Q0^2 over the
    sampled directions, replayed here one tangent march at a time, and
    stays below c1."""
    prob, _ = twin_small
    w = prob.window
    seed = int(rng.integers(1 << 31))
    rep = coercivity_check(prob, w.zero_control(),
                           np.random.default_rng(seed), n_samples=3,
                           n_embed_samples=2)
    replay = np.random.default_rng(seed)
    measure_embedding_constant(prob.domain, prob.tg, replay, 2)
    ft = prob.solve(w.zero_control())
    ratios = []
    for _ in range(3):
        q = w.random_control(replay)
        m = solve_tangent(ft, w, q, prob.model).m
        ratios.append(norm_wv(prob.domain, prob.tg, m) ** 2
                      / norm_q0(w, q) ** 2)
    assert rep.kernel_bound_ratio == max(ratios) > 0.0
    assert rep.kernel_bound_ratio <= rep.c1


def test_coercivity_report_keys(twin_small, rng):
    prob, om_true = twin_small
    rep = coercivity_check(prob, 0.2 * om_true, rng, n_samples=4,
                           n_embed_samples=4)
    d = rep.to_dict()
    assert set(d) == {"c0", "c2", "c1", "c_embed", "kappa1", "kappa2",
                      "cond1_lhs", "cond1_rhs", "cond1_pass", "cond2_lhs",
                      "cond2_rhs", "cond2_pass", "kernel_bound_ratio",
                      "empirical_min_ratio", "n_samples"}
    assert d["n_samples"] == 4
    assert d["empirical_min_ratio"] > 0.0
