import gc
import json
import math
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

from conftest import bump_control, solved_state, twin_problem
from mchcontrol.errors import NumericsError, StabilityWarning
from mchcontrol.grid import (Domain1D, TimeGrid, d1, d2,
                             measure_embedding_constant, norm_ct_h, norm_wv,
                             velocity)
from mchcontrol.forward import (ModelParams, ControlWindow, apply_B,
                                inner_q0, norm_q0, solve_forward,
                                transport_terms)
from mchcontrol.helmholtz import get_operator
from mchcontrol import control
from mchcontrol.config import build_problem_pieces, resolve_config
from mchcontrol.runners import run_twin, run_verify
from mchcontrol.control import (TrackingProblem, OptimOptions, cost,
                                reduced_gradient, optimize, lagrangian,
                                backtrack_step,
                                state_equation_residual,
                                first_order_residuals, constants,
                                lambda_bound_check, quadratic_form,
                                coercivity_check)
from mchcontrol.tangent_adjoint import solve_adjoint_continuous, solve_tangent


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
    # cost and reduced_gradient extend a control by B before they march
    off = om_true + (1.0 - prob.window.mask)
    assert cost(prob, off)[0] == J
    assert (reduced_gradient(prob, off)[0].tobytes()
            == reduced_gradient(prob, om_true)[0].tobytes())


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


def test_continuous_scheme_close(twin_small):
    prob, om_true = twin_small
    omega = 0.4 * om_true
    gd, info = reduced_gradient(prob, omega)
    ft = info["ftraj"]
    lam = solve_adjoint_continuous(ft, prob.z_d - ft.y, prob.model)
    gc = apply_B(prob.window, prob.delta * omega - lam)
    rel = norm_q0(prob.window, gc - gd) / norm_q0(prob.window, gd)
    assert rel < 0.1


def test_state_equation_residual_zero_on_solution(twin_small):
    prob, om_true = twin_small
    ft = prob.solve(om_true)
    r = state_equation_residual(prob, om_true, ft.y)
    assert r <= 1e-12 * (1.0 + float(np.max(np.abs(ft.y))))


def test_state_equation_residual_reuses_trajectory_velocities(twin_small):
    """The residual re-solves the velocities from the momentum frames alone;
    they are the solved trajectory's own, bit for bit, on a fresh solve and
    on one resumed from the control-free head, and its residual is roundoff.
    """
    prob, om_true = twin_small
    fresh = TrackingProblem(prob.domain, prob.tg, prob.model, prob.window,
                            prob.y0, prob.z_d, prob.delta)
    # the first solve keeps the head, the second resumes from it
    for omega in (om_true, 0.5 * om_true):
        ft = fresh.solve(omega)
        u, ux, _ = velocity(prob.domain, ft.y)
        assert np.array_equal(ft.u, u) and np.array_equal(ft.ux, ux)
        assert state_equation_residual(fresh, omega, ft.y) <= 1e-12 * (
            1.0 + float(np.max(np.abs(ft.y))))


def state_residual_oracle(prob, omega, Y):
    """Frame-by-frame Y-norm of the step residual and the initial defect,
    from one-column kernel solves and dot products."""
    dom, tg, p = prob.domain, prob.tg, prob.model
    ksolve = get_operator(dom).solve
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


def test_optimize_does_not_recompute_state_residual(twin_small,
                                                    monkeypatch):
    """Iterates solve the state equation, so optimize never evaluates its
    residual; the run is the same without it."""
    prob, _ = twin_small
    opts = OptimOptions(tol_g=1e-6, max_iters=100)
    ref = optimize(prob, prob.window.zero_control(), opts)

    def forbidden(*args, **kwargs):
        raise AssertionError("optimize evaluated the state residual")

    monkeypatch.setattr(control, "state_equation_residual", forbidden)
    st = optimize(prob, prob.window.zero_control(), opts)
    assert st.converged
    assert st.n_iters == ref.n_iters and st.costs == ref.costs


def test_final_cost_is_the_cost_of_the_final_state(twin_small):
    """The last logged cost is bit for bit cost() at the handed-back control
    and trajectory, after a converged run and after none: verify's
    lagrangian_feasible check reads it instead of evaluating the cost."""
    prob, om_true = twin_small
    ran = optimize(prob, prob.window.zero_control(),
                   OptimOptions(tol_g=1e-6, max_iters=100))
    assert ran.converged and ran.n_iters > 0
    for st in (ran, solved_state(prob, 0.2 * om_true)):
        J, _ = cost(prob, st.omega, st.ftraj)
        assert np.float64(J).tobytes() == np.float64(st.costs[-1]).tobytes()


def test_optimize_immediate_when_optimal():
    prob, _ = twin_problem(n=24, n_steps=60, amplitude=0.0)
    st = optimize(prob, prob.window.zero_control())
    assert st.converged and st.n_iters == 0
    assert_state_is_solved(prob, st)


def window_to_T_problem():
    """The twin problem of twin_problem(24, 60) on a window ending at T."""
    prob, _ = twin_problem(n=24, n_steps=60)
    w = ControlWindow(prob.domain, prob.tg, 0.5, 1.5, 0.2, prob.tg.T)
    return TrackingProblem(prob.domain, prob.tg, prob.model, w, prob.y0,
                           prob.z_d, prob.delta)


def test_optimize_zeroes_the_final_frame_of_a_window_ending_at_T(rng):
    """The final frame starts no step, so Q0 leaves it out even when
    t1 = T: the returned control reads +0.0 there, and the run is the run
    from omega0 with that frame zeroed."""
    prob = window_to_T_problem()
    w = prob.window
    assert w.block[0].stop == prob.tg.n_steps
    omega0 = rng.standard_normal(w.shape)
    zeroed = omega0.copy()
    zeroed[-1] = 0.0
    st = optimize(prob, omega0, OptimOptions(max_iters=10))
    ref = optimize(window_to_T_problem(), zeroed, OptimOptions(max_iters=10))
    assert st.n_iters > 0
    assert st.omega[-1].tobytes() == np.zeros(w.shape[1]).tobytes()
    assert st.costs == ref.costs
    assert st.omega.tobytes() == ref.omega.tobytes()
    assert_state_is_solved(prob, st)


@pytest.mark.parametrize("memory", [1, 2])
def test_optimize_with_short_memory_on_a_window_ending_at_T(rng, memory):
    """A memory of one or two (s, y, rho) triples drops its oldest once the
    run has more iterations; it still converges, and the final frame of its
    control reads +0.0."""
    prob = window_to_T_problem()
    omega0 = rng.standard_normal(prob.window.shape)
    st = optimize(prob, omega0, OptimOptions(memory=memory))
    assert st.converged and st.n_iters > memory
    assert st.omega[-1].tobytes() == np.zeros(omega0.shape[1]).tobytes()
    assert_state_is_solved(prob, st)


class IterateSpy:
    """Weak references to every trajectory TrackingProblem.solve returns
    and every multiplier solve_adjoint_discrete builds. At each adjoint it
    collects garbage and records which of them are still live."""

    def __init__(self, monkeypatch):
        self.trajs, self.mults, self.seen = [], [], []
        solve, adjoint = TrackingProblem.solve, control.solve_adjoint_discrete

        def spy_solve(problem, omega):
            ftraj = solve(problem, omega)
            self.trajs.append(weakref.ref(ftraj))
            return ftraj

        def spy_adjoint(ftraj, source, p, stop=0):
            gc.collect()
            live = [r() for r in self.trajs]
            self.seen.append((
                [t is ftraj for t in live if t is not None],
                sum(r() is not None for r in self.mults)))
            del live
            adj = adjoint(ftraj, source, p, stop)
            self.mults.append(weakref.ref(adj))
            return adj
        monkeypatch.setattr(TrackingProblem, "solve", spy_solve)
        monkeypatch.setattr(control, "solve_adjoint_discrete", spy_adjoint)


@pytest.mark.filterwarnings("ignore::mchcontrol.errors.StabilityWarning")
def test_optimize_stall_diagnostics(twin_small, monkeypatch):
    """A stalled search returns the iterate it started from, with that
    iterate's own trajectory (the first solve's, kept live) and adjoint."""
    prob, _ = twin_small
    monkeypatch.setattr(control, "MAX_TRIALS", 0)
    # no trial can give the decrease a constant of 1e12 asks for
    monkeypatch.setattr(control, "ARMIJO_C", 1e12)
    spy = IterateSpy(monkeypatch)
    st = optimize(prob, prob.window.zero_control(), OptimOptions(max_iters=5))
    assert st.stalled and not st.converged
    assert st.message
    assert spy.seen == [([True], 0)] and st.ftraj is spy.trajs[0]()
    assert_state_is_solved(prob, st)


def test_backtrack_step_interpolates_within_its_safeguards():
    """The minimizer -slope a^2 / (2 (Jt - J - slope a)) of the quadratic
    through J, the slope and Jt, exactly when it lies in [0.1, 0.5] a;
    clamped to that interval otherwise; 0.5 a when the quadratic has no
    positive curvature or Jt is not finite."""
    J, slope = 1.0, -2.0
    for a, Jt in ((1.0, 1.5), (2.0, 3.0), (0.5, 1.5)):
        want = -slope * a * a / (2.0 * (Jt - J - slope * a))
        assert 0.1 * a < want < 0.5 * a
        assert backtrack_step(a, J, slope, Jt) == want
    # a barely rejected trial puts the minimizer above 0.5 a
    assert backtrack_step(1.0, J, slope, J - 1e-5) == 0.5
    # a far worse trial puts it below 0.1 a
    assert backtrack_step(2.0, J, slope, 1e3) == 0.2
    for Jt in (J + slope * 1.0, J + slope * 2.0, math.nan, math.inf,
               -math.inf):
        assert backtrack_step(1.0, J, slope, Jt) == 0.5


class MarchSpy:
    """Records the control of every TrackingProblem.solve call; the calls
    listed in fail_at raise NumericsError instead of marching."""

    def __init__(self, monkeypatch, fail_at=()):
        self.controls, self.fail_at = [], set(fail_at)
        solve = TrackingProblem.solve

        def spy(problem, omega):
            self.controls.append(omega.copy())
            if len(self.controls) in self.fail_at:
                raise NumericsError("forced march failure", 0)
            return solve(problem, omega)
        monkeypatch.setattr(TrackingProblem, "solve", spy)


def test_optimize_spends_at_most_one_rejected_trial(twin48, monkeypatch):
    """On the n=48, N=240 twin, halving spent four rejected marches in one
    iteration (step 1 down to 1/16); the interpolating search reaches an
    accepted step after one. Every trial is already zero off the window,
    so marching it unmasked is marching apply_B of it, byte for byte."""
    prob, _ = twin48
    spy = MarchSpy(monkeypatch)
    st = optimize(prob, prob.window.zero_control())
    assert st.converged
    assert st.n_iters + 1 <= len(spy.controls) <= st.n_iters + 2
    for omega in spy.controls:
        assert omega.tobytes() == apply_B(prob.window, omega).tobytes()


def test_default_memory_holds_the_whole_run(twin48, monkeypatch):
    """The default memory keeps every (s, y, rho) triple of the n=48, N=240
    twin: the run equals one with a memory it can never fill, bit for bit,
    and rejects no trial (one march per iterate)."""
    prob, _ = twin48
    ref = optimize(prob, prob.window.zero_control(), OptimOptions(memory=200))
    spy = MarchSpy(monkeypatch)
    st = optimize(prob, prob.window.zero_control())
    assert st.converged and st.n_iters <= 12
    assert st.costs == ref.costs
    assert st.omega.tobytes() == ref.omega.tobytes()
    assert len(spy.controls) == st.n_iters + 1


def test_optimize_halves_after_a_failed_march(twin_small, monkeypatch):
    """A trial whose march raises NumericsError is followed by one at half
    its step, and the run still converges."""
    prob, _ = twin_small
    opts = OptimOptions(tol_g=1e-6, max_iters=100)
    ref = optimize(prob, prob.window.zero_control(), opts)
    # call 1 is the starting point, call 2 the first trial at step 1
    spy = MarchSpy(monkeypatch, fail_at={2})
    st = optimize(prob, prob.window.zero_control(), opts)
    blk = prob.window.block
    first, second = spy.controls[1][blk], spy.controls[2][blk]
    assert np.any(first != 0.0)
    assert second.tobytes() == (0.5 * first).tobytes()
    assert st.steps[1] == 0.5
    assert st.converged and st.costs[-1] <= 1.01 * ref.costs[-1]
    assert_state_is_solved(prob, st)


def test_optimize_holds_one_iterate_at_each_adjoint(twin48, monkeypatch):
    """On the n=48, N=240 twin, each gradient's adjoint runs with one
    solved trajectory live, the one it differentiates, and with no earlier
    multiplier: the superseded iterate is gone before the new adjoint."""
    prob, _ = twin48
    spy = IterateSpy(monkeypatch)
    st = optimize(prob, prob.window.zero_control())
    assert st.converged and len(spy.seen) == st.n_iters + 1
    assert spy.seen == [([True], 0)] * len(spy.seen)


README_TWIN = {
    "domain": {"L": 2.0, "n_interior": 128},
    "time": {"T": 0.8, "n_steps": 250},
    "model": {"epsilon": 0.08, "k": 0.6},
    "window": {"a": 0.5, "b": 1.5, "t0": 0.2, "t1": 0.6},
    "initial": {"kind": "sine_mix", "coefficients": [0.35, 0.15]},
    "control": {"kind": "bump", "amplitude": 0.8},
    "cost": {"delta": 1e-4, "z_d": "twin"},
    "optimizer": {"tol_g": 1e-6, "max_iters": 200},
    "seed": 12345,
}


def test_twin_memory_budget(tmp_path):
    """run_twin on the README config at n=128, N=250 peaks (tracemalloc)
    within the arrays that must be live while a trial marches.

    With L the bytes of an (N+1, n) lattice, P those of a zero-padded
    (N+1, n+2) march array, B those of a window block and m the iterations
    (at most m curvature pairs are kept), the live arrays are:

    - the target z_d (L), the problem's head (frames 0..k0 of y, u and
      u_x) and run_twin's true control (L);
    - the iterate: control (L), trajectory (2P + L: padded y and u, u_x),
      gradient (L) and multiplier (L);
    - the search: direction and its scaled step (2B), the pairs (2mB) and
      the trial control (L);
    - the trial's march: padded y and u (2P), u_x (L) and u^2 - u_x^2 (L).
      Its cost holds the misfit (L) in place of u^2 - u_x^2.

    That is 9L + 4P + head + (2 + 2m)B. An accepted trial's adjoint comes
    after the superseded control, trajectory and multiplier (3L + 2P) are
    dropped, and adds its source and multiplier (2L) and a coefficient
    stack with one difference, 5(N - k0)/(N + 1) L: less than those. One
    more L covers what grows with one axis only (rows, per-frame
    temporaries, time weights, solver factors) and interpreter objects.
    """
    cfg = resolve_config(README_TWIN)
    n, N = 128, 250
    tracemalloc.start()
    try:
        rc = run_twin(cfg, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    m = json.loads((tmp_path / "twin.json").read_text())["n_iters"]
    window = build_problem_pieces(cfg)[3]
    frames, nodes = window.block
    k0 = frames.start
    L, P = 8 * (N + 1) * n, 8 * (N + 1) * (n + 2)
    B = 8 * (frames.stop - k0) * (nodes.stop - nodes.start)
    head = 3 * 8 * (k0 + 1) * n
    assert peak <= 10 * L + 4 * P + head + (2 + 2 * m) * B


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
    fo = first_order_residuals(prob, solved_state(prob, 0.2 * om_true))
    assert set(fo) == {"state_residual", "adjoint_residual",
                       "adjoint_residual_rel"}
    assert fo["state_residual"] < 1e-11


def test_checks_read_the_solved_state(twin_small, rng, monkeypatch):
    """The three checks read optimize's state and solve nothing: with the
    forward solve, the discrete adjoint and its finishing march all raising,
    they report what they report without the patches. The state's gradient
    is bit for bit a full re-solve's at its control."""
    prob, _ = twin_small
    st = optimize(prob, prob.window.zero_control(),
                  OptimOptions(tol_g=1e-6, max_iters=100))
    g, _ = reduced_gradient(prob, st.omega)
    assert g.tobytes() == st.grad.tobytes()
    seed = int(rng.integers(1 << 31))

    def checks():
        rep = coercivity_check(prob, st, np.random.default_rng(seed),
                               n_samples=3, n_embed_samples=3)
        return (first_order_residuals(prob, st),
                lambda_bound_check(prob, st, rep["c0"]), rep)

    want = checks()

    def forbidden(*args, **kwargs):
        raise AssertionError("a check solved for itself")

    monkeypatch.setattr(TrackingProblem, "solve", forbidden)
    monkeypatch.setattr(control, "solve_adjoint_discrete", forbidden)
    monkeypatch.setattr(control, "finish_adjoint", forbidden)
    assert checks() == want


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


def test_lambda_bound_structure(twin_small):
    prob, om_true = twin_small
    st = solved_state(prob, 0.5 * om_true)
    c0, _, _ = constants(norm_ct_h(prob.domain, prob.tg, st.ftraj.y),
                         prob.tg.T, prob.model)
    out = lambda_bound_check(prob, st, c0)
    assert set(out) == {"lhs", "rhs"}
    assert out["lhs"] >= 0.0 and out["rhs"] > 0.0
    assert out["lhs"] <= out["rhs"]


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
        total, parts = quadratic_form(prob, q, ft, adj)
        assert parts["b_integral"] == 0.0
        xnorm2 = parts["m_wv_sq"] + norm_q0(w, q) ** 2
        assert total >= min(1.0, prob.delta) * xnorm2 * (1.0 - 1e-8)


def test_quadratic_form_stack_matches_per_direction(twin_small, rng):
    """One value per direction of a stack, each part within 1e-14 of the
    direction's own call."""
    prob, om_true = twin_small
    st = solved_state(prob, 0.5 * om_true)
    w = prob.window
    Q = np.stack([w.random_control(rng) for _ in range(4)]
                 + [bump_control(w, 1.0)])
    total, parts = quadratic_form(prob, Q, st.ftraj, st.adjoint)
    assert total.shape == (5,)
    for i, q in enumerate(Q):
        one, one_parts = quadratic_form(prob, q, st.ftraj, st.adjoint)
        assert type(one) is float
        assert set(one_parts) == set(parts)
        for key, val in one_parts.items():
            assert abs(parts[key][i] - val) <= 1e-14 * abs(val), key


def test_coercivity_check_marches_once(twin_small, rng, monkeypatch):
    """All sampled directions go through one tangent march, as a stack."""
    prob, om_true = twin_small
    st = solved_state(prob, 0.5 * om_true)
    shapes = []

    def counted(ftraj, window, q, p):
        shapes.append(np.shape(q))
        return solve_tangent(ftraj, window, q, p)

    monkeypatch.setattr(control, "solve_tangent", counted)
    rep = coercivity_check(prob, st, rng, n_samples=7, n_embed_samples=2)
    assert shapes == [(7,) + prob.window.shape]
    assert rep["n_samples"] == 7


def test_verify_computes_each_estimate_once(tmp_path, monkeypatch):
    """One verify evaluates the growth constants, and the C(H) norm of the
    state they are built from, once."""
    calls = Counter()
    for name in ("constants", "norm_ct_h"):
        def counted(*args, _fn=getattr(control, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(control, name, counted)
    cfg = resolve_config({
        "domain": {"L": 2.0, "n_interior": 24},
        "time": {"T": 0.5, "n_steps": 60},
        "model": {"epsilon": 0.1, "k": 0.4},
        "control": {"kind": "bump", "amplitude": 0.6}})
    assert run_verify(cfg, tmp_path) == 0
    assert calls == {"constants": 1, "norm_ct_h": 1}


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
    rep = coercivity_check(prob, solved_state(prob, w.zero_control()),
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
    assert rep["kernel_bound_ratio"] == max(ratios) > 0.0
    assert rep["kernel_bound_ratio"] <= rep["c1"]


def test_coercivity_report_keys(twin_small, rng):
    prob, om_true = twin_small
    d = coercivity_check(prob, solved_state(prob, 0.2 * om_true), rng,
                         n_samples=4, n_embed_samples=4)
    assert set(d) == {"c0", "c2", "c1", "c_embed", "kappa1", "kappa2",
                      "cond1_lhs", "cond1_rhs", "cond1_pass", "cond2_lhs",
                      "cond2_rhs", "cond2_pass", "kernel_bound_ratio",
                      "empirical_min_ratio", "n_samples"}
    assert d["n_samples"] == 4
    assert d["empirical_min_ratio"] > 0.0
