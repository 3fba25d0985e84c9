"""Tracking-control layer: cost, reduced gradient, optimizer, and the
first- and second-order optimality machinery.

The reduced cost is J(omega) = (1/2)||y(omega) - z_d||^2_L2(0,T;H)
+ (delta/2)||omega||^2 over the control window; controls are window blocks.
The reduced gradient is the L2(Q0) Riesz representative delta*omega -
B* lambda, with lambda the exact discrete transpose sourced by z_d - y and
B* lambda its window block; central finite differences of J reproduce
<g, q> to roundoff-limited accuracy.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import cmarch
from .analysis import growth
from .errors import NumericsError
from .forward import (ControlWindow, ForwardTrajectory, ModelParams,
                      _on_grid, as_control, inner_q0, norm_q0, solve_forward,
                      transport_terms)
from .grid import (Domain1D, TimeGrid, _shaped, as_trajectory, d1, d2,
                   inner_h, norm_h_sq, norm_ct_h, norm_l2v,
                   norm_vstar_sq, norm_wv, measure_embedding_constant,
                   velocity)
from .tangent_adjoint import (AdjointState, adjoint_equation_residual,
                              finish_adjoint, solve_adjoint_discrete,
                              solve_tangent)

ARMIJO_C = 1e-4  # sufficient-decrease constant of the line search
MAX_TRIALS = 40  # backtracks after the first trial before the search stalls


def backtrack_step(alpha: float, J: float, slope: float, Jt: float) -> float:
    """Next step after the trial at alpha is rejected with cost Jt: the
    minimizer of the quadratic through J, slope and Jt, clamped to
    [0.1, 0.5]*alpha (Nocedal & Wright, 3.5); 0.5*alpha for a Jt that is not
    finite (a failed march reads inf) or a quadratic that is not convex."""
    curv = Jt - J - slope * alpha
    if not (math.isfinite(Jt) and curv > 0):
        return 0.5 * alpha
    return min(max(-slope * alpha * alpha / (2.0 * curv), 0.1 * alpha),
               0.5 * alpha)


@dataclass
class TrackingProblem:
    """Everything fixed during an optimization run.

    B omega is zero before the window's first step k0, so frames 0..k0 are
    the same for every control: the first successful solve keeps them as
    the head that every later solve resumes from.
    """

    domain: Domain1D
    tg: TimeGrid
    model: ModelParams
    window: ControlWindow
    y0: np.ndarray
    z_d: np.ndarray
    delta: float
    _head: ForwardTrajectory = field(default=None, init=False, repr=False,
                                     compare=False)

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("TrackingProblem: delta must be positive")
        _on_grid(self.domain, self.tg, self.window)
        self.z_d = as_trajectory(self.domain, self.tg, self.z_d)

    def solve(self, omega) -> ForwardTrajectory:
        """March with B omega, resumed from the head once there is one."""
        ftraj = solve_forward(self.domain, self.tg, self.model, self.y0,
                              self.window, omega, head=self._head)
        if self._head is None:
            k = self.window.block[0].start + 1
            self._head = ForwardTrajectory(self.domain, self.tg, *(
                a[:k].copy() for a in (ftraj.y, ftraj.u, ftraj.ux)))
        return ftraj


def misfit(problem: TrackingProblem, Y) -> float:
    """0.5 * ||Y - z_d||^2 in L2(0,T;H): 0.5 h sum_k w_k sum_i (Y - z_d)^2
    with w = TimeGrid.weights (w[0] on the end frames, w[1] between), by
    the compiled pairing of inner_q0 (cmarch.pair of Y with itself, shifted
    by z_d), which reads the rows of Y and z_d and makes no difference
    lattice."""
    Y = as_trajectory(problem.domain, problem.tg, Y)
    w = problem.tg.weights
    return cmarch.pair(0.5 * problem.domain.h, w[0], w[1], Y, Y,
                       problem.z_d)


def cost(problem: TrackingProblem, omega, ftraj: ForwardTrajectory = None):
    """Reduced cost and its parts; reuses a solved trajectory when given."""
    if ftraj is None:
        ftraj = problem.solve(omega)
    track = misfit(problem, ftraj.y)
    reg = 0.5 * problem.delta * norm_q0(problem.window, omega) ** 2
    return track + reg, {"tracking": track, "regularization": reg,
                         "total": track + reg}


def reduced_gradient(problem: TrackingProblem, omega,
                     ftraj: ForwardTrajectory = None, stop: int = 0):
    """L2(Q0) gradient delta*omega - B* lambda, a control, and the pieces
    behind it.

    The misfit is the L2(0,T;H) one, so the multiplier source is z_d - y,
    and lambda is its exact discrete transpose, so <g, q> matches finite
    differences of the cost to roundoff. The source is written straight into
    the multiplier's frames (z_d with minus y), so no source lattice is made.
    B* lambda is lambda's window block. stop, at most the window's first
    step, lets the multiplier stop at that frame (see
    solve_adjoint_discrete); the gradient reads no frame below it.
    """
    omega = as_control(problem.window, omega)
    if ftraj is None:
        ftraj = problem.solve(omega)
    adj = solve_adjoint_discrete(ftraj, problem.z_d, problem.model, stop,
                                 minus=ftraj.y)
    g = np.multiply(problem.delta, omega)
    np.subtract(g, adj.lam[problem.window.block], out=g)
    return g, {"ftraj": ftraj, "adjoint": adj}


def central_difference(problem: TrackingProblem, omega, g, q, h: float):
    """Central difference of J at omega along q with step h against the
    directional derivative <g, q>: (fd, <g, q>, relative error)."""
    Jp, _ = cost(problem, omega + h * q)
    Jm, _ = cost(problem, omega - h * q)
    fd = (Jp - Jm) / (2.0 * h)
    dg = inner_q0(problem.window, g, q)
    return fd, dg, abs(fd - dg) / max(abs(fd), abs(dg), 1e-300)


@dataclass
class OptimOptions:
    tol_g: float = 1e-6          # relative to 1 + ||g0||
    tol_g_abs: float = 0.0       # extra absolute floor, 0 disables
    max_iters: int = 200
    memory: int = 16


@dataclass
class OptimState:
    """Per-iterate J, ||g|| and step, and the final state: the solved state
    that the first- and second-order checks read. Iterates solve the state
    equation, so first_order_residuals checks it once, at the end. optimize
    fills the final state as it returns, so no iterate lives on in it; after
    a stalled search it is re-solved at the iterate's control, bit for bit
    the state that iterate had."""

    costs: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    n_iters: int = 0
    converged: bool = False
    stalled: bool = False
    message: str = ""
    # final control, and its forward trajectory, reduced gradient and adjoint
    omega: np.ndarray = None
    ftraj: ForwardTrajectory = None
    grad: np.ndarray = None
    adjoint: AdjointState = None

    def log_rows(self):
        return list(zip(range(len(self.costs)), self.costs, self.grad_norms,
                        self.steps))


def _constraint_residuals(problem: TrackingProblem, omega, Y):
    """Weak per-step residual of the update rule and the initial defect.

    e1[n] = (M_dt Y[n+1] - Y[n])/dt + transport(Y[n]) - (B omega)[n] with
    M_dt = I - dt*eps*D2; exactly zero on solve_forward output. Y is a
    momentum trajectory array; the velocities are re-solved from it, so
    infeasible trajectories are handled too.
    """
    domain, tg, p = problem.domain, problem.tg, problem.model
    Y = as_trajectory(domain, tg, Y)
    y, y_next = Y[:-1], Y[1:]
    u, ux = velocity(domain, y)[:2]
    mdt_next = y_next - tg.dt * p.epsilon * d2(domain, y_next)
    e1 = (mdt_next - y) / tg.dt + transport_terms(domain, y, u, ux, p.k)
    e1[problem.window.block] -= as_control(problem.window, omega)
    e2 = Y[0] - problem.y0
    return e1, e2


def residual_y_norm(problem: TrackingProblem, e1, e2) -> float:
    """Y-norm: dual space norm, left-endpoint in time, plus the H-size of
    the initial defect."""
    domain, tg = problem.domain, problem.tg
    e1 = _shaped(e1, (tg.n_steps, domain.n_interior), "step residual")
    return math.sqrt(tg.dt * float(norm_vstar_sq(domain, e1).sum())
                     + norm_h_sq(domain, e2))


def state_equation_residual(problem: TrackingProblem, omega, Y) -> float:
    e1, e2 = _constraint_residuals(problem, omega, Y)
    return residual_y_norm(problem, e1, e2)


def optimize(problem: TrackingProblem, omega0,
             opts: OptimOptions = None) -> OptimState:
    """Two-loop L-BFGS with Armijo backtracking by quadratic interpolation.

    All inner products are L2(Q0). Iterate 0 is the starting point, logged
    with step 0.0. Stops at the first iterate with ||g|| <= tol_g*(1 +
    ||g0||) (plus the optional absolute floor) or after max_iters accepted
    steps; a line search still rejected after MAX_TRIALS backtracks marks
    the state stalled and reports diagnostics in the message. The returned
    state carries the trajectory, gradient and adjoint at its omega, so
    callers need not re-solve. Every iterate is a forward solve, so the log
    holds no state residual: it is roundoff by construction.

    The control, the gradient, the search direction and the s and y of
    the memory's (s, y, rho) pairs are window blocks, and each iteration's
    trials are marched from one trial block. The direction and its slope come from
    one compiled two-loop call (cmarch.two_loop) on the pairing of
    inner_q0. The gradient reads no multiplier frame below the window's
    first step k0, so each iteration's adjoint stops at k0, and the
    returned state's adjoint is finished once from there (finish_adjoint):
    bit for bit the full march.

    Only live arrays are held: while the line search marches, the iterate
    lives on only as its control and gradient; its trajectory and
    multiplier go before the first trial, and a rejected trial's trajectory
    before the next one. A stalled search re-solves the iterate's
    trajectory, gradient and multiplier at its control; the march is
    deterministic, so they are bit for bit the ones it dropped. The L-BFGS
    memory goes before the finishing adjoint.
    """
    opts = opts or OptimOptions()
    win = problem.window
    k0 = win.block[0].start
    omega = as_control(win, omega0).copy()
    del omega0
    ftraj = problem.solve(omega)
    J, _ = cost(problem, omega, ftraj)
    pair = partial(inner_q0, win)
    gb, info = reduced_gradient(problem, omega, ftraj, k0)
    gnorm = math.sqrt(pair(gb, gb))
    threshold = opts.tol_g * (1.0 + gnorm) + opts.tol_g_abs
    state = OptimState()
    # (s, y, rho) block arrays, with the addresses of s and y for two_loop
    memory = deque(maxlen=opts.memory)
    gamma = 1.0  # the newest pair's s.y / y.y, read once there is a pair
    step_prev, alpha = 1.0, 0.0  # row 0, the starting point, has step 0.0
    for it in range(opts.max_iters + 1):
        state.costs.append(J)
        state.grad_norms.append(gnorm)
        state.steps.append(alpha)
        state.n_iters = it
        if gnorm <= threshold:
            state.converged = True
            state.message = (f"converged: ||g||={gnorm:.3e} <= {threshold:.3e}"
                             if it else "already optimal at the starting point")
            break
        if it == opts.max_iters:
            state.message = f"max_iters reached with ||g||={gnorm:.3e}"
            break
        del ftraj, info  # the iterate lives on as omega and gb
        d, slope = cmarch.two_loop(win.weight, memory, gamma, gb)
        if slope >= 0:
            d = -gb
            slope = -gnorm ** 2
        alpha = 1.0 if memory else step_prev
        trial = np.empty_like(omega)
        for _ in range(MAX_TRIALS + 1):
            np.add(omega, alpha * d, out=trial)
            ftrial = None  # a rejected trial's trajectory is dead
            try:
                ftrial = problem.solve(trial)
                Jt, _ = cost(problem, trial, ftrial)
            except NumericsError:
                Jt = math.inf
            if Jt <= J + ARMIJO_C * alpha * slope:
                break
            alpha = backtrack_step(alpha, J, slope, Jt)
        else:
            state.stalled = True
            state.message = (f"line search stalled at iter {it + 1}: "
                             f"J={J:.6e}, ||g||={gnorm:.3e}, "
                             f"slope={slope:.3e}, last alpha={alpha:.3e}")
            ftrial = None
            ftraj = problem.solve(omega)
            gb, info = reduced_gradient(problem, omega, ftraj, k0)
            break
        s = trial - omega
        del d
        omega, ftraj, J = trial, ftrial, Jt
        yv = gb  # the superseded gradient, read once more below
        gb, info = reduced_gradient(problem, omega, ftraj, k0)
        yv = gb - yv
        curv, yy = pair(s, yv), pair(yv, yv)
        if curv > 1e-14 * math.sqrt(pair(s, s)) * math.sqrt(yy):
            memory.append((s, yv, 1.0 / curv, s.ctypes.data,
                           yv.ctypes.data))
            gamma = curv / max(yy, 1e-300)
        gnorm = math.sqrt(pair(gb, gb))
        step_prev = min(4.0 * alpha, 1e3)
    memory.clear()
    # the iterate's adjoint, resumed below the frame its march stopped at
    state.adjoint = finish_adjoint(ftraj, info["adjoint"], problem.z_d,
                                   problem.model, minus=ftraj.y)
    state.omega, state.ftraj, state.grad = omega, ftraj, gb
    return state


# ---------------------------------------------------------------------------
# first-order machinery


def lagrangian(problem: TrackingProblem, omega, Y, lam, mu, c: float) -> float:
    """Augmented Lagrangian value on a possibly infeasible trajectory Y.

    The weak per-step residual e1 (a rate) is paired with lambda under the
    step quadrature; the initial defect e2 is paired with mu in the L2 inner
    product. The penalty adds (c/2) times the squared Y-norm of (e1, e2).
    At feasible Y the value reduces to the cost for every (lam, mu, c).
    """
    domain, tg = problem.domain, problem.tg
    Y = as_trajectory(domain, tg, Y)
    lam = as_trajectory(domain, tg, lam)
    J = misfit(problem, Y) + 0.5 * problem.delta * norm_q0(problem.window,
                                                           omega) ** 2
    e1, e2 = _constraint_residuals(problem, omega, Y)
    pair = (tg.dt * float(np.sum(inner_h(domain, e1, lam[:-1])))
            + inner_h(domain, e2, mu))
    return J + pair + 0.5 * c * residual_y_norm(problem, e1, e2) ** 2


def first_order_residuals(problem: TrackingProblem,
                          state: OptimState) -> dict:
    """Stationarity diagnostics at a solved state (optimize's): the state
    residual and the continuous-adjoint equation residual. Solves nothing.
    lambda(T) = 0 and mu = lambda(0) hold by construction of AdjointState,
    and the gradient norm is the state's last grad_norms entry."""
    ftraj, adj = state.ftraj, state.adjoint
    eq = adjoint_equation_residual(ftraj, adj.lam, problem.z_d - ftraj.y,
                                   problem.model)
    return {
        "state_residual": state_equation_residual(problem, state.omega,
                                                  ftraj.y),
        "adjoint_residual": eq["max_h"],
        "adjoint_residual_rel": eq["max_h_rel"],
    }


# ---------------------------------------------------------------------------
# second-order machinery


def constants(M: float, T: float, p: ModelParams):
    """Growth/coercivity constants (c0, c2, c1) on [0, T] from M, the C(H)
    norm of the state."""
    eps, e2 = p.epsilon, growth(lambda e: e ** 2, p.epsilon)
    c0 = (8.0 + 1.0 / 16.0) / eps * M ** 4
    c2 = M ** 2 / (12.0 * eps)
    a = (eps + 6.0 * M) * (2.0 / eps) * growth(math.exp, c2 * T) + 1.0
    # eps^2 that underflows to 0 gives 4/eps^2 = inf; one that overflows, 0
    c1 = a * a + ((4.0 / e2 if e2 > 0 else math.inf)
                  * growth(math.exp, 2.0 * c2 * T))
    return c0, c2, c1


def lambda_bound_check(problem: TrackingProblem, state: OptimState,
                       c0: float) -> dict:
    """Both sides of the multiplier energy bound at a solved state, with the
    growth constant c0 of constants, reported as printed (squared left
    side, unsquared right side), never asserted."""
    domain, tg = problem.domain, problem.tg
    source = problem.z_d - state.ftraj.y
    lhs = norm_l2v(domain, tg, state.adjoint.lam) ** 2
    src = math.sqrt(float(tg.weights @ norm_vstar_sq(domain, source)))
    rhs = (4.0 / (3.0 * problem.model.epsilon) * growth(math.exp, c0 * tg.T)
           * src)
    return {"lhs": lhs, "rhs": rhs}


def quadratic_form(problem: TrackingProblem, q,
                   ftraj: ForwardTrajectory, adj: AdjointState):
    """Second-variation value on a kernel direction (m, q), m = T q.

    Parts: the squared W(V) norm of m, the squared Q0 norm of q and delta
    times it, and the space-time integral of the multiplier-weighted cubic
    terms b = -2 v^2 y l_x - 4 u v m l_x + 2 v_x^2 y l_x + 4 u_x v_x m l_x.
    """
    domain, tg = problem.domain, problem.tg
    tan = solve_tangent(ftraj, problem.window, q, problem.model)
    part_m = norm_wv(domain, tg, tan.m) ** 2
    q_sq = norm_q0(problem.window, q) ** 2
    part_q = problem.delta * q_sq
    m, v, vx = tan.m, tan.v, d1(domain, tan.v)
    y, u, ux = ftraj.y, ftraj.u, ftraj.ux
    # b = w l_x, so its space integral is the per-frame pairing (w, l_x)
    w = (-2.0 * v * v * y - 4.0 * u * v * m + 2.0 * vx * vx * y
         + 4.0 * ux * vx * m)
    acc = float(np.vecdot(inner_h(domain, w, d1(domain, adj.lam)),
                          tg.weights))
    total = part_m + part_q + acc
    return total, {"m_wv_sq": part_m, "q_sq": q_sq, "q_reg_sq": part_q,
                   "b_integral": acc, "total": total}


def coercivity_check(problem: TrackingProblem, state: OptimState, rng,
                     n_samples: int, n_embed_samples: int) -> dict:
    """Evaluate the sufficient-condition margins and sample the quadratic form
    at a solved state, as the second_order dict that verify.json holds.

    Condition (1) compares ||y||_C(H) * ||y - z_d||_L2(H) against
    (3 eps / 4 C1) exp(-c0 T) with C1 = 9 c_E^2; its kappa is
    min(1 - (4 C1 / 3 eps) exp(c0 T) * lhs, delta). Condition (2) compares
    the same product against 3 delta eps / (8 C c1) exp(-c0 T) with
    C = c_E^2; its kappa is min(delta/(2 c1) - (4 C / 3 eps) exp(c0 T) * lhs,
    delta/2). The empirical part reports the minimum of form/||(m, q)||_X^2
    over random window directions, with ||(m, q)||_X^2 = ||m||_WV^2 + ||q||_Q0^2,
    and kernel_bound_ratio the maximum of ||m||_WV^2 / ||q||_Q0^2 over the
    same directions, which the tangent kernel bound compares with c1.
    """
    domain, tg = problem.domain, problem.tg
    eps, sigma, T = problem.model.epsilon, problem.delta, tg.T
    M = norm_ct_h(domain, tg, state.ftraj.y)
    c0, c2, c1 = constants(M, T, problem.model)
    c_embed = measure_embedding_constant(domain, tg, rng, n_embed_samples)
    C = c_embed ** 2
    C1 = 9.0 * C
    r = math.sqrt(2.0 * misfit(problem, state.ftraj.y))
    lhs = M * r
    cond1_rhs = 3.0 * eps / (4.0 * C1) * math.exp(-c0 * T) if C1 > 0 else math.inf
    cond2_rhs = (3.0 * sigma * eps / (8.0 * C * c1) * math.exp(-c0 * T)
                 if C > 0 else math.inf)
    grow = growth(math.exp, c0 * T)
    kappa1 = min(1.0 - (4.0 * C1 / (3.0 * eps)) * grow * lhs, sigma)
    kappa2 = min(sigma / (2.0 * c1) - (4.0 * C / (3.0 * eps)) * grow * lhs,
                 sigma / 2.0)
    # the directions: the blocks of n_samples lattice draws, one at a time
    parts = [quadratic_form(problem, problem.window.random_control(rng),
                            state.ftraj, state.adjoint)[1]
             for _ in range(n_samples)]
    total, m_sq, q_sq = (np.array([f[key] for f in parts])
                         for key in ("total", "m_wv_sq", "q_sq"))
    return {
        "c0": c0, "c2": c2, "c1": c1, "c_embed": c_embed,
        "kappa1": kappa1, "kappa2": kappa2,
        "cond1_lhs": lhs, "cond1_rhs": cond1_rhs,
        "cond1_pass": bool(lhs < cond1_rhs),
        "cond2_lhs": lhs, "cond2_rhs": cond2_rhs,
        "cond2_pass": bool(lhs < cond2_rhs),
        "kernel_bound_ratio": float(np.max(m_sq / q_sq)),
        "empirical_min_ratio": float(np.min(total / (m_sq + q_sq))),
        "n_samples": n_samples,
    }
