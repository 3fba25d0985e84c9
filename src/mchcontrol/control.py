"""Tracking-control layer: cost, reduced gradient, optimizer, and the
first- and second-order optimality machinery.

The reduced cost is J(omega) = (1/2)||y(omega) - z_d||^2_L2(0,T;H)
+ (delta/2)||omega||^2 over the control window. The reduced gradient is the
L2(Q0) Riesz representative delta*omega - lambda|_Q0, with lambda the exact
discrete transpose sourced by z_d - y; central finite differences of J
reproduce <g, q> to roundoff-limited accuracy.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, DomainMismatchError, NumericsError
from .forward import (ControlWindow, ForwardTrajectory, ModelParams, apply_B,
                      inner_q0, norm_q0, restrict_B, solve_forward,
                      transport_terms)
from .grid import (Domain1D, TimeGrid, as_trajectory, d1, d2, inner_h,
                   norm_h, norm_h_sq, norm_l2h, norm_ct_h, norm_l2v,
                   norm_vstar_sq, norm_wv, measure_embedding_constant)
from .helmholtz import get_operator
from .tangent_adjoint import (AdjointState, TangentState,
                              adjoint_equation_residual,
                              solve_adjoint_continuous,
                              solve_adjoint_discrete, solve_tangent)

ARMIJO_C = 1e-4  # sufficient-decrease constant of the line search


@dataclass
class TrackingProblem:
    """Everything fixed during an optimization run.

    The control is zero before the window's first step k0, so frames 0..k0
    are the same for every control: the first successful solve keeps them
    as the head that every later solve resumes from.
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
        self.z_d = as_trajectory(self.domain, self.tg, self.z_d)

    def solve(self, omega) -> ForwardTrajectory:
        ftraj = solve_forward(self.domain, self.tg, self.model, self.y0,
                              apply_B(self.window, omega), head=self._head)
        if self._head is None:
            k = self.window.block[0].start + 1
            self._head = ForwardTrajectory(
                self.domain, self.tg, ftraj.y[:k].copy(), ftraj.u[:k].copy(),
                ftraj.ux[:k].copy())
        return ftraj


def misfit(problem: TrackingProblem, Y) -> float:
    """0.5 * ||Y - z_d||^2 in L2(0,T;H)."""
    diff = as_trajectory(problem.domain, problem.tg, Y) - problem.z_d
    return 0.5 * norm_l2h(problem.domain, problem.tg, diff) ** 2


def cost(problem: TrackingProblem, omega, ftraj: ForwardTrajectory = None):
    """Reduced cost and its parts; reuses a solved trajectory when given."""
    if ftraj is None:
        ftraj = problem.solve(omega)
    track = misfit(problem, ftraj.y)
    reg = 0.5 * problem.delta * norm_q0(problem.window, omega) ** 2
    return track + reg, {"tracking": track, "regularization": reg,
                         "total": track + reg}


def reduced_gradient(problem: TrackingProblem, omega,
                     ftraj: ForwardTrajectory = None,
                     scheme: str = "discrete"):
    """L2(Q0) gradient delta*omega - lambda|_Q0 and the pieces behind it.

    The misfit is the L2(0,T;H) one, so the multiplier source is z_d - y.
    scheme picks the multiplier solver: "discrete" is the exact transpose
    (matches finite differences of the cost to roundoff), "continuous"
    marches the adjoint equation backward and agrees with it to first order
    in the step sizes.
    """
    if scheme not in ("discrete", "continuous"):
        raise ConfigError(f"unknown adjoint scheme {scheme!r}")
    if ftraj is None:
        ftraj = problem.solve(omega)
    if scheme == "discrete":
        adj = solve_adjoint_discrete(ftraj, problem.z_d - ftraj.y,
                                     problem.model)
    else:
        lam = solve_adjoint_continuous(ftraj, problem.z_d - ftraj.y,
                                       problem.model)
        adj = AdjointState(lam, lam[0].copy())
    return _gradient(problem, omega, adj), {"ftraj": ftraj, "adjoint": adj}


def _gradient(problem: TrackingProblem, omega, adj: AdjointState):
    omega = as_trajectory(problem.domain, problem.tg, omega)
    g = restrict_B(problem.window, problem.delta * omega - adj.lam)
    g[-1] = 0.0  # final slice carries no quadrature weight
    return g


@dataclass
class OptimOptions:
    tol_g: float = 1e-6          # relative to 1 + ||g0||
    tol_g_abs: float = 0.0       # extra absolute floor, 0 disables
    max_iters: int = 200
    memory: int = 8
    max_halvings: int = 40
    step0: float = 1.0


@dataclass
class OptimState:
    omega: np.ndarray
    costs: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    feasibility: list = field(default_factory=list)
    n_iters: int = 0
    converged: bool = False
    stalled: bool = False
    message: str = ""
    # forward trajectory, reduced gradient and adjoint at omega
    ftraj: ForwardTrajectory = None
    grad: np.ndarray = None
    adjoint: AdjointState = None

    def log_rows(self):
        rows = []
        for i in range(len(self.costs)):
            rows.append((i, self.costs[i], self.grad_norms[i], self.steps[i],
                         self.feasibility[i]))
        return rows


def _constraint_residuals(problem: TrackingProblem, omega, Y):
    """Weak per-step residual of the update rule and the initial defect.

    e1[n] = (M_dt Y[n+1] - Y[n])/dt + transport(Y[n]) - (B omega)[n] with
    M_dt = I - dt*eps*D2; exactly zero on solve_forward output. Velocities
    are recomputed from Y so infeasible trajectories are handled too.
    """
    domain, tg, p = problem.domain, problem.tg, problem.model
    Y = as_trajectory(domain, tg, Y)
    bq = apply_B(problem.window, omega)
    y, y_next = Y[:-1], Y[1:]
    u, ux, _ = get_operator(domain).velocity(y)
    mdt_next = y_next - tg.dt * p.epsilon * d2(domain, y_next)
    e1 = ((mdt_next - y) / tg.dt
          + transport_terms(domain, y, u, ux, p.k) - bq[:-1])
    e2 = Y[0] - problem.y0
    return e1, e2


def residual_y_norm(problem: TrackingProblem, e1, e2) -> float:
    """Y-norm: dual space norm, left-endpoint in time, plus the H-size of
    the initial defect."""
    domain, tg = problem.domain, problem.tg
    e1 = np.asarray(e1, dtype=float)
    if e1.shape != (tg.n_steps, domain.n_interior):
        raise DomainMismatchError(
            f"step residual has shape {e1.shape}, expected "
            f"({tg.n_steps}, {domain.n_interior})")
    return math.sqrt(tg.dt * float(norm_vstar_sq(domain, e1).sum())
                     + norm_h_sq(domain, e2))


def state_equation_residual(problem: TrackingProblem, omega, Y) -> float:
    if isinstance(Y, ForwardTrajectory):
        Y = Y.y
    e1, e2 = _constraint_residuals(problem, omega, Y)
    return residual_y_norm(problem, e1, e2)


def optimize(problem: TrackingProblem, omega0, opts: OptimOptions = None,
             callback=None) -> OptimState:
    """Two-loop L-BFGS descent with Armijo backtracking.

    All inner products are L2(Q0). Stops when ||g|| <= tol_g*(1 + ||g0||)
    (plus the optional absolute floor) or when max_iters is reached; a line
    search that fails after max_halvings halvings marks the state stalled
    and reports diagnostics in the message. The returned state carries the
    trajectory, gradient and adjoint at its omega, so callers need not
    re-solve.
    """
    opts = opts or OptimOptions()
    win = problem.window
    omega = apply_B(win, omega0)
    ftraj = problem.solve(omega)
    J, _ = cost(problem, omega, ftraj)
    g, info = reduced_gradient(problem, omega, ftraj)
    adj = info["adjoint"]
    gnorm = norm_q0(win, g)
    threshold = opts.tol_g * (1.0 + gnorm) + opts.tol_g_abs
    state = OptimState(omega=omega)
    state.costs.append(J)
    state.grad_norms.append(gnorm)
    state.steps.append(0.0)
    state.feasibility.append(state_equation_residual(problem, omega, ftraj))
    if gnorm <= threshold:
        state.converged = True
        state.message = "already optimal at the starting point"
        state.ftraj, state.grad, state.adjoint = ftraj, g, adj
        return state

    mem_s, mem_y, mem_rho = [], [], []
    step_prev = opts.step0
    for it in range(1, opts.max_iters + 1):
        d = -g
        if mem_s:
            alpha_hist = []
            for s, yv, rho in zip(reversed(mem_s), reversed(mem_y),
                                  reversed(mem_rho)):
                a = rho * inner_q0(win, s, d)
                alpha_hist.append(a)
                d = d - a * yv
            gamma = (inner_q0(win, mem_s[-1], mem_y[-1])
                     / max(inner_q0(win, mem_y[-1], mem_y[-1]), 1e-300))
            d = gamma * d
            for (s, yv, rho), a in zip(zip(mem_s, mem_y, mem_rho),
                                       reversed(alpha_hist)):
                b = rho * inner_q0(win, yv, d)
                d = d + (a - b) * s
        slope = inner_q0(win, g, d)
        if slope >= 0:
            d = -g
            slope = -gnorm ** 2
        alpha = 1.0 if mem_s else step_prev
        accepted = False
        for _ in range(opts.max_halvings + 1):
            trial = apply_B(win, omega + alpha * d)
            try:
                ftrial = problem.solve(trial)
            except NumericsError:
                alpha *= 0.5
                continue
            Jt, _ = cost(problem, trial, ftrial)
            if Jt <= J + ARMIJO_C * alpha * slope:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            state.stalled = True
            state.message = (f"line search stalled at iter {it}: "
                             f"J={J:.6e}, ||g||={gnorm:.3e}, "
                             f"slope={slope:.3e}, last alpha={alpha:.3e}")
            break
        g_new, info = reduced_gradient(problem, trial, ftrial)
        s_vec = trial - omega
        y_vec = g_new - g
        curv = inner_q0(win, s_vec, y_vec)
        if curv > 1e-14 * norm_q0(win, s_vec) * norm_q0(win, y_vec):
            mem_s.append(s_vec)
            mem_y.append(y_vec)
            mem_rho.append(1.0 / curv)
            if len(mem_s) > opts.memory:
                mem_s.pop(0), mem_y.pop(0), mem_rho.pop(0)
        omega, ftraj, J, g, adj = trial, ftrial, Jt, g_new, info["adjoint"]
        gnorm = norm_q0(win, g)
        step_prev = min(4.0 * alpha, 1e3)
        state.costs.append(J)
        state.grad_norms.append(gnorm)
        state.steps.append(alpha)
        state.feasibility.append(state_equation_residual(problem, omega, ftraj))
        state.n_iters = it
        if callback is not None:
            callback(it, J, gnorm, alpha)
        if gnorm <= threshold:
            state.converged = True
            state.message = f"converged: ||g||={gnorm:.3e} <= {threshold:.3e}"
            break
    state.omega, state.ftraj, state.grad, state.adjoint = omega, ftraj, g, adj
    if not state.converged and not state.stalled:
        state.message = f"max_iters reached with ||g||={gnorm:.3e}"
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


def _solved(problem: TrackingProblem, omega, ftraj, adj):
    """The trajectory and tracking multiplier at omega, solving what is
    not given; adj, when given, belongs to ftraj."""
    if ftraj is None:
        ftraj = problem.solve(omega)
    if adj is None:
        adj = solve_adjoint_discrete(ftraj, problem.z_d - ftraj.y,
                                     problem.model)
    return ftraj, adj


def first_order_residuals(problem: TrackingProblem, omega,
                          ftraj: ForwardTrajectory = None,
                          adj: AdjointState = None) -> dict:
    """Stationarity diagnostics at a control: gradient norm, state residual,
    continuous-adjoint equation residual, and the two exact identities.
    Reuses a solved trajectory and multiplier when given."""
    ftraj, adj = _solved(problem, omega, ftraj, adj)
    g = _gradient(problem, omega, adj)
    eq = adjoint_equation_residual(ftraj, adj.lam, problem.z_d - ftraj.y,
                                   problem.model)
    return {
        "grad_norm": norm_q0(problem.window, g),
        "state_residual": state_equation_residual(problem, omega, ftraj),
        "adjoint_residual": eq["max_h"],
        "adjoint_residual_rel": eq["max_h_rel"],
        "mu_minus_lambda0": float(np.max(np.abs(adj.mu - adj.lam[0]))),
        "lambda_T": norm_h(problem.domain, adj.lam[-1]),
    }


# ---------------------------------------------------------------------------
# second-order machinery


def constants(domain: Domain1D, tg: TimeGrid, y_traj, p: ModelParams):
    """Growth/coercivity constants (c0, c2, c1) from the C(H) norm of y."""
    M = norm_ct_h(domain, tg, as_trajectory(domain, tg, y_traj))
    eps = p.epsilon
    c0 = (8.0 + 1.0 / 16.0) / eps * M ** 4
    c2 = M ** 2 / (12.0 * eps)
    c1 = ((eps + 6.0 * M) * (2.0 / eps) * math.exp(c2 * tg.T) + 1.0) ** 2 \
        + (4.0 / eps ** 2) * math.exp(2.0 * c2 * tg.T)
    return c0, c2, c1


def lambda_bound_check(problem: TrackingProblem, omega,
                       ftraj: ForwardTrajectory = None,
                       adj: AdjointState = None) -> dict:
    """Both sides of the multiplier energy bound, reported as printed
    (squared left side, unsquared right side), never asserted. Reuses a
    solved trajectory and multiplier when given."""
    domain, tg = problem.domain, problem.tg
    ftraj, adj = _solved(problem, omega, ftraj, adj)
    source = problem.z_d - ftraj.y
    c0, _, _ = constants(domain, tg, ftraj.y, problem.model)
    lhs = norm_l2v(domain, tg, adj.lam) ** 2
    src = math.sqrt(float(tg.weights @ norm_vstar_sq(domain, source)))
    rhs = 4.0 / (3.0 * problem.model.epsilon) * math.exp(c0 * tg.T) * src
    return {"lhs": lhs, "rhs": rhs, "passed": bool(lhs <= rhs), "c0": c0}


def quadratic_form(problem: TrackingProblem, q,
                   ftraj: ForwardTrajectory, adj: AdjointState,
                   tan: TangentState = None):
    """Second-variation value on a kernel direction (m, q), m = T q.

    Parts: the squared W(V) norm of m, delta times the squared Q0 norm of q,
    and the space-time integral of the multiplier-weighted cubic terms
    b = -2 v^2 y l_x - 4 u v m l_x + 2 v_x^2 y l_x + 4 u_x v_x m l_x.
    """
    domain, tg = problem.domain, problem.tg
    if tan is None:
        tan = solve_tangent(ftraj, problem.window, q, problem.model)
    part_m = norm_wv(domain, tg, tan.m) ** 2
    part_q = problem.delta * norm_q0(problem.window, q) ** 2
    m, v, vx = tan.m, tan.v, d1(domain, tan.v)
    y, u, ux = ftraj.y, ftraj.u, ftraj.ux
    # b = w l_x, so its space integral is the per-frame pairing (w, l_x)
    w = (-2.0 * v * v * y - 4.0 * u * v * m + 2.0 * vx * vx * y
         + 4.0 * ux * vx * m)
    acc = float(tg.weights @ inner_h(domain, w, d1(domain, adj.lam)))
    total = part_m + part_q + acc
    return total, {"m_wv_sq": part_m, "q_reg_sq": part_q, "b_integral": acc,
                   "total": total}


@dataclass
class SecondOrderReport:
    """Constants, margins, and sampled coercivity data at a stationary point."""

    c0: float
    c2: float
    c1: float
    c_embed: float
    kappa1: float
    kappa2: float
    cond1_lhs: float
    cond1_rhs: float
    cond1_pass: bool
    cond2_lhs: float
    cond2_rhs: float
    cond2_pass: bool
    kernel_bound_ratio: float
    empirical_min_ratio: float
    n_samples: int

    def to_dict(self) -> dict:
        return asdict(self)


def coercivity_check(problem: TrackingProblem, omega, rng,
                     n_samples: int = 50, n_embed_samples: int = 32,
                     ftraj: ForwardTrajectory = None,
                     adj: AdjointState = None) -> SecondOrderReport:
    """Evaluate the sufficient-condition margins and sample the quadratic form.

    Condition (1) compares ||y||_C(H) * ||y - z_d||_L2(H) against
    (3 eps / 4 C1) exp(-c0 T) with C1 = 9 c_E^2; its kappa is
    min(1 - (4 C1 / 3 eps) exp(c0 T) * lhs, delta). Condition (2) compares
    the same product against 3 delta eps / (8 C c1) exp(-c0 T) with
    C = c_E^2; its kappa is min(delta/(2 c1) - (4 C / 3 eps) exp(c0 T) * lhs,
    delta/2). The empirical part reports the minimum of form/||(m, q)||_X^2
    over random window directions, with ||(m, q)||_X^2 = ||m||_WV^2 + ||q||_Q0^2,
    and kernel_bound_ratio the maximum of ||m||_WV^2 / ||q||_Q0^2 over the
    same directions, which the tangent kernel bound compares with c1.
    Reuses a solved trajectory and multiplier when given.
    """
    domain, tg = problem.domain, problem.tg
    eps = problem.model.epsilon
    sigma = problem.delta
    T = tg.T
    ftraj, adj = _solved(problem, omega, ftraj, adj)
    c0, c2, c1 = constants(domain, tg, ftraj.y, problem.model)
    c_embed = measure_embedding_constant(domain, tg, rng, n_embed_samples)
    C = c_embed ** 2
    C1 = 9.0 * C
    M = norm_ct_h(domain, tg, ftraj.y)
    r = norm_l2h(domain, tg, ftraj.y - problem.z_d)
    lhs = M * r
    cond1_rhs = 3.0 * eps / (4.0 * C1) * math.exp(-c0 * T) if C1 > 0 else math.inf
    cond2_rhs = (3.0 * sigma * eps / (8.0 * C * c1) * math.exp(-c0 * T)
                 if C > 0 else math.inf)
    kappa1 = min(1.0 - (4.0 * C1 / (3.0 * eps)) * math.exp(c0 * T) * lhs, sigma)
    kappa2 = min(sigma / (2.0 * c1)
                 - (4.0 * C / (3.0 * eps)) * math.exp(c0 * T) * lhs,
                 sigma / 2.0)
    min_ratio = math.inf
    kernel_max = 0.0
    for _ in range(n_samples):
        q = problem.window.random_control(rng)
        tan = solve_tangent(ftraj, problem.window, q, problem.model)
        total, parts = quadratic_form(problem, q, ftraj, adj, tan)
        qn2 = norm_q0(problem.window, q) ** 2
        xnorm2 = parts["m_wv_sq"] + qn2
        if xnorm2 > 0:
            min_ratio = min(min_ratio, total / xnorm2)
        if qn2 > 0:
            kernel_max = max(kernel_max, parts["m_wv_sq"] / qn2)
    return SecondOrderReport(
        c0=c0, c2=c2, c1=c1, c_embed=c_embed,
        kappa1=kappa1, kappa2=kappa2,
        cond1_lhs=lhs, cond1_rhs=cond1_rhs, cond1_pass=bool(lhs < cond1_rhs),
        cond2_lhs=lhs, cond2_rhs=cond2_rhs, cond2_pass=bool(lhs < cond2_rhs),
        kernel_bound_ratio=kernel_max,
        empirical_min_ratio=min_ratio if min_ratio < math.inf else 0.0,
        n_samples=n_samples,
    )
