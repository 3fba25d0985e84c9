"""Tangent (directional derivative) and adjoint solvers for the forward map.

The tangent solver is the exact derivative of the IMEX step, linearized about
the stored base frames: with v = K m (K the Helmholtz solve) its explicit
term is A D1m + B m + C v - E D1v, where A = u^2 - u_x^2, B = 4 u_x y,
C = 2 u y_x and E = 2 u_x y_x - 2 y^2 - k depend on the base alone and are
built once per march as (N+1, n) stacks. From D1^T = -D1 and K^T = K its
transpose is -D1(A phi) + B phi + K(C phi + D1(E phi)). The discrete adjoint
is the exact transpose of the tangent map under the package quadratures:

    <T q, s>_traj = <q, (B* lambda)|_Q0>_ctrl      (to roundoff)

with trapezoid weights on the trajectory side and left-endpoint weights on
the control side. The recursion carries the l2 multiplier phi backward and
rescales lambda^n = phi^{n+1}/h, which makes lambda(T) = 0 exact and keeps
lambda uniformly consistent (O(dt)) with the continuous backward equation.

solve_adjoint_continuous integrates that backward equation forward in the
reversed time tau = T - t with the same IMEX splitting: diffusion implicit,
and the transposed tangent term explicit at each base frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError
from .forward import (ControlWindow, ForwardTrajectory, ModelParams, apply_B,
                      inner_q0, norm_q0)
from .grid import Domain1D, as_trajectory, d1, d2, inner_l2h, norm_l2h
from .helmholtz import ShiftedLaplacianSolver, get_operator


@dataclass
class TangentState:
    """Linearized momentum m and its velocity v = solve(m) per frame."""

    m: np.ndarray
    v: np.ndarray


@dataclass
class AdjointState:
    """Multiplier trajectory; the final frame is identically zero and the
    initial-condition multiplier mu is frame 0 by definition."""

    lam: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        if np.any(self.lam[-1] != 0.0):
            raise ValueError("adjoint terminal frame must vanish")
        if self.mu is not self.lam[0] and not np.array_equal(self.mu, self.lam[0]):
            raise ValueError("mu must equal the initial adjoint frame")


def _transport_coefficients(ftraj: ForwardTrajectory, k: float) -> np.ndarray:
    """(A, B, C, E) as one (4, N+1, n) array; coeffs[:, n] is frame n."""
    y, u, ux = ftraj.y, ftraj.u, ftraj.ux
    ydx = d1(ftraj.domain, y)
    A, B, C, E = coeffs = np.empty((4,) + y.shape)
    # B and C hold u_x^2 and y^2 first, so no stack-sized temporary is made
    np.subtract(np.multiply(u, u, out=A), np.multiply(ux, ux, out=B), out=A)
    np.subtract(np.multiply(ux, ydx, out=E), np.multiply(y, y, out=C), out=E)
    E *= 2.0
    E -= k
    np.multiply(4.0, np.multiply(ux, y, out=B), out=B)
    np.multiply(2.0, np.multiply(u, ydx, out=C), out=C)
    return coeffs


def _step_coefficients(ftraj: ForwardTrajectory, k: float) -> np.ndarray:
    """(dt A/2h, 1 - dt B, dt C, dt E/2h): one step of tangent or adjoint."""
    dt = ftraj.tg.dt
    c = dt / (2.0 * ftraj.domain.h)
    coeffs = _transport_coefficients(ftraj, k)
    coeffs *= np.array([c, -dt, dt, c])[:, None, None]
    coeffs[1] += 1.0
    return coeffs


def solve_tangent(ftraj: ForwardTrajectory, window: ControlWindow, q,
                  p: ModelParams) -> TangentState:
    """Exact derivative of the forward march along the control direction q.

    m(0) = 0; each step linearizes the explicit terms about the stored base
    frame and applies the same implicit diffusion solve.
    """
    domain, tg = ftraj.domain, ftraj.tg
    dtq = tg.dt * apply_B(window, q)
    vsolve = get_operator(domain).kernel.solve
    dsolve = ShiftedLaplacianSolver(domain, tg.dt * p.epsilon).solve
    Ad, Bm, Cd, Ed = _step_coefficients(ftraj, p.k)
    N = tg.n_steps
    # zero-padded rows: the pads are the Dirichlet walls of D1
    Mp, Vp = np.zeros((2, N + 1, domain.n_interior + 2))
    for k in range(N + 1):
        mp, vp = Mp[k], Vp[k]
        m, v = mp[1:-1], vp[1:-1]
        v[:] = vsolve(m)
        if k == N:
            break
        rhs = (Bm[k] * m - Ad[k] * (mp[2:] - mp[:-2]) - Cd[k] * v
               + Ed[k] * (vp[2:] - vp[:-2]) + dtq[k])
        Mp[k + 1, 1:-1] = dsolve(rhs)
        if not np.isfinite(Mp[k + 1]).all():
            raise NumericsError(f"tangent state lost finiteness at step {k + 1}",
                                time_index=k + 1)
    return TangentState(Mp[:, 1:-1], Vp[:, 1:-1])


def transposed_transport(domain: Domain1D, coeffs, phi) -> np.ndarray:
    """-D1(A phi) + B phi + K(C phi + D1(E phi)), the exact transpose of
    the tangent term, on one frame's rows or on a stack of frames."""
    A, B, C, E = coeffs
    inner = C * phi + d1(domain, E * phi)
    return (B * phi - d1(domain, A * phi)
            + get_operator(domain).kernel.solve(inner.T).T)


def solve_adjoint_discrete(ftraj: ForwardTrajectory, source,
                           p: ModelParams) -> AdjointState:
    """Exact transpose of solve_tangent for a trajectory-valued source.

    Satisfies <T q, source>_traj = <q, lambda|_Q0>_ctrl for every direction q
    and any window. For the tracking-control multiplier, source with
    z_d - y (the negated misfit), which makes the reduced gradient
    delta*omega - lambda|_Q0 and gives lambda = delta*omega at optima.
    Raises NumericsError with the frame index on NaN/Inf.
    """
    domain, tg = ftraj.domain, ftraj.tg
    source = as_trajectory(domain, tg, source)
    ksolve = get_operator(domain).kernel.solve
    dsolve = ShiftedLaplacianSolver(domain, tg.dt * p.epsilon).solve
    Ad, Bm, Cd, Ed = _step_coefficients(ftraj, p.k)
    N = tg.n_steps
    lam = np.zeros_like(source)
    # zero-padded work rows: the pads are the Dirichlet walls of D1
    pa, pe = np.zeros((2, domain.n_interior + 2))
    # the linear recursion carries psi = phi/(dt h), so the trapezoid weights
    # (dt inside, dt/2 on the final frame) leave the source unscaled
    rhs = 0.5 * source[N]
    for k in range(N, 0, -1):
        psi = dsolve(rhs)
        if not np.isfinite(psi).all():
            raise NumericsError(
                f"adjoint state lost finiteness at frame {k - 1}",
                time_index=k - 1)
        np.multiply(psi, tg.dt, out=lam[k - 1])
        if k == 1:
            break
        np.multiply(Ad[k - 1], psi, out=pa[1:-1])
        np.multiply(Ed[k - 1], psi, out=pe[1:-1])
        rhs = (Bm[k - 1] * psi + (pa[2:] - pa[:-2])
               - ksolve(Cd[k - 1] * psi + (pe[2:] - pe[:-2])) + source[k - 1])
    return AdjointState(lam, lam[0].copy())


def solve_adjoint_continuous(ftraj: ForwardTrajectory, source,
                             p: ModelParams) -> np.ndarray:
    """IMEX integration of the backward equation in tau = T - t.

    rho(tau=0) = 0; the source enters with the same sign convention as
    solve_adjoint_discrete (source = z_d - y for the tracking multiplier).
    Returns the lambda trajectory on the forward frames, lambda[n] = rho[N-n].
    """
    domain, tg = ftraj.domain, ftraj.tg
    source = as_trajectory(domain, tg, source)
    dsolve = ShiftedLaplacianSolver(domain, tg.dt * p.epsilon).solve
    coeffs = _transport_coefficients(ftraj, p.k)
    N = tg.n_steps
    lam = np.zeros_like(source)
    rho = np.zeros(domain.n_interior)
    for j in range(N):
        rho = dsolve(rho + tg.dt * (source[N - j] - transposed_transport(
            domain, coeffs[:, N - j], rho)))
        if not np.all(np.isfinite(rho)):
            raise NumericsError(f"adjoint state lost finiteness at step {j + 1}",
                                time_index=j + 1)
        lam[N - (j + 1)] = rho
    return lam


def adjoint_equation_residual(ftraj: ForwardTrajectory, lam, source,
                              p: ModelParams) -> dict:
    """Strong residual of the continuous backward equation on a multiplier.

    Evaluates lambda_t + eps*lambda_xx + source + (adjoint transport) with
    centered time quotients on frames 1..N-2 and returns the max plus an
    amplitude-relative version. The frame next to the terminal condition is
    excluded: the trapezoid weight on the final source slice puts a one-frame
    discrete layer there whose centered quotient does not shrink with dt,
    while every interior frame is O(dt) consistent.
    """
    domain, tg = ftraj.domain, ftraj.tg
    lam = as_trajectory(domain, tg, lam)
    source = as_trajectory(domain, tg, source)
    N = tg.n_steps
    mid = lam[1:N - 1]
    coeffs = _transport_coefficients(ftraj, p.k)[:, 1:N - 1]
    r = ((lam[2:N] - lam[:N - 2]) / (2.0 * tg.dt) + p.epsilon * d2(domain, mid)
         + source[1:N - 1] - transposed_transport(domain, coeffs, mid))
    worst = math.sqrt(domain.h) * float(
        np.max(np.linalg.norm(r, axis=1), initial=0.0))
    scale = math.sqrt(domain.h) * float(np.max(np.linalg.norm(lam, axis=1)))
    rel = worst / scale if scale > 0 else worst
    return {"max_h": worst, "max_h_rel": rel, "scale": scale}


def pairing_defect(ftraj: ForwardTrajectory, window: ControlWindow, q, source,
                   p: ModelParams) -> float:
    """Relative defect of the transpose identity for one (q, source) pair."""
    domain, tg = ftraj.domain, ftraj.tg
    tan = solve_tangent(ftraj, window, q, p)
    adj = solve_adjoint_discrete(ftraj, source, p)
    lhs = inner_l2h(domain, tg, tan.m, source)
    rhs = inner_q0(window, q, adj.lam)
    qn = norm_q0(window, q)
    sn = norm_l2h(domain, tg, source)
    denom = max(qn * sn, 1e-300)
    return abs(lhs - rhs) / denom
