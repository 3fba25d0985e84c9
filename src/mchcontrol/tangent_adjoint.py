"""Tangent (directional derivative) and adjoint solvers for the forward map.

The tangent solver is the exact derivative of the IMEX step, linearized about
the stored base frames. The discrete adjoint is the exact transpose of the
tangent map under the package quadratures:

    <T q, s>_traj = <q, (B* lambda)|_Q0>_ctrl      (to roundoff)

with trapezoid weights on the trajectory side and left-endpoint weights on
the control side. The recursion carries the l2 multiplier phi backward and
rescales lambda^n = phi^{n+1}/h, which makes lambda(T) = 0 exact and keeps
lambda uniformly consistent (O(dt)) with the continuous backward equation.

solve_adjoint_continuous integrates that backward equation forward in the
reversed time tau = T - t with the same IMEX splitting. Its default transport
is the exact adjoint of the direct linearization; variant="as_printed" keeps
an alternative published term list that differs by lower-order commutators
(the two coincide on a zero-velocity base).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericsError
from .forward import ControlWindow, ForwardTrajectory, ModelParams, apply_B
from .grid import Domain1D, as_trajectory, d1, d2, norm_h
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


def _base_frames(ftraj: ForwardTrajectory):
    """Base stacks (y, u, ux, y_x) over all frames; frame n is one row."""
    return ftraj.y, ftraj.u, ftraj.ux, d1(ftraj.domain, ftraj.y)


def linearized_transport(domain: Domain1D, frame, m, v, vx, k: float) -> np.ndarray:
    """Directional derivative of the transport terms along (m, v)."""
    y, u, ux, ydx = frame
    return ((2.0 * u * v - 2.0 * ux * vx) * ydx
            + (u * u - ux * ux) * d1(domain, m)
            + 2.0 * vx * y * y + 4.0 * ux * y * m + k * vx)


def solve_tangent(ftraj: ForwardTrajectory, window: ControlWindow, q,
                  p: ModelParams) -> TangentState:
    """Exact derivative of the forward march along the control direction q.

    m(0) = 0; each step linearizes the explicit terms about the stored base
    frame and applies the same implicit diffusion solve.
    """
    domain, tg = ftraj.domain, ftraj.tg
    bq = apply_B(window, q)
    vsolve = get_operator(domain).kernel.solve
    dsolve = ShiftedLaplacianSolver(domain, tg.dt * p.epsilon).solve
    base = _base_frames(ftraj)
    N = tg.n_steps
    M = np.zeros((N + 1, domain.n_interior))
    V = np.zeros_like(M)
    for n in range(N):
        m = M[n]
        v = vsolve(m)
        V[n] = v
        frame = tuple(b[n] for b in base)
        dexpl = -linearized_transport(domain, frame, m, v, d1(domain, v), p.k)
        M[n + 1] = dsolve(m + tg.dt * (dexpl + bq[n]))
        if not np.all(np.isfinite(M[n + 1])):
            raise NumericsError(f"tangent state lost finiteness at step {n + 1}",
                                time_index=n + 1)
    V[N] = vsolve(M[N])
    return TangentState(M, V)


def transposed_transport(domain: Domain1D, frame, prev, k: float,
                         op) -> np.ndarray:
    """Exact transpose of linearized_transport as an operator on prev.

    Uses D1^T = -D1 (skew) and the symmetry of the Helmholtz solve, so that
    (linearized_transport(m), p)_H = (m, transposed_transport(p))_H exactly.
    """
    y, u, ux, ydx = frame
    outer = -d1(domain, (u * u - ux * ux) * prev) + 4.0 * ux * y * prev
    inner = (2.0 * u * ydx * prev
             + d1(domain, 2.0 * ux * ydx * prev)
             - d1(domain, 2.0 * y * y * prev)
             - k * d1(domain, prev))
    return outer + op.kernel.solve(inner)


def solve_adjoint_discrete(ftraj: ForwardTrajectory, source,
                           p: ModelParams) -> AdjointState:
    """Exact transpose of solve_tangent for a trajectory-valued source.

    Satisfies <T q, source>_traj = <q, lambda|_Q0>_ctrl for every direction q
    and any window. For the tracking-control multiplier, source with
    z_d - G y (the negated misfit), which makes the reduced gradient
    delta*omega - lambda|_Q0 and gives lambda = delta*omega at optima.
    Raises NumericsError with the frame index on NaN/Inf.
    """
    domain, tg = ftraj.domain, ftraj.tg
    source = as_trajectory(domain, tg, source)
    op = get_operator(domain)
    dsolve = ShiftedLaplacianSolver(domain, tg.dt * p.epsilon).solve
    base = _base_frames(ftraj)
    N = tg.n_steps
    h = domain.h
    w = tg.weights  # trapezoid, shared with the trajectory pairing
    lam = np.zeros((N + 1, domain.n_interior))
    phi = np.zeros(domain.n_interior)
    for n in range(N, 0, -1):
        rhs = w[n] * h * source[n]
        if n < N:
            frame = tuple(b[n] for b in base)
            rhs = rhs + (phi - tg.dt * transposed_transport(domain, frame, phi,
                                                            p.k, op))
        phi = dsolve(rhs)
        if not np.all(np.isfinite(phi)):
            raise NumericsError(
                f"adjoint state lost finiteness at frame {n - 1}",
                time_index=n - 1)
        lam[n - 1] = phi / h
    return AdjointState(lam, lam[0].copy())


def _adjoint_transport(domain: Domain1D, frame, rho, k: float, op,
                       variant: str) -> np.ndarray:
    """Transport side of the backward equation in reversed time."""
    y, u, ux, ydx = frame
    if variant == "linearized":
        # exact adjoint of the direct linearization
        return -transposed_transport(domain, frame, rho, k, op)
    if variant == "as_printed":
        rx = d1(domain, rho)
        rxx = d2(domain, rho)
        uxx = u - y
        inner = (-2.0 * u * y * rx + 2.0 * uxx * y * rx
                 + 2.0 * ux * ydx * rx + 2.0 * ux * y * rxx + k * rx)
        return (u * u - ux * ux) * rx + op.kernel.solve(inner)
    raise ValueError(f"unknown adjoint variant {variant!r}")


def solve_adjoint_continuous(ftraj: ForwardTrajectory, source, p: ModelParams,
                             variant: str = "linearized") -> np.ndarray:
    """IMEX integration of the backward equation in tau = T - t.

    rho(tau=0) = 0; the source enters with the same sign convention as
    solve_adjoint_discrete (source = z_d - G y for the tracking multiplier).
    Returns the lambda trajectory on the forward frames, lambda[n] = rho[N-n].
    """
    domain, tg = ftraj.domain, ftraj.tg
    source = as_trajectory(domain, tg, source)
    op = get_operator(domain)
    dsolve = ShiftedLaplacianSolver(domain, tg.dt * p.epsilon).solve
    N = tg.n_steps
    lam = np.zeros((N + 1, domain.n_interior))
    rho = np.zeros(domain.n_interior)
    base = _base_frames(ftraj)
    for j in range(N):
        nbase = N - j
        frame = tuple(b[nbase] for b in base)
        expl = source[nbase] + _adjoint_transport(domain, frame, rho, p.k, op,
                                                  variant)
        rho = dsolve(rho + tg.dt * expl)
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
    op = get_operator(domain)
    worst = 0.0
    scale = max(norm_h(domain, lam[n]) for n in range(tg.n_steps + 1))
    base = _base_frames(ftraj)
    for n in range(1, tg.n_steps - 1):
        frame = tuple(b[n] for b in base)
        ldot = (lam[n + 1] - lam[n - 1]) / (2.0 * tg.dt)
        r = (ldot + p.epsilon * d2(domain, lam[n]) + source[n]
             - transposed_transport(domain, frame, lam[n], p.k, op))
        worst = max(worst, norm_h(domain, r))
    rel = worst / scale if scale > 0 else worst
    return {"max_h": worst, "max_h_rel": rel, "scale": scale}


def pairing_defect(ftraj: ForwardTrajectory, window: ControlWindow, q, source,
                   p: ModelParams) -> float:
    """Relative defect of the transpose identity for one (q, source) pair."""
    from .forward import inner_q0, norm_q0
    from .grid import inner_l2h, norm_l2h

    domain, tg = ftraj.domain, ftraj.tg
    tan = solve_tangent(ftraj, window, q, p)
    adj = solve_adjoint_discrete(ftraj, source, p)
    lhs = inner_l2h(domain, tg, tan.m, source)
    rhs = inner_q0(window, q, adj.lam)
    qn = norm_q0(window, q)
    sn = norm_l2h(domain, tg, source)
    denom = max(qn * sn, 1e-300)
    return abs(lhs - rhs) / denom
