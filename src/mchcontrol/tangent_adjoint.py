"""Tangent (directional derivative) and adjoint solvers for the forward map.

The tangent solver is the exact derivative of the IMEX step, linearized about
the stored base frames: with v = K m (K the Helmholtz solve) its explicit
term is A D1m + B m + C v - E D1v, where A = u^2 - u_x^2, B = 4 u_x y,
C = 2 u y_x and E = 2 u_x y_x - 2 y^2 - k depend on the base alone: the
compiled tangent and adjoint marches (cmarch) form each frame's inside its
step, with one shared formula. From D1^T = -D1 and K^T = K its transpose is
-D1(A phi) + B phi + K(C phi + D1(E phi)). The discrete adjoint is the
exact transpose of the tangent map under the package quadratures:

    <T q, s>_traj = <q, B* lambda>_Q0  (to roundoff; B* lambda = lambda[block])

with trapezoid weights on the trajectory side and left-endpoint weights on
the control side. The recursion carries lambda itself backward, each step
taking its source at the trapezoid weight dt (dt/2 on the final frame),
which makes lambda(T) = 0 exact and keeps lambda uniformly consistent
(O(dt)) with the continuous backward equation.

solve_adjoint_continuous integrates that backward equation forward in the
reversed time tau = T - t with the same IMEX splitting: diffusion implicit,
and the transposed tangent term explicit at each base frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cmarch
from .errors import NumericsError
from .forward import (ControlWindow, ForwardTrajectory, ModelParams,
                      _first_nonfinite, as_control, inner_q0, norm_q0)
from .grid import Domain1D, as_trajectory, d1, d2, inner_l2h, norm_h, norm_l2h
from .helmholtz import get_operator


@dataclass
class TangentState:
    """Linearized momentum m and its velocity v = solve(m) per frame."""

    m: np.ndarray
    v: np.ndarray


@dataclass
class AdjointState:
    """Multiplier trajectory; the final frame is identically zero, and the
    initial-condition multiplier mu is a view of frame 0.

    stop > 0 marks a march that stopped at frame stop: frames below it are
    zero until finish_adjoint resumes the recursion from frame stop.
    """

    lam: np.ndarray
    stop: int = 0

    def __post_init__(self):
        if np.any(self.lam[-1] != 0.0):
            raise ValueError("adjoint terminal frame must vanish")

    @property
    def mu(self) -> np.ndarray:
        return self.lam[0]


def _transport_coefficients(ftraj: ForwardTrajectory, k: float,
                            frames: slice) -> tuple:
    """(A, B, C, E) on the given frames."""
    y, u, ux = ftraj.y[frames], ftraj.u[frames], ftraj.ux[frames]
    ydx = d1(ftraj.domain, y)
    return (u * u - ux * ux, 4.0 * (ux * y), 2.0 * (u * ydx),
            2.0 * (ux * ydx - y * y) - k)


def solve_tangent(ftraj: ForwardTrajectory, window: ControlWindow, q,
                  p: ModelParams) -> TangentState:
    """Exact derivative of the forward march along the control direction q;
    m and v are (N+1, n) trajectories, the interiors of zero-padded rows.

    m(0) = 0; each step linearizes the explicit terms about the stored base
    frame and applies the same implicit diffusion solve, in compiled C
    (cmarch). Frames up to the first step k0 that q acts on (at least the
    window's first step) are zero, and the march starts there; a NaN row
    counts as acting, so it still fails at its own step."""
    domain, tg = ftraj.domain, ftraj.tg
    dtq = tg.dt * as_control(window, q)
    steps, nodes = window.block
    j = int(np.argmax(dtq.any(axis=1)))
    h2 = 2.0 * domain.h
    # zero-padded rows: the pads are the Dirichlet walls of D1
    Mp, Vp = np.zeros((2, tg.n_steps + 1, domain.n_interior + 2))
    cmarch.tangent_march(get_operator(domain),
                         get_operator(domain, tg.dt * p.epsilon),
                         steps.start + j, steps.stop, nodes.start, tg.dt,
                         tg.dt / h2, h2, p.k, ftraj.y, ftraj.u, ftraj.ux,
                         dtq[j:], Mp, Vp)
    bad = _first_nonfinite(Mp[1:])
    if bad is not None:
        raise NumericsError(f"tangent state lost finiteness at step {bad + 1}",
                            time_index=bad + 1)
    return TangentState(Mp[:, 1:-1], Vp[:, 1:-1])


def transposed_transport(domain: Domain1D, coeffs, phi) -> np.ndarray:
    """-D1(A phi) + B phi + K(C phi + D1(E phi)), the exact transpose of
    the tangent term, on one frame's rows or on a stack of frames."""
    A, B, C, E = coeffs
    inner = C * phi + d1(domain, E * phi)
    return (B * phi - d1(domain, A * phi)
            + get_operator(domain).solve(inner))


def _march_back(ftraj: ForwardTrajectory, p: ModelParams, lam, last: float,
                stop: int, top: int, source, minus=None):
    """lam[N] = 0, lam[N-1] = M^-1(last dt source[N]) and, for k < N,
    lam[k-1] = M^-1((I - dt T_k) lam[k] + dt source[k]), with M = I - dt eps
    D2 and T_k the transposed tangent term about base frame k.

    Fills frames stop..top-1 of lam in place from its frame top (the zero
    final frame for top = N); what they held before is not read. source,
    less minus when given (each a trajectory of any layout), is read row
    by row: the step that writes frame k-1 forms dt*(source[k] - minus[k])
    itself, so no source lattice is made. The steps are compiled C (cmarch)
    that forms the coefficients of T_k from base frame k inside the step,
    as the tangent march does, so the march works in O(n) memory beside
    lam, which must be C-ordered. The discrete adjoint is last = 1/2, the
    continuous one last = 1. Raises NumericsError naming the first
    non-finite frame.
    """
    domain, tg = ftraj.domain, ftraj.tg
    h2 = 2.0 * domain.h
    cmarch.march_back(get_operator(domain),
                      get_operator(domain, tg.dt * p.epsilon), stop, top,
                      tg.dt, tg.dt / h2, h2, p.k, last, ftraj.y, ftraj.u,
                      ftraj.ux, source, minus, lam)
    bad = _first_nonfinite(lam[stop:top], backward=True)
    if bad is not None:
        raise NumericsError(
            f"adjoint state lost finiteness at frame {bad + stop}",
            time_index=bad + stop)


def solve_adjoint_discrete(ftraj: ForwardTrajectory, source,
                           p: ModelParams, stop: int = 0,
                           minus=None) -> AdjointState:
    """Exact transpose of solve_tangent for a trajectory-valued source.

    Satisfies <T q, source>_traj = <q, lambda|_Q0>_ctrl for every direction q
    and any window. For the tracking-control multiplier, source with
    z_d - y (the negated misfit), which makes the reduced gradient
    delta*omega - lambda|_Q0 and gives lambda = delta*omega at optima.
    Raises NumericsError with the frame index on NaN/Inf.

    minus, a trajectory, is subtracted from the source as each step reads
    it: source z_d with minus y is the tracking source bit for bit, with no
    lattice of its own.

    stop in 1..N-1 marches frames stop..N only, which is all the pairing
    needs for directions that vanish on steps before stop (a window whose
    first step is at least stop). Frames below stop, and mu, stay zero until
    finish_adjoint resumes the march; those frames are then bit for bit the
    ones of a march with stop = 0. Any other stop but 0 is a ValueError.
    """
    N = ftraj.tg.n_steps
    if not 0 <= stop < N:
        raise ValueError(f"stop={stop} is outside 0..N-1 for N={N}")
    source = as_trajectory(ftraj.domain, ftraj.tg, source)
    lam = np.zeros(source.shape)
    _march_back(ftraj, p, lam, 0.5, stop, N, source, minus)
    return AdjointState(lam, stop)


def finish_adjoint(ftraj: ForwardTrajectory, adj: AdjointState, source,
                   p: ModelParams, minus=None) -> AdjointState:
    """The full multiplier of a march that stopped above frame 0, on the
    same trajectory, source and minus: adj, with its frames below stop
    filled in place and stop = 0; a full one is returned as it is. Raises
    NumericsError like solve_adjoint_discrete for a NaN/Inf below stop."""
    if adj.stop:
        source = as_trajectory(ftraj.domain, ftraj.tg, source)
        _march_back(ftraj, p, adj.lam, 0.5, 0, adj.stop, source, minus)
        adj.stop = 0
    return adj


def solve_adjoint_continuous(ftraj: ForwardTrajectory, source,
                             p: ModelParams) -> np.ndarray:
    """IMEX integration of the backward equation in tau = T - t.

    rho(tau=0) = 0; the source enters with the same sign convention as
    solve_adjoint_discrete (source = z_d - y for the tracking multiplier).
    Returns the lambda trajectory on the forward frames, lambda[n] = rho[N-n].
    Raises NumericsError with the reversed-time step index on NaN/Inf.
    """
    domain, tg = ftraj.domain, ftraj.tg
    source = as_trajectory(domain, tg, source)
    N = tg.n_steps
    lam = np.zeros(source.shape)
    try:
        _march_back(ftraj, p, lam, 1.0, 0, N, source)
    except NumericsError as err:  # renumbered in steps of reversed time
        step = N - err.time_index
        raise NumericsError(f"adjoint state lost finiteness at step {step}",
                            time_index=step) from None
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
    coeffs = _transport_coefficients(ftraj, p.k, slice(1, N - 1))
    r = ((lam[2:N] - lam[:N - 2]) / (2.0 * tg.dt) + p.epsilon * d2(domain, mid)
         + source[1:N - 1] - transposed_transport(domain, coeffs, mid))
    worst = float(np.max(norm_h(domain, r), initial=0.0))
    scale = float(np.max(norm_h(domain, lam)))
    rel = worst / scale if scale > 0 else worst
    return {"max_h": worst, "max_h_rel": rel, "scale": scale}


def pairing_defect(ftraj: ForwardTrajectory, window: ControlWindow, q, source,
                   p: ModelParams) -> float:
    """Relative defect of the transpose identity for one (q, source) pair."""
    domain, tg = ftraj.domain, ftraj.tg
    tan = solve_tangent(ftraj, window, q, p)
    adj = solve_adjoint_discrete(ftraj, source, p)
    lhs = inner_l2h(domain, tg, tan.m, source)
    rhs = inner_q0(window, q, adj.lam[window.block])
    denom = norm_q0(window, q) * norm_l2h(domain, tg, source)
    return abs(lhs - rhs) / max(denom, 1e-300)
