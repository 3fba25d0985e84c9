"""Numerical verification of the a-priori estimates: per-step energy
identity, momentum-velocity norm identity, and the small-data margin.

Every function here is a pure evaluation returning series or reports;
nothing raises on a failed inequality. The one constant the theory leaves
existential, the small-data C_eps, is caller-configurable.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .forward import ControlWindow, ForwardTrajectory, apply_B
from .grid import (Domain1D, TimeGrid, _per_frame, as_field, as_trajectory,
                   grad_norm_sq, inner_h, norm_h_sq, norm_vstar_sq,
                   velocity, wall_slopes)


@dataclass
class EstimateReport:
    """One checked inequality: lhs vs rhs with margin = rhs - lhs."""

    name: str
    lhs: float
    rhs: float
    margin: float
    passed: bool
    meta: dict

    def to_dict(self) -> dict:
        return asdict(self)


def make_report(name: str, lhs: float, rhs: float,
                meta: dict = None) -> EstimateReport:
    margin = rhs - lhs
    return EstimateReport(name=name, lhs=float(lhs), rhs=float(rhs),
                          margin=float(margin), passed=bool(margin >= 0),
                          meta=meta or {})


def growth(f, x: float) -> float:
    """A growth factor f(x), such as math.exp(x), or inf past the float
    range; only soft checks read the constants built from it."""
    try:
        return f(x)
    except OverflowError:
        return math.inf


def energy_series(ftraj: ForwardTrajectory):
    """Discrete energy 0.5*(||u||^2 + ||u_x||^2) per frame, with the
    gradient part quadratured to second order including wall density."""
    u = ftraj.u
    return 0.5 * (norm_h_sq(ftraj.domain, u) + grad_norm_sq(ftraj.domain, u))


def energy_identity(ftraj: ForwardTrajectory, p, control=None) -> dict:
    """Per-step residual of the velocity energy balance.

    r[n] = (E[n+1] - E[n])/dt + eps*(||u_x||^2 + ||u_xx||^2)
           - wall_flux - (B omega, u)
    with dissipation, flux, and control pairing taken at the new time level;
    control is the extended forcing B omega (None for the free flow).
    The wall flux (u_x(L)^4 - u_x(0)^4)/4 is what the transport pairing
    leaves behind on a bounded interval: the momentum and u vanish at the
    walls but the velocity slope does not, so the conservative transport
    moves energy through the boundary. The residual then measures only the
    first-order-in-time defect of the scheme and shrinks at order >= 1
    under step refinement for smooth data. Dropping the flux instead leaves
    a resolution-independent defect equal to it.
    """
    domain = ftraj.domain
    work = 0.0
    u1 = ftraj.u[1:]  # new time level of each step
    if control is not None:
        control = as_trajectory(domain, ftraj.tg, control)
        work = inner_h(domain, control[:-1], u1)
    E = energy_series(ftraj)
    dissipation = p.epsilon * (grad_norm_sq(domain, u1)
                               + norm_h_sq(domain, u1 - ftraj.y[1:]))
    s0, sL = wall_slopes(domain, u1)
    wall_flux = 0.25 * (sL ** 4 - s0 ** 4)
    r = np.diff(E) / ftraj.tg.dt + dissipation - wall_flux - work
    return {"residual": r, "max_abs": float(np.max(np.abs(r))),
            "energy": E, "dissipation": dissipation, "wall_flux": wall_flux}


def momentum_identity(domain: Domain1D, y):
    """Both sides of ||y||^2 = ||u||^2 + 2||u_x||^2 + ||u_xx||^2 and their
    relative gap, on a frame or per frame of a stack.

    u solves the screened Poisson problem for y and u_xx = u - y exactly;
    the gradient term uses the wall-corrected quadrature, leaving an O(h^2)
    defect from the centered first difference.
    """
    u, _, uxx = velocity(domain, y)
    lhs = norm_h_sq(domain, y)
    rhs = (norm_h_sq(domain, u) + 2.0 * grad_norm_sq(domain, u)
           + norm_h_sq(domain, uxx))
    relerr = np.abs(lhs - rhs) / np.maximum(lhs, np.finfo(float).tiny)
    return lhs, rhs, _per_frame(relerr)


def smallness_margin(domain: Domain1D, tg: TimeGrid, window: ControlWindow,
                     y0, omega, C_eps: float) -> EstimateReport:
    """Small-data condition: ||y0||_H^2 + C_eps T ||B omega||^2_{L2(V*)}
    against (exp(2 C_eps T) - 1)^(-1/2); advisory only.

    C_eps -> 0 sends the right side to infinity, so tiny constants always
    pass; the left-endpoint rule matches the control quadrature.
    """
    if C_eps < 0:
        raise ValueError("smallness_margin: C_eps must be nonnegative")
    y0 = as_field(domain, y0)
    bq = apply_B(window, omega)
    force = tg.dt * float(np.sum(norm_vstar_sq(domain, bq[:-1])))
    lhs = norm_h_sq(domain, y0) + C_eps * tg.T * force
    grow = growth(math.expm1, 2.0 * C_eps * tg.T)
    rhs = math.inf if grow <= 0 else 1.0 / math.sqrt(grow)
    return make_report("smallness", lhs, rhs,
                       meta={"C_eps": C_eps, "forcing_dual_sq": force})
