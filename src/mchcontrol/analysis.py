"""Numerical verification of the a-priori estimates: per-step energy
identity and momentum-velocity norm identity.

Every function here is a pure evaluation returning series or reports;
nothing raises on a failed inequality.
"""

from __future__ import annotations

import math

import numpy as np

from .forward import ForwardTrajectory
from .grid import (Domain1D, _per_frame, as_trajectory, grad_norm_sq,
                   inner_h, norm_h_sq, velocity, wall_slopes)


def make_report(name: str, lhs: float, rhs: float) -> dict:
    """One checked inequality, as verify.json holds it: lhs vs rhs with
    margin = rhs - lhs, passed when the margin is nonnegative."""
    margin = rhs - lhs
    return {"name": name, "lhs": float(lhs), "rhs": float(rhs),
            "margin": float(margin), "passed": bool(margin >= 0)}


def growth(f, x: float) -> float:
    """A growth factor f(x), such as math.exp(x), or inf past the float
    range: a soft check reports it, and a hard check raises on it."""
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

