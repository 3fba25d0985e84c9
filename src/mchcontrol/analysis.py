"""Numerical verification of the a-priori estimates: per-step energy
identity, momentum-velocity norm identity, exponential growth bound,
trajectory-norm bound, and the small-data margin.

Every function here is a pure evaluation returning series or reports;
nothing raises on a failed inequality. Constants the theory leaves
existential are caller-configurable, with calibration helpers that fit the
smallest value consistent with a given run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forward import ControlWindow, ForwardTrajectory, apply_B, norm_q0
from .grid import (Domain1D, TimeGrid, as_field, as_trajectory, d1,
                   grad_norm_sq, inner_h, norm_h, norm_vstar, norm_wv,
                   wall_slopes)
from .helmholtz import get_operator


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
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs,
                "margin": self.margin, "passed": self.passed,
                "meta": dict(self.meta)}


def make_report(name: str, lhs: float, rhs: float, tol: float = 0.0,
                meta: dict = None) -> EstimateReport:
    margin = rhs - lhs
    return EstimateReport(name=name, lhs=float(lhs), rhs=float(rhs),
                          margin=float(margin), passed=bool(margin >= -tol),
                          meta=meta or {})


def energy_series(ftraj: ForwardTrajectory):
    """Discrete energy 0.5*(||u||^2 + ||u_x||^2) per frame, with the
    gradient part quadratured to second order including wall density."""
    domain, tg = ftraj.domain, ftraj.tg
    E = np.empty(tg.n_steps + 1)
    for n in range(tg.n_steps + 1):
        E[n] = 0.5 * (norm_h(domain, ftraj.u[n]) ** 2
                      + grad_norm_sq(domain, ftraj.u[n]))
    return E


def energy_identity(ftraj: ForwardTrajectory, p, omega=None,
                    window: ControlWindow = None) -> dict:
    """Per-step residual of the velocity energy balance.

    r[n] = (E[n+1] - E[n])/dt + eps*(||u_x||^2 + ||u_xx||^2)
           - wall_flux - (B omega, u)
    with dissipation, flux, and control pairing taken at the new time level.
    The wall flux (u_x(L)^4 - u_x(0)^4)/4 is what the transport pairing
    leaves behind on a bounded interval: the momentum and u vanish at the
    walls but the velocity slope does not, so the conservative transport
    moves energy through the boundary. The residual then measures only the
    first-order-in-time defect of the scheme and shrinks at order >= 1
    under step refinement for smooth data. Dropping the flux instead leaves
    a resolution-independent defect equal to it.
    """
    domain, tg = ftraj.domain, ftraj.tg
    eps = p.epsilon
    E = energy_series(ftraj)
    bq = None
    if omega is not None:
        if window is None:
            raise ValueError("energy_identity: omega given without window")
        bq = apply_B(window, omega)
    r = np.empty(tg.n_steps)
    dissipation = np.empty(tg.n_steps)
    wall_flux = np.empty(tg.n_steps)
    for n in range(tg.n_steps):
        uxx1 = ftraj.u[n + 1] - ftraj.y[n + 1]
        diss = eps * (grad_norm_sq(domain, ftraj.u[n + 1])
                      + norm_h(domain, uxx1) ** 2)
        s0, sL = wall_slopes(domain, ftraj.u[n + 1])
        flux = 0.25 * (sL ** 4 - s0 ** 4)
        work = inner_h(domain, bq[n], ftraj.u[n + 1]) if bq is not None else 0.0
        r[n] = (E[n + 1] - E[n]) / tg.dt + diss - flux - work
        dissipation[n] = diss
        wall_flux[n] = flux
    return {"residual": r, "max_abs": float(np.max(np.abs(r))) if len(r) else 0.0,
            "energy": E, "dissipation": dissipation, "wall_flux": wall_flux}


def momentum_identity(domain: Domain1D, y):
    """Both sides of ||y||^2 = ||u||^2 + 2||u_x||^2 + ||u_xx||^2 on a frame.

    u solves the screened Poisson problem for y and u_xx = u - y exactly;
    the gradient term uses the wall-corrected quadrature, leaving an O(h^2)
    defect from the centered first difference.
    """
    y = as_field(domain, y)
    op = get_operator(domain)
    u, ux, uxx = op.velocity(y)
    lhs = norm_h(domain, y) ** 2
    rhs = norm_h(domain, u) ** 2 + 2.0 * grad_norm_sq(domain, u) \
        + norm_h(domain, uxx) ** 2
    relerr = abs(lhs - rhs) / max(lhs, np.finfo(float).tiny)
    return lhs, rhs, relerr


def fit_growth_constant(domain: Domain1D, tg: TimeGrid, Y) -> float:
    """Largest observed one-step exponential rate of ||y||_H^2, floored at
    1e-12 so downstream formulas stay defined."""
    Y = as_trajectory(domain, tg, Y)
    best = 1e-12
    prev = norm_h(domain, Y[0]) ** 2
    for n in range(tg.n_steps):
        cur = norm_h(domain, Y[n + 1]) ** 2
        if prev > 0 and cur > 0:
            best = max(best, math.log(cur / prev) / tg.dt)
        prev = cur
    return best


def gronwall_bound(domain: Domain1D, tg: TimeGrid, Y, C: float,
                   A: float = None) -> EstimateReport:
    """Check ||y(t)||_H^2 against exp(C t) A / sqrt((1 - exp(2 C t)) A + 1).

    A defaults to the measured ||y(0)||_H^2. The bound's denominator turns
    nonpositive at t* = ln(1 + 1/A)/(2C) for positive C and A; frames at or
    beyond t* are excluded and t* is reported in the metadata rather than
    treated as a failure.
    """
    Y = as_trajectory(domain, tg, Y)
    if A is None:
        A = norm_h(domain, Y[0]) ** 2
    t_star = math.inf
    if C > 0 and A > 0:
        t_star = math.log(1.0 + 1.0 / A) / (2.0 * C)
    worst = (0.0, 0.0, None)  # (lhs, rhs at worst frame, time)
    first_violation = None
    n_valid = 0
    for n in range(tg.n_steps + 1):
        t = tg.t[n]
        if t >= t_star:
            break
        denom_sq = (1.0 - math.exp(2.0 * C * t)) * A + 1.0
        if denom_sq <= 0:
            break
        bound = math.exp(C * t) * A / math.sqrt(denom_sq)
        measured = norm_h(domain, Y[n]) ** 2
        n_valid += 1
        if measured - bound > worst[0] - worst[1]:
            worst = (measured, bound, t)
        if measured > bound and first_violation is None:
            first_violation = t
    meta = {"t_star": t_star, "n_valid_frames": n_valid, "C": C, "A": A,
            "first_violation_time": first_violation,
            "worst_frame_time": worst[2]}
    if t_star <= tg.T:
        meta["note"] = f"bound inapplicable beyond t*={t_star:.6g}"
    return make_report("gronwall", worst[0], worst[1],
                       tol=1e-12 * max(1.0, A), meta=meta)


def wv_bound(domain: Domain1D, tg: TimeGrid, Y, window: ControlWindow,
             omega, C: float = None) -> EstimateReport:
    """Trajectory-norm bound ||y||_WV <= C (exp||y0||_H^2 + ||omega||_Q0^2 + 1).

    With C omitted the report carries the implied minimal constant (which
    then passes by construction); refinement and data sweeps should leave
    that implied constant bounded.
    """
    Y = as_trajectory(domain, tg, Y)
    lhs = norm_wv(domain, tg, Y)
    base = math.exp(norm_h(domain, Y[0]) ** 2) + norm_q0(window, omega) ** 2 \
        + 1.0
    implied = lhs / base
    if C is None:
        C = implied
    return make_report("wv_bound", lhs, C * base, tol=1e-12 * max(1.0, lhs),
                       meta={"C": C, "implied_C": implied, "base": base})


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
    force = sum(tg.dt * norm_vstar(domain, bq[n]) ** 2
                for n in range(tg.n_steps))
    lhs = norm_h(domain, y0) ** 2 + C_eps * tg.T * force
    grow = math.expm1(2.0 * C_eps * tg.T)
    rhs = math.inf if grow <= 0 else 1.0 / math.sqrt(grow)
    return make_report("smallness", lhs, rhs, tol=0.0,
                       meta={"C_eps": C_eps, "forcing_dual_sq": force})
