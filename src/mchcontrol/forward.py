"""Viscous momentum-form solver for the modified Camassa-Holm flow.

State is the momentum y = u - u_xx on the Dirichlet grid; the velocity is
recovered through the Helmholtz solve each step. Time stepping is IMEX Euler:
diffusion eps*y_xx implicit (tridiagonal SPD solve), transport/reaction/slope
and the control explicit at the old level:

    y_t = eps*y_xx - (u^2 - u_x^2)*y_x - 2*u_x*y^2 - k*u_x + B(omega)

The step loop is compiled C (cmarch), bit for bit the numpy expressions of
the scheme; it keeps frames in zero-padded rows (the pads are the Dirichlet
walls) and the per-frame maximum of |u^2 - u_x^2| for the CFL advisory.

A control is an array on the window block Q0, which a march adds into the
block of its own rows; apply_B extends it by zero to the node-time lattice.
The L2(Q0) quadrature is the left-endpoint rule in time (weight dt on each
step of the block, none on the final slice), which keeps the discrete
adjoint uniformly consistent with the continuous backward equation.
Trajectory quadratures use the trapezoid rule.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from . import cmarch
from .errors import DomainMismatchError, NumericsError, StabilityWarning
from .grid import (Domain1D, TimeGrid, _shaped, as_field, as_trajectory,
                   d1, norm_h)
from .helmholtz import get_operator

CFL_SAFETY = 0.5


@dataclass(frozen=True)
class ModelParams:
    """Viscosity eps > 0 and the linear slope coefficient k."""

    epsilon: float
    k: float = 0.0

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("ModelParams: epsilon must be positive")


class ControlWindow:
    """Space-time box [a, b] x [t0, t1]; on the lattice it is Q0, the window
    block: the steps that start in [t0, t1] (the final frame starts none)
    and the nodes in [a, b]. x and t are monotone, so both are slices. A
    control is an array of block_shape; shape is that of the lattice, and
    weight, dt*h, the L2(Q0) quadrature weight of each block entry."""

    def __init__(self, domain: Domain1D, tg: TimeGrid,
                 a: float, b: float, t0: float, t1: float):
        if not (0.0 <= a < b <= domain.L):
            raise ValueError("ControlWindow: need 0 <= a < b <= L")
        if not (0.0 <= t0 < t1 <= tg.T):
            raise ValueError("ControlWindow: need 0 <= t0 < t1 <= T")
        self.domain = domain
        self.tg = tg
        self.a, self.b, self.t0, self.t1 = a, b, t0, t1
        self.shape = (tg.n_steps + 1, domain.n_interior)
        t, x = tg.t[:-1], domain.x
        steps = np.flatnonzero((t >= t0) & (t <= t1))
        nodes = np.flatnonzero((x >= a) & (x <= b))
        if not nodes.size:
            raise ValueError("ControlWindow: no interior node inside [a, b]")
        if not steps.size:
            raise ValueError("ControlWindow: no time step starts inside [t0, t1]")
        self.block = (slice(steps[0], steps[-1] + 1),
                      slice(nodes[0], nodes[-1] + 1))
        self.block_shape = (steps.size, nodes.size)
        self.weight = tg.dt * domain.h

    def zero_control(self) -> np.ndarray:
        return np.zeros(self.block_shape)

    def random_control(self, rng, amplitude: float = 1.0) -> np.ndarray:
        """amplitude times the block of one standard normal lattice draw, so
        rng is consumed as by a draw of shape."""
        return amplitude * rng.standard_normal(self.shape)[self.block]


def as_control(window: ControlWindow, q) -> np.ndarray:
    """q as a control, an array of window.block_shape; DomainMismatchError
    naming the control otherwise."""
    return _shaped(q, window.block_shape, "control")


def _on_grid(domain: Domain1D, tg: TimeGrid, window) -> ControlWindow:
    """window, checked to be a ControlWindow on domain and tg."""
    if not (isinstance(window, ControlWindow)
            and (window.domain, window.tg) == (domain, tg)):
        raise DomainMismatchError("window is not a ControlWindow on the grid")
    return window


def apply_B(window: ControlWindow, q) -> np.ndarray:
    """The extension operator B from L2(Q0): a zero (N+1, n) lattice with
    the control q on the window block, bit for bit, and an exact +0.0
    elsewhere."""
    bq = np.zeros(window.shape)
    bq[window.block] = as_control(window, q)
    return bq


def inner_q0(window: ControlWindow, p, q) -> float:
    """L2(Q0) inner product of two controls, left-endpoint rule in time:
    the compiled pairing (cmarch.pair) with scale window.weight = dt*h and
    unit row weights, which every L2(Q0) product of the package uses. Each
    frame's row is summed in four interleaved partial sums, s_j taking the
    nodes i = j mod 4 in order, combined as (s0 + s1) + (s2 + s3); the frame
    sums, times the exact 1.0, are added in frame order from 0.0 (not the
    compensated sum of newer Pythons)."""
    return cmarch.pair(window.weight, 1.0, 1.0, as_control(window, p),
                       as_control(window, q))


def norm_q0(window: ControlWindow, q) -> float:
    return float(np.sqrt(np.maximum(inner_q0(window, q, q), 0.0)))


@dataclass
class ForwardTrajectory:
    """Momentum frames plus cached velocity data, u = solve(y) per frame."""

    domain: Domain1D
    tg: TimeGrid
    y: np.ndarray   # (n_steps + 1, n_interior)
    u: np.ndarray
    ux: np.ndarray


def transport_terms(domain: Domain1D, y, u, ux, k: float) -> np.ndarray:
    """The explicit part (u^2 - u_x^2) y_x + 2 u_x y^2 + k u_x."""
    return (u * u - ux * ux) * d1(domain, y) + 2.0 * ux * y * y + k * ux


def _warn_cfl(domain: Domain1D, tg: TimeGrid, smax) -> None:
    """Warn at the first frame whose max |u^2 - u_x^2| (smax, one value per
    frame) breaks the CFL bound."""
    with np.errstate(divide="ignore"):
        bound = CFL_SAFETY * domain.h / smax
    late = np.flatnonzero(tg.dt > bound)
    if late.size:
        warnings.warn(f"dt={tg.dt:.3e} exceeds advisory CFL bound "
                      f"{bound[late[0]]:.3e} at step {late[0]}",
                      StabilityWarning, stacklevel=3)


def _first_nonfinite(frames, backward: bool = False):
    """Index of the first non-finite frame of a march, or None.

    Every step ends in a tridiagonal solve with nonzero off-diagonals, which
    spreads a NaN or Inf over the whole row, and no later step can make it
    finite again; so the last frame (frames[0] for a backward march) decides
    and the stack is scanned only on failure.
    """
    if np.isfinite(frames[0 if backward else -1]).all():
        return None
    bad = np.flatnonzero(~np.isfinite(frames).reshape(len(frames), -1).all(1))
    return int(bad[-1] if backward else bad[0])


def solve_forward(domain: Domain1D, tg: TimeGrid, p: ModelParams, y0,
                  window: ControlWindow = None, omega=None,
                  head: ForwardTrajectory = None) -> ForwardTrajectory:
    """March the IMEX scheme from y0 under B omega, omega a control on
    window, or free with neither. head, when given, holds frames 0..k0 of a
    march from the same y0 and model; the march resumes from a copy of it
    at step k0 if k0 is at most the window's first step, and starts from y0
    otherwise. Warns once, naming the first step whose frame puts dt above
    the advisory transport CFL bound 0.5*h/max|u^2 - u_x^2| (checked after
    the march); raises NumericsError on NaN/Inf with the step index.
    """
    y0 = as_field(domain, y0)
    if window is not None or omega is not None:
        omega = as_control(_on_grid(domain, tg, window), omega)
    n, N, dt, h2 = domain.n_interior, tg.n_steps, tg.dt, 2.0 * domain.h
    vsolver = get_operator(domain)
    dsolver = get_operator(domain, dt * p.epsilon)
    Yp, Up = np.zeros((2, N + 1, n + 2))
    Y, U = Yp[:, 1:-1], Up[:, 1:-1]
    UX = np.empty((N + 1, n))
    smax = np.empty(N)  # max |u^2 - u_x^2| per frame: the CFL input
    k0 = 0 if head is None else len(head.y) - 1
    if 0 < k0 <= (N if omega is None else window.block[0].start):
        Y[:k0 + 1], U[:k0 + 1] = head.y, head.u
        UX[:k0] = head.ux[:k0]
    else:
        k0 = 0
        Y[0], U[0] = y0, vsolver.solve(y0)
    if omega is not None:  # destination rows start as dt*(B omega)
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(dt, omega, Y[1:][window.block])
    cmarch.forward_march(vsolver, dsolver, k0, h2, dt / h2, 2.0 * dt,
                         dt * p.k, Yp, Up, UX, smax)
    bad = _first_nonfinite(Yp[1:])
    if bad is not None:
        bad += 1
        _warn_cfl(domain, tg, smax[:bad])
        raise NumericsError(f"forward state lost finiteness at step {bad}/{N}",
                            time_index=bad)
    _warn_cfl(domain, tg, smax)
    return ForwardTrajectory(domain, tg, Y, U, UX)


def dirichlet_modes(domain: Domain1D, n_modes: int) -> np.ndarray:
    """First sampled sine modes, unit-normalized in the H norm."""
    ms = np.arange(1, min(n_modes, domain.n_interior) + 1)
    modes = np.sin(np.outer(ms, math.pi * domain.x / domain.L))
    return modes / norm_h(domain, modes)[:, None]


def weak_residual(ftraj: ForwardTrajectory, p: ModelParams,
                  window: ControlWindow = None, omega=None) -> float:
    """Max weak-form residual over the first five Dirichlet modes and the
    interior steps, with the diffusion paired as eps*(y_x, eta_x); omega is
    a control on window, or both are None for the free flow.

    The time derivative is the centered quotient, so B omega (constant on
    each step, stamped at the left endpoint) is paired as the average of the
    two steps the quotient spans; evaluating it at a single step instead
    leaves an O(1) defect wherever the window switches on or off.
    """
    domain, tg, N = ftraj.domain, ftraj.tg, ftraj.tg.n_steps
    omega = (np.zeros_like(ftraj.y) if window is None and omega is None
             else apply_B(_on_grid(domain, tg, window), omega))
    etas = dirichlet_modes(domain, 5)
    # interior frames 1..N-1 as stacks; rows of r are frames, columns modes
    y, u, ux = ftraj.y[1:N], ftraj.u[1:N], ftraj.ux[1:N]
    strong = ((ftraj.y[2:] - ftraj.y[:N - 1]) / (2.0 * tg.dt)
              + transport_terms(domain, y, u, ux, p.k)
              - 0.5 * (omega[1:N] + omega[:N - 1]))
    r = domain.h * (strong @ etas.T
                    + p.epsilon * (d1(domain, y) @ d1(domain, etas).T))
    return float(np.max(np.abs(r), initial=0.0))


# ---------------------------------------------------------------------------
# trajectory file round trip


def export_trajectory_csv(csv_path, domain: Domain1D, tg: TimeGrid,
                          columns: dict, params: dict,
                          config_hash: str) -> None:
    """Write one row per (frame, node) with exact-representation floats.

    columns maps each column name, in order, to an (N+1, n) trajectory, as
    import_trajectory_csv returns them; the JSON sidecar (same stem, .json)
    carries params plus the config hash, and the importer reproduces the
    arrays bit-exactly. Every float is written as repr writes it, by the
    compiled row writer (cmarch.write_csv).
    """
    cols = [as_trajectory(domain, tg, c) for c in columns.values()]
    sidecar = {"schema_version": 1, **params, "config_sha256": config_hash,
               "L": domain.L, "n_interior": domain.n_interior, "T": tg.T,
               "n_steps": tg.n_steps, "columns": ["t", "x", *columns]}
    with open(csv_path, "w", newline="\n") as f:
        f.write(f"# config_sha256={config_hash}\nt,x,{','.join(columns)}\n")
        f.flush()  # the rows go to the binary buffer under it
        cmarch.write_csv(f.buffer, tg.t, domain.x, cols)
    with open(_sidecar_path(csv_path), "w", newline="\n") as f:
        json.dump(sidecar, f, indent=1, sort_keys=True)
        f.write("\n")


def import_trajectory_csv(csv_path):
    """Read an exported file; returns (domain, tg, {name: array}, sidecar)."""
    with open(_sidecar_path(csv_path)) as f:
        sidecar = json.load(f)
    domain = Domain1D(sidecar["L"], sidecar["n_interior"])
    tg = TimeGrid(sidecar["T"], sidecar["n_steps"])
    names = sidecar["columns"][2:]
    shape = (tg.n_steps + 1, domain.n_interior)
    with open(csv_path) as f:
        header = next((ln for ln in f
                       if ln.strip() and not ln.startswith("#")), "")
        if header.strip().split(",")[2:] != names:
            raise DomainMismatchError("csv columns disagree with sidecar")
        # loadtxt parses the repr floats of the exporter exactly
        data = np.loadtxt(f, delimiter=",", comments="#", ndmin=2)
    expected = shape[0] * shape[1]
    if len(data) != expected:
        raise DomainMismatchError(
            f"csv has {len(data)} data rows, expected {expected}")
    frames = np.ascontiguousarray(data[:, 2:].T).reshape(len(names), *shape)
    cols = dict(zip(names, frames))
    return domain, tg, cols, sidecar


def _sidecar_path(csv_path) -> str:
    """The JSON sidecar next to a trajectory file: same stem, .json."""
    return os.path.splitext(csv_path)[0] + ".json"


def trajectory_from_arrays(domain: Domain1D, tg: TimeGrid, y, u) -> ForwardTrajectory:
    """Rebuild a ForwardTrajectory from imported y and u columns."""
    y = as_trajectory(domain, tg, y)
    u = as_trajectory(domain, tg, u)
    return ForwardTrajectory(domain, tg, y, u, d1(domain, u))
