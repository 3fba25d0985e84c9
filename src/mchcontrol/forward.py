"""Viscous momentum-form solver for the modified Camassa-Holm flow.

State is the momentum y = u - u_xx on the Dirichlet grid; the velocity is
recovered through the Helmholtz solve each step. Time stepping is IMEX Euler:
diffusion eps*y_xx implicit (tridiagonal SPD solve), transport/reaction/slope
and the control explicit at the old level:

    y_t = eps*y_xx - (u^2 - u_x^2)*y_x - 2*u_x*y^2 - k*u_x + B(omega)

The step loop keeps frames in zero-padded rows (the pads are the Dirichlet
walls), so each centred difference is one slice subtraction.

Controls live on the full node-time lattice with support in a window Q0;
their L2(Q0) quadrature is the left-endpoint rule in time (weight dt on steps
0..N-1, none on the final slice), which keeps the discrete adjoint uniformly
consistent with the continuous backward equation. Trajectory quadratures use
the trapezoid rule.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainMismatchError, NumericsError, StabilityWarning
from .grid import Domain1D, TimeGrid, as_field, as_trajectory, d1
from .helmholtz import ShiftedLaplacianSolver, get_operator

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
    """Space-time box [a, b] x [t0, t1] realized as a node-frame mask."""

    def __init__(self, domain: Domain1D, tg: TimeGrid,
                 a: float, b: float, t0: float, t1: float):
        if not (0.0 <= a < b <= domain.L):
            raise ValueError("ControlWindow: need 0 <= a < b <= L")
        if not (0.0 <= t0 < t1 <= tg.T):
            raise ValueError("ControlWindow: need 0 <= t0 < t1 <= T")
        self.domain = domain
        self.tg = tg
        self.a, self.b, self.t0, self.t1 = a, b, t0, t1
        self.space_mask = (domain.x >= a) & (domain.x <= b)
        self.time_mask = (tg.t >= t0) & (tg.t <= t1)
        if not self.space_mask.any():
            raise ValueError("ControlWindow: no interior node inside [a, b]")
        if not self.time_mask[:-1].any():
            raise ValueError("ControlWindow: no time step starts inside [t0, t1]")
        self.mask = np.outer(self.time_mask, self.space_mask).astype(float)
        # x and t are monotone, so Q0 is a box: its weighted frames (the
        # final frame has none) and its nodes as slices, for inner_q0
        self.block = tuple(slice(i[0], i[-1] + 1) for i in map(
            np.flatnonzero, (self.time_mask[:-1], self.space_mask)))

    def zero_control(self) -> np.ndarray:
        return np.zeros((self.tg.n_steps + 1, self.domain.n_interior))

    def random_control(self, rng, amplitude: float = 1.0) -> np.ndarray:
        q = rng.standard_normal(self.mask.shape)
        return amplitude * q * self.mask


def apply_B(window: ControlWindow, q) -> np.ndarray:
    """Zero-extension of window values to all of Q."""
    q = as_trajectory(window.domain, window.tg, q)
    return q * window.mask


def restrict_B(window: ControlWindow, lam) -> np.ndarray:
    """Adjoint of apply_B: restriction to the window."""
    lam = as_trajectory(window.domain, window.tg, lam)
    return lam * window.mask


def inner_q0(window: ControlWindow, p, q) -> float:
    """L2(Q0) inner product, left-endpoint rule in time."""
    p = as_trajectory(window.domain, window.tg, p)[window.block]
    q = as_trajectory(window.domain, window.tg, q)[window.block]
    return window.tg.dt * window.domain.h * float(np.einsum("ni,ni->", p, q))


def norm_q0(window: ControlWindow, q) -> float:
    return math.sqrt(max(inner_q0(window, q, q), 0.0))


@dataclass
class ForwardTrajectory:
    """Momentum frames plus cached velocity data, u = solve(y) per frame."""

    domain: Domain1D
    tg: TimeGrid
    y: np.ndarray   # (n_steps + 1, n_interior)
    u: np.ndarray
    ux: np.ndarray

    @property
    def uxx(self) -> np.ndarray:
        return self.u - self.y


def transport_terms(domain: Domain1D, y, u, ux, k: float) -> np.ndarray:
    """The explicit part (u^2 - u_x^2) y_x + 2 u_x y^2 + k u_x."""
    return (u * u - ux * ux) * d1(domain, y) + 2.0 * ux * y * y + k * ux


def _warn_cfl(domain: Domain1D, tg: TimeGrid, speed2) -> None:
    """Warn at the first frame whose u^2 - u_x^2 row breaks the CFL bound."""
    with np.errstate(divide="ignore"):
        bound = CFL_SAFETY * domain.h / np.abs(speed2).max(axis=1)
    late = np.flatnonzero(tg.dt > bound)
    if late.size:
        warnings.warn(f"dt={tg.dt:.3e} exceeds advisory CFL bound "
                      f"{bound[late[0]]:.3e} at step {late[0]}",
                      StabilityWarning, stacklevel=3)


def solve_forward(domain: Domain1D, tg: TimeGrid, p: ModelParams, y0,
                  omega=None) -> ForwardTrajectory:
    """March the IMEX scheme from y0 under the (already extended) control.

    Warns once, naming the first step whose frame puts dt above the advisory
    transport CFL bound 0.5*h/max|u^2 - u_x^2| (checked after the march, or
    before the error); raises NumericsError on NaN/Inf with the step index.
    """
    y0 = as_field(domain, y0)
    n, N, dt, h2 = domain.n_interior, tg.n_steps, tg.dt, 2.0 * domain.h
    omega = (np.zeros((N + 1, n)) if omega is None
             else as_trajectory(domain, tg, omega))
    vsolve = get_operator(domain).kernel.solve
    dsolve = ShiftedLaplacianSolver(domain, dt * p.epsilon).solve
    Yp, Up = np.zeros((2, N + 1, n + 2))
    UX = np.empty((N + 1, n))
    S = np.empty_like(UX)  # u^2 - u_x^2: transport speed and CFL input
    Yp[0, 1:-1] = y0
    # blow-up is reported as NumericsError, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(N + 1):
            yp, up = Yp[k], Up[k]
            y, u = yp[1:-1], up[1:-1]
            u[:] = vsolve(y)
            ux = np.divide(up[2:] - up[:-2], h2, out=UX[k])
            if k == N:
                break
            s = np.subtract(u * u, ux * ux, out=S[k])
            rhs = (y + dt * omega[k] - (dt / h2) * s * (yp[2:] - yp[:-2])
                   - ((2.0 * dt) * y * y + dt * p.k) * ux)
            Yp[k + 1, 1:-1] = dsolve(rhs)
            if not np.isfinite(Yp[k + 1]).all():
                _warn_cfl(domain, tg, S[:k + 1])
                raise NumericsError(
                    f"forward state lost finiteness at step {k + 1}/{N}",
                    time_index=k + 1)
    _warn_cfl(domain, tg, S[:N])
    return ForwardTrajectory(domain, tg, Yp[:, 1:-1],
                             Up[:, 1:-1], UX)


def dirichlet_modes(domain: Domain1D, n_modes: int) -> np.ndarray:
    """First sampled sine modes, unit-normalized in the H norm."""
    ms = np.arange(1, min(n_modes, domain.n_interior) + 1)
    modes = np.sin(np.outer(ms, math.pi * domain.x / domain.L))
    return modes / (math.sqrt(domain.h)
                    * np.linalg.norm(modes, axis=1, keepdims=True))


def weak_residual(ftraj: ForwardTrajectory, omega, p: ModelParams) -> float:
    """Max weak-form residual over the first five Dirichlet modes and the
    interior steps, with the diffusion paired as eps*(y_x, eta_x).

    The time derivative is the centered quotient, so the control (constant on
    each step, stamped at the left endpoint) is paired as the average of the
    two steps the quotient spans; evaluating it at a single step instead
    leaves an O(1) defect wherever the window switches on or off.
    """
    domain, tg, N = ftraj.domain, ftraj.tg, ftraj.tg.n_steps
    if omega is None:
        omega = np.zeros_like(ftraj.y)
    omega = as_trajectory(domain, tg, omega)
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


def export_trajectory_csv(csv_path, ftraj: ForwardTrajectory, params: dict,
                          config_hash: str = "", value_names=("y", "u"),
                          values=None) -> None:
    """Write one row per (frame, node) with exact-representation floats.

    The JSON sidecar (same stem, .json) carries params plus the config hash;
    the importer reproduces the arrays bit-exactly.
    """
    domain, tg = ftraj.domain, ftraj.tg
    cols = values if values is not None else [ftraj.y, ftraj.u]
    sidecar = dict(params)
    sidecar.setdefault("schema_version", 1)
    sidecar["config_sha256"] = config_hash
    sidecar["L"] = domain.L
    sidecar["n_interior"] = domain.n_interior
    sidecar["T"] = tg.T
    sidecar["n_steps"] = tg.n_steps
    sidecar["columns"] = ["t", "x", *value_names]
    with open(csv_path, "w", newline="\n") as f:
        f.write(f"# config_sha256={config_hash}\n")
        f.write("t,x," + ",".join(value_names) + "\n")
        xs = [repr(x) for x in domain.x.tolist()]
        # one frame formatted at a time keeps memory at one frame
        for n, tval in enumerate(tg.t.tolist()):
            head = repr(tval) + ","
            vals = [map(repr, c[n].tolist()) for c in cols]
            f.write("".join(head + ",".join(row) + "\n"
                            for row in zip(xs, *vals)))
    with open(str(csv_path).rsplit(".", 1)[0] + ".json", "w", newline="\n") as f:
        json.dump(sidecar, f, indent=1, sort_keys=True)
        f.write("\n")


def import_trajectory_csv(csv_path):
    """Read an exported file; returns (domain, tg, {name: array}, sidecar)."""
    with open(str(csv_path).rsplit(".", 1)[0] + ".json") as f:
        sidecar = json.load(f)
    domain = Domain1D(sidecar["L"], sidecar["n_interior"])
    tg = TimeGrid(sidecar["T"], sidecar["n_steps"])
    names = sidecar["columns"][2:]
    shape = (tg.n_steps + 1, domain.n_interior)
    cols = {name: np.empty(shape) for name in names}
    with open(csv_path) as f:
        rows = [ln for ln in f if ln.strip() and not ln.startswith("#")]
    header = rows[0].strip().split(",")
    if header[2:] != names:
        raise DomainMismatchError("csv columns disagree with sidecar")
    expected = shape[0] * shape[1]
    if len(rows) - 1 != expected:
        raise DomainMismatchError(
            f"csv has {len(rows) - 1} data rows, expected {expected}")
    for r, ln in enumerate(rows[1:]):
        parts = ln.strip().split(",")
        n, i = divmod(r, domain.n_interior)
        for j, name in enumerate(names):
            cols[name][n, i] = float(parts[2 + j])
    return domain, tg, cols, sidecar


def trajectory_from_arrays(domain: Domain1D, tg: TimeGrid, y, u) -> ForwardTrajectory:
    """Rebuild a ForwardTrajectory from imported y and u columns."""
    y = as_trajectory(domain, tg, y)
    u = as_trajectory(domain, tg, u)
    return ForwardTrajectory(domain, tg, y, u, d1(domain, u))
