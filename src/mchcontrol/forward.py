"""Viscous momentum-form solver for the modified Camassa-Holm flow.

State is the momentum y = u - u_xx on the Dirichlet grid; the velocity is
recovered through the Helmholtz solve each step. Time stepping is IMEX Euler:
diffusion eps*y_xx implicit (tridiagonal SPD solve), transport/reaction/slope
and the control explicit at the old level:

    y_t = eps*y_xx - (u^2 - u_x^2)*y_x - 2*u_x*y^2 - k*u_x + B(omega)

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
from .grid import Domain1D, TimeGrid, as_field, as_trajectory, d1, inner_h
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
    p = as_trajectory(window.domain, window.tg, p)
    q = as_trajectory(window.domain, window.tg, q)
    m = window.mask[:-1]
    s = np.einsum("ni,ni->", p[:-1] * m, q[:-1] * m)
    return window.tg.dt * window.domain.h * float(s)


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


def solve_forward(domain: Domain1D, tg: TimeGrid, p: ModelParams, y0,
                  omega=None, include_transport: bool = True,
                  check_cfl: bool = True) -> ForwardTrajectory:
    """March the IMEX scheme from y0 under the (already extended) control.

    Warns once if dt exceeds the advisory transport CFL bound
    0.5*h/max|u^2 - u_x^2|; raises NumericsError on NaN/Inf with the step
    index.
    """
    y0 = as_field(domain, y0)
    n = domain.n_interior
    N = tg.n_steps
    if omega is None:
        omega = np.zeros((N + 1, n))
    omega = as_trajectory(domain, tg, omega)
    vsolve = get_operator(domain).kernel.solve
    dsolve = ShiftedLaplacianSolver(domain, tg.dt * p.epsilon).solve

    Y = np.empty((N + 1, n))
    U = np.empty_like(Y)
    UX = np.empty_like(Y)
    Y[0] = y0
    warned = False
    for nstep in range(N):
        y = Y[nstep]
        u = vsolve(y)
        ux = d1(domain, u)
        U[nstep], UX[nstep] = u, ux
        if check_cfl and not warned:
            speed = float(np.max(np.abs(u * u - ux * ux)))
            if speed > 0 and tg.dt > CFL_SAFETY * domain.h / speed:
                warnings.warn(
                    f"dt={tg.dt:.3e} exceeds advisory CFL bound "
                    f"{CFL_SAFETY * domain.h / speed:.3e} at step {nstep}",
                    StabilityWarning, stacklevel=2)
                warned = True
        # blow-up is reported as NumericsError, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            expl = omega[nstep]
            if include_transport:
                expl = expl - transport_terms(domain, y, u, ux, p.k)
            ynew = dsolve(y + tg.dt * expl)
        if not np.all(np.isfinite(ynew)):
            raise NumericsError(
                f"forward state lost finiteness at step {nstep + 1}/{N}",
                time_index=nstep + 1)
        Y[nstep + 1] = ynew
    U[N] = vsolve(Y[N])
    UX[N] = d1(domain, U[N])
    return ForwardTrajectory(domain, tg, Y, U, UX)


def dirichlet_modes(domain: Domain1D, n_modes: int) -> np.ndarray:
    """First sampled sine modes, unit-normalized in the H norm."""
    m_max = min(n_modes, domain.n_interior)
    modes = np.empty((m_max, domain.n_interior))
    for m in range(1, m_max + 1):
        e = np.sin(m * math.pi * domain.x / domain.L)
        modes[m - 1] = e / (math.sqrt(domain.h) * np.linalg.norm(e))
    return modes


def weak_residual(ftraj: ForwardTrajectory, omega, p: ModelParams,
                  n_modes: int = 5, variant: str = "y_gradient") -> float:
    """Max weak-form residual over the first Dirichlet modes and interior steps.

    The time derivative is the centered quotient, so the control (constant on
    each step, stamped at the left endpoint) is paired as the average of the
    two steps the quotient spans; evaluating it at a single step instead
    leaves an O(1) defect wherever the window switches on or off. variant
    "y_gradient" pairs the diffusion as eps*(y_x, eta_x); variant "u_h1"
    instead uses the velocity H1 pairing eps*[(u, eta) + (u_x, eta_x)], which
    measures a different (not equivalent) form and is kept for comparison.
    """
    if variant not in ("y_gradient", "u_h1"):
        raise ValueError(f"unknown weak-residual variant {variant!r}")
    domain, tg = ftraj.domain, ftraj.tg
    if omega is None:
        omega = np.zeros_like(ftraj.y)
    omega = as_trajectory(domain, tg, omega)
    etas = dirichlet_modes(domain, n_modes)
    detas = d1(domain, etas)
    worst = 0.0
    for n in range(1, tg.n_steps):
        ydot = (ftraj.y[n + 1] - ftraj.y[n - 1]) / (2.0 * tg.dt)
        nl = transport_terms(domain, ftraj.y[n], ftraj.u[n], ftraj.ux[n], p.k)
        om_bar = 0.5 * (omega[n] + omega[n - 1])
        for e, de in zip(etas, detas):
            if variant == "y_gradient":
                diff = p.epsilon * inner_h(domain, d1(domain, ftraj.y[n]), de)
            else:
                diff = p.epsilon * (inner_h(domain, ftraj.u[n], e)
                                    + inner_h(domain, ftraj.ux[n], de))
            r = (inner_h(domain, ydot, e) + diff + inner_h(domain, nl, e)
                 - inner_h(domain, om_bar, e))
            worst = max(worst, abs(r))
    return worst


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
