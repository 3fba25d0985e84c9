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
import os
import warnings
from dataclasses import dataclass
from itertools import repeat
from operator import add

import numpy as np

from .errors import DomainMismatchError, NumericsError, StabilityWarning
from .grid import (Domain1D, TimeGrid, _per_frame, _trajectories, as_field,
                   as_trajectory, d1, norm_h)
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
    and the nodes in [a, b]. x and t are monotone, so both are slices."""

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

    @property
    def mask(self) -> np.ndarray:
        """The 0/1 indicator of the window block, a new array per call."""
        return apply_B(self, np.ones(self.shape))

    def zero_control(self) -> np.ndarray:
        return np.zeros(self.shape)

    def random_control(self, rng, amplitude: float = 1.0) -> np.ndarray:
        return apply_B(self, amplitude * rng.standard_normal(self.shape))


def apply_B(window: ControlWindow, q) -> np.ndarray:
    """Zero-extension of the window block: q's values there bit for bit,
    and an exact +0.0 elsewhere, whatever q holds off the block; q is one
    control or a stack of them (..., N+1, n)."""
    q = _trajectories(window.domain, window.tg, q)
    bq, blk = np.zeros(q.shape), (..., *window.block)
    bq[blk] = q[blk]
    return bq


def inner_block(window: ControlWindow, p, q):
    """L2(Q0) inner product of arrays shaped like trajectory[window.block],
    one value per pair of a stack: per-frame sums added in frame order (not
    the compensated sum of newer Pythons), as einsum adds block views."""
    rows = np.einsum("...ni,...ni->...n", p, q)
    return _per_frame(window.tg.dt * window.domain.h
                      * np.cumsum(rows, axis=-1)[..., -1])


def inner_q0(window: ControlWindow, p, q):
    """L2(Q0) inner product, left-endpoint rule in time; one value per
    control of a stack."""
    blk = (..., *window.block)
    return inner_block(window, _trajectories(window.domain, window.tg, p)[blk],
                       _trajectories(window.domain, window.tg, q)[blk])


def norm_q0(window: ControlWindow, q):
    return _per_frame(np.sqrt(np.maximum(inner_q0(window, q, q), 0.0)))


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


def _warn_cfl(domain: Domain1D, tg: TimeGrid, speed2) -> None:
    """Warn at the first frame whose u^2 - u_x^2 row breaks the CFL bound.
    Overwrites speed2 with its absolute value."""
    with np.errstate(divide="ignore"):
        bound = CFL_SAFETY * domain.h / np.abs(speed2, out=speed2).max(axis=1)
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
                  omega=None, head: ForwardTrajectory = None
                  ) -> ForwardTrajectory:
    """March the IMEX scheme from y0 under the (already extended) control.

    head, when given, holds frames 0..k0 of a march from the same y0 and
    model under a control that vanishes on steps 0..k0-1; the march resumes
    from a copy of it at step k0 if omega vanishes there too, and starts
    from y0 otherwise. Warns once, naming the first step whose frame puts dt
    above the advisory transport CFL bound 0.5*h/max|u^2 - u_x^2| (checked
    after the march); raises NumericsError on NaN/Inf with the step index.
    """
    y0 = as_field(domain, y0)
    n, N, dt, h2 = domain.n_interior, tg.n_steps, tg.dt, 2.0 * domain.h
    omega = (np.zeros((N + 1, n)) if omega is None
             else as_trajectory(domain, tg, omega))
    vsolve = get_operator(domain).solve
    dsolve = get_operator(domain, dt * p.epsilon).solve
    Yp, Up = np.zeros((2, N + 1, n + 2))
    Y, U = Yp[:, 1:-1], Up[:, 1:-1]
    UX = np.empty((N + 1, n))
    S = np.empty_like(UX)  # u^2 - u_x^2: transport speed and CFL input
    k0 = 0 if head is None else len(head.y) - 1
    if k0 and not omega[:k0].any():
        Y[:k0 + 1], U[:k0 + 1] = head.y, head.u
        UX[:k0] = head.ux[:k0]
        u, ux = head.u[:k0], head.ux[:k0]
        np.subtract(u * u, ux * ux, out=S[:k0])
    else:
        k0 = 0
        Y[0] = U[0] = y0
        vsolve(U[0], True)
    c, dt2, dtk = dt / h2, 2.0 * dt, dt * p.k
    w, w2 = np.empty((2, n))  # work rows of a step
    mul, sub, add = np.multiply, np.subtract, np.add
    # rows of steps k0..N-1, each writing frame k+1 in place
    rows = zip(Y[k0:N], U[k0:N], UX[k0:N], S[k0:N], omega[k0:N],
               Yp[k0:N, 2:], Yp[k0:N, :-2], Up[k0:N, 2:], Up[k0:N, :-2],
               Y[k0 + 1:], U[k0 + 1:])
    # blow-up is reported as NumericsError, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for y, u, ux, s, om, yr, yl, ur, ul, y1, u1 in rows:
            np.divide(sub(ur, ul, ux), h2, ux)
            sub(mul(u, u, s), mul(ux, ux, w), s)
            # y1 = (y + dt*om - (c*s)*(yr - yl)) - ((dt2*y)*y + dtk)*ux
            add(y, mul(dt, om, y1), y1)
            sub(y1, mul(mul(c, s, w), sub(yr, yl, w2), w), y1)
            sub(y1, mul(add(mul(mul(dt2, y, w), y, w), dtk, w), ux, w), y1)
            dsolve(y1, True)
            u1[...] = y1
            vsolve(u1, True)
        np.divide(Up[N, 2:] - Up[N, :-2], h2, out=UX[N])
    bad = _first_nonfinite(Yp[1:])
    if bad is not None:
        bad += 1
        _warn_cfl(domain, tg, S[:bad])
        raise NumericsError(f"forward state lost finiteness at step {bad}/{N}",
                            time_index=bad)
    _warn_cfl(domain, tg, S[:N])
    return ForwardTrajectory(domain, tg, Y, U, UX)


def dirichlet_modes(domain: Domain1D, n_modes: int) -> np.ndarray:
    """First sampled sine modes, unit-normalized in the H norm."""
    ms = np.arange(1, min(n_modes, domain.n_interior) + 1)
    modes = np.sin(np.outer(ms, math.pi * domain.x / domain.L))
    return modes / norm_h(domain, modes)[:, None]


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


def export_trajectory_csv(csv_path, domain: Domain1D, tg: TimeGrid,
                          columns: dict, params: dict,
                          config_hash: str) -> None:
    """Write one row per (frame, node) with exact-representation floats.

    columns maps each column name, in order, to an (N+1, n) trajectory, as
    import_trajectory_csv returns them; the JSON sidecar (same stem, .json)
    carries params plus the config hash, and the importer reproduces the
    arrays bit-exactly. All-zero rows are written from a per-node template.
    """
    cols = [as_trajectory(domain, tg, c) for c in columns.values()]
    sidecar = {"schema_version": 1, **params, "config_sha256": config_hash,
               "L": domain.L, "n_interior": domain.n_interior, "T": tg.T,
               "n_steps": tg.n_steps, "columns": ["t", "x", *columns]}
    # a value is live unless it is an exact +0.0 (-0.0 and NaN are live);
    # each frame's live nodes lie in [lo, hi), and lo = hi when it has none
    live = np.logical_or.reduce([(c != 0.0) | np.signbit(c) for c in cols])
    lo = live.argmax(axis=1)
    hi = np.where(live.any(axis=1), domain.n_interior
                  - live[:, ::-1].argmax(axis=1), lo)
    xs = [repr(x) for x in domain.x.tolist()]
    zero_rows = [x + ",0.0" * len(cols) for x in xs]
    with open(csv_path, "w", newline="\n") as f:
        f.write(f"# config_sha256={config_hash}\n")
        f.write("t,x," + ",".join(columns) + "\n")
        # one frame formatted at a time keeps memory at one frame; its rows
        # are joined by the line break plus the next row's "t," prefix
        for n, (tval, i0, i1) in enumerate(zip(tg.t.tolist(), lo.tolist(),
                                               hi.tolist())):
            rows = xs[i0:i1]
            for c in cols:
                rows = map(add, map(add, rows, repeat(",")),
                           map(repr, c[n, i0:i1].tolist()))
            head = repr(tval) + ","
            f.write(head + ("\n" + head).join([*zero_rows[:i0], *rows,
                                               *zero_rows[i1:]]) + "\n")
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
