"""Uniform Dirichlet grid: finite differences, quadrature, and discrete norms.

Fields store interior node values only; the homogeneous boundary is implicit,
so every difference stencil uses zero extension. Space integrals are the
trapezoid rule (boundary terms vanish), time integrals over trajectory frames
are the trapezoid rule in t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainMismatchError


@dataclass(frozen=True)
class Domain1D:
    """Interval (0, L) with n_interior equispaced interior nodes, h = L/(n+1)."""

    L: float
    n_interior: int

    def __post_init__(self):
        if not self.L > 0:
            raise ValueError("Domain1D: L must be positive")
        if self.n_interior < 3:
            raise ValueError("Domain1D: need at least 3 interior nodes")

    @property
    def h(self) -> float:
        return self.L / (self.n_interior + 1)

    @property
    def x(self) -> np.ndarray:
        """Interior node coordinates h, 2h, ..., n*h."""
        return self.h * np.arange(1, self.n_interior + 1)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into n_steps steps (n_steps + 1 frames)."""

    T: float
    n_steps: int

    def __post_init__(self):
        if not self.T > 0:
            raise ValueError("TimeGrid: T must be positive")
        if self.n_steps < 1:
            raise ValueError("TimeGrid: need at least one step")

    @property
    def dt(self) -> float:
        return self.T / self.n_steps

    @property
    def t(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n_steps + 1)

    @property
    def weights(self) -> np.ndarray:
        """Trapezoid weights over frames, summing to T."""
        w = np.full(self.n_steps + 1, self.dt)
        w[0] = w[-1] = 0.5 * self.dt
        return w


def as_field(domain: Domain1D, f) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (domain.n_interior,):
        raise DomainMismatchError(
            f"field has shape {f.shape}, expected ({domain.n_interior},)"
        )
    return f


def as_trajectory(domain: Domain1D, tg: TimeGrid, Y) -> np.ndarray:
    Y = np.asarray(Y, dtype=float)
    if Y.shape != (tg.n_steps + 1, domain.n_interior):
        raise DomainMismatchError(
            f"trajectory has shape {Y.shape}, expected "
            f"({tg.n_steps + 1}, {domain.n_interior})"
        )
    return Y


def _stencil_input(domain: Domain1D, f) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape[-1:] != (domain.n_interior,):
        raise DomainMismatchError(
            f"field has shape {f.shape}, expected (..., {domain.n_interior})"
        )
    return f


def d1(domain: Domain1D, f) -> np.ndarray:
    """Centered first difference along the last axis, zero extension at the
    boundary; f is one field or a stack of frames."""
    f = _stencil_input(domain, f)
    g = np.empty_like(f)
    g[..., 1:-1] = f[..., 2:] - f[..., :-2]
    g[..., 0] = f[..., 1]
    g[..., -1] = -f[..., -2]
    g /= 2.0 * domain.h
    return g


def d2(domain: Domain1D, f) -> np.ndarray:
    """Centered second difference along the last axis, zero extension at the
    boundary; f is one field or a stack of frames."""
    f = _stencil_input(domain, f)
    g = np.empty_like(f)
    g[..., 1:-1] = f[..., 2:] - 2.0 * f[..., 1:-1] + f[..., :-2]
    g[..., 0] = f[..., 1] - 2.0 * f[..., 0]
    g[..., -1] = f[..., -2] - 2.0 * f[..., -1]
    g /= domain.h ** 2
    return g


def inner_h(domain: Domain1D, f, g) -> float:
    """L2 inner product; trapezoid rule with zero boundary values."""
    f = as_field(domain, f)
    g = as_field(domain, g)
    return domain.h * float(f @ g)


def wall_slopes(domain: Domain1D, f):
    """One-sided second-order slopes of a Dirichlet field at both walls."""
    f = as_field(domain, f)
    s0 = (4.0 * f[0] - f[1]) / (2.0 * domain.h)
    sL = (-4.0 * f[-1] + f[-2]) / (2.0 * domain.h)
    return s0, sL


def grad_norm_sq(domain: Domain1D, f) -> float:
    """Second-order quadrature of the squared gradient of a Dirichlet field.

    The centered difference vanishes nowhere the integrand does: f_x^2 has
    nonzero boundary density even when f itself is zero there, so the
    interior-only sum is short by O(h). One-sided second-order slopes at the
    walls restore the trapezoid end weights.
    """
    f = as_field(domain, f)
    g = d1(domain, f)
    s0, sL = wall_slopes(domain, f)
    return domain.h * float(g @ g) + 0.5 * domain.h * (s0 * s0 + sL * sL)


def norm_h(domain: Domain1D, f) -> float:
    f = as_field(domain, f)
    return math.sqrt(domain.h) * float(np.linalg.norm(f))


def norm_sup(f) -> float:
    f = np.asarray(f, dtype=float)
    return float(np.max(np.abs(f)))


def norm_v(domain: Domain1D, f) -> float:
    """H1 norm: sqrt(||f||^2 + ||f_x||^2) with the centered difference."""
    return math.sqrt(norm_h(domain, f) ** 2 + norm_h(domain, d1(domain, f)) ** 2)


def norm_vstar(domain: Domain1D, f) -> float:
    """Dual norm via the Riesz solve (1 - dxx) w = f: sqrt((f, w)).

    Never exceeds norm_h since the inverse has spectrum in (0, 1].
    """
    from .helmholtz import get_operator

    f = as_field(domain, f)
    op = get_operator(domain)
    w = op.solve(f)
    val = inner_h(domain, f, w)
    # (f, A^-1 f) >= 0 exactly; tolerate roundoff at zero
    return math.sqrt(max(val, 0.0))


def inner_l2h(domain: Domain1D, tg: TimeGrid, A, B) -> float:
    """L2(0,T;L2) inner product of two trajectories, trapezoid in time."""
    A = as_trajectory(domain, tg, A)
    B = as_trajectory(domain, tg, B)
    per_frame = domain.h * np.einsum("ni,ni->n", A, B)
    return float(tg.weights @ per_frame)


def norm_l2h(domain: Domain1D, tg: TimeGrid, Y) -> float:
    return math.sqrt(max(inner_l2h(domain, tg, Y, Y), 0.0))


def norm_ct_h(domain: Domain1D, tg: TimeGrid, Y) -> float:
    """C([0,T]; L2) norm: max over frames of norm_h."""
    Y = as_trajectory(domain, tg, Y)
    return math.sqrt(domain.h) * float(np.max(np.linalg.norm(Y, axis=1)))


def norm_l2v(domain: Domain1D, tg: TimeGrid, Y) -> float:
    """L2(0,T;H1) norm by trapezoid quadrature of norm_v^2."""
    Y = as_trajectory(domain, tg, Y)
    vals = np.array([norm_v(domain, Y[n]) ** 2 for n in range(tg.n_steps + 1)])
    return math.sqrt(float(tg.weights @ vals))


def norm_wv(domain: Domain1D, tg: TimeGrid, Y) -> float:
    """W norm: norm_l2v plus the L2-in-time dual norm of difference quotients.

    The time derivative is the forward quotient on each step, integrated with
    weight dt (midpoint rule on step cells). Constant-in-time trajectories
    therefore have norm_wv == norm_l2v.
    """
    Y = as_trajectory(domain, tg, Y)
    dt = tg.dt
    acc = 0.0
    for n in range(tg.n_steps):
        q = (Y[n + 1] - Y[n]) / dt
        acc += dt * norm_vstar(domain, q) ** 2
    return norm_l2v(domain, tg, Y) + math.sqrt(acc)


def random_smooth_trajectory(domain: Domain1D, tg: TimeGrid, rng,
                             n_space_modes: int = 8,
                             n_time_modes: int = 6) -> np.ndarray:
    """Random trajectory with decaying sine spectrum in x and cosine in t."""
    ms = np.arange(1, min(n_space_modes, domain.n_interior) + 1)
    sines = np.sin(np.outer(domain.x, ms * math.pi / domain.L))  # (n, M)
    tt = tg.t / tg.T
    prof = np.zeros((tg.n_steps + 1, ms.size))
    for j, m in enumerate(ms):
        coef = rng.standard_normal(n_time_modes) / (1.0 + np.arange(n_time_modes)) ** 2
        phase = np.outer(tt, np.arange(n_time_modes) * math.pi)
        prof[:, j] = (np.cos(phase) @ coef) / m ** 2
    return prof @ sines.T


def measure_embedding_constant(domain: Domain1D, tg: TimeGrid, rng,
                               n_samples: int = 32) -> float:
    """Empirical lower estimate of c_E in ||.||_{C(H)} <= c_E ||.||_{W(V)}.

    Maximizes the ratio over random smooth trajectories; deterministic for a
    seeded generator.
    """
    best = 0.0
    for _ in range(n_samples):
        Y = random_smooth_trajectory(domain, tg, rng)
        wv = norm_wv(domain, tg, Y)
        if wv <= 0.0:
            continue
        best = max(best, norm_ct_h(domain, tg, Y) / wv)
    return best
