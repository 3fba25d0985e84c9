"""Uniform Dirichlet grid: finite differences, quadrature, and discrete norms.

Fields store interior node values only; the homogeneous boundary is implicit,
so every difference stencil uses zero extension. Space integrals are the
trapezoid rule (boundary terms vanish), time integrals over trajectory frames
are the trapezoid rule in t.

The stencils and the space norms act along the last axis, so they take one
field or a stack of frames (..., n) and give one value per frame: a Python
float for a single field. The norm primitives are squared (H, H1, the dual
norm of V*, the wall-corrected gradient), since the space-time norms sum
squares over frames. The trajectory norms take one trajectory (N+1, n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainMismatchError
from .helmholtz import get_operator


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
        h2 = self.h * self.h
        if not (0.0 < h2 < math.inf and 1.0 / h2 < math.inf):
            raise ValueError("Domain1D: h^2 and 1/h^2 must be finite and "
                             "nonzero")

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


def _shaped(f, shape: tuple, what: str, stack: bool = False) -> np.ndarray:
    """f as a float array of the given shape, or with stack of any shape that
    ends in it; DomainMismatchError naming what it is otherwise."""
    f = np.asarray(f, dtype=float)
    if (f.shape[-len(shape):] if stack else f.shape) != shape:
        dims = ("...",) + shape if stack else shape
        want = ", ".join(map(str, dims)) + ("," if len(dims) == 1 else "")
        raise DomainMismatchError(
            f"{what} has shape {f.shape}, expected ({want})")
    return f


def as_field(domain: Domain1D, f) -> np.ndarray:
    return _shaped(f, (domain.n_interior,), "field")


def as_trajectory(domain: Domain1D, tg: TimeGrid, Y) -> np.ndarray:
    return _shaped(Y, (tg.n_steps + 1, domain.n_interior), "trajectory")


def _stencil_input(domain: Domain1D, f) -> np.ndarray:
    return _shaped(f, (domain.n_interior,), "field", stack=True)


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


def velocity(domain: Domain1D, y):
    """Velocity u = (1 - dxx)^-1 y, its derivative, and u_xx = u - y (an
    exact identity), on a field or per frame of a stack."""
    u = get_operator(domain).solve(y)
    return u, d1(domain, u), u - y


def _per_frame(a):
    """A per-frame value: a Python float for one field, an array for a
    stack of frames."""
    return float(a) if np.ndim(a) == 0 else a


def inner_h(domain: Domain1D, f, g):
    """L2 inner product per frame along the last axis; trapezoid rule with
    zero boundary values."""
    f = _stencil_input(domain, f)
    g = _stencil_input(domain, g)
    return _per_frame(domain.h * np.einsum("...i,...i->...", f, g))


def norm_h_sq(domain: Domain1D, f):
    """Squared L2 norm per frame."""
    return inner_h(domain, f, f)


def norm_h(domain: Domain1D, f):
    """L2 norm per frame."""
    return _per_frame(np.sqrt(norm_h_sq(domain, f)))


def wall_slopes(domain: Domain1D, f):
    """One-sided second-order slopes of a Dirichlet field at both walls,
    per frame."""
    f = _stencil_input(domain, f)
    s0 = (4.0 * f[..., 0] - f[..., 1]) / (2.0 * domain.h)
    sL = (-4.0 * f[..., -1] + f[..., -2]) / (2.0 * domain.h)
    return _per_frame(s0), _per_frame(sL)


def grad_norm_sq(domain: Domain1D, f):
    """Second-order quadrature of the squared gradient of a Dirichlet field,
    per frame.

    The centered difference vanishes nowhere the integrand does: f_x^2 has
    nonzero boundary density even when f itself is zero there, so the
    interior-only sum is short by O(h). One-sided second-order slopes at the
    walls restore the trapezoid end weights.
    """
    s0, sL = wall_slopes(domain, f)
    return (norm_h_sq(domain, d1(domain, f))
            + 0.5 * domain.h * (s0 * s0 + sL * sL))


def norm_v_sq(domain: Domain1D, f):
    """Squared H1 norm per frame: ||f||^2 + ||f_x||^2, centered difference."""
    return norm_h_sq(domain, f) + norm_h_sq(domain, d1(domain, f))


def norm_vstar_sq(domain: Domain1D, f):
    """Squared dual norm per frame via the Riesz solve (1 - dxx) w = f:
    (f, w), with one multi-RHS solve for a stack of frames.

    Never exceeds norm_h_sq since the inverse has spectrum in (0, 1].
    """
    w = get_operator(domain).solve(f)
    # (f, A^-1 f) >= 0 exactly; tolerate roundoff at zero
    return _per_frame(np.maximum(inner_h(domain, f, w), 0.0))


def inner_l2h(domain: Domain1D, tg: TimeGrid, A, B) -> float:
    """L2(0,T;L2) inner product of two trajectories, trapezoid in time."""
    A = as_trajectory(domain, tg, A)
    B = as_trajectory(domain, tg, B)
    return float(tg.weights @ inner_h(domain, A, B))


def norm_l2h(domain: Domain1D, tg: TimeGrid, Y) -> float:
    return math.sqrt(max(inner_l2h(domain, tg, Y, Y), 0.0))


def norm_ct_h(domain: Domain1D, tg: TimeGrid, Y) -> float:
    """C([0,T]; L2) norm: max over frames of the L2 norm."""
    Y = as_trajectory(domain, tg, Y)
    return float(np.sqrt(np.max(norm_h_sq(domain, Y))))


def norm_l2v(domain: Domain1D, tg: TimeGrid, Y) -> float:
    """L2(0,T;H1) norm by trapezoid quadrature of the squared H1 norm."""
    Y = as_trajectory(domain, tg, Y)
    return float(np.sqrt(np.vecdot(norm_v_sq(domain, Y), tg.weights)))


def norm_wv(domain: Domain1D, tg: TimeGrid, Y) -> float:
    """W norm: norm_l2v plus the L2-in-time dual norm of difference
    quotients.

    The time derivative is the forward quotient on each step, integrated with
    weight dt (midpoint rule on step cells). Constant-in-time trajectories
    therefore have norm_wv == norm_l2v.
    """
    Y = as_trajectory(domain, tg, Y)
    quotients = np.diff(Y, axis=0) / tg.dt
    dual_sq = tg.dt * np.sum(norm_vstar_sq(domain, quotients))
    return float(norm_l2v(domain, tg, Y) + np.sqrt(dual_sq))


def random_smooth_trajectories(domain: Domain1D, tg: TimeGrid, rng,
                               n_samples: int):
    """Yield n_samples random trajectories (N+1, n) one at a time, with
    decaying spectrum: 8 sine modes in x, each with 6 cosine modes in t.

    The coefficients come from one draw, which consumes the generator in
    the order of n_samples draws of one trajectory each.
    """
    ms = np.arange(1, min(8, domain.n_interior) + 1)
    sines = np.sin(np.outer(domain.x, ms * math.pi / domain.L))  # (n, M)
    ks = np.arange(6)
    coef = rng.standard_normal((n_samples, ms.size, ks.size))
    coef /= (1.0 + ks) ** 2
    cosines = np.cos(np.outer(tg.t / tg.T, ks * math.pi))  # (N+1, K)
    for c in coef:
        yield (cosines @ c.T / ms ** 2) @ sines.T


def measure_embedding_constant(domain: Domain1D, tg: TimeGrid, rng,
                               n_samples: int) -> float:
    """Empirical lower estimate of c_E in ||.||_{C(H)} <= c_E ||.||_{W(V)}.

    Maximizes the ratio over random smooth trajectories, built and measured
    one at a time; deterministic for a seeded generator.
    """
    pairs = [(norm_ct_h(domain, tg, Y), norm_wv(domain, tg, Y))
             for Y in random_smooth_trajectories(domain, tg, rng, n_samples)]
    return float(np.max(np.divide(*np.array(pairs).T)))
