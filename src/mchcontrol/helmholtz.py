"""Dirichlet Helmholtz operator (1 - dxx) and the tridiagonal SPD kernel.

The operator is the tridiagonal matrix I - D2 on interior nodes. Both it and
the implicit-diffusion matrix I - c*D2 are factored once as LDL^T (LAPACK
pttrf), and every solve is one pttrs call on a 1-D field or on an (n, k)
stack of right-hand sides, so apply(solve(y)) returns y to solver precision
and the solve is its own transpose. HelmholtzOperator takes a frame stack
(..., n) the same way as a single field.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .grid import Domain1D, _stencil_input, d1, d2


class ShiftedLaplacianSolver:
    """Prefactored LDL^T of (I - c * D2), c >= 0, on interior nodes.

    solve takes an (n,) field or an (n, k) array of k right-hand sides and
    checks neither shape nor finiteness: callers validate at their own entry
    points, and a non-finite right-hand side comes back non-finite.
    """

    def __init__(self, domain: Domain1D, c: float):
        if c < 0:
            raise ValueError("shift c must be nonnegative")
        self.domain = domain
        self.c = c
        n = domain.n_interior
        r = c / domain.h ** 2
        d, e, info = dpttrf(np.full(n, 1.0 + 2.0 * r), np.full(n - 1, -r))
        if info != 0:
            raise ValueError(f"pttrf failed with info={info}")
        self._d, self._e = d, e

    def solve(self, b: np.ndarray) -> np.ndarray:
        return dpttrs(self._d, self._e, b)[0]


class HelmholtzOperator:
    """apply(u) = u - u_xx and its inverse on the Dirichlet grid, on a field
    or along the last axis of a stack of frames."""

    def __init__(self, domain: Domain1D):
        self.domain = domain
        self.kernel = ShiftedLaplacianSolver(domain, 1.0)

    def apply(self, u: np.ndarray) -> np.ndarray:
        u = _stencil_input(self.domain, u)
        return u - d2(self.domain, u)

    def solve(self, y: np.ndarray) -> np.ndarray:
        """One kernel call with every frame as a right-hand side."""
        y = _stencil_input(self.domain, y)
        cols = y.reshape(-1, self.domain.n_interior).T
        return self.kernel.solve(cols).T.reshape(y.shape)

    def velocity(self, y: np.ndarray):
        """Velocity u, its derivative, and u_xx = u - y (exact identity)."""
        u = self.solve(y)
        return u, d1(self.domain, u), u - y


_op_cache: dict = {}


def get_operator(domain: Domain1D) -> HelmholtzOperator:
    """Shared per-domain operator; the factorization is immutable."""
    key = (domain.L, domain.n_interior)
    op = _op_cache.get(key)
    if op is None:
        op = HelmholtzOperator(domain)
        _op_cache[key] = op
    return op
