"""The tridiagonal SPD kernel I - c*D2 on the interior nodes of a Dirichlet
grid, c >= 0.

Both implicit operators of the scheme are this family: the Helmholtz map
1 - dxx that recovers the velocity from the momentum is c = 1, and the
implicit-diffusion step is c = dt*eps. Each is factored once as LDL^T
(LAPACK pttrf) and cached per grid and shift; every solve is one pttrs call
on a 1-D field or on an (n, k) stack of right-hand sides, so the solve is
its own transpose. solve_frames, and solve by default, leave the right-hand
side untouched; solve(b, True) writes the solution over it. The compiled
step loops (cmarch) call the same dpttrs on a kernel's factors _d and _e.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import DomainMismatchError


class ShiftedLaplacianSolver:
    """Prefactored LDL^T of (I - c * D2), c >= 0, on a domain's interior
    nodes (any object with n_interior and h)."""

    def __init__(self, domain, c: float):
        if c < 0:
            raise ValueError("shift c must be nonnegative")
        n = domain.n_interior
        r = c / domain.h ** 2
        d, e, info = dpttrf(np.full(n, 1.0 + 2.0 * r), np.full(n - 1, -r))
        if info != 0:
            raise ValueError(f"pttrf failed with info={info}")
        self._d, self._e = d, e

    def solve(self, b: np.ndarray, overwrite_b: bool = False) -> np.ndarray:
        """Solve for an (n,) field or an (n, k) array of k right-hand sides;
        checks neither shape nor finiteness, and a non-finite right-hand
        side comes back non-finite. b is left as it is unless overwrite_b,
        which writes the solution into b and returns b: in b's own memory
        for a contiguous field or an F-ordered (n, k) stack, and copied back
        for a strided one, on which LAPACK works on a copy."""
        # overwrite_b is passed by position: parsing it as a keyword costs
        # about a quarter of a solve at n = 48
        x = dpttrs(self._d, self._e, b, overwrite_b)[0]
        if overwrite_b and x is not b:
            b[...] = x
        return b if overwrite_b else x

    def solve_frames(self, y) -> np.ndarray:
        """Solve for a field or a stack of frames (..., n), every frame a
        right-hand side of one kernel call; shape-checked."""
        y = np.asarray(y, dtype=float)
        n = self._d.size
        if y.shape[-1:] != (n,):
            raise DomainMismatchError(
                f"field has shape {y.shape}, expected (..., {n})")
        return self.solve(y.reshape(-1, n).T).T.reshape(y.shape)


_cache: dict = {}


def get_operator(domain, c: float = 1.0) -> ShiftedLaplacianSolver:
    """The shared kernel of I - c*D2 on a domain, factored once per grid
    and shift; the factorization is immutable."""
    key = (domain.L, domain.n_interior, c)
    if key not in _cache:
        _cache[key] = ShiftedLaplacianSolver(domain, c)
    return _cache[key]
