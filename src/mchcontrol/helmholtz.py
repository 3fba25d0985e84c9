"""The tridiagonal SPD kernel I - c*D2 on the interior nodes of a Dirichlet
grid, c >= 0.

Both implicit operators of the scheme are this family: the Helmholtz map
1 - dxx that recovers the velocity from the momentum is c = 1, and the
implicit-diffusion step is c = dt*eps. Each is factored once as LDL^T
(pttrf) and cached per grid and shift; every solve is one ptts2 call on a
1-D field or on an (n, k) stack of right-hand sides of any float64 layout,
in b's own memory, so the solve is its own transpose. pttrf and ptts2 are
compiled C (cmarch.c), reference LAPACK's dpttrf and dptts2 operation for
operation, and the compiled step loops solve with the same code on a
kernel's factors _d and _e. solve_frames, and solve by default, leave the
right-hand side untouched; solve(b, True) writes the solution over it.
"""

from __future__ import annotations

import numpy as np

from . import cmarch
from .errors import DomainMismatchError


class ShiftedLaplacianSolver:
    """Prefactored LDL^T of (I - c * D2), c >= 0, on a domain's interior
    nodes (any object with n_interior and h)."""

    def __init__(self, domain, c: float):
        if c < 0:
            raise ValueError("shift c must be nonnegative")
        n = domain.n_interior
        r = c / domain.h ** 2
        self._d, self._e = np.full(n, 1.0 + 2.0 * r), np.full(n - 1, -r)
        self._factors = self._d.ctypes.data, self._e.ctypes.data
        lib = cmarch.library()
        lib.pttrf(n, *self._factors)
        self._ptts2 = lib.ptts2

    def solve(self, b: np.ndarray, overwrite_b: bool = False) -> np.ndarray:
        """Solve for an (n,) field or an (n, k) array of k right-hand sides;
        checks no finiteness, and a non-finite right-hand side comes back
        non-finite. b is left as it is unless overwrite_b, which writes the
        solution into b's own memory, in any layout, and returns b. Other
        than n rows, more than two axes, or with overwrite_b an array that
        is not a writable, aligned float64 one, is a ValueError."""
        x = b if overwrite_b else np.array(b, dtype=np.float64)
        n = self._d.size
        if (x.ndim not in (1, 2) or len(x) != n or x.dtype != np.float64
                or not x.flags.behaved):
            raise ValueError(f"solve: needs a writable, aligned float64 "
                             f"field or stack of {n} rows, got {x.shape} "
                             f"{x.dtype}")
        m = x if x.ndim == 2 else x[:, None]
        self._ptts2(n, m.shape[1], *self._factors, m.ctypes.data,
                    m.strides[0] // 8, m.strides[1] // 8)
        return x

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
