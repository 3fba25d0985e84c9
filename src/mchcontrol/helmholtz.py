"""The tridiagonal SPD kernel I - c*D2 on the interior nodes of a Dirichlet
grid, c >= 0.

Both implicit operators of the scheme are this family: the Helmholtz map
1 - dxx that recovers the velocity from the momentum is c = 1, and the
implicit-diffusion step is c = dt*eps. Each is factored once as LDL^T
(pttrf) and cached per grid and shift; every solve is one ptts2 call on a
C-ordered copy of a field or of an (..., n) stack of frames, each frame a
right-hand side. pttrf and ptts2 are compiled C (cmarch.c): pttrf is
reference LAPACK's dpttrf operation for operation plus the twist pivot,
and the solve is twisted, eliminating from both ends at once with the same
factors, so each sweep is two independent chains of half the length. The
compiled step loops solve with the same code on a kernel's factors _d and
_e. tests/test_helmholtz.py holds the factors to dpttrf byte for byte, the
solve to its recurrences byte for byte and to a backward-error bound.
"""

from __future__ import annotations

import numpy as np

from . import cmarch
from .errors import DomainMismatchError


class ShiftedLaplacianSolver:
    """Prefactored LDL^T of (I - c * D2), c >= 0, on a domain's interior
    nodes (any object with n_interior and h): D in _d, the subdiagonal of L
    and the twist pivot in _e, n entries each."""

    def __init__(self, domain, c: float):
        if c < 0:
            raise ValueError("shift c must be nonnegative")
        n = domain.n_interior
        r = c / domain.h ** 2
        self._d, self._e = np.full(n, 1.0 + 2.0 * r), np.full(n, -r)
        self._factors = self._d.ctypes.data, self._e.ctypes.data
        lib = cmarch.library()
        lib.pttrf(n, *self._factors)
        self._ptts2 = lib.ptts2

    def solve(self, y) -> np.ndarray:
        """Solve for a field or each frame of a stack (..., n) in one kernel
        call, into a new C-ordered array; y is left as it is. Checks no
        finiteness: a non-finite frame comes back non-finite. Another last
        axis is a DomainMismatchError."""
        x = np.array(y, dtype=np.float64, order="C")
        n = self._d.size
        if x.shape[-1:] != (n,):
            raise DomainMismatchError(
                f"field has shape {x.shape}, expected (..., {n})")
        self._ptts2(n, x.size // n, *self._factors, x.ctypes.data)
        return x


_cache: dict = {}


def get_operator(domain, c: float = 1.0) -> ShiftedLaplacianSolver:
    """The shared kernel of I - c*D2 on a domain, factored once per grid
    and shift; the factorization is immutable."""
    key = (domain.L, domain.n_interior, c)
    if key not in _cache:
        _cache[key] = ShiftedLaplacianSolver(domain, c)
    return _cache[key]
