"""The forward and adjoint step loops against reference copies of the loops
they replaced, which indexed rows per step and solved into new arrays.

Both loops compute the same expression trees, so every frame must agree
byte for byte, not to a tolerance.
"""

import math

import numpy as np
import pytest

from mchcontrol.errors import NumericsError
from mchcontrol.forward import (ControlWindow, ForwardTrajectory, ModelParams,
                                _first_nonfinite, solve_forward)
from mchcontrol.grid import Domain1D, TimeGrid
from mchcontrol.helmholtz import get_operator
from mchcontrol.tangent_adjoint import (_march_back, _step_coefficients,
                                        finish_adjoint, solve_adjoint_discrete)

GRIDS = [(24, 60), (48, 240)]


def reference_forward(domain, tg, p, y0, omega, head=None):
    """(Y, U, UX) of the indexed step loop, resumed from head like
    solve_forward."""
    n, N, dt, h2 = domain.n_interior, tg.n_steps, tg.dt, 2.0 * domain.h
    vsolve = get_operator(domain).solve
    dsolve = get_operator(domain, dt * p.epsilon).solve
    Yp, Up = np.zeros((2, N + 1, n + 2))
    UX = np.empty((N + 1, n))
    S = np.empty_like(UX)
    k0 = 0 if head is None else len(head.y) - 1
    if k0 and not omega[:k0].any():
        Yp[:k0 + 1, 1:-1], Up[:k0 + 1, 1:-1] = head.y, head.u
        UX[:k0] = head.ux[:k0]
    else:
        k0 = 0
        Yp[0, 1:-1] = y0
        Up[0, 1:-1] = vsolve(y0)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(k0, N + 1):
            yp, up = Yp[k], Up[k]
            y, u = yp[1:-1], up[1:-1]
            ux = np.divide(up[2:] - up[:-2], h2, out=UX[k])
            if k == N:
                break
            s = np.subtract(u * u, ux * ux, out=S[k])
            rhs = (y + dt * omega[k] - (dt / h2) * s * (yp[2:] - yp[:-2])
                   - ((2.0 * dt) * y * y + dt * p.k) * ux)
            y = Yp[k + 1, 1:-1]
            y[:] = dsolve(rhs)
            Up[k + 1, 1:-1] = vsolve(y)
    return Yp[:, 1:-1], Up[:, 1:-1], UX


def reference_march_back(ftraj, source, p, last, stop=0, resume=None):
    """The indexed backward recursion, with _march_back's contract."""
    domain, tg = ftraj.domain, ftraj.tg
    ksolve = get_operator(domain).solve
    dsolve = get_operator(domain, tg.dt * p.epsilon).solve
    N = tg.n_steps
    lam = np.zeros_like(source)
    pa, pe = np.zeros((2, domain.n_interior + 2))
    top, psi = (N - 1, lam[N - 1]) if resume is None else resume
    Ad, Bm, Cd, Ed = _step_coefficients(ftraj, p.k, slice(stop + 1, top + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        if resume is None:
            psi[:] = dsolve(last * source[N])
        for k in range(top, stop, -1):
            c = k - stop - 1
            np.multiply(Ad[c], psi, out=pa[1:-1])
            np.multiply(Ed[c], psi, out=pe[1:-1])
            rhs = (Bm[c] * psi + (pa[2:] - pa[:-2])
                   - ksolve(Cd[c] * psi + (pe[2:] - pe[:-2])) + source[k])
            psi = lam[k - 1]
            psi[:] = dsolve(rhs)
    return lam


def same_bytes(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def pieces(n, N, rng):
    dom, tg = Domain1D(2.0, n), TimeGrid(0.5, N)
    p = ModelParams(epsilon=0.1, k=0.4)
    w = ControlWindow(dom, tg, 0.5, 1.5, 0.125, 0.375)
    y0 = (0.3 * np.sin(math.pi * dom.x / 2.0)
          + 0.1 * np.sin(math.pi * dom.x))
    return dom, tg, p, w, y0, w.random_control(rng)


@pytest.mark.parametrize("n,N", GRIDS)
def test_forward_matches_reference_loop(n, N, rng):
    dom, tg, p, w, y0, omega = pieces(n, N, rng)
    fresh = solve_forward(dom, tg, p, y0, omega)
    for got, want in zip((fresh.y, fresh.u, fresh.ux),
                         reference_forward(dom, tg, p, y0, omega)):
        assert same_bytes(got, want)
    # resumed from the head of frames 0..k0 that the window leaves alone
    k0 = w.block[0].start
    other = solve_forward(dom, tg, p, y0, 0.5 * omega)
    head = ForwardTrajectory(dom, tg, *(a[:k0 + 1].copy()
                                        for a in (other.y, other.u, other.ux)))
    resumed = solve_forward(dom, tg, p, y0, omega, head=head)
    ref = reference_forward(dom, tg, p, y0, omega, head=head)
    for got, want in zip((resumed.y, resumed.u, resumed.ux), ref):
        assert same_bytes(got, want)
    assert same_bytes(resumed.y, fresh.y)


@pytest.mark.parametrize("n,N", GRIDS)
def test_adjoint_matches_reference_loop(n, N, rng):
    dom, tg, p, w, y0, omega = pieces(n, N, rng)
    ft = solve_forward(dom, tg, p, y0, omega)
    source = rng.standard_normal(ft.y.shape)
    k0 = w.block[0].start
    full = reference_march_back(ft, source, p, 0.5)
    assert same_bytes(_march_back(ft, source, p, 0.5), full)
    part = reference_march_back(ft, source, p, 0.5, stop=k0)
    assert same_bytes(_march_back(ft, source, p, 0.5, stop=k0), part)
    # the continuous adjoint's form of the recursion
    assert same_bytes(_march_back(ft, tg.dt * source, p, 1.0),
                      reference_march_back(ft, tg.dt * source, p, 1.0))
    # through the public adjoint: scaled by dt below the terminal frame
    scaled = full.copy()
    scaled[:N] *= tg.dt
    assert same_bytes(solve_adjoint_discrete(ft, source, p).lam, scaled)
    adj = solve_adjoint_discrete(ft, source, p, stop=k0)
    assert same_bytes(adj.rest[1], part[k0])
    assert same_bytes(finish_adjoint(ft, adj, source, p).lam, scaled)
    resumed = _march_back(ft, source, p, 0.5, resume=(k0, part[k0].copy()))
    assert same_bytes(resumed, reference_march_back(
        ft, source, p, 0.5, resume=(k0, part[k0].copy())))
    # an F-ordered source gives F-ordered, strided frames, which
    # solve_in_place solves on a copy and copies back
    assert same_bytes(_march_back(ft, np.asfortranarray(source), p, 0.5), full)


@pytest.mark.parametrize("n,N", GRIDS)
def test_nan_control_row_fails_at_reference_step(n, N, rng):
    dom, tg, p, w, y0, omega = pieces(n, N, rng)
    j = w.block[0].start + 3
    omega[j, w.block[1]] = np.nan
    Y, _, _ = reference_forward(dom, tg, p, y0, omega)
    step = _first_nonfinite(Y[1:]) + 1
    assert step == j + 1
    with pytest.raises(NumericsError) as err:
        solve_forward(dom, tg, p, y0, omega)
    assert err.value.time_index == step
    assert f"at step {step}/{N}" in str(err.value)
