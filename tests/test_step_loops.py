"""The forward and adjoint step loops against reference copies of the loops
they replaced, which indexed rows per step and solved into new arrays.

Both loops compute the same expression trees, so every frame must agree
byte for byte, not to a tolerance.
"""

import math
import tracemalloc

import numpy as np
import pytest

from mchcontrol import tangent_adjoint
from mchcontrol.errors import NumericsError
from mchcontrol.forward import (ControlWindow, ForwardTrajectory, ModelParams,
                                _first_nonfinite, apply_B, solve_forward)
from mchcontrol.grid import Domain1D, TimeGrid
from mchcontrol.helmholtz import get_operator
from mchcontrol.tangent_adjoint import (_step_coefficients, finish_adjoint,
                                        solve_adjoint_continuous,
                                        solve_adjoint_discrete)

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


def reference_march_back(ftraj, source, p, lam, last, stop, top):
    """The indexed backward recursion into lam, on the dt-preloaded source,
    with _march_back's contract: frames stop..top-1 from frame top."""
    domain, tg = ftraj.domain, ftraj.tg
    ksolve = get_operator(domain).solve
    dsolve = get_operator(domain, tg.dt * p.epsilon).solve
    N = tg.n_steps
    pa, pe = np.zeros((2, domain.n_interior + 2))
    f = min(top, N - 1)
    Ad, Bm, Cd, Ed = _step_coefficients(ftraj, p.k, slice(stop + 1, f + 1))
    src = tg.dt * source
    with np.errstate(over="ignore", invalid="ignore"):
        if top == N:
            lam[N - 1] = dsolve(last * src[N])
        for k in range(f, stop, -1):
            c = k - stop - 1
            psi = lam[k]
            np.multiply(Ad[c], psi, out=pa[1:-1])
            np.multiply(Ed[c], psi, out=pe[1:-1])
            rhs = (Bm[c] * psi + (pa[2:] - pa[:-2])
                   - ksolve(Cd[c] * psi + (pe[2:] - pe[:-2])) + src[k])
            lam[k - 1] = dsolve(rhs)
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
    """The march under a window control equals the reference loop under
    its forcing lattice B omega: fresh, resumed from a head, and on a
    whole-lattice window [0, L] x [0, T], whose block holds every step and
    node the march reads."""
    dom, tg, p, w, y0, omega = pieces(n, N, rng)
    bq = apply_B(w, omega)
    fresh = solve_forward(dom, tg, p, y0, w, omega)
    for got, want in zip((fresh.y, fresh.u, fresh.ux),
                         reference_forward(dom, tg, p, y0, bq)):
        assert same_bytes(got, want)
    # resumed from the head of frames 0..k0 that the window leaves alone
    k0 = w.block[0].start
    other = solve_forward(dom, tg, p, y0, w, 0.5 * omega)
    head = ForwardTrajectory(dom, tg, *(a[:k0 + 1].copy()
                                        for a in (other.y, other.u, other.ux)))
    resumed = solve_forward(dom, tg, p, y0, w, omega, head=head)
    ref = reference_forward(dom, tg, p, y0, bq, head=head)
    for got, want in zip((resumed.y, resumed.u, resumed.ux), ref):
        assert same_bytes(got, want)
    assert same_bytes(resumed.y, fresh.y)
    whole = ControlWindow(dom, tg, 0.0, dom.L, 0.0, tg.T)
    assert whole.block_shape == (N, n)
    q = whole.random_control(rng)
    ft = solve_forward(dom, tg, p, y0, whole, q)
    for got, want in zip((ft.y, ft.u, ft.ux),
                         reference_forward(dom, tg, p, y0, apply_B(whole, q))):
        assert same_bytes(got, want)


@pytest.mark.parametrize("n,N", GRIDS)
def test_adjoint_matches_reference_loop(n, N, rng):
    dom, tg, p, w, y0, omega = pieces(n, N, rng)
    ft = solve_forward(dom, tg, p, y0, w, omega)
    source = rng.standard_normal(ft.y.shape)
    k0 = w.block[0].start

    def reference(last, stop, top=N, lam=None):
        lam = np.zeros_like(source) if lam is None else lam
        return reference_march_back(ft, source, p, lam, last, stop, top)

    full = reference(0.5, 0)
    assert same_bytes(solve_adjoint_discrete(ft, source, p).lam, full)
    # the continuous adjoint is the same recursion at final weight 1
    assert same_bytes(solve_adjoint_continuous(ft, source, p),
                      reference(1.0, 0))
    # stopped at k0, then resumed from its own frame k0
    part = reference(0.5, k0)
    adj = solve_adjoint_discrete(ft, source, p, stop=k0)
    assert same_bytes(adj.lam, part)
    assert same_bytes(part[k0:], full[k0:]) and not part[:k0].any()
    assert same_bytes(reference(0.5, 0, k0, part.copy()), full)
    assert same_bytes(finish_adjoint(ft, adj, source, p).lam, full)
    # an F-ordered source gives F-ordered, strided frames, which
    # solve(b, True) solves on a copy and copies back
    fadj = solve_adjoint_discrete(ft, np.asfortranarray(source), p, stop=k0)
    assert fadj.lam.flags.f_contiguous and same_bytes(fadj.lam, part)
    assert same_bytes(finish_adjoint(ft, fadj, source, p).lam, full)


@pytest.mark.parametrize("frames", [1, 2, 3, 4])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n,N", GRIDS)
def test_adjoint_chunk_edges_match_reference_loop(n, N, order, frames, rng,
                                                  monkeypatch):
    """With the coefficient budget cut to a few frames per chunk, every
    adjoint march equals the reference loop byte for byte: the discrete,
    continuous, stopped, finished and tracking (z_d with minus y)
    multipliers, for C- and F-ordered sources. The stops are the window's
    first step k0 and the steps next to it at which the stopped march's
    last chunk is full (a chunk edge on stop), holds one frame (an edge
    just above stop), or is one frame short (the edge just below stop,
    clipped)."""
    dom, tg, p, w, y0, omega = pieces(n, N, rng)
    monkeypatch.setattr(tangent_adjoint, "COEFF_CHUNK_BYTES", 40 * n * frames)
    chunks = []

    def counted(ftraj, k, sl):
        chunks.append(sl.stop - sl.start)
        return _step_coefficients(ftraj, k, sl)
    monkeypatch.setattr(tangent_adjoint, "_step_coefficients", counted)
    ft = solve_forward(dom, tg, p, y0, w, omega)
    source = rng.standard_normal(ft.y.shape)
    src = np.asarray(source, order=order)
    k0 = w.block[0].start

    def reference(last, stop, top=N, lam=None):
        lam = np.zeros_like(source) if lam is None else lam
        return reference_march_back(ft, source, p, lam, last, stop, top)

    full = reference(0.5, 0)
    assert same_bytes(solve_adjoint_discrete(ft, src, p).lam, full)
    assert max(chunks) == frames and len(chunks) == -(-(N - 1) // frames)
    assert same_bytes(solve_adjoint_continuous(ft, src, p), reference(1.0, 0))
    # frames N-1 down to stop+1 take the coefficients, N-1-stop of them
    stops = {k0} | {k0 + (N - 1 - k0 - r) % frames for r in (0, 1, -1)}
    assert {(N - 1 - stop) % frames for stop in stops} >= {0, 1 % frames,
                                                             frames - 1}
    for stop in sorted(stops):
        part = reference(0.5, stop)
        adj = solve_adjoint_discrete(ft, src, p, stop)
        assert same_bytes(adj.lam, part)
        assert same_bytes(reference(0.5, 0, stop, part.copy()), full)
        assert same_bytes(finish_adjoint(ft, adj, src, p).lam, full)
        # the tracking source z_d - y, written into the multiplier itself
        z_d = np.asarray(ft.y + source, order=order)
        want = reference_march_back(ft, z_d - ft.y, p,
                                    np.zeros_like(source), 0.5, stop, N)
        got = solve_adjoint_discrete(ft, z_d, p, stop, minus=ft.y)
        assert same_bytes(got.lam, want)


@pytest.mark.parametrize("n,N", GRIDS)
def test_nan_control_row_fails_at_reference_step(n, N, rng):
    dom, tg, p, w, y0, omega = pieces(n, N, rng)
    j = w.block[0].start + 3
    omega[3] = np.nan  # block row 3 is step j
    Y, _, _ = reference_forward(dom, tg, p, y0, apply_B(w, omega))
    step = _first_nonfinite(Y[1:]) + 1
    assert step == j + 1
    with pytest.raises(NumericsError) as err:
        solve_forward(dom, tg, p, y0, w, omega)
    assert err.value.time_index == step
    assert f"at step {step}/{N}" in str(err.value)


def test_adjoint_march_holds_one_coefficient_chunk():
    """One solve_adjoint_discrete at n=128, N=250, where the chunk budget C
    is about one lattice, peaks (tracemalloc, above its inputs) within the
    multiplier (L, the bytes of an (N+1, n) lattice), one chunk (four
    coefficient rows and one difference row per frame, at most C), numpy's
    ufunc buffers for the two strided operands it reads while building a
    chunk (the base y and u are views into zero-padded march arrays: at
    most 8 * getbufsize() bytes each) and the four work rows of a step.
    With the chunk before still live while the next is built, as when the
    loop's row views kept it, the march peaked at 3.27 L; this bound is
    2.53 L."""
    n, N = 128, 250
    dom, tg = Domain1D(2.0, n), TimeGrid(0.8, N)
    p = ModelParams(epsilon=0.08, k=0.6)
    ft = solve_forward(dom, tg, p, 0.35 * np.sin(math.pi * dom.x / 2.0))
    z_d = ft.y + 0.01 * np.random.default_rng(5).standard_normal(ft.y.shape)
    solve_adjoint_discrete(ft, z_d, p, minus=ft.y)  # factor the kernels
    L = 8 * (N + 1) * n
    C = tangent_adjoint.COEFF_CHUNK_BYTES
    assert C // (40 * n) < N - 1  # the march builds more than one chunk
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        solve_adjoint_discrete(ft, z_d, p, minus=ft.y)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= L + C + 2 * 8 * np.getbufsize() + 4 * 8 * (n + 2)
