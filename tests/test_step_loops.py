"""The compiled forward, tangent and adjoint step loops against reference
copies of numpy loops, which index rows per step and solve into new arrays
with the same kernel: the twisted solve, which test_helmholtz holds byte for
byte to its scalar recurrences, its factors to LAPACK's dpttrf, and its
backward error to a derived bound. The optimizer's compiled pairings (the
L2(Q0) product, the tracking misfit and the L-BFGS two-loop) against
indexed loops that add the same terms in the same order.

Both compute the same expression trees, so every frame must agree byte for
byte, not to a tolerance: on fixed grids, and as properties over random
grids, windows, stops, array layouts and NaN or Inf inputs, where a NaN
matches a NaN of any sign and payload (same_bits).
"""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from mchcontrol import cmarch, forward, tangent_adjoint
from mchcontrol.control import TrackingProblem, misfit
from mchcontrol.errors import NumericsError, StabilityWarning
from mchcontrol.forward import (CFL_SAFETY, ControlWindow, ForwardTrajectory,
                                ModelParams, _first_nonfinite, apply_B,
                                inner_q0, solve_forward)
from mchcontrol.grid import Domain1D, TimeGrid
from mchcontrol.helmholtz import get_operator
from mchcontrol.tangent_adjoint import (_march_back, _transport_coefficients,
                                        finish_adjoint,
                                        solve_adjoint_continuous,
                                        solve_adjoint_discrete, solve_tangent)
from conftest import bump_control
from test_properties import PROPERTY, controls, lattices, windows

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


def step_coefficients(ftraj, k, frames):
    """(dt A/2h, 1 - dt B, dt C, dt E/2h) on the given frames: one step of
    tangent or adjoint."""
    dt = ftraj.tg.dt
    c = dt / (2.0 * ftraj.domain.h)
    coeffs = np.array(_transport_coefficients(ftraj, k, frames))
    coeffs *= np.array([c, -dt, dt, c])[:, None, None]
    coeffs[1] += 1.0
    return coeffs


def reference_tangent(ftraj, window, q, p):
    """(M, V) of the indexed tangent loop, in zero-padded rows, marched
    from the first step q acts on, as solve_tangent documents."""
    domain, tg = ftraj.domain, ftraj.tg
    dtq = tg.dt * q
    steps, nodes = window.block
    k0 = steps.start + int(np.argmax(dtq.any(axis=1)))
    vsolve = get_operator(domain).solve
    dsolve = get_operator(domain, tg.dt * p.epsilon).solve
    N = tg.n_steps
    Ad, Bm, Cd, Ed = step_coefficients(ftraj, p.k, slice(k0, N))
    Mp, Vp = np.zeros((2, N + 1, domain.n_interior + 2))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(k0, N + 1):
            mp, vp = Mp[k], Vp[k]
            m, v = mp[1:-1], vp[1:-1]
            v[:] = vsolve(m)
            if k == N:
                break
            c = k - k0
            rhs = (Bm[c] * m - Ad[c] * (mp[2:] - mp[:-2]) - Cd[c] * v
                   + Ed[c] * (vp[2:] - vp[:-2]))
            if k < steps.stop:
                rhs[nodes] += dtq[k - steps.start]
            Mp[k + 1, 1:-1] = dsolve(rhs)
    return Mp[:, 1:-1], Vp[:, 1:-1]


def reference_march_back(ftraj, source, p, lam, last, stop, top):
    """The indexed backward recursion into lam, on the dt-preloaded source,
    with _march_back's contract: frames stop..top-1 from frame top."""
    domain, tg = ftraj.domain, ftraj.tg
    ksolve = get_operator(domain).solve
    dsolve = get_operator(domain, tg.dt * p.epsilon).solve
    N = tg.n_steps
    pa, pe = np.zeros((2, domain.n_interior + 2))
    f = min(top, N - 1)
    Ad, Bm, Cd, Ed = step_coefficients(ftraj, p.k, slice(stop + 1, f + 1))
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


def same_bits(a, b):
    """same_bytes, except that a NaN matches a NaN of any sign and payload.
    numpy's own loops do not fix which operand's NaN an add or multiply of
    two NaNs returns: its vector body and its scalar tail differ (np.add of
    -NaN and +NaN over 17 items gives -NaN in the first 16 and +NaN in the
    last), and every NaN prints as nan in the artifacts."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


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
    # an F-ordered source still gives a C-ordered multiplier, which the
    # compiled march fills in place
    fadj = solve_adjoint_discrete(ft, np.asfortranarray(source), p, stop=k0)
    assert fadj.lam.flags.c_contiguous and same_bytes(fadj.lam, part)
    assert same_bytes(finish_adjoint(ft, fadj, source, p).lam, full)


@pytest.mark.parametrize("frames", [1, 2, 3, 4])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n,N", GRIDS)
def test_adjoint_chunk_edges_match_reference_loop(n, N, order, frames, rng):
    """Every adjoint march equals the reference loop byte for byte: the
    discrete, continuous, stopped, finished and tracking (z_d with minus y,
    stopped and finished) multipliers, for C- and F-ordered sources. The
    stops are the window's first step k0 and the steps next to it that
    were chunk edges when the numpy march built its coefficients frames at
    a time: a chunk edge on stop, one just above stop, and one just below
    it."""
    dom, tg, p, w, y0, omega = pieces(n, N, rng)
    ft = solve_forward(dom, tg, p, y0, w, omega)
    source = rng.standard_normal(ft.y.shape)
    src = np.asarray(source, order=order)
    k0 = w.block[0].start

    def reference(last, stop, top=N, lam=None):
        lam = np.zeros_like(source) if lam is None else lam
        return reference_march_back(ft, source, p, lam, last, stop, top)

    full = reference(0.5, 0)
    assert same_bytes(solve_adjoint_discrete(ft, src, p).lam, full)
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
        # and finished with the same source and minus
        want = reference_march_back(ft, z_d - ft.y, p,
                                    np.zeros_like(source), 0.5, 0, N)
        assert same_bytes(finish_adjoint(ft, got, z_d, p, minus=ft.y).lam,
                          want)


@pytest.mark.parametrize("n,N", GRIDS)
def test_tangent_matches_reference_loop(n, N, rng):
    """The tangent march equals the reference loop byte for byte: along a
    random direction, along the bump, which vanishes on the window's first
    step, and on the whole-lattice window."""
    dom, tg, p, w, y0, omega = pieces(n, N, rng)
    ft = solve_forward(dom, tg, p, y0, w, omega)
    whole = ControlWindow(dom, tg, 0.0, dom.L, 0.0, tg.T)
    for win, q in ((w, w.random_control(rng)), (w, bump_control(w)),
                   (whole, whole.random_control(rng))):
        tan = solve_tangent(ft, win, q, p)
        want = reference_tangent(ft, win, q, p)
        assert same_bytes(tan.m, want[0]) and same_bytes(tan.v, want[1])


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


def test_adjoint_march_works_in_linear_memory():
    """One solve_adjoint_discrete at n=128, N=250 peaks (tracemalloc, above
    its inputs) within the multiplier (L, the bytes of an (N+1, n) lattice),
    numpy's ufunc buffer for the strided base frame y that the tracking
    source z_d - y subtracts as it is written (at most 8 * getbufsize()
    bytes) and the four work rows of the compiled march (4n + 4 floats):
    no coefficient frames are built."""
    n, N = 128, 250
    dom, tg = Domain1D(2.0, n), TimeGrid(0.8, N)
    p = ModelParams(epsilon=0.08, k=0.6)
    ft = solve_forward(dom, tg, p, 0.35 * np.sin(math.pi * dom.x / 2.0))
    z_d = ft.y + 0.01 * np.random.default_rng(5).standard_normal(ft.y.shape)
    solve_adjoint_discrete(ft, z_d, p, minus=ft.y)  # factor the kernels
    L = 8 * (N + 1) * n
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        solve_adjoint_discrete(ft, z_d, p, minus=ft.y)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= L + 8 * np.getbufsize() + 8 * (4 * n + 4)


# ---------------------------------------------------------------------------
# properties over random grids, windows, stops, layouts and non-finite data

SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf])
SMALL = st.floats(-2.0, 2.0)


def poked(draw, a):
    """a, with one entry set to NaN or +-Inf when the draw says so."""
    if draw(st.booleans()):
        a[tuple(draw(st.integers(0, s - 1)) for s in a.shape)] = draw(SPECIAL)
    return a


def models():
    return st.builds(ModelParams, st.floats(0.01, 1.0), st.floats(-1.0, 1.0))


def reference_cfl(domain, tg, U, UX, rows):
    """The StabilityWarning texts of a march over frames 0..rows-1 from
    their whole u^2 - u_x^2 rows, as the numpy march checked them."""
    with np.errstate(all="ignore"):
        S = U[:rows] * U[:rows] - UX[:rows] * UX[:rows]
        bound = CFL_SAFETY * domain.h / np.abs(S).max(axis=1)
    late = np.flatnonzero(tg.dt > bound)
    return [f"dt={tg.dt:.3e} exceeds advisory CFL bound "
            f"{bound[late[0]]:.3e} at step {late[0]}"] if late.size else []


def laid_out(a, layout):
    """A copy of the (N+1, n) array a: C- or F-ordered, rows of a larger
    array (row stride past n, unit item stride), or every other item."""
    if layout == "C":
        return np.ascontiguousarray(a)
    if layout == "F":
        return np.asfortranarray(a)
    big = np.zeros((2 * a.shape[0], 2 * a.shape[1] + 2))
    view = big[::2, 1:a.shape[1] + 1] if layout == "rows" else big[:, ::2][
        :a.shape[0], :a.shape[1]]
    view[...] = a
    return view


LAYOUTS = st.sampled_from(["C", "F", "rows", "items"])


@PROPERTY
@given(st.data())
def test_forward_march_matches_reference_loop_property(data):
    """solve_forward against the reference loop, byte for byte up to NaN
    payloads (same_bits), on random grids from n = 3 and N = 1 and windows
    (from t0 = 0, to T, the whole lattice), fresh or resumed from a head,
    with NaN or Inf in y0 or the control; and with the reference's failing
    step and CFL warnings."""
    draw = data.draw
    w = draw(windows())
    dom, tg, p = w.domain, w.tg, draw(models())
    y0 = poked(draw, draw(hnp.arrays(np.float64, dom.n_interior,
                                     elements=SMALL)))
    q = poked(draw, draw(controls(w, SMALL)))
    k0 = draw(st.integers(0, w.block[0].start))
    head = None
    if k0:  # frames 0..k0 of a march from y0 under another control
        other = reference_forward(dom, tg, p, y0, apply_B(w, 0.5 * q))
        head = ForwardTrajectory(dom, tg, *(a[:k0 + 1].copy() for a in other))
    want = reference_forward(dom, tg, p, y0, apply_B(w, q), head)
    with mock.patch.object(forward, "_first_nonfinite", return_value=None), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        got = solve_forward(dom, tg, p, y0, w, q, head=head)
    for g, x in zip((got.y, got.u, got.ux), want):
        assert same_bits(g, x)
    bad = _first_nonfinite(want[0][1:])
    step = None if bad is None else bad + 1
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        try:
            solve_forward(dom, tg, p, y0, w, q, head=head)
            failed = None
        except NumericsError as exc:
            failed = exc.time_index
    assert failed == step
    assert [str(r.message) for r in rec if r.category is StabilityWarning] \
        == reference_cfl(dom, tg, *want[1:], tg.n_steps if step is None
                         else step)


@PROPERTY
@given(st.data())
def test_adjoint_march_matches_reference_loop_property(data):
    """_march_back against the reference recursion, byte for byte up to NaN
    payloads (same_bits), for every stop and top (top = N with the final
    weight 1/2 or 1, or a resume from a given frame top), base frames and
    the source in C, F, row- and item-strided layouts, with or without a
    minus, which the march subtracts from the source as the reference's
    numpy subtract does, NaN or Inf in the source, and frames stop..top-1
    that hold NaN on entry, which the march must not read; and with the
    reference's first non-finite frame."""
    draw = data.draw
    w = draw(windows())
    dom, tg, p = w.domain, w.tg, draw(models())
    N = tg.n_steps
    y0 = draw(hnp.arrays(np.float64, dom.n_interior, elements=SMALL))
    base = reference_forward(dom, tg, p, y0,
                             apply_B(w, draw(controls(w, SMALL))))
    layout = draw(LAYOUTS)
    ft = ForwardTrajectory(dom, tg, *(laid_out(a, layout) for a in base))
    source = poked(draw, draw(lattices(w, SMALL)))
    minus = draw(st.none() | lattices(w, SMALL))
    stop = draw(st.integers(0, N - 1))
    top = draw(st.integers(stop + 1, N))
    last = draw(st.sampled_from([0.5, 1.0]))
    lam0 = np.zeros_like(source)
    lam0[stop:top] = math.nan
    if top < N:  # the frame a resumed march starts from
        lam0[top] = draw(hnp.arrays(np.float64, dom.n_interior,
                                    elements=SMALL))
    net = source if minus is None else source - minus
    want = reference_march_back(ft, net, p, lam0.copy(), last, stop, top)
    lam = lam0
    src_layout = draw(LAYOUTS)
    try:
        _march_back(ft, p, lam, last, stop, top, laid_out(source, src_layout),
                    None if minus is None else laid_out(minus, src_layout))
        failed = None
    except NumericsError as exc:
        failed = exc.time_index
    assert same_bits(lam, want)
    bad = _first_nonfinite(want[stop:top], backward=True)
    assert failed == (None if bad is None else bad + stop)


@PROPERTY
@given(st.data())
def test_tangent_march_matches_reference_loop_property(data):
    """solve_tangent against the reference tangent loop, byte for byte up
    to NaN payloads (same_bits), on random grids and windows, base frames
    in C, F, row- and item-strided layouts, and directions with leading
    zero rows (the march starts at the first row that acts), a -0.0 row,
    which does not act, a NaN row and NaN or Inf entries; and with the
    reference's failing step."""
    draw = data.draw
    w = draw(windows())
    dom, tg, p = w.domain, w.tg, draw(models())
    y0 = draw(hnp.arrays(np.float64, dom.n_interior, elements=SMALL))
    base = reference_forward(dom, tg, p, y0,
                             apply_B(w, draw(controls(w, SMALL))))
    layout = draw(LAYOUTS)
    ft = ForwardTrajectory(dom, tg, *(laid_out(a, layout) for a in base))
    q = draw(controls(w, SMALL))
    rows = len(q)
    q[:draw(st.integers(0, rows))] = 0.0
    for value in (-0.0, math.nan):
        if draw(st.booleans()):
            q[draw(st.integers(0, rows - 1))] = value
    q = poked(draw, q)
    want = reference_tangent(ft, w, q, p)
    with mock.patch.object(tangent_adjoint, "_first_nonfinite",
                           return_value=None):
        got = solve_tangent(ft, w, q, p)
    assert same_bits(got.m, want[0]) and same_bits(got.v, want[1])
    bad = _first_nonfinite(want[0][1:])
    try:
        solve_tangent(ft, w, q, p)
        failed = None
    except NumericsError as exc:
        failed = exc.time_index
    assert failed == (None if bad is None else bad + 1)


# ---------------------------------------------------------------------------
# the optimizer's pairings: reference loops and properties


def reference_pair_row(p, q, z=None):
    """pair_row of cmarch.c as an indexed loop: the terms p[i]*q[i], or
    (p[i] - z[i])*(q[i] - z[i]), into four partial sums from 0.0, s_j taking
    i = j mod 4 in order of i, combined as (s0 + s1) + (s2 + s3)."""
    s = [np.float64(0.0)] * 4
    for i in range(len(p)):
        a, b = (p[i], q[i]) if z is None else (p[i] - z[i], q[i] - z[i])
        s[i % 4] = s[i % 4] + a * b
    return (s[0] + s[1]) + (s[2] + s[3])


def reference_pair_q0(scale, p, q):
    """scale times the row sums of p*q, added in row order from 0.0."""
    acc = np.float64(0.0)
    with np.errstate(all="ignore"):
        for k in range(len(p)):
            acc = acc + reference_pair_row(p[k], q[k])
        return scale * acc


def reference_track(dt, scale, y, z):
    """scale times sum_k w_k sum_i (y - z)^2, w_k the trapezoid weight dt
    (dt/2 on the first and last frame), added in frame order from 0.0."""
    acc = np.float64(0.0)
    with np.errstate(all="ignore"):
        for k in range(len(y)):
            w = 0.5 * dt if k in (0, len(y) - 1) else dt
            acc = acc + w * reference_pair_row(y[k], y[k], z[k])
        return scale * acc


def reference_two_loop(scale, memory, gamma, g):
    """(d, <g, d>) of the two-loop recursion as optimize wrote it in numpy,
    on the reference pairing: d = -g; newest pair first, a = rho <s, d>
    and d -= a y; d *= gamma; oldest first, d += (a - rho <y, d>) s."""
    def pair(p, q):
        return reference_pair_q0(scale, p, q)

    d = -g
    with np.errstate(all="ignore"):
        if memory:
            alphas = []
            for s, y, rho in reversed(memory):
                a = rho * pair(s, d)
                alphas.append(a)
                d = d - a * y
            d = d * gamma
            for (s, y, rho), a in zip(memory, reversed(alphas)):
                d = d + (a - rho * pair(y, d)) * s
    return d, pair(g, d)


def same_value(a, b):
    """same_bits on two floats: equal bytes, or both NaN."""
    return same_bits(np.float64(a), np.float64(b))


@st.composite
def blocks(draw, shape=None, count=2):
    """count float64 arrays of one shape (1..9 rows of 1..17 nodes unless
    given): entries in [-2, 2], each array with some entries set to -0.0,
    and in one draw of four one entry of one array set to NaN or +-Inf (a
    NaN or Inf spreads to the result, so most draws have none)."""
    if shape is None:
        shape = (draw(st.integers(1, 9)), draw(st.integers(1, 17)))
    out = []
    for _ in range(count):
        a = draw(hnp.arrays(np.float64, shape, elements=SMALL))
        a[draw(hnp.arrays(np.bool_, shape))] = -0.0
        out.append(a)
    if not draw(st.integers(0, 3)):
        poked(draw, out[draw(st.integers(0, count - 1))])
    return out


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (1, 3), (2, 4), (3, 5),
                                   (16, 9), (16, 10), (16, 11), (16, 12)])
def test_pairings_on_small_blocks(shape, rng):
    """pair, as inner_q0 and misfit call it, on blocks from 1 x 1, narrower
    than the four partial sums, and 16 rows long with every remainder of n
    mod 4, where another order of the partial sums rounds some row
    differently; and one row of -0.0 products, which the sums from 0.0 turn
    into +0.0."""
    p, q, z = (rng.standard_normal(shape) for _ in range(3))
    assert same_value(cmarch.pair(0.3, 1.0, 1.0, p, q),
                      reference_pair_q0(0.3, p, q))
    assert same_value(cmarch.pair(0.5, 0.5 * 0.1, 0.1, p, p, z),
                      reference_track(0.1, 0.5, p, z))
    neg = np.full(shape, -0.0)
    got = cmarch.pair(1.0, 1.0, 1.0, neg, np.ones(shape))
    assert got == 0.0 and not np.signbit(got)
    assert same_value(got, reference_pair_q0(1.0, neg, np.ones(shape)))


@PROPERTY
@given(st.data())
def test_pair_q0_matches_reference_loop_property(data):
    """The compiled pairing with unit row weights equals the L2(Q0)
    reference loop byte for byte (a NaN matches any NaN) on blocks from
    1 x 1, in C, F, row- and item-strided layouts, with -0.0, NaN and Inf
    entries; and inner_q0 on a random window is that pairing with scale
    dt*h."""
    draw = data.draw
    p, q = draw(blocks())
    scale = draw(st.sampled_from([1.0, 0.37, 1e-300, 1e300]))
    lp, lq = draw(LAYOUTS), draw(LAYOUTS)
    assert same_value(cmarch.pair(scale, 1.0, 1.0, laid_out(p, lp),
                                  laid_out(q, lq)),
                      reference_pair_q0(scale, p, q))
    w = draw(windows())
    p, q = draw(blocks(w.block_shape))
    assert same_value(inner_q0(w, laid_out(p, lp), laid_out(q, lq)),
                      reference_pair_q0(w.tg.dt * w.domain.h, p, q))


@PROPERTY
@given(st.data())
def test_track_matches_reference_loop_property(data):
    """The compiled pairing of y with itself shifted by z, with the
    trapezoid row weights dt/2 and dt, equals the tracking reference loop
    byte for byte (a NaN matches any NaN), read from rows in every layout
    with no difference lattice, with -0.0, NaN and Inf entries; and misfit
    on a random grid is that sum with dt and scale h/2."""
    draw = data.draw
    y, z = draw(blocks())
    dt = draw(st.sampled_from([1.0, 0.01, 1e-300]))
    ly, lz = draw(LAYOUTS), draw(LAYOUTS)
    yl = laid_out(y, ly)
    assert same_value(cmarch.pair(0.5, 0.5 * dt, dt, yl, yl, laid_out(z, lz)),
                      reference_track(dt, 0.5, y, z))
    w = draw(windows())
    dom, tg = w.domain, w.tg
    y, z = draw(blocks(w.shape))
    prob = TrackingProblem(dom, tg, ModelParams(0.1), w,
                           np.zeros(dom.n_interior), laid_out(z, lz), 1e-3)
    assert same_value(misfit(prob, laid_out(y, ly)),
                      reference_track(tg.dt, 0.5 * dom.h, y, z))


@PROPERTY
@given(st.data(), st.sampled_from([0, 1, 16]))
def test_two_loop_matches_reference_loop_property(data, m):
    """The compiled two-loop recursion equals optimize's numpy two-loop on
    the reference pairing byte for byte (a NaN matches any NaN), direction
    and slope, over m = 0, 1 and 16 pairs of blocks from 1 x 1 with -0.0,
    NaN and Inf entries."""
    draw = data.draw
    [g] = draw(blocks(count=1))
    pairs = [draw(blocks(g.shape)) for _ in range(m)]
    memory = [(s, y, draw(st.floats(0.1, 10.0)), s.ctypes.data,
               y.ctypes.data) for s, y in pairs]
    gamma = draw(st.floats(0.1, 10.0))
    scale = draw(st.sampled_from([1.0, 0.01]))
    d, slope = cmarch.two_loop(scale, memory, gamma, g)
    want, want_slope = reference_two_loop(
        scale, [e[:3] for e in memory], gamma, g)
    assert same_bits(d, want) and same_value(slope, want_slope)
