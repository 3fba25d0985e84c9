import math
import warnings

import numpy as np
import pytest

from conftest import bump_control
from mchcontrol.errors import DomainMismatchError, NumericsError
from mchcontrol.grid import Domain1D, TimeGrid, d1, d2, norm_ct_h, norm_l2h
from mchcontrol.helmholtz import ShiftedLaplacianSolver, get_operator
from mchcontrol.forward import (ModelParams, ControlWindow, apply_B,
                                solve_forward, norm_q0,
                                trajectory_from_arrays)
from mchcontrol import control, helmholtz
from mchcontrol.control import TrackingProblem, optimize
from mchcontrol.tangent_adjoint import (solve_tangent, solve_adjoint_discrete,
                                        solve_adjoint_continuous,
                                        finish_adjoint,
                                        adjoint_equation_residual,
                                        pairing_defect, AdjointState)


def setup(n=24, n_steps=60, epsilon=0.1, k=0.4, amp=0.5):
    dom = Domain1D(2.0, n)
    tg = TimeGrid(0.5, n_steps)
    p = ModelParams(epsilon=epsilon, k=k)
    w = ControlWindow(dom, tg, 0.5, 1.5, 0.125, 0.375)
    y0 = 0.3 * np.sin(math.pi * dom.x / 2.0) \
        + 0.1 * np.sin(math.pi * dom.x)
    ft = solve_forward(dom, tg, p, y0, w, bump_control(w, amp))
    return dom, tg, p, w, ft


def test_tangent_zero_direction():
    dom, tg, p, w, ft = setup()
    tan = solve_tangent(ft, w, w.zero_control(), p)
    assert np.all(tan.m == 0.0)
    assert np.all(tan.v == 0.0)


def test_tangent_starts_from_zero(rng):
    dom, tg, p, w, ft = setup()
    tan = solve_tangent(ft, w, w.random_control(rng), p)
    assert np.all(tan.m[0] == 0.0)


def test_tangent_linearity(rng):
    dom, tg, p, w, ft = setup()
    q1 = w.random_control(rng)
    q2 = w.random_control(rng)
    m1 = solve_tangent(ft, w, q1, p).m
    m2 = solve_tangent(ft, w, q2, p).m
    m12 = solve_tangent(ft, w, 2.0 * q1 - 0.5 * q2, p).m
    scale = np.max(np.abs(m12)) + 1e-300
    assert np.max(np.abs(m12 - (2.0 * m1 - 0.5 * m2))) < 1e-12 * scale


def test_tangent_matches_central_difference(rng):
    dom, tg, p, w, ft = setup()
    omega = bump_control(w, 0.5)
    q = w.random_control(rng)
    q = q / norm_q0(w, q)
    tan = solve_tangent(ft, w, q, p)
    h = 1e-5
    yp = solve_forward(dom, tg, p, ft.y[0], w, omega + h * q).y
    ym = solve_forward(dom, tg, p, ft.y[0], w, omega - h * q).y
    fd = (yp - ym) / (2.0 * h)
    rel = norm_l2h(dom, tg, fd - tan.m) / norm_l2h(dom, tg, tan.m)
    assert rel < 1e-5


def test_transpose_identity(rng):
    dom, tg, p, w, ft = setup()
    for _ in range(5):
        q = w.random_control(rng)
        s = rng.standard_normal((tg.n_steps + 1, dom.n_interior))
        assert pairing_defect(ft, w, q, s, p) <= 1e-10


def test_adjoint_exact_identities(rng):
    dom, tg, p, w, ft = setup()
    source = rng.standard_normal((tg.n_steps + 1, dom.n_interior))
    adj = solve_adjoint_discrete(ft, source, p)
    assert np.all(adj.lam[-1] == 0.0)
    assert np.array_equal(adj.mu, adj.lam[0])


def test_adjoint_state_invariants():
    """lambda(T) = 0 is checked on construction, and mu = lambda(0) holds
    by type: mu is a view of frame 0 that cannot be rebound."""
    lam = np.zeros((3, 4))
    adj = AdjointState(lam)
    lam[0] = 2.0
    assert np.shares_memory(adj.mu, lam) and np.all(adj.mu == 2.0)
    with pytest.raises(AttributeError):
        adj.mu = np.ones(4)
    bad = lam.copy()
    bad[-1, 0] = 1.0
    with pytest.raises(ValueError):
        AdjointState(bad)


@pytest.mark.parametrize("stop", [1, 15, 36, 59])
def test_stopped_adjoint_is_the_full_march(rng, stop):
    """Frames stop..N of a stopped march, and the whole finished state, are
    the full march's bit for bit; frames below stop are zero until then."""
    dom, tg, p, w, ft = setup()
    source = rng.standard_normal(ft.y.shape)
    full = solve_adjoint_discrete(ft, source, p)
    part = solve_adjoint_discrete(ft, source, p, stop)
    assert part.lam[stop:].tobytes() == full.lam[stop:].tobytes()
    assert not part.lam[:stop].any() and not part.mu.any()
    lam = part.lam
    done = finish_adjoint(ft, part, source, p)
    # finished in its own array: the same state, its stop now 0
    assert done is part and done.stop == 0
    assert np.shares_memory(done.lam, lam)
    assert done.lam.tobytes() == full.lam.tobytes()
    assert done.mu.tobytes() == full.mu.tobytes()
    assert finish_adjoint(ft, full, source, p) is full


@pytest.mark.parametrize("stop", [-1, 60, 61])
def test_adjoint_rejects_stop_out_of_range(rng, stop):
    """A stop outside 0..N-1 is a ValueError naming stop and N."""
    dom, tg, p, w, ft = setup()
    source = rng.standard_normal(ft.y.shape)
    with pytest.raises(ValueError, match=rf"stop={stop}\b.*N=60"):
        solve_adjoint_discrete(ft, source, p, stop)


def test_window_from_t0_zero_never_stops(rng, monkeypatch):
    """With t0 = 0 the window's first step is k0 = 0, so optimize's
    adjoint marches to frame 0 each iteration and needs no finishing: its
    multiplier is the full march at the returned omega byte for byte."""
    dom, tg, p, _, ft = setup()
    w = ControlWindow(dom, tg, 0.5, 1.5, 0.0, 0.375)
    assert w.block[0].start == 0
    z_d = ft.y + 0.01 * rng.standard_normal(ft.y.shape)
    prob = TrackingProblem(dom, tg, p, w, ft.y[0], z_d, 1e-3)
    stops = []

    def finish(ftraj, adj, source, p, minus=None):
        stops.append(adj.stop)
        return finish_adjoint(ftraj, adj, source, p, minus)

    monkeypatch.setattr(control, "finish_adjoint", finish)
    state = optimize(prob, w.zero_control())
    assert state.n_iters > 0 and stops == [0] and state.adjoint.stop == 0
    full = solve_adjoint_discrete(state.ftraj, z_d - state.ftraj.y, p)
    assert state.adjoint.lam.tobytes() == full.lam.tobytes()


def test_adjoint_rejects_non_finite_source(rng):
    dom, tg, p, w, ft = setup()
    source = rng.standard_normal(ft.y.shape)
    source[37, 5] = np.nan
    with pytest.raises(NumericsError) as exc:
        solve_adjoint_discrete(ft, source, p)
    assert exc.value.time_index == 36


# a NaN in source row r first reaches frame r - 1 (36 for row 37, as in the
# full march above); rows above stop fail in the stopped march, the others
# when it is finished
@pytest.mark.parametrize("row, stop", [(37, 20), (37, 36), (37, 37),
                                       (12, 15)])
def test_stopped_adjoint_rejects_non_finite_source(rng, row, stop):
    dom, tg, p, w, ft = setup()
    source = rng.standard_normal(ft.y.shape)
    source[row, 5] = np.nan
    with pytest.raises(NumericsError) as exc:
        adj = solve_adjoint_discrete(ft, source, p, stop)
        assert row <= stop
        finish_adjoint(ft, adj, source, p)
    assert exc.value.time_index == row - 1


@pytest.mark.parametrize("row", [37, 12])
def test_optimize_fails_at_the_first_non_finite_adjoint_frame(rng, row):
    """A NaN target row fails optimize at frame row - 1 whether it lies in
    the frames each iteration marches or only below the window's first step
    k0 = 15, where the error comes when the final state is finished."""
    dom, tg, p, w, ft = setup()
    z_d = ft.y + 0.01 * rng.standard_normal(ft.y.shape)
    z_d[row, 5] = np.nan
    prob = TrackingProblem(dom, tg, p, w, ft.y[0], z_d, 1e-3)
    assert w.block[0].start == 15
    with pytest.raises(NumericsError) as exc:
        optimize(prob, w.zero_control())
    assert exc.value.time_index == row - 1


@pytest.mark.parametrize("j", [0, 20, 59])
def test_nan_direction_row_fails_at_next_step(j):
    """On a window of every step, a NaN in Q0 at frame j fails the march
    at step j + 1. A direction is a window block, so nothing off Q0 (nodes
    0..5 lie left of a = 0.5) or on the final frame, which starts no step,
    can enter: the direction's lattice is refused."""
    dom, tg, p, _, ft = setup()
    w = ControlWindow(dom, tg, 0.5, 1.5, 0.0, tg.T)
    q = bump_control(w)
    with pytest.raises(DomainMismatchError, match="control"):
        solve_tangent(ft, w, apply_B(w, q), p)
    q[j, 12 - w.block[1].start] = np.nan
    with pytest.raises(NumericsError) as exc:
        solve_tangent(ft, w, q, p)
    assert exc.value.time_index == j + 1


@pytest.mark.parametrize("j", [15, 30, 44])
def test_nan_in_one_direction_of_a_stack(rng, j, monkeypatch):
    """The directions of a stack march one at a time through the cached
    kernels: a NaN row in one fails its own march at step j + 1, and the
    directions marched before and after it keep the bytes of a march on
    freshly factored kernels."""
    dom, tg, p, w, ft = setup()
    Q = np.stack([w.random_control(rng) for _ in range(3)])
    k0, i0 = w.block[0].start, w.block[1].start
    Q[1, j - k0, 12 - i0] = np.nan
    before = solve_tangent(ft, w, Q[0], p)
    with pytest.raises(NumericsError) as err:
        solve_tangent(ft, w, Q[1], p)
    assert err.value.time_index == j + 1
    after = solve_tangent(ft, w, Q[2], p)
    monkeypatch.setattr(helmholtz, "_cache", {})
    for q, tan in ((Q[0], before), (Q[2], after)):
        fresh = solve_tangent(ft, w, q, p)
        assert fresh.m.tobytes() == tan.m.tobytes()
        assert fresh.v.tobytes() == tan.v.tobytes()


def test_nan_final_source_fails_at_first_backward_frame(rng):
    dom, tg, p, w, ft = setup()
    source = rng.standard_normal(ft.y.shape)
    source[-1, 2] = np.nan
    with pytest.raises(NumericsError) as exc:
        solve_adjoint_discrete(ft, source, p)
    assert exc.value.time_index == tg.n_steps - 1
    # the continuous march counts steps of reversed time from tau = 0
    with pytest.raises(NumericsError) as exc:
        solve_adjoint_continuous(ft, source, p)
    assert exc.value.time_index == 1


def test_blowup_emits_no_runtime_warning(rng):
    """A finite base whose coefficients are ~1e120 overflows every linear
    march within a few steps; the overflow is a NumericsError only."""
    dom, tg, p, w, _ = setup()
    y = 1e60 * np.tile(np.sin(math.pi * dom.x / 2.0), (tg.n_steps + 1, 1))
    u = get_operator(dom).solve(y)
    base = trajectory_from_arrays(dom, tg, y, u)
    source = rng.standard_normal(y.shape)
    marches = (lambda: solve_tangent(base, w, bump_control(w), p),
               lambda: solve_adjoint_discrete(base, source, p),
               lambda: solve_adjoint_continuous(base, source, p))
    for march in marches:
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            with pytest.raises(NumericsError):
                march()
        assert rec == []


def test_continuous_approaches_discrete():
    """The two multipliers agree to first order in the step sizes."""
    gaps = []
    for n, n_steps in ((24, 60), (48, 120)):
        dom, tg, p, w, ft = setup(n=n, n_steps=n_steps)
        source = ft.y - 1.0 * np.tile(np.sin(math.pi * dom.x / 2.0),
                                      (tg.n_steps + 1, 1))
        ad = solve_adjoint_discrete(ft, source, p)
        lc = solve_adjoint_continuous(ft, source, p)
        gaps.append(norm_l2h(dom, tg, ad.lam - lc)
                    / norm_l2h(dom, tg, ad.lam))
    assert math.log2(gaps[0] / gaps[1]) >= 0.9


def test_adjoint_residual_refines(rng):
    """Continuous-form residual of the discrete adjoint shrinks at order 1."""
    res = []
    for n, n_steps in ((24, 60), (48, 120)):
        dom, tg, p, w, ft = setup(n=n, n_steps=n_steps)
        source = np.tile(np.sin(math.pi * dom.x / 2.0), (tg.n_steps + 1, 1))
        adj = solve_adjoint_discrete(ft, source, p)
        eq = adjoint_equation_residual(ft, adj.lam, source, p)
        assert set(eq) == {"max_h", "max_h_rel", "scale"}
        res.append(eq["max_h"])
    assert math.log2(res[0] / res[1]) >= 0.9


def manufactured_multiplier(dom, tg, eps, k):
    """Exact frames lambda* = sin(T - t) sin(beta x), beta = pi/L, which
    vanish at T, and the source s they solve on the zero base state, where
    the transposed tangent term is -k K D1 (A = B = C = 0, E = -k):
    s = -lambda*_t - eps lambda*_xx - k K lambda*_x, with K cos(beta x) =
    cos(beta x)/(1 + beta^2) + c1 e^x + c2 e^-x, zero at 0 and L."""
    beta, L, x = math.pi / dom.L, dom.L, dom.x
    g = 1.0 + beta * beta
    c1 = (1.0 + math.exp(-L)) / (g * (math.exp(L) - math.exp(-L)))
    kcos = np.cos(beta * x) / g + c1 * np.exp(x) - (1.0 / g + c1) * np.exp(-x)
    sin_t, cos_t = np.sin(tg.T - tg.t)[:, None], np.cos(tg.T - tg.t)[:, None]
    lam = sin_t * np.sin(beta * x)
    return lam, ((cos_t + eps * beta * beta * sin_t) * np.sin(beta * x)
                 - k * beta * sin_t * kcos)


def manufactured_multiplier_errors(n, N):
    """C(H) errors of the continuous and discrete backward marches under
    the manufactured source about y0 = 0 with no control (so y = u = u_x
    = 0), the C(H) norm of adjoint_equation_residual on lambda*, and
    dt + h^2."""
    dom, tg, p = Domain1D(2.0, n), TimeGrid(0.8, N), ModelParams(0.08, 0.6)
    ft = solve_forward(dom, tg, p, np.zeros(n))
    assert not (ft.y.any() or ft.u.any() or ft.ux.any())
    lam, s = manufactured_multiplier(dom, tg, p.epsilon, p.k)
    return (norm_ct_h(dom, tg, solve_adjoint_continuous(ft, s, p) - lam),
            norm_ct_h(dom, tg, solve_adjoint_discrete(ft, s, p).lam - lam),
            adjoint_equation_residual(ft, lam, s, p)["max_h"],
            tg.dt + dom.h ** 2)


def test_adjoint_manufactured_multiplier_first_order():
    """Both backward marches converge to lambda* at order 1 in dt + h^2,
    and the residual of the backward equation on lambda* shrinks alike."""
    levels = [manufactured_multiplier_errors(n, N)
              for n, N in ((24, 60), (48, 240), (96, 960))]
    for coarse, fine in zip(levels, levels[1:]):
        rate = math.log(coarse[-1] / fine[-1])
        for e1, e2 in zip(coarse[:-1], fine[:-1]):
            assert math.log(e1 / e2) / rate >= 0.9


# ---------------------------------------------------------------------------
# per-step oracles: the paper-form linearized transport and its transpose,
# one frame at a time, independent of the coefficient stacks


def frames(ft):
    ydx = d1(ft.domain, ft.y)
    return [(ft.y[n], ft.u[n], ft.ux[n], ydx[n]) for n in range(len(ft.y))]


def linearized_transport(dom, frame, m, v, vx, k):
    y, u, ux, ydx = frame
    return ((2.0 * u * v - 2.0 * ux * vx) * ydx
            + (u * u - ux * ux) * d1(dom, m)
            + 2.0 * vx * y * y + 4.0 * ux * y * m + k * vx)


def transposed_transport(dom, frame, prev, k):
    y, u, ux, ydx = frame
    outer = -d1(dom, (u * u - ux * ux) * prev) + 4.0 * ux * y * prev
    inner = (2.0 * u * ydx * prev
             + d1(dom, 2.0 * ux * ydx * prev)
             - d1(dom, 2.0 * y * y * prev)
             - k * d1(dom, prev))
    return outer + get_operator(dom).solve(inner)


def reference_tangent(ft, w, q, p):
    dom, tg = ft.domain, ft.tg
    op = get_operator(dom)
    dsolve = ShiftedLaplacianSolver(dom, tg.dt * p.epsilon).solve
    bq = apply_B(w, q)
    base = frames(ft)
    M = np.zeros_like(ft.y)
    V = np.zeros_like(ft.y)
    for n in range(tg.n_steps):
        V[n] = op.solve(M[n])
        dexpl = -linearized_transport(dom, base[n], M[n], V[n],
                                      d1(dom, V[n]), p.k)
        M[n + 1] = dsolve(M[n] + tg.dt * (dexpl + bq[n]))
    V[-1] = op.solve(M[-1])
    return M, V


def reference_adjoint(ft, source, p):
    dom, tg = ft.domain, ft.tg
    dsolve = ShiftedLaplacianSolver(dom, tg.dt * p.epsilon).solve
    base = frames(ft)
    N, h, w = tg.n_steps, dom.h, tg.weights
    lam = np.zeros_like(ft.y)
    phi = np.zeros(dom.n_interior)
    for n in range(N, 0, -1):
        rhs = w[n] * h * source[n]
        if n < N:
            rhs = rhs + phi - tg.dt * transposed_transport(dom, base[n], phi,
                                                           p.k)
        phi = dsolve(rhs)
        lam[n - 1] = phi / h
    return lam


def reference_continuous(ft, source, p):
    dom, tg = ft.domain, ft.tg
    dsolve = ShiftedLaplacianSolver(dom, tg.dt * p.epsilon).solve
    base = frames(ft)
    N = tg.n_steps
    lam = np.zeros_like(ft.y)
    rho = np.zeros(dom.n_interior)
    for j in range(N):
        tr = transposed_transport(dom, base[N - j], rho, p.k)
        rho = dsolve(rho + tg.dt * (source[N - j] - tr))
        lam[N - (j + 1)] = rho
    return lam


def assert_close(got, want, rel):
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


def test_tangent_matches_step_oracle(rng):
    dom, tg, p, w, ft = setup()
    q = w.random_control(rng)
    tan = solve_tangent(ft, w, q, p)
    M, V = reference_tangent(ft, w, q, p)
    assert_close(tan.m, M, 1e-12)
    assert_close(tan.v, V, 1e-12)
    # the march starts at the window's first step; the frames before it
    # and the one it starts from are exact zeros
    k0 = w.block[0].start
    assert k0 > 0
    assert np.all(tan.m[:k0 + 1] == 0.0) and np.all(tan.v[:k0 + 1] == 0.0)


def test_adjoint_matches_step_oracle(rng):
    dom, tg, p, w, ft = setup()
    source = rng.standard_normal(ft.y.shape)
    adj = solve_adjoint_discrete(ft, source, p)
    assert_close(adj.lam, reference_adjoint(ft, source, p), 1e-12)


def test_continuous_matches_step_oracle(rng):
    dom, tg, p, w, ft = setup()
    source = rng.standard_normal(ft.y.shape)
    lam = solve_adjoint_continuous(ft, source, p)
    assert_close(lam, reference_continuous(ft, source, p), 1e-12)


def test_adjoint_residual_matches_frame_oracle(rng):
    dom, tg, p, w, ft = setup()
    source = rng.standard_normal(ft.y.shape)
    lam = solve_adjoint_discrete(ft, source, p).lam
    base = frames(ft)
    worst = 0.0
    for n in range(1, tg.n_steps - 1):
        ldot = (lam[n + 1] - lam[n - 1]) / (2.0 * tg.dt)
        r = (ldot + p.epsilon * d2(dom, lam[n]) + source[n]
             - transposed_transport(dom, base[n], lam[n], p.k))
        worst = max(worst, math.sqrt(dom.h * float(r @ r)))
    scale = max(math.sqrt(dom.h * float(f @ f)) for f in lam)
    eq = adjoint_equation_residual(ft, lam, source, p)
    assert eq["max_h"] == pytest.approx(worst, rel=1e-12)
    assert eq["scale"] == pytest.approx(scale, rel=1e-12)
    assert eq["max_h_rel"] == pytest.approx(worst / scale, rel=1e-12)
