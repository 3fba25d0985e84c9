import math

import numpy as np
import pytest

from conftest import bump_control
from mchcontrol.errors import NumericsError
from mchcontrol.grid import Domain1D, TimeGrid, d1, d2, norm_h, norm_l2h
from mchcontrol.helmholtz import ShiftedLaplacianSolver, get_operator
from mchcontrol.forward import (ModelParams, ControlWindow, apply_B,
                                solve_forward, norm_q0)
from mchcontrol.tangent_adjoint import (solve_tangent, solve_adjoint_discrete,
                                        solve_adjoint_continuous,
                                        adjoint_equation_residual,
                                        pairing_defect, AdjointState)


def setup(n=24, n_steps=60, epsilon=0.1, k=0.4, amp=0.5):
    dom = Domain1D(2.0, n)
    tg = TimeGrid(0.5, n_steps)
    p = ModelParams(epsilon=epsilon, k=k)
    w = ControlWindow(dom, tg, 0.5, 1.5, 0.125, 0.375)
    y0 = 0.3 * np.sin(math.pi * dom.x / 2.0) \
        + 0.1 * np.sin(math.pi * dom.x)
    ft = solve_forward(dom, tg, p, y0, apply_B(w, bump_control(w, amp)))
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
    yp = solve_forward(dom, tg, p, ft.y[0], apply_B(w, omega + h * q)).y
    ym = solve_forward(dom, tg, p, ft.y[0], apply_B(w, omega - h * q)).y
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
    lam = np.zeros((3, 4))
    AdjointState(lam, lam[0])
    bad = lam.copy()
    bad[-1, 0] = 1.0
    with pytest.raises(ValueError):
        AdjointState(bad, bad[0])
    with pytest.raises(ValueError):
        AdjointState(lam, np.ones(4))


def test_adjoint_rejects_non_finite_source(rng):
    dom, tg, p, w, ft = setup()
    source = rng.standard_normal(ft.y.shape)
    source[37, 5] = np.nan
    with pytest.raises(NumericsError) as exc:
        solve_adjoint_discrete(ft, source, p)
    assert exc.value.time_index == 36


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
        worst = max(worst, norm_h(dom, r))
    scale = max(norm_h(dom, f) for f in lam)
    eq = adjoint_equation_residual(ft, lam, source, p)
    assert eq["max_h"] == pytest.approx(worst, rel=1e-12)
    assert eq["scale"] == pytest.approx(scale, rel=1e-12)
    assert eq["max_h_rel"] == pytest.approx(worst / scale, rel=1e-12)
