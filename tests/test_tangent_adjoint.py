import math

import numpy as np
import pytest

from conftest import bump_control
from mchcontrol.errors import NumericsError
from mchcontrol.grid import Domain1D, TimeGrid, norm_l2h
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


def test_continuous_variants(rng):
    dom, tg, p, w, ft = setup()
    source = rng.standard_normal((tg.n_steps + 1, dom.n_interior))
    la = solve_adjoint_continuous(ft, source, p)
    lb = solve_adjoint_continuous(ft, source, p, variant="as_printed")
    assert la.shape == lb.shape == (tg.n_steps + 1, dom.n_interior)
    assert np.any(la != lb)
    with pytest.raises(ValueError):
        solve_adjoint_continuous(ft, source, p, variant="nope")


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
