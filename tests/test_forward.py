import contextlib
import io
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import bump_control
from mchcontrol import cli, cmarch
from mchcontrol.errors import (DomainMismatchError, NumericsError,
                              StabilityWarning)
from mchcontrol.grid import Domain1D, TimeGrid, d1, d2, inner_h, norm_ct_h
from mchcontrol.helmholtz import ShiftedLaplacianSolver, get_operator
from mchcontrol.forward import (ModelParams, ControlWindow, apply_B,
                                inner_q0, norm_q0, solve_forward,
                                weak_residual, dirichlet_modes,
                                transport_terms, trajectory_from_arrays,
                                export_trajectory_csv, import_trajectory_csv)


def dense_ops(domain):
    """Dense difference matrices built independently of the grid module."""
    n, h = domain.n_interior, domain.h
    D1 = np.zeros((n, n))
    D2 = np.zeros((n, n))
    for i in range(n):
        if i > 0:
            D1[i, i - 1] = -1.0 / (2 * h)
            D2[i, i - 1] = 1.0 / h ** 2
        if i < n - 1:
            D1[i, i + 1] = 1.0 / (2 * h)
            D2[i, i + 1] = 1.0 / h ** 2
        D2[i, i] = -2.0 / h ** 2
    return D1, D2


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(epsilon=0.0)
    assert ModelParams(epsilon=1.0).k == 0.0


def test_window_invariants():
    dom = Domain1D(2.0, 16)
    tg = TimeGrid(1.0, 10)
    with pytest.raises(ValueError):
        ControlWindow(dom, tg, 1.5, 0.5, 0.2, 0.8)
    with pytest.raises(ValueError):
        ControlWindow(dom, tg, 0.5, 1.5, 0.9, 0.2)
    w = ControlWindow(dom, tg, 0.5, 1.5, 0.2, 0.8)
    mask = apply_B(w, np.ones(w.block_shape))
    assert mask.shape == w.shape == (11, 16)
    assert set(np.unique(mask)) <= {0.0, 1.0}
    assert w.zero_control().shape == w.block_shape


def test_window_between_two_nodes_is_refused():
    """A box that holds no lattice point is refused by name: at n = 24,
    L = 2 the nodes next to [0.81, 0.82] are 0.80 and 0.88, and at N = 60,
    T = 0.5 the steps next to [0.101, 0.104] start at 0.1 and 0.10833."""
    dom, tg = Domain1D(2.0, 24), TimeGrid(0.5, 60)
    with pytest.raises(ValueError,
                       match=r"^ControlWindow: no interior node inside "
                             r"\[a, b\]$"):
        ControlWindow(dom, tg, 0.81, 0.82, 0.1, 0.4)
    with pytest.raises(ValueError,
                       match=r"^ControlWindow: no time step starts inside "
                             r"\[t0, t1\]$"):
        ControlWindow(dom, tg, 0.5, 1.5, 0.101, 0.104)


def test_extension_restriction_adjoint(rng):
    dom = Domain1D(2.0, 16)
    tg = TimeGrid(1.0, 10)
    w = ControlWindow(dom, tg, 0.5, 1.5, 0.2, 0.8)
    q = rng.standard_normal((11, 16))[w.block]
    s = rng.standard_normal((11, 16))
    # B* is the restriction to the block; B copies the block and writes
    # +0.0 elsewhere, so the pairing identity is exact in fp (fsum rounds
    # the exact sum of the same products once)
    lhs = math.fsum((apply_B(w, q) * s).ravel())
    rhs = math.fsum((q * s[w.block]).ravel())
    assert lhs == rhs
    assert inner_q0(w, q, s[w.block]) == pytest.approx(
        tg.dt * dom.h * rhs, rel=1e-15)


@pytest.mark.parametrize("t1", [0.8, 1.0])
def test_window_extension_writes_exact_positive_zero(rng, t1):
    """B copies the window block and writes an exact +0.0 everywhere else:
    inside it every value keeps its bytes, -0.0, +0.0, +-inf and NaN
    included; off it, and on the final frame, which starts no step and so
    lies outside Q0 even for a window that ends at T, a negative value,
    -0.0, +-inf or NaN all read +0.0. The window keeps no array."""
    dom = Domain1D(2.0, 16)
    tg = TimeGrid(1.0, 10)
    w = ControlWindow(dom, tg, 0.5, 1.5, 0.2, t1)
    negative = -1.0 - rng.random((11, 16))
    # inside the window: -0.0, +0.0, +inf, -inf and NaN
    negative[4, 8], negative[5, 9] = -0.0, 0.0
    negative[5, 7], negative[6, 8], negative[4, 7] = np.inf, -np.inf, np.nan
    # outside it: the same five, and on the final frame
    negative[3, 1], negative[1, 5] = -0.0, 0.0
    negative[1, 2], negative[2, 3], negative[0, 0] = np.inf, -np.inf, np.nan
    negative[10, 8], negative[10, 7], negative[10, 9] = -0.0, -np.inf, np.nan
    inside = apply_B(w, np.ones(w.block_shape)) == 1.0
    assert inside[4:7, 7:10].all() and not inside[10].any()
    assert not inside[:2].any() and not inside[:, :4].any()
    assert inside[w.block].all() and inside.sum() == inside[w.block].size
    bq = apply_B(w, negative[w.block])
    for q in (apply_B(w, w.random_control(rng)), bq):
        assert q[~inside].tobytes() == np.zeros(np.count_nonzero(~inside)
                                                ).tobytes()
    assert bq[inside].tobytes() == negative[inside].tobytes()
    want = np.zeros((11, 16))
    want[w.block] = negative[w.block]
    assert bq.tobytes() == want.tobytes()
    assert not any(isinstance(a, np.ndarray) for v in vars(w).values()
                   for a in (v if isinstance(v, tuple) else (v,)))


@pytest.mark.parametrize("box", [(0.5, 1.5, 0.2, 0.8), (0.0, 2.0, 0.0, 1.0),
                                 (0.3, 0.45, 0.55, 1.0)])
def test_q0_pairing_on_window_block(rng, box):
    """The block sum of the lattices' blocks equals the masked formula;
    values outside Q0 and on the final frame do not enter."""
    dom = Domain1D(2.0, 16)
    tg = TimeGrid(1.0, 10)
    w = ControlWindow(dom, tg, *box)
    p = rng.standard_normal((11, 16))
    q = rng.standard_normal((11, 16))
    m = apply_B(w, np.ones(w.block_shape))[:-1]
    want = tg.dt * dom.h * float(np.sum((p[:-1] * m) * (q[:-1] * m)))
    assert inner_q0(w, p[w.block], q[w.block]) == pytest.approx(want,
                                                                rel=1e-13)
    # contiguous copies of the blocks pair as the block views, bit for bit
    pb, qb = (np.ascontiguousarray(a[w.block]) for a in (p, q))
    assert inner_q0(w, pb, qb) == inner_q0(w, p[w.block], q[w.block])
    assert norm_q0(w, q[w.block]) == pytest.approx(
        math.sqrt(tg.dt * dom.h * float(np.sum((q[:-1] * m) ** 2))),
        rel=1e-13)


def test_control_helpers_take_one_control(rng):
    """apply_B, inner_q0 and norm_q0 take one control, view or contiguous,
    give it the same value bit for bit and give Python floats; a stack of
    controls is refused as a misshapen control."""
    dom = Domain1D(2.0, 16)
    tg = TimeGrid(1.0, 10)
    w = ControlWindow(dom, tg, 0.3, 1.45, 0.2, 0.8)
    P, Q = rng.standard_normal((2,) + w.shape)[(..., *w.block)]
    one = inner_q0(w, P, Q)
    assert type(one) is float and type(norm_q0(w, Q)) is float
    assert one == inner_q0(w, P.copy(), Q.copy())
    assert norm_q0(w, Q) == norm_q0(w, Q.copy())
    assert apply_B(w, Q).tobytes() == apply_B(w, Q.copy()).tobytes()
    stack = np.stack([P, Q])
    for fn in (lambda: apply_B(w, stack), lambda: norm_q0(w, stack),
               lambda: inner_q0(w, stack, stack)):
        with pytest.raises(DomainMismatchError, match="control has shape"):
            fn()


def test_zero_data_zero_trajectory(small_setup):
    dom, tg, p, window, _ = small_setup
    ft = solve_forward(dom, tg, p, np.zeros(dom.n_interior))
    assert np.all(ft.y == 0.0)
    assert np.all(ft.u == 0.0)


def test_diffusion_only_eigen_decay():
    """The implicit diffusion step decays a sine mode by its exact factor."""
    dom = Domain1D(1.0, 31)
    tg = TimeGrid(0.1, 20)
    p = ModelParams(epsilon=0.3)
    lam = (2.0 - 2.0 * math.cos(math.pi * dom.h)) / dom.h ** 2
    y0 = np.sin(math.pi * dom.x)
    dsolve = ShiftedLaplacianSolver(dom, tg.dt * p.epsilon).solve
    factor = 1.0 / (1.0 + tg.dt * p.epsilon * lam)
    y = y0
    for n in range(1, tg.n_steps + 1):
        y = dsolve(y)
        if n in (1, 10, 20):
            assert np.max(np.abs(y - factor ** n * y0)) < 1e-12


def test_imex_step_matches_dense_oracle(small_setup):
    """First frames agree with a dense-matrix reimplementation of the march."""
    dom, tg, p, window, y0 = small_setup
    omega = bump_control(window, 0.5)
    bq = apply_B(window, omega)
    ft = solve_forward(dom, tg, p, y0, window, omega)

    D1, D2 = dense_ops(dom)
    K = np.eye(dom.n_interior) - D2
    M = np.eye(dom.n_interior) - tg.dt * p.epsilon * D2
    y = y0.copy()
    for n in range(3):
        u = np.linalg.solve(K, y)
        ux = D1 @ u
        nl = (u * u - ux * ux) * (D1 @ y) + 2.0 * ux * y * y + p.k * ux
        y = np.linalg.solve(M, y - tg.dt * nl + tg.dt * bq[n])
        scale = np.max(np.abs(y)) + 1.0
        assert np.max(np.abs(ft.y[n + 1] - y)) < 1e-12 * scale


def test_velocity_round_trip(small_setup):
    dom, tg, p, window, y0 = small_setup
    ft = solve_forward(dom, tg, p, y0)
    for n in (0, 40, 80):
        u = ft.u[n]
        assert np.max(np.abs(u - d2(dom, u) - ft.y[n])) < 1e-11
        assert np.allclose(ft.ux[n], d1(dom, ft.u[n]), atol=1e-14)


def test_cfl_warning():
    dom = Domain1D(2.0, 64)
    tg = TimeGrid(1.0, 4)  # huge dt
    p = ModelParams(epsilon=0.05)
    y0 = 1.5 * np.sin(math.pi * dom.x / 2.0)
    with pytest.warns(StabilityWarning) as rec:
        solve_forward(dom, tg, p, y0)
    assert [str(r.message) for r in rec] == [
        "dt=2.500e-01 exceeds advisory CFL bound 3.344e-02 at step 0"]


def test_cfl_warning_names_first_late_step():
    """At rest until the control switches on, on the window [0, L] x
    [0.5, T]: the first breach is step 5."""
    dom = Domain1D(2.0, 32)
    tg = TimeGrid(1.0, 8)
    p = ModelParams(epsilon=0.05)
    w = ControlWindow(dom, tg, 0.0, dom.L, 0.5, tg.T)
    omega = np.outer(tg.t >= 0.5, 40.0 * np.sin(math.pi * dom.x / 2.0))
    with pytest.warns(StabilityWarning) as rec:
        solve_forward(dom, tg, p, np.zeros(dom.n_interior), w,
                      omega[w.block])
    assert [str(r.message) for r in rec] == [
        "dt=1.250e-01 exceeds advisory CFL bound 6.180e-03 at step 5"]


@pytest.mark.parametrize("L,spike,texts", [
    (2.0, 1e155, ["dt=1.250e-01 exceeds advisory CFL bound 1.155e-309 at "
                  "step 0"]),
    (200.0, 1e170, [])])
def test_cfl_warning_on_an_overflowing_march(L, spike, texts):
    """One spike in y0 overflows the march at step 1, and frame 0's
    u^2 - u_x^2 row decides the warning. At L = 2 the row is finite but
    huge, so the bound is subnormal. At L = 200 the spike's neighbours are
    NaN (both squares overflow), next to Inf and finite entries: the row's
    maximum is NaN, as numpy's max gives it, so no step is named; a maximum
    that skipped the NaN would read Inf and warn at step 0."""
    dom, tg = Domain1D(L, 16), TimeGrid(1.0, 8)
    y0 = np.ones(dom.n_interior)
    y0[3] = spike
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        with pytest.raises(NumericsError) as exc:
            solve_forward(dom, tg, ModelParams(epsilon=0.05), y0)
    assert exc.value.time_index == 1
    assert [str(r.message) for r in rec
            if r.category is StabilityWarning] == texts


def test_blowup_raises_numerics_error():
    dom = Domain1D(2.0, 48)
    tg = TimeGrid(1.0, 40)
    p = ModelParams(epsilon=1e-4)
    y0 = 60.0 * np.sin(math.pi * dom.x / 2.0)
    with pytest.raises(NumericsError) as exc:
        with pytest.warns(StabilityWarning) as rec:
            solve_forward(dom, tg, p, y0)
    assert exc.value.time_index == 6
    assert [str(r.message) for r in rec] == [
        "dt=2.500e-02 exceeds advisory CFL bound 2.781e-05 at step 0"]


def test_non_finite_y0_fails_at_step_1(small_setup):
    dom, tg, p, window, y0 = small_setup
    bad = y0.copy()
    bad[3] = np.nan
    with pytest.raises(NumericsError) as exc:
        solve_forward(dom, tg, p, bad)
    assert exc.value.time_index == 1


@pytest.mark.parametrize("j", [0, 19, 20, 79])
def test_nan_control_row_fails_at_next_step(small_setup, j):
    """On a window from t0 = 0 over all nodes, whose block row j is step j,
    the bump of small_setup's window (first step 20) is the control. Rows
    0..19 precede that bump, row 79 is the last step."""
    dom, tg, p, window, y0 = small_setup
    whole = ControlWindow(dom, tg, 0.0, dom.L, 0.0, tg.T)
    omega = apply_B(window, bump_control(window))[whole.block]
    omega[j, 5] = np.nan
    with pytest.raises(NumericsError) as exc:
        solve_forward(dom, tg, p, y0, whole, omega)
    assert exc.value.time_index == j + 1
    assert f"at step {j + 1}/{tg.n_steps}" in str(exc.value)


def test_dirichlet_modes_orthonormal():
    dom = Domain1D(2.0, 40)
    modes = dirichlet_modes(dom, 5)
    gram = dom.h * modes @ modes.T
    assert np.max(np.abs(gram - np.eye(5))) < 1e-12


def test_weak_residual_zero_trajectory(small_setup):
    dom, tg, p, _, _ = small_setup
    z = np.zeros((tg.n_steps + 1, dom.n_interior))
    ftz = trajectory_from_arrays(dom, tg, z, z)
    assert weak_residual(ftz, p) == 0.0


def weak_fixture(n, n_steps):
    dom = Domain1D(2.0, n)
    tg = TimeGrid(0.8, n_steps)
    p = ModelParams(epsilon=0.08, k=0.6)
    w = ControlWindow(dom, tg, 0.5, 1.5, 0.2, 0.6)
    y0 = 0.35 * np.sin(math.pi * dom.x / 2.0) \
        + 0.15 * np.sin(math.pi * dom.x)
    omega = bump_control(w, 0.8)
    return dom, tg, p, solve_forward(dom, tg, p, y0, w, omega), w, omega


def test_weak_residual_refines_at_first_order():
    _, _, p1, ft1, w1, om1 = weak_fixture(32, 80)
    _, _, p2, ft2, w2, om2 = weak_fixture(64, 160)
    r1 = weak_residual(ft1, p1, w1, om1)
    r2 = weak_residual(ft2, p2, w2, om2)
    assert math.log2(r1 / r2) >= 1.0


def manufactured(dom, tg, eps, k):
    """Exact frames y = u - u_xx of u = a1 sin(pi x/L) + a2 sin(2 pi x/L),
    a1 = 0.35 (1 + t), a2 = 0.15 cos 3t, and the forcing
    f = y_t - eps y_xx + (u^2 - u_x^2) y_x + 2 u_x y^2 + k u_x they solve."""
    t = tg.t[:, None]
    modes = ((0.35 * (1.0 + t), np.full_like(t, 0.35)),
             (0.15 * np.cos(3.0 * t), -0.45 * np.sin(3.0 * t)))
    u = ux = y = yt = yx = yxx = 0.0
    for m, (a, at) in enumerate(modes, start=1):
        w = m * math.pi / dom.L
        s, c = np.sin(w * dom.x), np.cos(w * dom.x)
        g = 1.0 + w * w  # y = g u on this mode
        u, ux = u + a * s, ux + a * w * c
        y, yt = y + g * a * s, yt + g * at * s
        yx, yxx = yx + g * a * w * c, yxx - g * a * w * w * s
    return y, yt - eps * yxx + (u * u - ux * ux) * yx + 2.0 * ux * y * y \
        + k * ux


def manufactured_error(n, N):
    """C(H) error of the march under the manufactured forcing, fed as the
    control of the whole-lattice window (every step's left endpoint), and
    dt + h^2."""
    dom, tg = Domain1D(2.0, n), TimeGrid(0.8, N)
    window = ControlWindow(dom, tg, 0.0, dom.L, 0.0, tg.T)
    y, f = manufactured(dom, tg, 0.08, 0.6)
    ft = solve_forward(dom, tg, ModelParams(0.08, 0.6), y[0], window, f[:-1])
    return norm_ct_h(dom, tg, ft.y - y), tg.dt + dom.h ** 2


def test_forward_manufactured_solution_first_order():
    errs = [manufactured_error(n, N) for n, N in ((24, 60), (48, 240),
                                                  (96, 960))]
    for (e1, s1), (e2, s2) in zip(errs, errs[1:]):
        assert math.log(e1 / e2) / math.log(s1 / s2) >= 0.9


def test_forward_manufactured_solution_first_order_in_dt():
    # h^2 at n = 384 is under 3e-5, so dt alone sets the error; dt from
    # 0.002 up breaks the advisory CFL bound on this flow, which warns
    errs = []
    for N in (100, 200, 400, 800):
        with (pytest.warns(StabilityWarning) if N <= 400
              else contextlib.nullcontext()):
            errs.append(manufactured_error(384, N)[0])
    for e1, e2 in zip(errs, errs[1:]):
        assert math.log2(e1 / e2) >= 0.9


def test_weak_residual_flags_corruption():
    dom, tg, p, ft, w, omega = weak_fixture(32, 80)
    clean = weak_residual(ft, p, w, omega)
    op = get_operator(dom)
    ybad = ft.y.copy()
    ybad[tg.n_steps // 2] += 1e-2
    ubad = np.array([op.solve(ybad[n]) for n in range(tg.n_steps + 1)])
    bad = weak_residual(trajectory_from_arrays(dom, tg, ybad, ubad), p, w,
                        omega)
    assert bad >= 10.0 * clean


def test_weak_residual_matches_frame_oracle():
    """Frames x modes as one array expression equals the per-pair loop."""
    dom, tg, p, ft, w, omega = weak_fixture(32, 80)
    bq = apply_B(w, omega)
    etas = dirichlet_modes(dom, 5)
    worst = 0.0
    for n in range(1, tg.n_steps):
        ydot = (ft.y[n + 1] - ft.y[n - 1]) / (2.0 * tg.dt)
        nl = transport_terms(dom, ft.y[n], ft.u[n], ft.ux[n], p.k)
        om_bar = 0.5 * (bq[n] + bq[n - 1])
        for e in etas:
            diff = inner_h(dom, d1(dom, ft.y[n]), d1(dom, e))
            r = (inner_h(dom, ydot, e) + p.epsilon * diff
                 + inner_h(dom, nl, e) - inner_h(dom, om_bar, e))
            worst = max(worst, abs(r))
    got = weak_residual(ft, p, w, omega)
    assert got == pytest.approx(worst, rel=1e-12)


def test_csv_round_trip(tmp_path, small_setup):
    dom, tg, p, window, y0 = small_setup
    ft = solve_forward(dom, tg, p, y0)
    path = tmp_path / "traj.csv"
    export_trajectory_csv(path, dom, tg, {"y": ft.y, "u": ft.u},
                          {"command": "test"}, "deadbeef")
    dom2, tg2, cols, sidecar = import_trajectory_csv(path)
    assert dom2.n_interior == dom.n_interior and tg2.n_steps == tg.n_steps
    assert np.array_equal(cols["y"], ft.y)
    assert np.array_equal(cols["u"], ft.u)
    assert sidecar["config_sha256"] == "deadbeef"
    assert sidecar["schema_version"] == 1
    # what the importer returns, the exporter writes back byte for byte
    again = tmp_path / "again.csv"
    export_trajectory_csv(again, dom2, tg2, cols, {"command": "test"},
                          "deadbeef")
    assert again.read_bytes() == path.read_bytes()


def test_export_deterministic(tmp_path, small_setup):
    dom, tg, p, window, y0 = small_setup
    ft = solve_forward(dom, tg, p, y0)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    export_trajectory_csv(a, dom, tg, {"y": ft.y, "u": ft.u}, {}, "x")
    export_trajectory_csv(b, dom, tg, {"y": ft.y, "u": ft.u}, {}, "x")
    assert a.read_bytes() == b.read_bytes()


def test_export_golden_bytes(tmp_path):
    dom = Domain1D(0.3, 3)
    tg = TimeGrid(0.7, 1)
    y = np.array([[1.0, -2.5, 1.0 / 3.0], [0.1, 1e-300, -0.0]])
    u = np.array([[2.0, 0.0, -1e20], [7.0, 1.0 / 7.0, 5e-324]])
    path = tmp_path / "g.csv"
    export_trajectory_csv(path, dom, tg, {"y": y, "u": u}, {}, "abc")
    assert path.read_bytes() == (
        b"# config_sha256=abc\n"
        b"t,x,y,u\n"
        b"0.0,0.075,1.0,2.0\n"
        b"0.0,0.15,-2.5,0.0\n"
        b"0.0,0.22499999999999998,0.3333333333333333,-1e+20\n"
        b"0.7,0.075,0.1,7.0\n"
        b"0.7,0.15,1e-300,0.14285714285714285\n"
        b"0.7,0.22499999999999998,-0.0,5e-324\n")


def reference_csv(dom, tg, names, cols, config_hash):
    """The exporter's bytes written the plain way: repr of every float,
    one joined row per (frame, node)."""
    text = [f"# config_sha256={config_hash}\n",
            "t,x," + ",".join(names) + "\n"]
    for n, t in enumerate(tg.t.tolist()):
        for i, x in enumerate(dom.x.tolist()):
            vals = [t, x, *(c[n].tolist()[i] for c in cols)]
            text.append(",".join(map(repr, vals)) + "\n")
    return "".join(text).encode()


def test_export_zero_rows_match_plain_repr(tmp_path):
    """Rows of exact zeros and of values equal the repr of each value:
    all-zero frames, a few values inside a row of zeros, -0.0 alone and
    next to a value, a subnormal and a NaN."""
    dom = Domain1D(1.4, 6)
    tg = TimeGrid(0.6, 6)
    window = ControlWindow(dom, tg, 0.3, 1.0, 0.1, 0.5)
    omega = np.zeros((7, 6))
    omega[1, 2:5] = [1.5, 0.0, -2.25]
    omega[2, 3] = -0.0
    omega[3, 1:4] = [-0.0, 0.3, 5e-324]
    omega[4, 5] = 5e-324
    omega[5, [0, 5]] = [-0.0, 1.0 / 3.0]
    omega[6, 4] = np.nan
    path = tmp_path / "omega.csv"
    export_trajectory_csv(path, dom, tg, {"omega": omega}, {}, "w")
    assert path.read_bytes() == reference_csv(dom, tg, ["omega"], [omega], "w")
    # a random window control: +0.0 off the window block
    q = apply_B(window, window.random_control(np.random.default_rng(3)))
    export_trajectory_csv(path, dom, tg, {"omega": q}, {}, "w")
    assert path.read_bytes() == reference_csv(dom, tg, ["omega"], [q], "w")
    # two columns whose live spans differ in each frame
    y, u = np.zeros((2, 7, 6))
    y[1, 1], u[1, 4] = 0.25, -1e20
    y[2, 2:4] = [-0.0, 7.0]
    u[3, 0], y[3, 5] = 1e-300, -0.5
    u[5, 3] = -0.0
    export_trajectory_csv(path, dom, tg, {"y": y, "u": u}, {}, "yu")
    assert path.read_bytes() == reference_csv(dom, tg, ["y", "u"], [y, u],
                                              "yu")


def exported_csv(dom, tg, names, cols):
    """The exporter's bytes and reference_csv's for the named columns."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "v.csv")
        export_trajectory_csv(path, dom, tg, dict(zip(names, cols)), {}, "v")
        with open(path, "rb") as f:
            return f.read(), reference_csv(dom, tg, names, cols, "v")


def values_csv(values, names=("v",)):
    """The exporter's bytes and reference_csv's for values laid out frame
    by frame on a 3-node grid, one column per name (padded with +0.0)."""
    v = np.asarray(values, dtype=np.float64).ravel()
    rows = max(2, -(-len(v) // 3))
    v = np.concatenate([v, np.zeros(rows * 3 - len(v))]).reshape(rows, 3)
    dom, tg = Domain1D(1.0, 3), TimeGrid(1.0, rows - 1)
    return exported_csv(dom, tg, names, [v] * len(names))


def grid_csv(L, n, T, N, ncol):
    """exported_csv on an (L, n) x (T, N) grid with ncol columns of random
    values, a third of them +0.0."""
    rng = np.random.default_rng(n * 1000 + N)
    cols = [rng.standard_normal((N + 1, n)) * (rng.random((N + 1, n)) > 1 / 3)
            for _ in range(ncol)]
    return exported_csv(Domain1D(L, n), TimeGrid(T, N),
                        [f"c{j}" for j in range(ncol)], cols)


def _below(v):
    return float(np.nextafter(v, 0.0))


# the writer's exact fast range is 2^-13 <= |v| < 2^53, whose ends the
# powers of two cover; CPython formats the rest. 2^49 + 1/4 and 2^50 + 1/4
# lie halfway between their two shortest candidates (.2 and .3), so only
# ties to even give repr's .2
EDGE_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
               *(x for k in range(-14, 55) for x in (2.0 ** k,
                                                     _below(2.0 ** k))),
               1e-4, 1e15, 1e16, 0.1, 0.3, 1.0 / 3.0,
               2.0 ** 49 + 0.25, 2.0 ** 50 + 0.25]


def test_export_edge_floats_match_repr():
    """Powers of two and their predecessors across the fast range and past
    both ends, the range ends themselves, ties between two shortest
    candidates and the values the fallback takes, with both signs."""
    got, want = values_csv(EDGE_FLOATS + [-x for x in EDGE_FLOATS])
    assert got == want


@settings(max_examples=300, database=None, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=60)
       .map(lambda bits: np.array(bits, dtype=np.uint64).view(np.float64))
       | st.lists(st.floats(), min_size=1, max_size=60))
def test_export_floats_match_repr(values):
    """Any float64, as a bit pattern or as hypothesis draws floats, is
    written as repr writes it."""
    got, want = values_csv(values)
    assert got == want


@pytest.mark.parametrize("buffer", [150, 331, 1 << 16],
                         ids=["frame_wider_than_buffer", "odd_size",
                              "default"])
def test_export_across_buffers_matches_plain_repr(buffer, monkeypatch):
    """Text that spans many buffers is written whole: a 150-byte buffer
    holds one row, so each 3-node frame is wider than the buffer, and
    331 bytes hold a few rows, so boundaries fall inside and between
    frames; the default buffer splits the larger export."""
    monkeypatch.setattr(cmarch, "CSV_BUFFER", buffer)
    rng = np.random.default_rng(4)
    got, want = values_csv(rng.standard_normal(60) * 10.0 ** rng.integers(
        -6, 18, 60), names=("y", "u"))
    assert got == want
    values = rng.standard_normal(4000)
    values[::7] = 0.0
    got, want = values_csv(values, names=("y", "u"))
    assert len(want) > 2 * (1 << 16) and got == want


# grids whose row labels leave the writer's exact fast range, so that
# CPython's formatter writes each node's or frame's label
@pytest.mark.parametrize("buffer", [150, 331, 1 << 16],
                         ids=["one_row", "odd_size", "default"])
@pytest.mark.parametrize("ncol", [0, 1, 2])
@pytest.mark.parametrize("L,T", [(1e-150, 0.7), (1e20, 0.7), (2.0, 1e-150)],
                         ids=["x_below_fast_range", "x_above_fast_range",
                              "t_below_fast_range"])
def test_export_labels_outside_fast_range_match_plain_repr(L, T, ncol, buffer,
                                                          monkeypatch):
    """Each node's x is formatted once per file and each frame's t once per
    call; a buffer of 150 or 331 bytes ends calls inside a frame, so later
    calls start with the labels already made and a fresh t."""
    monkeypatch.setattr(cmarch, "CSV_BUFFER", buffer)
    got, want = grid_csv(L, 5, T, 4, ncol)
    assert got == want


@settings(max_examples=100, database=None, deadline=None)
@given(st.integers(3, 40), st.integers(1, 12), st.integers(0, 3),
       st.sampled_from([1e-150, 2.0, 1e20]),
       st.sampled_from([1e-150, 0.7, 1e20]),
       st.sampled_from([150, 331, 1 << 16]))
def test_export_any_grid_matches_plain_repr(n, N, ncol, L, T, buffer):
    """Any grid of n >= 3 nodes and N >= 1 steps, with any number of
    columns, at any buffer size."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cmarch, "CSV_BUFFER", buffer)
        got, want = grid_csv(L, n, T, N, ncol)
    assert got == want


def test_write_csv_rejects_misshapen_column():
    """The row writer reads (N+1, n) entries of every column, so it refuses
    one of another shape before it passes a pointer."""
    with pytest.raises(ValueError, match="not \\(N\\+1, n\\)"):
        cmarch.write_csv(io.BytesIO(), np.zeros(3), np.zeros(4),
                         [np.zeros((3, 4)), np.zeros((2, 4))])


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="no /dev/full on this platform")
def test_export_to_full_device_raises(tmp_path, capsys):
    """A write that fails (ENOSPC on /dev/full) is an OSError from the
    exporter, and the command that writes the file exits 2 with an io
    error and no traceback."""
    dom, tg = Domain1D(1.0, 3), TimeGrid(1.0, 2)
    with pytest.raises(OSError):
        export_trajectory_csv("/dev/full", dom, tg,
                              {"y": np.ones((3, 3))}, {}, "x")
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"domain": {"L": 2.0, "n_interior": 24}, '
                   '"time": {"T": 0.5, "n_steps": 60}, '
                   '"model": {"epsilon": 0.1, "k": 0.4}}')
    out = tmp_path / "out"
    out.mkdir()
    (out / "trajectory.csv").symlink_to("/dev/full")
    assert cli.main(["forward", "--config", str(cfg), "--out",
                     str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("io error: ") and "Traceback" not in err


@pytest.mark.parametrize("shape", [(4, 2), (3, 3)],
                         ids=["narrow_column", "short_column"])
def test_export_rejects_misshapen_values(tmp_path, shape):
    """A value column that is not (N+1, n) is refused before any file is
    written, instead of being truncated or failing halfway through."""
    dom = Domain1D(1.0, 3)
    tg = TimeGrid(0.3, 3)
    path = tmp_path / "bad.csv"
    with pytest.raises(DomainMismatchError, match="trajectory has shape"):
        export_trajectory_csv(path, dom, tg, {"y": np.ones((4, 3)),
                                              "omega": np.ones(shape)},
                              {}, "x")
    assert list(tmp_path.iterdir()) == []


def test_csv_sidecar_next_to_dotted_path(tmp_path):
    """The sidecar takes the file's stem even when only a directory has a
    dot, and extreme floats (subnormal, -0.0, 1e+20) read back bit for bit."""
    dom = Domain1D(0.3, 3)
    tg = TimeGrid(0.7, 1)
    y = np.array([[1.0, -2.5, 1.0 / 3.0], [0.1, 1e-300, -0.0]])
    u = np.array([[2.0, 0.0, -1e20], [7.0, 1.0 / 7.0, 5e-324]])
    folder = tmp_path / "a.b"
    folder.mkdir()
    path = folder / "traj"
    export_trajectory_csv(path, dom, tg, {"y": y, "u": u}, {}, "abc")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.b"]
    assert sorted(p.name for p in folder.iterdir()) == ["traj", "traj.json"]
    _, _, cols, sidecar = import_trajectory_csv(path)
    assert cols["y"].tobytes() == y.tobytes()
    assert cols["u"].tobytes() == u.tobytes()
    assert sidecar["config_sha256"] == "abc"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    with pytest.raises(DomainMismatchError, match="5 data rows, expected 6"):
        import_trajectory_csv(path)
    path.write_text("".join([lines[0], "t,x,y,w\n", *lines[2:]]))
    with pytest.raises(DomainMismatchError, match="columns"):
        import_trajectory_csv(path)


def test_transport_terms_formula(rng):
    dom = Domain1D(1.0, 12)
    y = rng.standard_normal(12)
    u = rng.standard_normal(12)
    ux = rng.standard_normal(12)
    got = transport_terms(dom, y, u, ux, 0.3)
    want = (u * u - ux * ux) * d1(dom, y) + 2.0 * ux * y * y + 0.3 * ux
    assert np.array_equal(got, want)
