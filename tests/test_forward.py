import math

import numpy as np
import pytest

from conftest import bump_control
from mchcontrol.errors import (DomainMismatchError, NumericsError,
                              StabilityWarning)
from mchcontrol.grid import Domain1D, TimeGrid, d1, d2, inner_h
from mchcontrol.helmholtz import ShiftedLaplacianSolver, get_operator
from mchcontrol.forward import (ModelParams, ControlWindow, apply_B,
                                inner_block, inner_q0, norm_q0, solve_forward,
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
    assert w.mask.shape == (11, 16)
    assert set(np.unique(w.mask)) <= {0.0, 1.0}


def test_extension_restriction_adjoint(rng):
    dom = Domain1D(2.0, 16)
    tg = TimeGrid(1.0, 10)
    w = ControlWindow(dom, tg, 0.5, 1.5, 0.2, 0.8)
    q = rng.standard_normal((11, 16))
    s = rng.standard_normal((11, 16))
    # B is its own adjoint; it copies the block and writes +0.0 elsewhere,
    # so the pairing identity is exact in fp
    lhs = float(np.sum(apply_B(w, q) * s))
    rhs = float(np.sum(q * apply_B(w, s)))
    assert lhs == rhs
    assert inner_q0(w, q, s) == pytest.approx(
        inner_q0(w, apply_B(w, q), s), rel=1e-15)


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
    inside = w.mask == 1.0
    assert inside[4:7, 7:10].all() and not inside[10].any()
    assert not inside[:2].any() and not inside[:, :4].any()
    assert inside[w.block].all() and inside.sum() == inside[w.block].size
    bq = apply_B(w, negative)
    for q in (w.random_control(rng), bq):
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
    """The block sum equals the masked formula; values outside Q0 and on
    the final frame do not enter."""
    dom = Domain1D(2.0, 16)
    tg = TimeGrid(1.0, 10)
    w = ControlWindow(dom, tg, *box)
    p = rng.standard_normal((11, 16))
    q = rng.standard_normal((11, 16))
    m = w.mask[:-1]
    want = tg.dt * dom.h * float(np.sum((p[:-1] * m) * (q[:-1] * m)))
    assert inner_q0(w, p, q) == pytest.approx(want, rel=1e-13)
    # the block pairing of contiguous copies is inner_q0 bit for bit
    pb, qb = (np.ascontiguousarray(a[w.block]) for a in (p, q))
    assert inner_block(w, pb, qb) == inner_q0(w, p, q)
    assert norm_q0(w, q) == pytest.approx(
        math.sqrt(tg.dt * dom.h * float(np.sum((q[:-1] * m) ** 2))),
        rel=1e-13)


@pytest.mark.parametrize("lead", [(3,), (2, 3)], ids=["stack", "stack2d"])
def test_control_stack_matches_per_control(rng, lead):
    """apply_B, inner_q0, norm_q0 and inner_block take a stack of controls
    (..., N+1, n) and give each control its own value bit for bit; one
    control still gives Python floats."""
    dom = Domain1D(2.0, 16)
    tg = TimeGrid(1.0, 10)
    w = ControlWindow(dom, tg, 0.3, 1.45, 0.2, 0.8)
    P, Q = rng.standard_normal((2,) + lead + w.shape)
    blk = (..., *w.block)
    bq, ip, nq = apply_B(w, Q), inner_q0(w, P, Q), norm_q0(w, Q)
    ib = inner_block(w, P[blk], Q[blk])
    for idx in np.ndindex(lead):
        assert bq[idx].tobytes() == apply_B(w, Q[idx]).tobytes()
        one = inner_q0(w, P[idx], Q[idx])
        assert type(one) is float and type(norm_q0(w, Q[idx])) is float
        assert ip[idx] == one == inner_block(w, P[idx][blk], Q[idx][blk])
        assert ib[idx] == one
        assert nq[idx] == norm_q0(w, Q[idx])


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
    ft = solve_forward(dom, tg, p, y0, bq)

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
    """At rest until the forcing switches on: the first breach is step 5."""
    dom = Domain1D(2.0, 32)
    tg = TimeGrid(1.0, 8)
    p = ModelParams(epsilon=0.05)
    omega = np.outer(tg.t >= 0.5, 40.0 * np.sin(math.pi * dom.x / 2.0))
    with pytest.warns(StabilityWarning) as rec:
        solve_forward(dom, tg, p, np.zeros(dom.n_interior), omega)
    assert [str(r.message) for r in rec] == [
        "dt=1.250e-01 exceeds advisory CFL bound 6.180e-03 at step 5"]


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
    """Rows 0..19 precede the window (k0 = 20), row 79 is the last step."""
    dom, tg, p, window, y0 = small_setup
    omega = apply_B(window, bump_control(window))
    omega[j, 5] = np.nan
    with pytest.raises(NumericsError) as exc:
        solve_forward(dom, tg, p, y0, omega)
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
    assert weak_residual(ftz, None, p) == 0.0


def weak_fixture(n, n_steps):
    dom = Domain1D(2.0, n)
    tg = TimeGrid(0.8, n_steps)
    p = ModelParams(epsilon=0.08, k=0.6)
    w = ControlWindow(dom, tg, 0.5, 1.5, 0.2, 0.6)
    y0 = 0.35 * np.sin(math.pi * dom.x / 2.0) \
        + 0.15 * np.sin(math.pi * dom.x)
    bq = apply_B(w, bump_control(w, 0.8))
    return dom, tg, p, solve_forward(dom, tg, p, y0, bq), bq


def test_weak_residual_refines_at_first_order():
    _, _, p1, ft1, bq1 = weak_fixture(32, 80)
    _, _, p2, ft2, bq2 = weak_fixture(64, 160)
    r1 = weak_residual(ft1, bq1, p1)
    r2 = weak_residual(ft2, bq2, p2)
    assert math.log2(r1 / r2) >= 1.0


def test_weak_residual_flags_corruption():
    dom, tg, p, ft, bq = weak_fixture(32, 80)
    clean = weak_residual(ft, bq, p)
    op = get_operator(dom)
    ybad = ft.y.copy()
    ybad[tg.n_steps // 2] += 1e-2
    ubad = np.array([op.solve(ybad[n]) for n in range(tg.n_steps + 1)])
    bad = weak_residual(trajectory_from_arrays(dom, tg, ybad, ubad), bq, p)
    assert bad >= 10.0 * clean


def test_weak_residual_matches_frame_oracle():
    """Frames x modes as one array expression equals the per-pair loop."""
    dom, tg, p, ft, bq = weak_fixture(32, 80)
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
    got = weak_residual(ft, bq, p)
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
    """Rows written from the all-zero template equal the repr of each value:
    all-zero frames, a live span inside a row with zeros in it, -0.0 alone
    and at a span's edge, a subnormal and a NaN."""
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
    q = window.random_control(np.random.default_rng(3))
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
