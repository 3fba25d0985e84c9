import math

import numpy as np
import pytest
from scipy.linalg.lapack import dpttrs

from mchcontrol import helmholtz
from mchcontrol.config import resolve_config
from mchcontrol.grid import Domain1D, d2, inner_h, velocity
from mchcontrol.helmholtz import ShiftedLaplacianSolver, get_operator
from mchcontrol.runners import run_twin


def disc_eig(domain, m):
    return (2.0 - 2.0 * math.cos(m * math.pi * domain.h / domain.L)) \
        / domain.h ** 2


def test_round_trip(rng):
    dom = Domain1D(2.0, 64)
    op = get_operator(dom)
    for _ in range(5):
        y = rng.standard_normal(64)
        u = op.solve(y)
        back = u - d2(dom, u)
        assert np.linalg.norm(back - y) <= 1e-12 * np.linalg.norm(y)


def test_apply_eigen_relation_exact():
    dom = Domain1D(1.0, 31)
    for m in (1, 2, 7):
        mode = np.sin(m * math.pi * dom.x)
        lam = disc_eig(dom, m)
        applied = mode - d2(dom, mode)
        assert np.max(np.abs(applied - (1.0 + lam) * mode)) < 1e-11


def test_solve_eigen_relation():
    dom = Domain1D(1.0, 31)
    op = get_operator(dom)
    for m in (1, 3):
        mode = np.sin(m * math.pi * dom.x)
        lam = disc_eig(dom, m)
        assert np.max(np.abs(op.solve(mode) - mode / (1.0 + lam))) < 1e-13


def test_solve_symmetric(rng):
    dom = Domain1D(1.3, 25)
    op = get_operator(dom)
    f = rng.standard_normal(25)
    g = rng.standard_normal(25)
    assert inner_h(dom, f, op.solve(g)) == pytest.approx(
        inner_h(dom, op.solve(f), g), rel=1e-12)


def test_shift_zero_is_identity(rng):
    dom = Domain1D(1.0, 12)
    s = ShiftedLaplacianSolver(dom, 0.0)
    b = rng.standard_normal(12)
    assert np.allclose(s.solve(b), b, atol=1e-14)
    with pytest.raises(ValueError):
        ShiftedLaplacianSolver(dom, -0.1)


@pytest.mark.parametrize("c", [1.0, 0.8 / 240 * 0.08, 0.0])
def test_multi_rhs_solve_matches_column_solves(rng, c):
    dom = Domain1D(2.0, 48)
    s = get_operator(dom, c)
    frames = rng.standard_normal((9, 48))
    for B in (frames.T, np.ascontiguousarray(frames.T)):
        X = s.solve(B)
        assert X.shape == (48, 9)
        for j in range(9):
            col = s.solve(B[:, j])
            assert np.max(np.abs(X[:, j] - col)) <= 1e-14 * np.max(np.abs(col))
        # each column solves (I - c D2) x = b
        resid = X - c * d2(dom, X.T).T - B
        assert np.max(np.abs(resid)) < 1e-12 * np.max(np.abs(B))
        if c == 0.0:
            assert np.array_equal(X, B)
    # a (k, n) or (2, k, n) frame stack is one call, bit for bit per frame
    for stack in (frames, rng.standard_normal((2, 9, 48))):
        X = s.solve_frames(stack)
        assert X.shape == stack.shape
        for idx in np.ndindex(stack.shape[:-1]):
            assert np.array_equal(X[idx], s.solve(stack[idx]))


@pytest.mark.parametrize("c", [1.0, 0.8 / 240 * 0.08])
def test_solve_in_place(rng, c, monkeypatch):
    """solve(b, True) writes the solution into b and returns b: LAPACK
    solves a contiguous field and an F-ordered (n, k) stack in their own
    memory, and a strided stack on a copy that is copied back; each result
    is solve's bit for bit, and solve by default leaves its input as it
    was."""
    s = get_operator(Domain1D(2.0, 48), c)
    in_own_memory = []

    def spy(d, e, b, overwrite_b):
        out = dpttrs(d, e, b, overwrite_b=overwrite_b)
        in_own_memory.append(np.shares_memory(out[0], b))
        return out

    monkeypatch.setattr(helmholtz, "dpttrs", spy)
    padded = rng.standard_normal((9, 50))
    walls = padded[:, [0, -1]].copy()
    cases = {"row": (padded[3, 1:-1], True),
             "F stack": (np.asfortranarray(padded[:, 1:-1].T), True),
             "strided stack": (padded[:, 1:-1].T, False)}
    for name, (b, own_memory) in cases.items():
        before = b.copy()
        want = s.solve(b)
        assert np.array_equal(b, before), name
        assert s.solve(b, True) is b, name
        assert in_own_memory[-1] == own_memory, name
        assert b.tobytes() == want.tobytes(), name
    assert np.array_equal(padded[:, [0, -1]], walls)


def test_velocity_identity(rng):
    dom = Domain1D(2.0, 40)
    y = rng.standard_normal(40)
    u, ux, uxx = velocity(dom, y)
    assert np.array_equal(uxx, u - y)
    assert np.max(np.abs(u - d2(dom, u) - y)) < 1e-11 * max(
        1.0, np.max(np.abs(y)))


def test_operator_cache():
    a = get_operator(Domain1D(1.0, 10))
    b = get_operator(Domain1D(1.0, 10))
    assert a is b
    assert get_operator(Domain1D(2.0, 10)) is not a
    # one kernel per grid and shift; c = 1 is the default
    d = get_operator(Domain1D(1.0, 10), 0.25)
    assert get_operator(Domain1D(1.0, 10), 0.25) is d
    assert d is not a and get_operator(Domain1D(1.0, 10), 1.0) is a


def test_twin_factors_each_kernel_once(tmp_path, monkeypatch):
    """A twin run on the CI config factors I - D2 and I - dt*eps*D2 once
    each: every march takes both kernels from the cache."""
    monkeypatch.setattr(helmholtz, "_cache", {})
    shifts = []
    init = ShiftedLaplacianSolver.__init__

    def counted(self, domain, c):
        shifts.append(c)
        init(self, domain, c)

    monkeypatch.setattr(ShiftedLaplacianSolver, "__init__", counted)
    cfg = resolve_config({
        "domain": {"L": 2.0, "n_interior": 24},
        "time": {"T": 0.5, "n_steps": 60},
        "model": {"epsilon": 0.1, "k": 0.4},
        "initial": {"kind": "sine_mix", "coefficients": [0.3, 0.1]},
        "control": {"kind": "bump", "amplitude": 0.6}})
    assert run_twin(cfg, tmp_path) == 0
    assert sorted(shifts) == sorted([1.0, 0.5 / 60 * 0.1])


def test_smoothing_contracts(rng):
    """The inverse has spectrum in (0, 1]: solving never grows the h norm."""
    dom = Domain1D(1.0, 30)
    op = get_operator(dom)
    for _ in range(5):
        y = rng.standard_normal(30)
        assert np.linalg.norm(op.solve(y)) <= np.linalg.norm(y) * (1 + 1e-12)
