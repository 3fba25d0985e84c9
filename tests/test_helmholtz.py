import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.linalg.lapack import dpttrf, dpttrs

from mchcontrol import helmholtz
from mchcontrol.config import resolve_config
from mchcontrol.errors import DomainMismatchError
from mchcontrol.grid import Domain1D, d2, inner_h, velocity
from mchcontrol.helmholtz import ShiftedLaplacianSolver, get_operator
from mchcontrol.runners import run_twin
from test_properties import PROPERTY


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
    """A (k, n) or (2, k, n) frame stack is one call, each frame bit for
    bit its own solve, and each solves (I - c D2) x = b."""
    dom = Domain1D(2.0, 48)
    s = get_operator(dom, c)
    frames = rng.standard_normal((9, 48))
    for stack in (frames, np.asfortranarray(frames),
                  rng.standard_normal((2, 9, 48))):
        X = s.solve(stack)
        assert X.shape == stack.shape and X.flags.c_contiguous
        for idx in np.ndindex(stack.shape[:-1]):
            assert X[idx].tobytes() == s.solve(stack[idx]).tobytes()
        resid = X - c * d2(dom, X) - stack
        assert np.max(np.abs(resid)) < 1e-12 * np.max(np.abs(stack))
        if c == 0.0:
            assert np.array_equal(X, stack)


def layouts(n: int, k: int) -> dict:
    """Views of k frames of n nodes into larger buffers, each with walls of
    buffer around it: a contiguous field, a row of a padded lattice, C- and
    F-ordered (k, n) stacks and a strided one, whose frames are the
    interiors of padded rows."""
    return {"field": lambda buf: buf[1:n + 1],
            "padded row": lambda buf: buf.reshape(k, n + 2)[k // 2, 1:-1],
            "C stack": lambda buf: buf[1:n * k + 1].reshape(k, n),
            "F stack": lambda buf: buf[1:n * k + 1].reshape((k, n), order="F"),
            "strided stack": lambda buf: buf.reshape(k, n + 2)[:, 1:-1]}


def test_solve_refuses_what_it_cannot_address():
    """A right-hand side whose last axis is not the n nodes, or a scalar,
    is a DomainMismatchError (a ValueError); another type or a read-only
    array is solved in a float64 copy."""
    s = get_operator(Domain1D(2.0, 8))
    for b in (np.zeros(9), np.zeros((8, 2)), np.zeros((2, 7)),
              np.float64(1)):
        with pytest.raises(DomainMismatchError, match="expected"):
            s.solve(b)
    frozen = np.ones(8)
    frozen.flags.writeable = False
    want = s.solve(np.ones(8))
    for b in (frozen, np.ones(8, np.float32), [1.0] * 8):
        assert s.solve(b).tobytes() == want.tobytes()


def twisted_solve(d, e, gamma, b) -> list:
    """The twisted recurrences of the kernel's solve, one float operation at
    a time on the dpttrf factors d, e: the top rows 0..p-1 downwards and the
    bottom rows n-1..p+1 upwards with the factors reversed, row p with both
    and the twist pivot gamma, then outward from p."""
    n = len(b)
    p = n // 2
    m = n - 1 - p
    x = [float(v) for v in b]
    for i in range(1, p):
        x[i] = x[i] - x[i - 1] * e[i - 1]
        if i < m:
            x[n - 1 - i] = x[n - 1 - i] - x[n - i] * e[i - 1]
    z = x[p] - x[p - 1] * e[p - 1]
    x[p] = (z - x[p + 1] * e[m - 1]) / gamma
    for i in range(p - 1, -1, -1):
        x[i] = x[i] / d[i] - x[i + 1] * e[i]
        if i < m:
            x[n - 1 - i] = x[n - 1 - i] / d[i] - x[n - 2 - i] * e[i]
    return x


def backward_error(a: float, off: float, x, b) -> Fraction:
    """||b - A x||_inf / (||A||_inf ||x||_inf), exactly, for the
    tridiagonal Toeplitz A with diagonal a and off-diagonal off (n >= 3)."""
    xs = [Fraction(0), *map(Fraction, x), Fraction(0)]
    A, E = Fraction(a), Fraction(off)
    r = max(abs(Fraction(bi) - A * xs[i + 1] - E * (xs[i] + xs[i + 2]))
            for i, bi in enumerate(b))
    return r / ((abs(A) + 2 * abs(E)) * max(map(abs, xs)))


def gamma_u(k: int) -> Fraction:
    """Higham's gamma_k = k u / (1 - k u), u = 2**-53."""
    u = Fraction(1, 2 ** 53)
    return k * u / (1 - k * u)


# the normwise backward error of the twisted solve, LDL^T in the symmetric
# order 0..p-1, n-1..p+1, p (CHANGES.md derives it): gamma_7 / (1 - gamma_3)
BACKWARD_BOUND = gamma_u(7) / (1 - gamma_u(3))


@PROPERTY
@given(n=st.integers(3, 300), k=st.integers(1, 4),
       shift=st.floats(-8.0, 8.0), L=st.sampled_from([1.0, 2.0, math.pi]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=3, k=1, shift=-8.0, L=1.0, seed=0)
@example(n=4, k=2, shift=0.0, L=2.0, seed=2)
@example(n=300, k=4, shift=8.0, L=math.pi, seed=1)
def test_kernel_factors_are_lapack_and_solve_twisted(n, k, shift, L, seed):
    """The compiled pttrf is LAPACK's dpttrf (scipy's binding, an oracle
    independent of the kernel) byte for byte at shifts 1e-8..1e8, and its
    twist pivot is the top pivot less the bottom row's term. The solve of
    frames up to 1e+-100 in size is the twisted recurrences of
    twisted_solve byte for byte, in every layout of a frame stack, which
    it leaves as it was; each solution's exact normwise backward error is
    within BACKWARD_BOUND, and so it lies within the forward error that
    bound allows of dpttrs's."""
    dom = Domain1D(L, n)
    c = 10.0 ** shift
    s = ShiftedLaplacianSolver(dom, c)
    r = c / dom.h ** 2
    a, p, m = 1.0 + 2.0 * r, n // 2, n - 1 - n // 2
    d, e, info = dpttrf(np.full(n, a), np.full(n - 1, -r))
    assert info == 0
    gamma = d[p] - e[m - 1] * -r
    assert s._d.tobytes() == d.tobytes()
    assert s._e.tobytes() == np.append(e, gamma).tobytes()
    rng = np.random.default_rng(seed)
    rhs = (rng.uniform(-1.0, 1.0, (k, n))
           * 10.0 ** rng.integers(-100, 101, (k, n)))
    want = np.array([twisted_solve(d.tolist(), e.tolist(), gamma, b)
                     for b in rhs.tolist()])
    for name, view in layouts(n, k).items():
        buf = np.zeros(k * (n + 2))
        b = view(buf)
        b[...] = rhs if b.ndim == 2 else rhs[0]
        before = buf.copy()
        got = s.solve(b)
        assert got.tobytes() == (want if b.ndim == 2 else want[0]).tobytes(), \
            name
        assert buf.tobytes() == before.tobytes(), name
    # A is an M-matrix, so ||A^-1||_inf = ||A^-1 1||_inf, which dpttrs
    # gives to far better than the 1% added
    kappa = (a + 2.0 * r) * 1.01 * dpttrs(d, e, np.ones(n))[0].max()
    delta = kappa * BACKWARD_BOUND / (1 - kappa * BACKWARD_BOUND)
    for x, b in zip(want, rhs):
        assert backward_error(a, -r, x, b) <= BACKWARD_BOUND
        ref = dpttrs(d, e, b)[0]
        assert np.abs(x - ref).max() <= 2 * delta / (1 - delta) \
            * np.abs(ref).max()


@PROPERTY
@given(n=st.integers(3, 64), node=st.integers(0, 63),
       bad=st.sampled_from([math.nan, math.inf, -math.inf]),
       c=st.just(0.0) | st.floats(-8.0, 8.0).map(lambda s: 10.0 ** s),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=3, node=0, bad=math.nan, c=1.0, seed=0)
@example(n=3, node=2, bad=math.inf, c=1.0, seed=0)
@example(n=4, node=3, bad=-math.inf, c=1.0, seed=0)
@example(n=4, node=1, bad=math.inf, c=0.0, seed=0)
def test_a_nonfinite_node_spreads_over_the_solution(n, node, bad, c, seed):
    """A NaN, +Inf or -Inf at any node of a right-hand side makes every
    entry of its solution non-finite: it reaches the twist row through its
    own chain and both chains from there, on odd and even n, also where a
    chain of the elimination is empty (n = 3 and 4). forward's
    _first_nonfinite relies on it."""
    s = ShiftedLaplacianSolver(Domain1D(1.0, n), c)
    b = np.random.default_rng(seed).standard_normal(n)
    b[node % n] = bad
    assert not np.isfinite(s.solve(b)).any()


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
