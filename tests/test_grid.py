import math

import numpy as np
import pytest

from mchcontrol.errors import DomainMismatchError
from mchcontrol.grid import (Domain1D, TimeGrid, as_field, as_trajectory,
                             d1, d2, inner_h, norm_h, norm_h_sq, norm_v_sq,
                             norm_vstar_sq,
                             norm_l2h, norm_ct_h, norm_l2v, norm_wv,
                             wall_slopes, grad_norm_sq,
                             random_smooth_trajectories,
                             measure_embedding_constant, velocity)
from mchcontrol.helmholtz import get_operator


def disc_eig(domain, m):
    """Exact eigenvalue of -d2 for the m-th Dirichlet sine mode."""
    return (2.0 - 2.0 * math.cos(m * math.pi * domain.h / domain.L)) \
        / domain.h ** 2


def test_domain_geometry():
    dom = Domain1D(2.0, 3)
    assert dom.h == 0.5
    assert np.allclose(dom.x, [0.5, 1.0, 1.5])
    with pytest.raises(ValueError):
        Domain1D(0.0, 16)
    with pytest.raises(ValueError):
        Domain1D(1.0, 2)


def test_time_grid_weights():
    tg = TimeGrid(1.0, 4)
    assert tg.dt == 0.25
    assert np.allclose(tg.t, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.allclose(tg.weights, [0.125, 0.25, 0.25, 0.25, 0.125])
    assert tg.weights.sum() == pytest.approx(tg.T)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)


def test_shape_checks():
    dom = Domain1D(1.0, 8)
    tg = TimeGrid(1.0, 4)
    with pytest.raises(DomainMismatchError):
        as_field(dom, np.zeros(5))
    with pytest.raises(DomainMismatchError):
        as_trajectory(dom, tg, np.zeros((3, 8)))
    assert as_field(dom, np.zeros(8)).shape == (8,)


def test_summation_by_parts(rng):
    dom = Domain1D(1.7, 41)
    f = rng.standard_normal(41)
    g = rng.standard_normal(41)
    # centered d1 with zero extension is exactly antisymmetric
    assert inner_h(dom, d1(dom, f), g) == pytest.approx(
        -inner_h(dom, f, d1(dom, g)), abs=1e-14)
    assert inner_h(dom, d2(dom, f), g) == pytest.approx(
        inner_h(dom, f, d2(dom, g)), abs=1e-13)


def test_d1_d2_accuracy():
    errs1, errs2 = [], []
    for n in (32, 64, 128):
        dom = Domain1D(2.0, n)
        f = np.sin(math.pi * dom.x / 2.0)
        df = (math.pi / 2.0) * np.cos(math.pi * dom.x / 2.0)
        d2f = -(math.pi / 2.0) ** 2 * f
        errs1.append(np.max(np.abs(d1(dom, f) - df)))
        errs2.append(np.max(np.abs(d2(dom, f) - d2f)))
    for errs in (errs1, errs2):
        order = math.log2(errs[0] / errs[2]) / 2.0
        assert order > 1.9


def test_stencils_act_on_frame_stacks(rng):
    dom = Domain1D(1.3, 17)
    stack = rng.standard_normal((2, 5, 17))
    for op in (d1, d2):
        whole = op(dom, stack)
        for idx in np.ndindex(2, 5):
            assert np.array_equal(whole[idx], op(dom, stack[idx]))
        with pytest.raises(DomainMismatchError):
            op(dom, np.zeros((17, 4)))


def test_d2_eigenmode_exact():
    dom = Domain1D(1.0, 33)
    for m in (1, 2, 5):
        mode = np.sin(m * math.pi * dom.x)
        lam = disc_eig(dom, m)
        assert np.max(np.abs(d2(dom, mode) + lam * mode)) < 1e-11


def test_wall_slopes_exact_for_quadratic():
    dom = Domain1D(2.0, 27)
    f = dom.x * (dom.L - dom.x)
    s0, sL = wall_slopes(dom, f)
    assert s0 == pytest.approx(dom.L, abs=1e-12)
    assert sL == pytest.approx(-dom.L, abs=1e-12)


def test_grad_norm_sq_wall_corrected():
    # integral of (pi/L cos(pi x/L))^2 over (0, L) is (pi/L)^2 L / 2
    errs = []
    for n in (128, 256, 512):
        dom = Domain1D(2.0, n)
        f = np.sin(math.pi * dom.x / dom.L)
        exact = (math.pi / dom.L) ** 2 * dom.L / 2.0
        errs.append(abs(grad_norm_sq(dom, f) - exact))
    order = math.log2(errs[0] / errs[2]) / 2.0
    assert order > 1.9
    # interior-only sum misses the wall density at first order
    dom = Domain1D(2.0, 64)
    f = np.sin(math.pi * dom.x / dom.L)
    interior = dom.h * float(d1(dom, f) @ d1(dom, f))
    exact = (math.pi / dom.L) ** 2 * dom.L / 2.0
    assert abs(interior - exact) > 10.0 * abs(grad_norm_sq(dom, f) - exact)


def test_norm_h_and_inner():
    dom = Domain1D(1.0, 9)
    f = np.ones(9)
    assert norm_h(dom, f) == pytest.approx(math.sqrt(9 * dom.h))
    assert inner_h(dom, f, f) == pytest.approx(9 * dom.h)


def test_vstar_eigenmode_oracle():
    dom = Domain1D(1.5, 47)
    for m in (1, 3):
        mode = np.sin(m * math.pi * dom.x / dom.L)
        lam = disc_eig(dom, m)
        expect = norm_h(dom, mode) / math.sqrt(1.0 + lam)
        assert math.sqrt(norm_vstar_sq(dom, mode)) == pytest.approx(
            expect, rel=1e-12)


def test_vstar_below_h(rng):
    dom = Domain1D(1.0, 21)
    for _ in range(5):
        f = rng.standard_normal(21)
        assert math.sqrt(norm_vstar_sq(dom, f)) <= norm_h(dom, f) * (
            1.0 + 1e-12)


def test_trajectory_norms(rng):
    dom = Domain1D(1.0, 16)
    tg = TimeGrid(0.7, 9)
    f = rng.standard_normal(16)
    Y = np.tile(f, (10, 1))
    # constant-in-time: no quotient contribution, plain L2(V) value
    assert norm_wv(dom, tg, Y) == pytest.approx(norm_l2v(dom, tg, Y), rel=1e-13)
    assert norm_ct_h(dom, tg, Y) == pytest.approx(norm_h(dom, f), rel=1e-13)
    assert norm_l2h(dom, tg, Y) == pytest.approx(
        math.sqrt(tg.T) * norm_h(dom, f), rel=1e-12)


def test_norm_v_pythagoras(rng):
    dom = Domain1D(1.0, 15)
    f = rng.standard_normal(15)
    fx = d1(dom, f)
    expect = dom.h * float(f @ f) + dom.h * float(fx @ fx)
    assert norm_v_sq(dom, f) == pytest.approx(expect, rel=1e-14)


def test_embedding_constant_deterministic():
    dom = Domain1D(1.0, 24)
    tg = TimeGrid(0.5, 20)
    a = measure_embedding_constant(dom, tg, np.random.default_rng(7), 8)
    b = measure_embedding_constant(dom, tg, np.random.default_rng(7), 8)
    assert a == b
    assert a > 0.0
    # the estimate dominates the sampled trajectories by construction
    Y = next(random_smooth_trajectories(dom, tg, np.random.default_rng(7), 1))
    assert norm_ct_h(dom, tg, Y) <= a * norm_wv(dom, tg, Y) * (1.0 + 1e-12)


def stacked_smooth_trajectories(domain, tg, rng, n_samples):
    """Oracle: all n_samples trajectories as one (n_samples, N+1, n) stack,
    from the same single coefficient draw."""
    ms = np.arange(1, min(8, domain.n_interior) + 1)
    sines = np.sin(np.outer(domain.x, ms * math.pi / domain.L))
    ks = np.arange(6)
    coef = rng.standard_normal((n_samples, ms.size, ks.size))
    coef /= (1.0 + ks) ** 2
    cosines = np.cos(np.outer(tg.t / tg.T, ks * math.pi))
    prof = cosines @ np.swapaxes(coef, -1, -2) / ms ** 2
    return prof @ sines.T


@pytest.mark.parametrize("n,N,n_samples,seed", [
    (3, 1, 1, 7), (5, 7, 3, 12345), (24, 20, 8, 7), (48, 160, 16, 4242),
    (257, 33, 33, 12345)])
def test_smooth_trajectories_match_stack(n, N, n_samples, seed):
    # built one at a time, each trajectory is its slice of the stack, bit
    # for bit, and the generator ends in the same state
    dom, tg = Domain1D(2.0, n), TimeGrid(0.8, N)
    rng_a, rng_b = (np.random.default_rng(seed) for _ in range(2))
    got = list(random_smooth_trajectories(dom, tg, rng_a, n_samples))
    want = stacked_smooth_trajectories(dom, tg, rng_b, n_samples)
    assert len(got) == n_samples
    for Y, Z in zip(got, want):
        assert Y.shape == Z.shape and Y.tobytes() == Z.tobytes()
    assert rng_a.random() == rng_b.random()


# (function, number of trailing axes one value is taken over): 1 for the
# per-frame norms, the solve and the velocity, which take frame stacks, 2
# for the trajectory norms, which take one trajectory
STACK_AWARE = {
    "inner_h": (lambda dom, tg, f: inner_h(dom, f, np.cos(f)), 1),
    "norm_h_sq": (lambda dom, tg, f: norm_h_sq(dom, f), 1),
    "norm_h": (lambda dom, tg, f: norm_h(dom, f), 1),
    "norm_v_sq": (lambda dom, tg, f: norm_v_sq(dom, f), 1),
    "norm_vstar_sq": (lambda dom, tg, f: norm_vstar_sq(dom, f), 1),
    "grad_norm_sq": (lambda dom, tg, f: grad_norm_sq(dom, f), 1),
    "wall_slopes": (lambda dom, tg, f: wall_slopes(dom, f), 1),
    "solve": (lambda dom, tg, f: get_operator(dom).solve(f), 1),
    "velocity": (lambda dom, tg, f: velocity(dom, f), 1),
    "norm_ct_h": (lambda dom, tg, f: norm_ct_h(dom, tg, f), 2),
    "norm_l2v": (lambda dom, tg, f: norm_l2v(dom, tg, f), 2),
    "norm_wv": (lambda dom, tg, f: norm_wv(dom, tg, f), 2),
}
LEADS = {"frames": (), "trajectories": (3,), "stack2d": (2, 2)}


@pytest.mark.parametrize("name,lead", [
    pytest.param(name, lead, id=f"{name}-{lid}")
    for name in sorted(STACK_AWARE) for lid, lead in LEADS.items()
    if STACK_AWARE[name][1] == 1 or not lead])
def test_stack_matches_per_frame(name, lead, rng):
    """A stack (N+1, n), (k, N+1, n) or (j, k, N+1, n) gives each frame's
    own value bit for bit, and one field still gives Python floats; a
    trajectory norm gives one trajectory a Python float."""
    dom = Domain1D(1.3, 19)
    tg = TimeGrid(0.6, 12)
    fn, core = STACK_AWARE[name]
    stack = rng.standard_normal(lead + (tg.n_steps + 1, dom.n_interior))

    def parts(out):
        return out if isinstance(out, tuple) else (out,)

    whole = parts(fn(dom, tg, stack))
    for idx in np.ndindex(stack.shape[:stack.ndim - core]):
        one = parts(fn(dom, tg, stack[idx]))
        assert len(one) == len(whole)
        for w, o in zip(whole, one):
            assert np.ndim(o) > 0 or type(o) is float
            assert np.asarray(w)[idx].tobytes() == np.asarray(o).tobytes()


def test_trajectory_norms_take_one_trajectory(rng):
    """The trajectory norms give one (N+1, n) trajectory a Python float and
    refuse a stack of them as a misshapen trajectory."""
    dom = Domain1D(1.3, 19)
    tg = TimeGrid(0.6, 12)
    stack = rng.standard_normal((3, tg.n_steps + 1, dom.n_interior))
    for norm in (norm_ct_h, norm_l2v, norm_wv):
        assert type(norm(dom, tg, stack[0])) is float
        with pytest.raises(DomainMismatchError, match="trajectory has shape"):
            norm(dom, tg, stack)
