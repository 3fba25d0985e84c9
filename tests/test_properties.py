"""Property tests of the extension operator B on random small grids and
windows (windows that end at T and windows that span [0, L] are drawn too),
and of resolve_config on boundary values in random schema fields."""

import json
import math

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from mchcontrol.config import SCHEMA, resolve_config
from mchcontrol.errors import ConfigError
from mchcontrol.forward import (ControlWindow, ModelParams, apply_B,
                                inner_q0, solve_forward)
from mchcontrol.grid import Domain1D, TimeGrid
from mchcontrol.tangent_adjoint import pairing_defect

# few examples and no example database: tier-1 stays fast and a run
# writes nothing into the checkout
PROPERTY = settings(max_examples=30, database=None, deadline=None)


@st.composite
def windows(draw):
    """A window on a random grid, drawn by the node and step ranges it
    covers: nodes i0..i1 and the steps that start in [t_k0, t_k1], where
    k1 = N gives t1 = T. Its box edges sit half a cell off the end nodes,
    or on the walls, so the drawn ranges are the window block."""
    dom = Domain1D(draw(st.sampled_from([1.0, 2.0, math.pi])),
                   draw(st.integers(3, 12)))
    tg = TimeGrid(draw(st.sampled_from([0.25, 0.5])), draw(st.integers(1, 12)))
    n, N, x, t = dom.n_interior, tg.n_steps, dom.x, tg.t
    i0 = draw(st.integers(0, n - 1))
    i1 = draw(st.integers(i0, n - 1))
    k0 = draw(st.integers(0, N - 1))
    k1 = draw(st.integers(k0 + 1, N))
    a = 0.0 if i0 == 0 and draw(st.booleans()) else x[i0] - 0.5 * dom.h
    b = dom.L if i1 == n - 1 and draw(st.booleans()) else x[i1] + 0.5 * dom.h
    w = ControlWindow(dom, tg, a, b, t[k0], t[k1])
    assert w.block == (slice(k0, min(k1, N - 1) + 1), slice(i0, i1 + 1))
    return w


def lattices(w, elements):
    return hnp.arrays(np.float64, w.shape, elements=elements)


ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
FINITE = st.floats(-1e3, 1e3)


@PROPERTY
@given(st.data())
def test_apply_B_is_idempotent_bytewise(data):
    w = data.draw(windows())
    bq = apply_B(w, data.draw(lattices(w, ANY_FLOAT)))
    assert apply_B(w, bq).tobytes() == bq.tobytes()


@PROPERTY
@given(st.data())
def test_apply_B_reads_only_the_window_block(data):
    w = data.draw(windows())
    q = data.draw(lattices(w, ANY_FLOAT))
    r = data.draw(lattices(w, ANY_FLOAT))
    r[w.block] = q[w.block]
    bq = apply_B(w, q)
    assert apply_B(w, r).tobytes() == bq.tobytes()
    off = np.ones(w.shape, dtype=bool)
    off[w.block] = False
    assert bq[off].tobytes() == np.zeros(np.count_nonzero(off)).tobytes()


@PROPERTY
@given(st.data())
def test_apply_B_is_self_adjoint_under_the_lattice_sum(data):
    w = data.draw(windows())
    p = data.draw(lattices(w, FINITE))
    q = data.draw(lattices(w, FINITE))
    assert np.sum(apply_B(w, p) * q) == np.sum(p * apply_B(w, q))


@PROPERTY
@given(st.data())
def test_inner_q0_reads_through_B(data):
    w = data.draw(windows())
    p = data.draw(lattices(w, FINITE))
    q = data.draw(lattices(w, FINITE))
    assert inner_q0(w, p, q) == inner_q0(w, apply_B(w, p), apply_B(w, q))


@PROPERTY
@given(windows(), st.integers(0, 2 ** 32 - 1))
def test_tangent_and_adjoint_are_transposes(w, seed):
    """The transpose identity <m(q), s>_L2H = <q, lambda(s)>_Q0 at 1e-10,
    about a march under a random control on the window."""
    rng = np.random.default_rng(seed)
    dom, tg = w.domain, w.tg
    p = ModelParams(epsilon=0.1, k=0.4)
    y0 = 0.1 * np.sin(math.pi * dom.x / dom.L)
    ft = solve_forward(dom, tg, p, y0, w.random_control(rng, 0.1))
    q = w.random_control(rng)
    s = rng.standard_normal(w.shape)
    assert pairing_defect(ft, w, q, s, p) <= 1e-10


# every schema field by its path in the raw config: ("seed",) or
# (section, key)
FIELDS = [(section,) if not isinstance(spec, dict) else (section, key)
          for section, spec in SCHEMA.items()
          for key in (spec if isinstance(spec, dict) else [None])]
# per-field boundary values; an int or a float goes into any field, so type
# mismatches are drawn too. No grid size between 3 and 2**62 is drawn, so a
# resolve allocates no large array.
BOUNDARY = [-1, 0, 3, 2 ** 62, 2 ** 63 - 1, 2 ** 63, 10 ** 400,
            5e-324, 1e-300, 1e308, -1.0, math.nan]
SMALL_CONFIG = {"domain": {"L": 2.0, "n_interior": 24},
                "time": {"T": 0.5, "n_steps": 60},
                "model": {"epsilon": 0.1, "k": 0.4}}


@settings(PROPERTY, max_examples=200)
@given(st.lists(st.tuples(st.sampled_from(FIELDS), st.sampled_from(BOUNDARY)),
                max_size=3))
# each of these left resolve_config or a command with a traceback
@example([(("domain", "n_interior"), 10 ** 400)])
@example([(("time", "n_steps"), 2 ** 63)])
@example([(("time", "n_steps"), 2 ** 63 - 1)])
@example([(("optimizer", "memory"), 2 ** 63)])
def test_resolve_config_resolves_or_raises_config_error(fields):
    """A config with boundary values in random fields resolves or raises
    ConfigError, nothing else; every int that resolves, the seed aside,
    fits in int64."""
    raw = json.loads(json.dumps(SMALL_CONFIG))
    for path, value in fields:
        if len(path) == 1:
            raw[path[0]] = value
        else:
            raw.setdefault(path[0], {})[path[1]] = value
    try:
        cfg = resolve_config(raw)
    except ConfigError:
        return
    for section, key in (path for path in FIELDS if len(path) == 2):
        if SCHEMA[section][key][0] == (int,):
            assert -2 ** 63 <= cfg[section][key] < 2 ** 63, (section, key)
