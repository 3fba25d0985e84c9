import json

import numpy as np
import pytest

from mchcontrol.errors import ConfigError
from mchcontrol.config import (resolve_config, load_config, config_hash,
                               window_coords, build_problem_pieces,
                               initial_field, control_field)

MINIMAL = {"domain": {"L": 2.0, "n_interior": 16},
           "time": {"T": 0.5, "n_steps": 20},
           "model": {"epsilon": 0.1}}


def minimal(**overrides):
    raw = json.loads(json.dumps(MINIMAL))
    for section, vals in overrides.items():
        if isinstance(vals, dict):
            raw.setdefault(section, {}).update(vals)
        else:
            raw[section] = vals
    return raw


def test_defaults_filled():
    cfg = resolve_config(minimal())
    assert cfg["model"]["k"] == 0.0
    assert cfg["cost"] == {"delta": 1e-4, "z_d": "uncontrolled"}
    assert cfg["seed"] == 12345
    assert cfg["output"]["dir"] == "out"
    assert cfg["debug"] == {"sabotage_gradient": False,
                            "corrupt_trajectory": False}
    assert cfg["window"] == {"a": None, "b": None, "t0": None, "t1": None}


def test_missing_required_named():
    raw = minimal()
    del raw["model"]["epsilon"]
    with pytest.raises(ConfigError, match=r"'model\.epsilon'"):
        resolve_config(raw)
    with pytest.raises(ConfigError, match=r"'domain\.L'"):
        resolve_config({"domain": {"n_interior": 4},
                        "time": {"T": 1.0, "n_steps": 2},
                        "model": {"epsilon": 1.0}})


def test_unknown_section_and_key():
    with pytest.raises(ConfigError, match="unknown config section"):
        resolve_config(minimal(extra={"x": 1}))
    with pytest.raises(ConfigError, match=r"'model\.viscosity'"):
        resolve_config(minimal(model={"viscosity": 0.1}))
    # the misfit is fixed to L2(0,T;H), so cost has no observer field
    with pytest.raises(ConfigError, match=r"'cost\.observer'"):
        resolve_config(minimal(cost={"observer": "identity_L2H"}))
    # L-BFGS is the only optimizer, and verify fits no growth constant
    with pytest.raises(ConfigError, match=r"'optimizer\.method'"):
        resolve_config(minimal(optimizer={"method": "lbfgs"}))
    with pytest.raises(ConfigError, match=r"'verify\.gronwall_C'"):
        resolve_config(minimal(verify={"gronwall_C": 1.0}))


def test_type_checks():
    with pytest.raises(ConfigError, match="domain.n_interior"):
        resolve_config(minimal(domain={"n_interior": 16.0}))
    with pytest.raises(ConfigError, match="bool"):
        resolve_config(minimal(time={"n_steps": True}))
    with pytest.raises(ConfigError, match="debug.sabotage_gradient"):
        resolve_config(minimal(debug={"sabotage_gradient": 1}))
    cfg = resolve_config(minimal(model={"epsilon": 1}))  # int where float ok
    assert cfg["model"]["epsilon"] == 1
    with pytest.raises(ConfigError):
        resolve_config([1, 2])
    with pytest.raises(ConfigError, match="expected an object"):
        resolve_config(minimal(model=3))
    # null means "the default", so it passes only where the default is null
    assert resolve_config(minimal(window={"a": None}))["window"]["a"] is None
    with pytest.raises(ConfigError, match="optimizer.memory"):
        resolve_config(minimal(optimizer={"memory": None}))


def test_semantic_checks():
    for bad in ({"cost": {"delta": 0.0}},
                {"cost": {"observer": "huh"}},
                {"cost": {"z_d": "huh"}},
                {"initial": {"kind": "huh"}},
                {"control": {"kind": "huh"}},
                {"optimizer": {"method": "huh"}},
                {"seed": -1},
                {"domain": {"n_interior": 0}},
                {"time": {"n_steps": 0}},
                {"model": {"epsilon": -0.1}},
                {"window": {"a": 1.5, "b": 0.5}},
                {"window": {"t1": 9.0}},
                {"initial": {"coefficients": [0.1, "x"]}},
                {"gradcheck": {"taylor_steps": [1e-2, -1e-3]}},
                {"gradcheck": {"taylor_steps": []}},
                {"gradcheck": {"taylor_steps": [1e-3]}},
                {"gradcheck": {"taylor_steps": [1e-3, 1e-3]}},
                {"gradcheck": {"tol_rel": -1e-6}},
                {"gradcheck": {"amplitude": 0.0}},
                {"optimizer": {"tol_g": -1e-6}},
                {"optimizer": {"tol_g_abs": -1e-6}},
                {"verify": {"n_hessian_samples": 0}},
                {"verify": {"n_embed_samples": 0}},
                {"verify": {"smallness_C_eps": -1e-3}}):
        with pytest.raises(ConfigError):
            resolve_config(minimal(**bad))


def test_window_defaults_middle_half():
    cfg = resolve_config(minimal())
    assert window_coords(cfg) == (0.5, 1.5, 0.125, 0.375)
    cfg = resolve_config(minimal(window={"a": 0.2, "t1": 0.4}))
    assert window_coords(cfg) == (0.2, 1.5, 0.125, 0.4)


def test_hash_canonical():
    a = resolve_config(minimal())
    raw = {"model": {"epsilon": 0.1}, "time": {"n_steps": 20, "T": 0.5},
           "domain": {"n_interior": 16, "L": 2.0}}
    b = resolve_config(raw)
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 64
    c = resolve_config(minimal(seed=7))
    assert config_hash(c) != config_hash(a)


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(MINIMAL))
    assert load_config(good)["domain"]["L"] == 2.0


def test_build_problem_pieces():
    cfg = resolve_config(minimal())
    domain, tg, p, window = build_problem_pieces(cfg)
    assert domain.n_interior == 16 and domain.L == 2.0
    assert tg.n_steps == 20 and tg.T == 0.5
    assert p.epsilon == 0.1 and p.k == 0.0
    assert (window.a, window.b, window.t0, window.t1) == (0.5, 1.5, 0.125,
                                                          0.375)


def test_initial_field_kinds():
    cfg = resolve_config(minimal(initial={"kind": "zero"}))
    domain, _, _, _ = build_problem_pieces(cfg)
    assert np.all(initial_field(cfg, domain) == 0.0)
    cfg = resolve_config(minimal(initial={"coefficients": [0.7]}))
    y0 = initial_field(cfg, domain)
    expected = 0.7 * np.sin(np.pi * domain.x / domain.L)
    assert np.allclose(y0, expected, rtol=0, atol=1e-15)
    cfg = resolve_config(minimal(initial={"coefficients": [0.0, 1.0]}))
    y0 = initial_field(cfg, domain)
    assert np.allclose(y0, np.sin(2 * np.pi * domain.x / domain.L),
                       rtol=0, atol=1e-15)


def test_control_field_kinds():
    rng = np.random.default_rng(3)
    cfg = resolve_config(minimal())
    _, _, _, window = build_problem_pieces(cfg)
    zero = control_field(cfg, window, rng)
    assert np.all(zero == 0.0) and zero.shape == window.mask.shape
    cfg = resolve_config(minimal(control={"kind": "bump", "amplitude": 2.0}))
    bump = control_field(cfg, window, rng)
    assert bump.max() > 0.0
    assert np.all(bump[window.mask == 0.0] == 0.0)
    cfg = resolve_config(minimal(control={"kind": "random"}))
    rnd = control_field(cfg, window, rng)
    assert np.all(rnd[window.mask == 0.0] == 0.0) and rnd.min() < 0.0
    # zero and bump draw nothing, so a fresh generator with the same seed
    # reproduces the random field bit for bit
    again = control_field(cfg, window, np.random.default_rng(3))
    assert np.array_equal(rnd, again)
