"""Experiment configuration: one JSON file, strict validation, canonical
hashing.

Unknown sections or keys are rejected by dotted name; missing required
fields are reported by dotted name. The resolved configuration (defaults
filled in, every value normalized) is hashed with sha256 over a canonical
serialization, and that hash is stamped into every output file so results
can be traced to the exact settings that produced them.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from .errors import ConfigError
from .forward import ControlWindow, ModelParams
from .grid import Domain1D, TimeGrid

_BOOL = ("bool",)
_NUM = ("int", "float")
_INT = ("int",)
_STR = ("str",)

# section -> {key: (types, required, default)}
SCHEMA = {
    "domain": {
        "L": (_NUM, True, None),
        "n_interior": (_INT, True, None),
    },
    "time": {
        "T": (_NUM, True, None),
        "n_steps": (_INT, True, None),
    },
    "model": {
        "epsilon": (_NUM, True, None),
        "k": (_NUM, False, 0.0),
    },
    "window": {
        # None means the middle half of the respective axis
        "a": (_NUM, False, None),
        "b": (_NUM, False, None),
        "t0": (_NUM, False, None),
        "t1": (_NUM, False, None),
    },
    "cost": {
        "delta": (_NUM, False, 1e-4),
        "z_d": (_STR, False, "uncontrolled"),
    },
    "initial": {
        "kind": (_STR, False, "sine_mix"),
        "coefficients": (("list",), False, [0.5, 0.2]),
    },
    "control": {
        "kind": (_STR, False, "zero"),
        "amplitude": (_NUM, False, 1.0),
    },
    "optimizer": {
        "tol_g": (_NUM, False, 1e-6),
        "tol_g_abs": (_NUM, False, 0.0),
        "max_iters": (_INT, False, 200),
        "method": (_STR, False, "lbfgs"),
        "memory": (_INT, False, 8),
        "step0": (_NUM, False, 1.0),
    },
    "gradcheck": {
        "n_directions": (_INT, False, 5),
        "fd_step": (_NUM, False, 1e-5),
        "taylor_steps": (("list",), False, [1e-2, 1e-3, 1e-4, 1e-5]),
        "amplitude": (_NUM, False, 1.0),
        "tol_rel": (_NUM, False, 1e-6),
    },
    "verify": {
        "n_hessian_samples": (_INT, False, 20),
        "n_embed_samples": (_INT, False, 16),
        "gronwall_C": (_NUM, False, None),
        "smallness_C_eps": (_NUM, False, 1.0),
    },
    "seed": (_INT, False, 12345),
    "output": {
        "dir": (_STR, False, "out"),
    },
    "debug": {
        "sabotage_gradient": (_BOOL, False, False),
        "corrupt_trajectory": (_BOOL, False, False),
    },
}

_TYPE_MAP = {"int": int, "float": float, "str": str, "bool": bool,
             "list": list}


def _check_type(value, types, path: str):
    ok = False
    for t in types:
        py = _TYPE_MAP[t]
        if py is float and isinstance(value, int) and not isinstance(value, bool):
            ok = True
        elif isinstance(value, py) and not (py is int and isinstance(value, bool)):
            ok = True
    if not ok:
        raise ConfigError(f"{path}: expected {'/'.join(types)}, "
                          f"got {type(value).__name__}")
    if "float" in types and not _finite_number(value):
        raise ConfigError(f"{path}: must be a finite number, got {value!r}")
    return value


def _finite_number(v) -> bool:
    """An int or float that converts to a finite float."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def resolve_config(raw: dict) -> dict:
    """Validate a raw dict against the schema and fill defaults.

    Raises ConfigError naming the offending dotted field for unknown keys,
    missing required keys, type mismatches, non-finite numbers (json.load
    accepts NaN and Infinity) and values out of range.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    for section in raw:
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section {section!r}")
    resolved = {}
    for section, spec in SCHEMA.items():
        if not isinstance(spec, dict):  # scalar top-level entry (seed)
            types, required, default = spec
            if section in raw:
                resolved[section] = _check_type(raw[section], types, section)
            elif required:
                raise ConfigError(f"missing required config field {section!r}")
            else:
                resolved[section] = default
            continue
        got = raw.get(section, {})
        if not isinstance(got, dict):
            raise ConfigError(f"{section}: expected an object")
        for key in got:
            if key not in spec:
                raise ConfigError(f"unknown config field '{section}.{key}'")
        out = {}
        for key, (types, required, default) in spec.items():
            if key in got:
                val = got[key]
                if val is not None:
                    val = _check_type(val, types, f"{section}.{key}")
                out[key] = val
            elif required:
                raise ConfigError(f"missing required config field "
                                  f"'{section}.{key}'")
            else:
                out[key] = default
        resolved[section] = out
    _validate_semantics(resolved)
    return resolved


def window_coords(cfg: dict):
    """Window box (a, b, t0, t1); omitted sides default to the middle half."""
    L = float(cfg["domain"]["L"])
    T = float(cfg["time"]["T"])
    w = cfg["window"]
    a = 0.25 * L if w["a"] is None else float(w["a"])
    b = 0.75 * L if w["b"] is None else float(w["b"])
    t0 = 0.25 * T if w["t0"] is None else float(w["t0"])
    t1 = 0.75 * T if w["t1"] is None else float(w["t1"])
    return a, b, t0, t1


def _validate_semantics(cfg: dict):
    """Re-run the module-level invariants so bad values fail at load time."""
    try:
        domain = Domain1D(float(cfg["domain"]["L"]),
                          int(cfg["domain"]["n_interior"]))
        tg = TimeGrid(float(cfg["time"]["T"]), int(cfg["time"]["n_steps"]))
        ModelParams(float(cfg["model"]["epsilon"]), float(cfg["model"]["k"]))
        ControlWindow(domain, tg, *window_coords(cfg))
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    if cfg["cost"]["delta"] <= 0:
        raise ConfigError("cost.delta must be positive")
    if cfg["cost"]["z_d"] not in ("zero", "uncontrolled", "twin"):
        raise ConfigError(f"cost.z_d: unknown value {cfg['cost']['z_d']!r}")
    if cfg["initial"]["kind"] not in ("zero", "sine_mix"):
        raise ConfigError(f"initial.kind: unknown value "
                          f"{cfg['initial']['kind']!r}")
    if cfg["control"]["kind"] not in ("zero", "bump", "random"):
        raise ConfigError(f"control.kind: unknown value "
                          f"{cfg['control']['kind']!r}")
    if cfg["optimizer"]["method"] not in ("lbfgs", "gd"):
        raise ConfigError(f"optimizer.method: unknown value "
                          f"{cfg['optimizer']['method']!r}")
    if cfg["seed"] < 0:
        raise ConfigError("seed must be nonnegative")
    opt, gc, vy = cfg["optimizer"], cfg["gradcheck"], cfg["verify"]
    for name, ok, rule in (
            ("optimizer.memory", opt["memory"] >= 1, "at least 1"),
            ("optimizer.max_iters", opt["max_iters"] >= 0, "nonnegative"),
            ("optimizer.step0", opt["step0"] > 0, "positive"),
            ("gradcheck.n_directions", gc["n_directions"] >= 1, "at least 1"),
            ("gradcheck.fd_step", gc["fd_step"] > 0, "positive"),
            ("verify.n_hessian_samples", vy["n_hessian_samples"] >= 1,
             "at least 1"),
            ("verify.n_embed_samples", vy["n_embed_samples"] >= 1,
             "at least 1"),
            ("verify.smallness_C_eps", vy["smallness_C_eps"] >= 0,
             "nonnegative")):
        if not ok:
            raise ConfigError(f"{name} must be {rule}")
    if not all(map(_finite_number, cfg["initial"]["coefficients"])):
        raise ConfigError("initial.coefficients must be a list of finite "
                          "numbers")
    if not all(_finite_number(v) and v > 0 for v in gc["taylor_steps"]):
        raise ConfigError("gradcheck.taylor_steps must be positive finite "
                          "numbers")


def load_config(path) -> dict:
    try:
        with open(path) as f:
            raw = json.load(f)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return resolve_config(raw)


def config_hash(cfg: dict) -> str:
    """sha256 of the canonical serialization of a resolved config."""
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def build_problem_pieces(cfg: dict):
    """Instantiate grid, model, and window objects from a resolved config."""
    domain = Domain1D(float(cfg["domain"]["L"]),
                      int(cfg["domain"]["n_interior"]))
    tg = TimeGrid(float(cfg["time"]["T"]), int(cfg["time"]["n_steps"]))
    p = ModelParams(float(cfg["model"]["epsilon"]), float(cfg["model"]["k"]))
    window = ControlWindow(domain, tg, *window_coords(cfg))
    return domain, tg, p, window


def initial_field(cfg: dict, domain: Domain1D) -> np.ndarray:
    kind = cfg["initial"]["kind"]
    if kind == "zero":
        return np.zeros(domain.n_interior)
    coeffs = cfg["initial"]["coefficients"]
    y0 = np.zeros(domain.n_interior)
    for m, c in enumerate(coeffs, start=1):
        y0 += float(c) * np.sin(m * np.pi * domain.x / domain.L)
    return y0


def control_field(cfg: dict, window: ControlWindow,
                  rng: np.random.Generator) -> np.ndarray:
    """Synthesize the configured control on the window (zero outside)."""
    kind = cfg["control"]["kind"]
    amp = float(cfg["control"]["amplitude"])
    if kind == "zero":
        return window.zero_control()
    if kind == "random":
        return window.random_control(rng, amplitude=amp)
    # smooth space-time bump supported inside the window
    domain, tg = window.domain, window.tg
    a, b, t0, t1 = window.a, window.b, window.t0, window.t1
    xs = np.clip((domain.x - a) / max(b - a, 1e-300), 0.0, 1.0)
    ts = np.clip((tg.t - t0) / max(t1 - t0, 1e-300), 0.0, 1.0)
    bump_x = np.sin(np.pi * xs) ** 2
    bump_t = np.sin(np.pi * ts) ** 2
    from .forward import apply_B
    return apply_B(window, amp * np.outer(bump_t, bump_x))
