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
from collections import namedtuple

import numpy as np

from .control import OptimOptions
from .errors import ConfigError
from .forward import ControlWindow, ModelParams, apply_B
from .grid import Domain1D, TimeGrid

_BOOL = (bool,)
_NUM = (int, float)
_INT = (int,)  # an int64: the grid sizes and counts index numpy arrays
_ANY_INT = (int,)  # an int of any size: numpy takes a seed of any size
_STR = (str,)
_LIST = (list,)

REQUIRED = object()  # the default of a field that every config must set

# a range rule: the test a value must pass and the words of its message
Range = namedtuple("Range", "test text")
POSITIVE = Range(lambda v: v > 0, "positive")
NONNEGATIVE = Range(lambda v: v >= 0, "nonnegative")
AT_LEAST_1 = Range(lambda v: v >= 1, "at least 1")

# section -> {key: (types, default, rule)}; a rule is None, a Range, or the
# tuple of allowed names
SCHEMA = {
    "domain": {
        "L": (_NUM, REQUIRED, None),
        "n_interior": (_INT, REQUIRED, None),
    },
    "time": {
        "T": (_NUM, REQUIRED, None),
        "n_steps": (_INT, REQUIRED, None),
    },
    "model": {
        "epsilon": (_NUM, REQUIRED, None),
        "k": (_NUM, 0.0, None),
    },
    "window": {
        # None means the middle half of the respective axis
        "a": (_NUM, None, None),
        "b": (_NUM, None, None),
        "t0": (_NUM, None, None),
        "t1": (_NUM, None, None),
    },
    "cost": {
        "delta": (_NUM, 1e-4, POSITIVE),
        "z_d": (_STR, "uncontrolled", ("zero", "uncontrolled", "twin")),
    },
    "initial": {
        "kind": (_STR, "sine_mix", ("zero", "sine_mix")),
        "coefficients": (_LIST, [0.5, 0.2], None),
    },
    "control": {
        "kind": (_STR, "zero", ("zero", "bump", "random")),
        "amplitude": (_NUM, 1.0, None),
    },
    "optimizer": {
        "tol_g": (_NUM, OptimOptions.tol_g, NONNEGATIVE),
        "tol_g_abs": (_NUM, OptimOptions.tol_g_abs, NONNEGATIVE),
        "max_iters": (_INT, OptimOptions.max_iters, NONNEGATIVE),
        "memory": (_INT, OptimOptions.memory, AT_LEAST_1),
    },
    "gradcheck": {
        "n_directions": (_INT, 5, AT_LEAST_1),
        "fd_step": (_NUM, 1e-5, POSITIVE),
        "taylor_steps": (_LIST, [1e-2, 1e-3, 1e-4, 1e-5], None),
        "tol_rel": (_NUM, 1e-6, NONNEGATIVE),
    },
    "verify": {
        "n_hessian_samples": (_INT, 20, AT_LEAST_1),
        "n_embed_samples": (_INT, 16, AT_LEAST_1),
    },
    "seed": (_ANY_INT, 12345, NONNEGATIVE),
    "output": {
        "dir": (_STR, "out", None),
    },
    "debug": {
        "sabotage_gradient": (_BOOL, False, None),
        "corrupt_trajectory": (_BOOL, False, None),
    },
}


def _check_type(value, types, path: str):
    # bool is a subclass of int, but a number field takes no bool
    if (not isinstance(value, types)
            or isinstance(value, bool) and bool not in types):
        names = "/".join(t.__name__ for t in types)
        raise ConfigError(f"{path}: expected {names}, "
                          f"got {type(value).__name__}")
    if float in types and not _finite_number(value):
        raise ConfigError(f"{path}: must be a finite number, got {value!r}")
    if types is _INT and not -2 ** 63 <= value < 2 ** 63:
        raise ConfigError(f"{path}: must fit in a 64-bit integer")


def _finite_number(v) -> bool:
    """An int or float that converts to a finite float."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def _read_field(got: dict, key: str, row, path: str):
    """The checked value of one schema row, or the default; a list is a
    copy either way, so no resolved config shares one with another or with
    raw. List items must be numbers (_validate_semantics), so the copy is
    shallow, and a nested list cannot make it recurse."""
    types, default, rule = row
    if key not in got:
        if default is REQUIRED:
            raise ConfigError(f"missing required config field {path!r}")
        val = default
    else:
        val = got[key]
        # null stands for "use the default", so only where that is null
        if val is None and default is None:
            return None
        _check_type(val, types, path)
        if isinstance(rule, Range):
            if not rule.test(val):
                raise ConfigError(f"{path} must be {rule.text}")
        elif rule is not None and val not in rule:
            raise ConfigError(f"{path}: unknown value {val!r}")
    return list(val) if isinstance(val, list) else val


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
            resolved[section] = _read_field(raw, section, spec, section)
            continue
        got = raw.get(section, {})
        if not isinstance(got, dict):
            raise ConfigError(f"{section}: expected an object")
        for key in got:
            if key not in spec:
                raise ConfigError(f"unknown config field '{section}.{key}'")
        resolved[section] = {key: _read_field(got, key, row,
                                              f"{section}.{key}")
                             for key, row in spec.items()}
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
    """The checks that span fields or list items: the grid sizes, the grid,
    model and window constructors, the sample stacks and the list rules;
    a size or count whose arrays cannot be allocated is named."""
    n, N = cfg["domain"]["n_interior"], cfg["time"]["n_steps"]
    # the window allocates the N + 1 frame times, then the n node coordinates
    for path, value, size in (("time.n_steps", N, N + 1),
                              ("domain.n_interior", n, n)):
        try:
            np.empty(max(size, 0))
        except (ValueError, MemoryError) as exc:  # numpy: past 2**63 bytes
            raise ConfigError(f"the grid does not fit in memory: {path} = "
                              f"{value}: {exc}") from exc
    try:
        build_problem_pieces(cfg)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    # a sample is an (N+1, n) lattice; the embedding sampler first draws
    # 6 time coefficients for each of its min(8, n) space modes
    for key, size in (("n_hessian_samples", (N + 1) * n),
                      ("n_embed_samples", max((N + 1) * n, 6 * min(8, n)))):
        if 8 * size * cfg["verify"][key] >= 2 ** 63:
            raise ConfigError(f"verify.{key} = {cfg['verify'][key]}: its "
                              "float64 sample stack is past the 2**63 bytes "
                              "an array can hold")
    if not all(map(_finite_number, cfg["initial"]["coefficients"])):
        raise ConfigError("initial.coefficients must be a list of finite "
                          "numbers")
    steps = cfg["gradcheck"]["taylor_steps"]
    if not all(_finite_number(v) and v > 0 for v in steps):
        raise ConfigError("gradcheck.taylor_steps must be positive finite "
                          "numbers")
    if len(set(steps)) < 2:
        raise ConfigError("gradcheck.taylor_steps needs at least two distinct "
                          "values to fit the remainder order")


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, UTF-8 or nesting
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
    y0 = np.zeros(domain.n_interior)
    if cfg["initial"]["kind"] == "sine_mix":
        for m, c in enumerate(cfg["initial"]["coefficients"], start=1):
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
    return apply_B(window, amp * np.outer(bump_t, bump_x))
