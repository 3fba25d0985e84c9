"""Benchmark workloads, their seeded configs, and the correctness gate.

Standard library only, so the orchestrator can import it without numpy.
Every workload starts from the README config (L=2, T=0.8, eps=0.08, k=0.6,
window (0.5, 1.5) x (0.2, 0.6), bump control of amplitude 0.8, twin target,
delta=1e-4, tol_g=1e-6) and differs only in grid size and command.
"""

import json
import math
import os
import random

# why each workload exists is recorded in BENCHMARK.json and NOTES.md
WORKLOADS = {
    "twin-small": {"command": "twin", "n": 48, "N": 240},
    "twin-refined": {"command": "twin", "n": 256, "N": 500},
    "verify-small": {"command": "verify", "n": 48, "N": 240},
}

# initial.coefficients are drawn from this relative band around the center
COEFF_CENTER = (0.35, 0.15)
COEFF_BAND = 0.01

# relative tolerances of the reference comparison in the gate; they cover
# the coefficient band and optimizer stopping noise observed at the seed code
REF_RTOL = {"J_final": 1e-4, "control_error_rel": 0.03}
# acceptance test 8 applies its 1e-4 to an optimum refined to ||g|| <= 2e-10;
# the twin command at tol_g=1e-6 stops near 0.045, so the gate caps it here
TWIN_LAMBDA_RATIO_MAX = 0.1
TWIN_DROP_MIN = 100.0

_HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(_HERE, "reference.json")


def coefficients(seed: int, center: bool = False):
    """initial.coefficients for a seed: center * (1 + U(-band, band))."""
    if center:
        return list(COEFF_CENTER)
    rnd = random.Random(seed)
    return [c * (1.0 + COEFF_BAND * rnd.uniform(-1.0, 1.0))
            for c in COEFF_CENTER]


def raw_config(workload: str, seed: int, center: bool = False,
               n=None, N=None, debug=None) -> dict:
    """The JSON config a CLI user would write for this workload and seed."""
    w = WORKLOADS[workload]
    cfg = {
        "domain": {"L": 2.0, "n_interior": w["n"] if n is None else n},
        "time": {"T": 0.8, "n_steps": w["N"] if N is None else N},
        "model": {"epsilon": 0.08, "k": 0.6},
        "window": {"a": 0.5, "b": 1.5, "t0": 0.2, "t1": 0.6},
        "initial": {"kind": "sine_mix",
                    "coefficients": coefficients(seed, center)},
        "control": {"kind": "bump", "amplitude": 0.8},
        "cost": {"delta": 1e-4, "z_d": "twin"},
        "optimizer": {"tol_g": 1e-6, "max_iters": 200},
        "seed": int(seed),
    }
    if debug:
        cfg["debug"] = dict(debug)
    return cfg


def load_reference() -> dict:
    with open(REFERENCE_PATH) as f:
        return json.load(f)["workloads"]


def read_artifact(command: str, out_dir):
    """Bytes and parsed JSON report of the command, or (None, None)."""
    try:
        with open(os.path.join(out_dir, command + ".json"), "rb") as f:
            blob = f.read()
    except FileNotFoundError:
        return None, None
    return blob, json.loads(blob)


def _rel_dev(value, ref) -> float:
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        return math.inf
    return abs(value - ref) / abs(ref)


def headline(command: str, report: dict, control_error_rel=None) -> dict:
    """J_final and control_error_rel as the gate compares them."""
    if command == "twin":
        return {"J_final": report.get("J_final"),
                "control_error_rel": report.get("control_error_rel")}
    if command == "verify":
        return {"J_final": report.get("optimizer", {}).get("J_final"),
                "control_error_rel": control_error_rel}
    return {}


def gate(command: str, rc, report, reference=None,
         control_error_rel=None) -> list:
    """Reasons the command failed; an empty list means it passed.

    twin: exit 0, converged, J drop >= 100x, lambda_ratio capped.
    verify: exit 0, converged optimizer, every hard check PASS.
    gradcheck: exit 0 and passed.
    With a reference, J_final and control_error_rel must also lie within
    REF_RTOL of it.
    """
    reasons = []
    if rc != 0:
        reasons.append(f"exit code {rc}")
    if report is None:
        return reasons + ["no report written"]
    if command == "twin":
        if report.get("converged") is not True:
            reasons.append("optimizer did not converge")
        drop = report.get("J_drop_factor")
        if not isinstance(drop, (int, float)) or not drop >= TWIN_DROP_MIN:
            reasons.append(f"J drop {drop} < {TWIN_DROP_MIN}")
        lr = report.get("lambda_ratio")
        if not isinstance(lr, (int, float)) or not lr <= TWIN_LAMBDA_RATIO_MAX:
            reasons.append(f"lambda_ratio {lr} > {TWIN_LAMBDA_RATIO_MAX}")
    elif command == "verify":
        if report.get("passed") is not True:
            reasons.append("verify reported FAIL")
        for chk in report.get("hard", []):
            if chk.get("passed") is not True:
                reasons.append(f"hard check {chk.get('name')} FAIL")
        if report.get("optimizer", {}).get("converged") is not True:
            reasons.append("optimizer did not converge")
    elif command == "gradcheck":
        if report.get("passed") is not True:
            reasons.append("gradcheck reported FAIL")
    else:
        raise ValueError(f"no gate for command {command!r}")
    if reference is not None:
        got = headline(command, report, control_error_rel)
        for key, rtol in REF_RTOL.items():
            dev = _rel_dev(got.get(key), reference[key])
            if not dev <= rtol:
                reasons.append(f"{key}={got.get(key)} deviates {dev:.3g} "
                               f"from reference {reference[key]} "
                               f"(rtol {rtol})")
    return reasons
