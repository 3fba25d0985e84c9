"""One benchmark run in a fresh process: a closed loop over one workload.

Started by run.py with BLAS/OpenMP threads pinned to 1. One client issues
one command at a time: resolve the workload config, run the runner function
in-process (what the CLI does after loading the file), gate its artifacts,
and start the next command until --seconds have passed. With --trace 1 the
commands alternate untraced and traced. Prints one JSON object on stdout.

    python3 perfbench/worker.py --workload twin-small --seed 1 --seconds 20 \
        --trace 0 --out .perfbench_out/twin-small
"""

import argparse
import contextlib
import copy
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import mchcontrol  # noqa: E402
from mchcontrol import runners  # noqa: E402
from mchcontrol.config import (  # noqa: E402
    build_problem_pieces, control_field, resolve_config)
from mchcontrol.errors import ConfigError, NumericsError  # noqa: E402
from mchcontrol.forward import norm_q0  # noqa: E402

import calibrate  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

# calibration windows between commands: before the first command, and
# after each command as a share of its wall time. Untraced commands are put
# on reference speed by the marches sampled inside them; traced ones, whose
# spans must not hold marches, by the windows around them.
CAL_START_S = 0.5
CAL_SHARE = 0.1
PIN_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS", "PYTHONHASHSEED")


def run_command(command: str, cfg: dict, out_dir) -> int:
    """The runner call with the CLI's exit-code mapping; stdout discarded."""
    fn = getattr(runners, "run_" + command)
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return fn(cfg, str(out_dir))
        except (ConfigError, OSError):
            return 2
        except NumericsError:
            return 3
        except Exception:  # the CLI would exit 1 with this traceback
            traceback.print_exc(file=sys.stderr)
            return 1


def iterations(command: str, report) -> int:
    if report is None:
        return 0
    if command == "verify":
        return int(report.get("optimizer", {}).get("n_iters", 0))
    return int(report.get("n_iters", 0))


def verify_control_error(cfg: dict, opt_state):
    """||omega_opt - omega_true|| / ||omega_true|| on the window (verify)."""
    if opt_state is None:
        return None
    _, _, _, window = build_problem_pieces(cfg)
    truth = control_field(cfg, window, np.random.default_rng(cfg["seed"]))
    return norm_q0(window, opt_state.omega - truth) / norm_q0(window, truth)


def gate_controls(out_root: Path) -> dict:
    """The gate fails the two debug sabotages and passes a clean gradcheck.

    Small grid (n=24, N=96; the smallest at which the corrupted frame still
    fails weak_residual) and no reference comparison: the verdict must come
    from the command's own checks. A clean verify is the verify-small
    workload itself.
    """
    cases = (("verify", {"corrupt_trajectory": True}, False),
             ("gradcheck", None, True),
             ("gradcheck", {"sabotage_gradient": True}, False))
    t0 = time.perf_counter()
    verdicts = []
    for i, (command, debug, should_pass) in enumerate(cases):
        raw = wl.raw_config("verify-small", 0, center=True, n=24, N=96,
                            debug=debug)
        raw["verify"] = {"n_hessian_samples": 2, "n_embed_samples": 2}
        cfg = resolve_config(raw)
        out = out_root / f"control{i}"
        shutil.rmtree(out, ignore_errors=True)
        rc = run_command(command, cfg, out)
        _, report = wl.read_artifact(command, out)
        reasons = wl.gate(command, rc, report)
        verdicts.append({"command": command, "debug": debug, "rc": rc,
                         "reasons": reasons,
                         "ok": (not reasons) == should_pass})
    return {"ok": all(v["ok"] for v in verdicts), "cases": verdicts,
            "seconds": time.perf_counter() - t0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    if not Path(mchcontrol.__file__).resolve().is_relative_to(SRC):
        print(f"mchcontrol imported from {mchcontrol.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    command = wl.WORKLOADS[args.workload]["command"]
    reference = wl.load_reference()[args.workload]
    raw = wl.raw_config(args.workload, args.seed)
    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)
    with open(out_root / "config.json", "w") as f:
        json.dump(raw, f, indent=2, sort_keys=True)

    controls = gate_controls(out_root)
    cal_points = wl.WORKLOADS[args.workload]["n"]
    cal_start = calibrate.samples(CAL_START_S, cal_points)

    artifacts = out_root / "artifacts"
    probe = tr.Probe()
    tracer = tr.Tracer() if args.trace else None
    sampler = calibrate.Sampler(cal_points)
    records = []
    first_blob = None
    loop_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(records) % 2 == 1
        t0 = time.perf_counter()
        cfg = resolve_config(copy.deepcopy(raw))
        resolve_s = time.perf_counter() - t0
        shutil.rmtree(artifacts, ignore_errors=True)
        probe.reset()
        if traced:
            tracer.reset()
            tracer.install()
        probe.install()
        try:
            t0 = time.perf_counter()
            if not traced:
                sampler.start()
            rc = run_command(command, cfg, artifacts)
            sampler.stop()
            wall = time.perf_counter() - t0
        finally:
            sampler.stop()
            probe.uninstall()
            if traced:
                tracer.uninstall()
        cal_in = [] if traced else sampler.samples

        cal = calibrate.samples(CAL_SHARE * wall, cal_points)
        blob, report = wl.read_artifact(command, artifacts)
        cer = (verify_control_error(cfg, probe.opt_state)
               if command == "verify" else None)
        reasons = wl.gate(command, rc, report, reference, cer)
        if blob is not None:
            if first_blob is None:
                first_blob = blob
            elif blob != first_blob:
                reasons.append("report differs from the run's first command")
        iters = iterations(command, report)
        rec = {"traced": traced, "wall_s": wall, "resolve_s": resolve_s,
               "cal_in_s": cal_in, "cal_s": cal, "rc": rc,
               "reasons": reasons, "iters": iters,
               "marches": sum(probe.marches.values()),
               "headline": wl.headline(command, report or {}, cer)}
        if traced:
            rec["trace"] = tr.summarize(tracer, wall, iters)
            rec["trace"]["metrics"]["config.resolve_ms"] = resolve_s * 1e3
            tr.write_spans(tracer, out_root / "spans.csv")
            tracer.reset()
        records.append(rec)

        # stop once the next command would end more than half of it past
        # --seconds, with at least one untraced (and one traced) command
        elapsed = time.perf_counter() - loop_start
        per_command = elapsed / len(records)
        n_traced = sum(r["traced"] for r in records)
        if (elapsed + 0.5 * per_command >= args.seconds
                and n_traced < len(records)
                and (tracer is None or n_traced >= 1)):
            break

    result = {
        "records": records,
        "cal_start_s": cal_start,
        "cal_ref_s": calibrate.reference_s(cal_points),
        "controls": controls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "versions": {"python": sys.version.split()[0],
                     "numpy": np.__version__, "scipy": scipy.__version__,
                     "mchcontrol": getattr(mchcontrol, "__version__", "?")},
        "env": {k: os.environ.get(k) for k in PIN_VARS},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
