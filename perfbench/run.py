"""mchcontrol benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload twin-small --seed 1 --seconds 30 \
        --trace 0

Run from anywhere inside a checkout that holds src/mchcontrol. The workload
runs as a closed loop (one client, one command at a time) in a fresh worker
process with BLAS/OpenMP threads pinned to 1; set-up time is measured on
separate fresh interpreters. Every metric is printed by name and unit, then
the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. Exit status is 0 when a
result was printed, nonzero (and no result) when the benchmark itself could
not run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1", "BLIS_NUM_THREADS": "1",
       "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
       "PYTHONHASHSEED": "0"}
SETUP_REPEATS = 9
TIME_LIMIT_S = 175.0
# per-layer metrics of work only `verify` does; they read 0 on the twin
# workloads, so BENCHMARK.json does not declare them. A verify-small run
# prints them with the declared ones, but keeps them out of the JSON line.
VERIFY_ONLY_UNITS = {
    "grid.norm_wv_ms": "ms", "forward.weak_residual_ms": "ms",
    "tangent_adjoint.tangent_marches": "count",
    "tangent_adjoint.tangent_march_ms": "ms",
    "tangent_adjoint.adjoint_residual_ms": "ms",
    "control.coercivity_s": "s", "analysis.busy_s": "s"}

class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PIN)
    env["PYTHONPATH"] = str(SRC)
    return env


def machine(versions: dict, env: dict) -> dict:
    """nproc, CPU model, cache sizes, versions and the worker's pinning."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches["L" + level] = size
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, **caches,
            **versions, "worker_env": env}


def measure_setup(workload: str, seed: int, deadline: float) -> list:
    """Fresh interpreter to first get_operator, timed from the parent.

    Returns (seconds, calibration march seconds, its reference seconds) per
    probe; the probe runs the calibration after it has reported ready.
    """
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(probe, stdout=subprocess.PIPE, text=True,
                              env=child_env(), cwd=ROOT) as p:
            line = p.stdout.readline()
            t1 = time.perf_counter()
            cal = p.stdout.readline()
            try:
                p.wait(timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
                raise BenchError("set-up probe timed out")
        if line.strip() != "ready" or p.returncode != 0:
            raise BenchError(f"set-up probe failed (exit {p.returncode})")
        cal_s, ref_s = map(float, cal.split())
        times.append((t1 - t0, cal_s, ref_s))
    return times


def run_worker(args, out_dir: Path, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--out",
           str(out_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=child_env(), cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def scale_walls(res: dict):
    """Put each command's time on reference machine speed.

    A command's time is its wall time less the calibration marches sampled
    inside it. Its speed is the mean time of those marches, or, for a
    traced command, which has none, of the marches in the windows right
    before and right after it. The time is divided by that and multiplied
    by the march's reference time. Host contention slows a command and the
    calibration inside or around it alike, and cancels.
    """
    before = res["cal_start_s"]
    for rec in res["records"]:
        rec["command_s"] = rec["wall_s"] - sum(rec["cal_in_s"])
        rec["cal_mean_s"] = statistics.fmean(rec["cal_in_s"]
                                             or before + rec["cal_s"])
        rec["scaled_s"] = (rec["command_s"] * res["cal_ref_s"]
                           / rec["cal_mean_s"])
        before = rec["cal_s"]


def end_to_end(res: dict, setup_times: list) -> dict:
    """Times at reference machine speed, medians over the run."""
    untraced = [r for r in res["records"] if not r["traced"]]
    return {
        "wall_s": statistics.median(r["scaled_s"] for r in untraced),
        "setup_s": statistics.median(
            [t * ref / c for t, c, ref in setup_times]),
        "peak_rss_mb": res["peak_rss_mb"],
        "iters": statistics.median_low([r["iters"] for r in untraced]),
        "marches": statistics.median_low([r["marches"] for r in untraced]),
    }


def per_layer(res: dict) -> dict:
    traced = [r for r in res["records"] if r["traced"]]
    untraced = [r for r in res["records"] if not r["traced"]]
    metrics = {name: statistics.median([r["trace"]["metrics"][name]
                                        for r in traced])
               for name in traced[0]["trace"]["metrics"]}
    # at reference speed, like wall_s, so host drift within the run cancels
    metrics["traced_wall_s"] = statistics.median(r["scaled_s"] for r in traced)
    metrics["tracing_overhead_s"] = (
        metrics["traced_wall_s"]
        - statistics.median(r["scaled_s"] for r in untraced))
    return metrics


def consistency(res: dict) -> list:
    """Problems that make a run incorrect even if every command passed."""
    problems = []
    recs = res["records"]
    if not res["controls"]["ok"]:
        problems.append("gate controls: " + json.dumps(res["controls"]))
    for key in ("iters", "marches"):
        if len({r[key] for r in recs}) > 1:
            problems.append(f"{key} differs between commands")
    for r in recs:
        if not r["traced"]:
            continue
        t = r["trace"]
        m = t["metrics"]
        if not t["accounting_ok"]:
            problems.append(f"layer self times sum to {t['self_sum_s']:.6f} s"
                            f" but the traced wall is {r['wall_s']:.6f} s")
        spanned = (m["forward.marches"] + m["tangent_adjoint.tangent_marches"]
                   + m["tangent_adjoint.adjoint_marches"])
        if spanned != r["marches"]:
            problems.append(f"traced marches {spanned} != counted "
                            f"{r['marches']}")
    return problems


def report(args, res: dict, setup_times: list, metrics: dict, units: dict,
           problems: list, info: dict, extra: dict) -> dict:
    recs = res["records"]
    failed = sum(1 for r in recs if r["reasons"])
    attempted = len(recs)
    print(f"machine: {json.dumps(info, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} commands in a closed loop, "
          f"{sum(not r['traced'] for r in recs)} untraced")
    for i, r in enumerate(recs):
        tag = "traced" if r["traced"] else "plain"
        verdict = "FAIL " + "; ".join(r["reasons"]) if r["reasons"] else "ok"
        print(f"  command {i} {tag}: wall {r['command_s']:.4f} s "
              f"(+{len(r['cal_in_s'])} calibration marches), "
              f"iters {r['iters']}, marches {r['marches']}, {verdict}")
    walls = [r["command_s"] for r in recs if not r["traced"]]
    cals = [r["cal_mean_s"] for r in recs if not r["traced"]]
    print(f"raw: wall median {statistics.median(walls):.4f} s, mean "
          f"{statistics.fmean(walls):.4f} s; calibration march median "
          f"{statistics.median(cals) * 1e3:.3f} ms "
          f"(reference {res['cal_ref_s'] * 1e3:g} ms)")
    if setup_times:
        print("raw: setup " + ", ".join(f"{t:.4f} s (calibration "
                                        f"{c * 1e3:.3f} ms of {ref * 1e3:g})"
                                        for t, c, ref in setup_times))
    for name, value in metrics.items():
        print(f"{name:38s} {value:.6g} {units[name]}")
    for name, value in extra.items():
        print(f"{name:38s} {value:.6g} {VERIFY_ONLY_UNITS[name]} "
              "(not declared)")
    print(f"{'fail_frac':38s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} commands failed the gate)")
    for p in problems:
        print(f"problem: {p}")
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=12345)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    if args.seed < 0 or args.seconds < 1:
        print("--seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    if not (SRC / "mchcontrol" / "__init__.py").is_file():
        print(f"no mchcontrol package under {SRC}", file=sys.stderr)
        return 2
    out_dir = OUT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        setup_times = ([] if args.trace
                       else measure_setup(args.workload, args.seed, deadline))
        res = run_worker(args, out_dir, deadline)
        scale_walls(res)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    if args.trace:
        declared, computed = bench["per_layer"], per_layer(res)
    else:
        declared, computed = bench["end_to_end"], end_to_end(res, setup_times)
    units = {m["name"]: m["unit"] for m in declared}
    metrics = {name: computed[name] for name in units}
    extra = {}
    if args.trace and wl.WORKLOADS[args.workload]["command"] == "verify":
        extra = {name: computed[name] for name in VERIFY_ONLY_UNITS
                 if name not in units}
    info = machine(res["versions"], res["env"])
    result = report(args, res, setup_times, metrics, units, consistency(res),
                    info, extra)
    with open(out_dir / "result.json", "w") as f:
        json.dump({"machine": info, "setup_s": setup_times, "worker": res,
                   "result": result}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
