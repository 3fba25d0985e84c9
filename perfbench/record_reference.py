"""Record the gate's reference values: J_final and control_error_rel.

Runs each workload's command once at the center of the coefficient band,
initial.coefficients = [0.35, 0.15], and writes perfbench/reference.json.
The checked-in file was recorded from the code at commit 86ba1a0. Re-record
only in a change that means to move these numbers, never in one that claims
a speed-up.

    python3 perfbench/record_reference.py
"""

import json
import shutil
import sys
from pathlib import Path

import worker
import workloads as wl
from tracer import Probe
from mchcontrol.config import resolve_config


def main() -> int:
    out = Path(worker.HERE.parent / ".perfbench_out" / "reference")
    refs = {}
    for name, w in wl.WORKLOADS.items():
        cfg = resolve_config(wl.raw_config(name, 0, center=True))
        shutil.rmtree(out, ignore_errors=True)
        probe = Probe()
        probe.install()
        try:
            rc = worker.run_command(w["command"], cfg, out)
        finally:
            probe.uninstall()
        _, report = wl.read_artifact(w["command"], out)
        cer = (worker.verify_control_error(cfg, probe.opt_state)
               if w["command"] == "verify" else None)
        reasons = wl.gate(w["command"], rc, report, None, cer)
        if reasons:
            print(f"{name}: {'; '.join(reasons)}", file=sys.stderr)
            return 1
        refs[name] = wl.headline(w["command"], report, cer)
        print(name, refs[name])
    with open(wl.REFERENCE_PATH, "w") as f:
        json.dump({"coefficients": list(wl.COEFF_CENTER), "workloads": refs},
                  f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
