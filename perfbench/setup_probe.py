"""Set-up probe: a fresh interpreter imports mchcontrol, resolves the
workload config, builds the problem pieces and the first Helmholtz operator,
then prints "ready". run.py times it from spawn to that line. Afterwards the
probe prints the median of three calibration marches and their reference
time, so the set-up time can be put on the reference machine speed.

    PYTHONPATH=src python3 perfbench/setup_probe.py twin-small 12345
"""

import statistics
import sys

from mchcontrol.config import build_problem_pieces, resolve_config
from mchcontrol.helmholtz import get_operator

import calibrate
import workloads

cfg = resolve_config(workloads.raw_config(sys.argv[1], int(sys.argv[2])))
domain, _, _, _ = build_problem_pieces(cfg)
get_operator(domain)
print("ready", flush=True)
print(statistics.median(calibrate.sample() for _ in range(3)),
      calibrate.reference_s(), flush=True)
