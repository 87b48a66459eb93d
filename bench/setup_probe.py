"""Time statecoach's set-up in a fresh interpreter.

    python3 bench/setup_probe.py --workload active_short --seed 1

``run.py`` runs this in child processes.  The third-party dependencies
(numpy, requests) are imported first and not timed: they take about 270 ms,
which would hide work moved into statecoach's own set-up, and their load
time swings with the host.  Then it times ``import statecoach``, and the
fixture load, ``ScriptedBackend()`` and one ``ClientSession`` per input
(which embeds its triggers).  Last it runs the calibration kernel, so the
parent can put the times at the reference host speed, and prints one JSON
line: ``{"import_s", "setup_s", "kernel_s"}``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy  # noqa: F401
import requests  # noqa: F401

from calibration import kernel_seconds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    args = p.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.perf_counter()
    import statecoach  # noqa: F401

    import_s = time.perf_counter() - t0
    import workloads as wl

    fx = wl.load_fixtures(args.workload)
    setup_s = wl.setup_once(args.workload, wl.make_inputs(args.workload, fx, args.seed))
    kernel_seconds()  # the first run pays one-off costs
    print(json.dumps({"import_s": import_s, "setup_s": setup_s, "kernel_s": kernel_seconds()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
