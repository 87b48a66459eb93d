"""Run the benchmark repeatedly and report how steady each metric is.

    python3 bench/steady.py --workload active_short --runs 10 --seconds 25

Runs ``bench/run.py`` once per seed (``--first-seed`` onward), one run at a
time, and prints for every metric its median, quartiles and spread (the
distance between the quartiles as a share of the median, computed with
``statistics.quantiles(values, n=4)``), beside the metric's bound in
BENCHMARK.json.  The summary is also written to
``.bench_out/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [
            sys.executable,
            str(ROOT / "bench" / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"run failed: {workload} seed {seed} exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        res = one_run(args.workload, seed, seconds)
        results.append(res)
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}", flush=True)

    summary = {}
    print(f"{'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above a third of the bound"
        summary[name] = {"values": values, "median": med, "q1": q1, "q3": q3, "spread": spread}
        print(
            f"{name:<40} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
            f"{'' if bound is None else bound:>6}{flag}"
        )
    out = ROOT / ".bench_out" / f"steady-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
