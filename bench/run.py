"""Closed-loop turn benchmark for statecoach.

    python3 bench/run.py --workload active_short --seed 1 --seconds 25 --trace 0

Runs one workload in this process, single-threaded, on the scripted backend:
each turn starts only after the previous reply is back.  Prints every metric
by name and unit, checks every timed output against the package's reference
entry points, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the run is split into an
untraced and a traced half and the metrics are the per-layer ones, taken
from spans that are also written to ``.bench_out/trace-<workload>.jsonl``.

statecoach is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from calibration import REFERENCE_KERNEL_S

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("active_short", "rotation_long", "offline_replay")

# Set-up is repeated and its median reported, so one slow import does not
# decide the figure.
SETUP_REPEATS = 7

# Reported by e2e_metrics but printed only, not part of the bounded result.
UNBOUNDED = ("turn_ms_p99", "session_ms_p99", "turns", "sessions")

BACKEND_PER_TURN = (
    "embed",
    "classify_talk_type",
    "generate_response",
    "generate_client_reply",
    "choose_client_action",
    "summarize",
)
BACKEND_US = BACKEND_PER_TURN[:4]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time measured by one fresh interpreter, raw and at the
    reference host speed (see setup_probe.py)."""
    out = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve().parent / "setup_probe.py"),
            "--workload", workload,
            "--seed", str(seed),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    probe = json.loads(out.stdout.strip().splitlines()[-1])
    raw = probe["import_s"] + probe["setup_s"]
    return raw, raw * REFERENCE_KERNEL_S / probe["kernel_s"]


def pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def e2e_metrics(rounds, setup_s: float, scaled: bool = True) -> dict:
    """End-to-end metrics; times are at the reference host speed unless
    ``scaled`` is false.

    Throughput and the tail are taken per complete round and the median over
    rounds reported, so a burst of load from outside the process moves one
    round's sample, not the figure.  The tail is the 90th percentile: on a
    shared host the slowest 1-2% of turns are set by other tenants' load,
    not by statecoach.
    """

    def turn_ms(r):
        return [
            t * 1e3 * (f if scaled else 1.0)
            for s in r.sessions
            if s.error is None
            for t, f in zip(s.turn_s, s.turn_scale)
        ]

    def session_ms(r):
        return [
            s.session_s * 1e3 * (s.scale if scaled else 1.0)
            for s in r.sessions
            if s.error is None
        ]

    whole = [r for r in rounds if r.complete and all(s.error is None for s in r.sessions)]

    def per_round(f):
        return statistics.median(f(r) for r in whole) if whole else 0.0

    all_turn_ms = [t for r in rounds for t in turn_ms(r)]
    all_session_ms = [t for r in rounds for t in session_ms(r)]
    first = rounds[0]
    first_turns = sum(s.turns for s in first.sessions)
    return {
        "turns_per_s": (
            per_round(lambda r: sum(s.turns for s in r.sessions) * 1e3 / sum(session_ms(r))),
            "turns/s",
        ),
        "turn_ms_p50": (pct(all_turn_ms, 50), "ms"),
        "turn_ms_p90": (per_round(lambda r: pct(turn_ms(r), 90)), "ms"),
        "session_ms_p50": (pct(all_session_ms, 50), "ms"),
        "session_ms_p90": (per_round(lambda r: pct(session_ms(r), 90)), "ms"),
        "backend_calls_per_turn": (first.proxy.total_calls / first_turns, "calls/turn"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (first.peak_rss_kb / 1024, "MB"),
        # Printed, not bounded: see the docstring.
        "turn_ms_p99": (pct(all_turn_ms, 99), "ms"),
        "session_ms_p99": (pct(all_session_ms, 99), "ms"),
        "turns": (len(all_turn_ms), "count"),
        "sessions": (len(all_session_ms), "count"),
    }


def layer_metrics(tracer, traced_rounds, plain_rounds) -> dict:
    total, own = tracer.durations_ns()
    sessions = [s for r in traced_rounds for s in r.sessions if s.error is None]
    turns = sum(s.turns for s in sessions) or 1
    # Span times are put at the reference host speed like the end-to-end ones.
    ns_to_us = statistics.median(s.scale for s in sessions) / 1e3 if sessions else 1e-3

    def us(name, q=50):
        return (pct(total.get(name, []), q) * ns_to_us, "us")

    def per_turn(name):
        return ((len(total.get(name, [])) + tracer.counts[name]) / turns, "calls/turn")

    m = {
        "harness.counselor_turn.us_p50": us("harness.counselor_turn"),
        "harness.counselor_turn.self_us_p50": (
            pct(own.get("harness.counselor_turn", []), 50) * ns_to_us,
            "us",
        ),
        "planner.select_action.us_p50": us("planner.select_action"),
        "planner.select_action.us_p99": us("planner.select_action", 99),
        "planner.select_action.per_turn": per_turn("planner.select_action"),
        "planner.planner_prior.us_p50": us("planner.planner_prior"),
        "probs.categorical.per_turn": per_turn("probs.categorical"),
    }
    for fn in ("widen_observation", "fuse", "bayes_update", "free_energy"):
        m[f"belief.{fn}.us_p50"] = us("belief." + fn)
    for fn in ("update", "add_observation", "observation_likelihood"):
        m[f"world_model.{fn}.us_p50"] = us("world_model." + fn)
    m["world_model.transition_prob.per_turn"] = per_turn("world_model.transition_prob")
    n_retrieve = len(total.get("memory.retrieve", []))
    m.update(
        {
            "memory.retrieve.us_p50": us("memory.retrieve"),
            "memory.retrieve.us_p99": us("memory.retrieve", 99),
            "memory.add.us_p50": us("memory.add"),
            "memory.consolidate.us_p50": us("memory.consolidate"),
            "memory.entries.final": (
                statistics.median(s.memory_entries for s in sessions) if sessions else 0,
                "count",
            ),
            "memory.retrieve.relevant_ratio": (
                tracer.counts["memory.retrieve.relevant"] / n_retrieve if n_retrieve else 0.0,
                "ratio",
            ),
        }
    )
    for method in BACKEND_PER_TURN:
        m[f"backends.{method}.per_turn"] = per_turn("backends." + method)
    for method in BACKEND_US:
        m[f"backends.{method}.us_p50"] = us("backends." + method)
    embeds = sum(r.proxy.calls["embed"] for r in traced_rounds)
    repeats = sum(r.proxy.embed_repeats for r in traced_rounds)
    m["backends.embed.repeat_ratio"] = (repeats / embeds if embeds else 0.0, "ratio")
    m["client_sim.respond.us_p50"] = us("client_sim.respond")
    m["client_sim.match_triggers.us_p50"] = us("client_sim.match_triggers")
    m["client_sim.build_triggers.us"] = us("client_sim.build_triggers")
    session_ns = (
        sum(total.get("bench.session", [])) - sum(total.get("bench.calibrate", []))
    ) or 1
    for name in ("planner.select_action", "memory.retrieve"):
        m[name + ".self_share"] = (sum(own.get(name, [])) / session_ns, "ratio")
    traced = e2e_metrics(traced_rounds, 0.0)["turns_per_s"][0]
    plain = e2e_metrics(plain_rounds, 0.0)["turns_per_s"][0]
    m["trace.overhead_ratio"] = (traced / plain if plain else 0.0, "ratio")
    return m


def self_time_table(tracer) -> list[str]:
    _total, own = tracer.durations_ns()
    own.pop("bench.calibrate", None)
    session_ns = sum(sum(v) for v in own.values()) or 1
    ranked = sorted(own.items(), key=lambda kv: -sum(kv[1]))
    return [
        f"  {name:<36} {sum(v) / 1e6:10.1f} ms  {sum(v) / session_ns:6.1%}  n={len(v)}"
        for name, v in ranked
    ]


def check(rounds, refs: list[str]) -> tuple[int, int, int]:
    """(turns attempted, turns failed, sessions mismatched) against the references."""
    attempted = failed = mismatched = 0
    for r in rounds:
        for ref, s in zip(refs, r.sessions):
            attempted += s.turns
            if s.error is not None or s.digest != ref:
                failed += s.turns
                mismatched += 1
    return attempted, failed, mismatched


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "statecoach" / "__init__.py").is_file():
        print(f"error: statecoach sources not found under {SRC}", file=sys.stderr)
        return 2
    probes = [setup_seconds(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    setup_s = statistics.median(scaled for _, scaled in probes)
    sys.path.insert(0, str(SRC))
    import tracer as tracing
    import workloads as wl

    fx = wl.load_fixtures(args.workload)
    inputs = wl.make_inputs(args.workload, fx, args.seed)

    lines = [f"workload {args.workload}  seed {args.seed}  inputs {len(inputs)}"]
    if args.workload == "active_short":
        ref = wl.bundled_reference(fx)
        turns = wl.run_config("active_short").max_turns * len(fx.profiles)
        lines.append(
            f"bundled-profile reference: {ref.total_calls / turns:.4g} calls/turn, "
            f"{ref.calls['embed'] / turns:.4g} embed/turn, "
            f"embed repeat ratio {ref.embed_repeats / ref.calls['embed']:.4f}"
        )
    # Computing the references first also warms every lazy cache before timing.
    cfg = wl.run_config(args.workload)
    refs = [wl.reference_digest(args.workload, x, fx, cfg) for x in inputs]
    lines.append("output digest " + hashlib.sha256("".join(refs).encode()).hexdigest())

    if args.trace == 0:
        timed = wl.run_rounds(args.workload, inputs, fx, args.seconds)
        checked = [timed]
        metrics = e2e_metrics(timed, setup_s)
        info = {k: metrics.pop(k) for k in UNBOUNDED}
        raw = e2e_metrics(timed, setup_s, scaled=False)
        scales = [s.scale for r in timed for s in r.sessions]
        lines.append(
            f"samples: {info['turns'][0]} turn samples, {info['sessions'][0]} sessions; "
            f"turn_ms_p99 {info['turn_ms_p99'][0]:.6g} ms, "
            f"session_ms_p99 {info['session_ms_p99'][0]:.6g} ms"
        )
        lines.append(
            f"unscaled: {raw['turns_per_s'][0]:.6g} turns/s, turn_ms_p50 "
            f"{raw['turn_ms_p50'][0]:.6g} ms, setup_s "
            f"{statistics.median(r for r, _ in probes):.6g} s; host speed scale median "
            f"{statistics.median(scales):.4g} (min {min(scales):.4g}, max {max(scales):.4g})"
        )
    else:
        plain = wl.run_rounds(args.workload, inputs, fx, args.seconds / 2)
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        try:
            traced = wl.run_rounds(args.workload, inputs, fx, args.seconds / 2, tracer)
        finally:
            tracer.restore()
        checked = [plain, traced]
        metrics = layer_metrics(tracer, traced, plain)
        trace_path = OUT_DIR / f"trace-{args.workload}.jsonl"
        tracer.write(trace_path)
        lines.append(
            f"self time by span ({len(tracer.spans)} spans, {trace_path.relative_to(ROOT)}):"
        )
        lines.extend(self_time_table(tracer))

    attempted = failed = mismatched = 0
    for rounds in checked:
        a, f, mm = check(rounds, refs)
        attempted, failed, mismatched = attempted + a, failed + f, mismatched + mm
    errors = sum(len(r.proxy.errors) for rounds in checked for r in rounds)
    sessions = sum(len(r.sessions) for rounds in checked for r in rounds)
    lines.append(
        f"correctness: {sessions} sessions, {mismatched} not matching the reference, "
        f"{errors} backend errors"
    )
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<40} {value:14.6g} {unit}")
    lines.append(
        f"  {'failed_turns_ratio':<40} {failed / max(attempted, 1):14.6g} failed/attempted"
    )
    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": failed == 0 and attempted > 0,
                "attempted": max(attempted, 1),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
