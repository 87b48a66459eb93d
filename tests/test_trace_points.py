"""The traced benchmark run (``bench/run.py --trace 1``) patches belief,
planner and world-model functions where the harness looks them up.  A name
that leaves ``statecoach.harness`` breaks that run, and a call routed around
it silently zeroes that layer's figures; this pins both.
"""

import sys
from pathlib import Path

from statecoach.backends import ScriptedBackend
from statecoach.harness import ActiveCounselor, load_annotated_sessions, offline_eval

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"

BELIEF_STEP = (
    "belief.widen_observation",
    "belief.fuse",
    "planner.planner_prior",
    "world_model.update",
    "world_model.add_observation",
)
# Diagnostics only the live counselor computes.
LIVE_ONLY = ("belief.bayes_update", "belief.free_energy", "planner.select_action")


def test_traced_run_sees_every_belief_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    from tracer import Tracer, instrument

    tracer = Tracer()
    instrument(tracer)
    try:
        agent = ActiveCounselor(ScriptedBackend())
        agent.counselor_turn("I'm only here because my family keeps pushing me.")
        agent.counselor_turn("Honestly, it's not a big deal.")
        live = {name for name, *_ in tracer.spans}
        n_live = len(tracer.spans)
        offline_eval(load_annotated_sessions(), backend=ScriptedBackend())
        offline = {name for name, *_ in tracer.spans[n_live:]}
    finally:
        tracer.restore()
    assert set(BELIEF_STEP + LIVE_ONLY) <= live
    assert set(BELIEF_STEP) <= offline
    assert not set(LIVE_ONLY) & offline
