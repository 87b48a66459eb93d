"""The traced benchmark run (``bench/run.py --trace 1``) patches belief,
planner and world-model functions where the harness looks them up.  A name
that leaves ``statecoach.harness`` breaks that run, and a call routed around
it silently zeroes that layer's figures; this pins both.

It also pins where the next turn's prior comes from.  An expected-free-energy
turn takes it from the planner's report, so it records no
``planner.planner_prior`` span; the no-EFE rotation and ``offline_eval``
have no report and still roll the belief forward through ``planner_prior``.
"""

from pathlib import Path

from statecoach.backends import ScriptedBackend
from statecoach.config import RunConfig
from statecoach.harness import ActiveCounselor, load_annotated_sessions, offline_eval

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"

BELIEF_STEP = (
    "belief.widen_observation",
    "belief.fuse",
    "world_model.update",
    "world_model.add_observation",
)
# Diagnostics only the live counselor computes.
LIVE_ONLY = ("belief.bayes_update", "belief.free_energy", "planner.select_action")
# The rollout a turn without a planner's report makes for its next prior.
NO_REPORT_ONLY = "planner.planner_prior"

UTTERANCES = (
    "I'm only here because my family keeps pushing me.",
    "Honestly, it's not a big deal.",
)


def test_traced_run_sees_every_belief_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    from tracer import Tracer, instrument

    tracer = Tracer()
    instrument(tracer)
    seen = []
    try:
        for cfg in (RunConfig(), RunConfig(efe_action=False)):
            n_before = len(tracer.spans)
            agent = ActiveCounselor(ScriptedBackend(), cfg)
            for utterance in UTTERANCES:
                agent.counselor_turn(utterance)
            seen.append({name for name, *_ in tracer.spans[n_before:]})
        n_live = len(tracer.spans)
        offline_eval(load_annotated_sessions(), backend=ScriptedBackend())
        offline = {name for name, *_ in tracer.spans[n_live:]}
    finally:
        tracer.restore()
    live, rotation = seen
    assert set(BELIEF_STEP + LIVE_ONLY) <= live
    assert NO_REPORT_ONLY not in live
    assert set(BELIEF_STEP) | {NO_REPORT_ONLY} <= rotation
    assert "planner.select_action" not in rotation
    assert set(BELIEF_STEP) | {NO_REPORT_ONLY} <= offline
    assert not set(LIVE_ONLY) & offline
