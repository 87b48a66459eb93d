"""Every driver runs the same belief step.

The live counselor, offline evaluation and the ``repl`` advisor all drive one
``BeliefTracker``: ``observe`` each client reply, then ``act`` on the action
taken.  A bare tracker fed a golden transcript's own utterances and actions
must therefore reproduce every belief the live counselor recorded in it, field
for field and bit for bit, under each of the four golden configurations.
"""

import pytest
from test_golden import CONFIGS, GOLDEN_DIR

from statecoach.backends import ScriptedBackend
from statecoach.config import RunConfig
from statecoach.harness import BeliefTracker, Transcript

FIELDS = ("q", "p_obs", "p_prior", "alpha", "beta")


@pytest.mark.parametrize("name", list(CONFIGS))
def test_bare_tracker_replays_every_golden_belief(name):
    backend = ScriptedBackend()
    paths = sorted((GOLDEN_DIR / name).glob("*.jsonl"))
    assert len(paths) == 5
    for path in paths:
        transcript = Transcript.from_jsonl(path)
        tracker = BeliefTracker(RunConfig(**CONFIGS[name]))
        utterance = transcript.opening
        for record in transcript.records:
            parts, _likelihood = tracker.observe(
                utterance, backend.classify_talk_type(utterance)
            )
            replayed = {
                f: v.as_dict() if f in ("q", "p_obs", "p_prior") else v
                for f, v in zip(FIELDS, parts)
            }
            assert replayed == {f: record.belief[f] for f in FIELDS}, (path.name, record.turn)
            assert parts[0] is tracker.q
            tracker.act(record.counselor_action)
            utterance = record.client_text
