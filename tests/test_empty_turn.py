"""An utterance with no tokens fails with EmptyTextError and leaves no trace.

The counselor embeds and classifies the client's utterance, and the client
embeds the counselor's, before either changes any state.  After the error
both equal their pre-turn snapshot, and the next good turn gives the record
an uninterrupted run gives.
"""

import json

import pytest

from statecoach.backends import DATA_DIR, ScriptedBackend
from statecoach.client_sim import ClientProfile, ClientSession, TalkTypeTable, load_pop_prior
from statecoach.errors import EmptyTextError
from statecoach.harness import ActiveCounselor

NO_TOKENS = ("...", "", "   ")
CLIENT_SAYS = (
    "I'm only here because my family keeps pushing me.",
    "Honestly, it's not a big deal.",
    "Maybe I could cut back on weeknights.",
)
COUNSELOR_MOVES = (
    ("Open Question", "What brings you here today?"),
    ("Simple Reflection", "Your family is worried about your drinking."),
    ("Affirm", "It took courage to come and talk about this."),
)


def _probs(dist):
    return None if dist is None else dist.probs.tobytes()


def counselor_state(agent: ActiveCounselor):
    t = agent.tracker
    return (
        agent.turn, _probs(t.q), t.action, _probs(t.prior),
        t.wm.transition_counts.tobytes(), t.wm.observation_counts.tobytes(),
        [e.id for e in agent.memory.entries], dict(agent.memory._last_consolidated),
    )


def move_record(move) -> str:
    return json.dumps([move.action, move.text, move.belief.as_dict(), move.efe.as_dict()])


def client() -> ClientSession:
    return ClientSession(
        ClientProfile.from_file(DATA_DIR / "profiles" / "p01_alcohol.json"),
        TalkTypeTable.from_file(DATA_DIR / "talk_type_table.json"),
        ScriptedBackend(),
        load_pop_prior(DATA_DIR / "pop_prior.json"),
    )


def client_state(c: ClientSession):
    return c.turn, c.stage, c.readiness, [t.discovered for t in c.triggers]


@pytest.mark.parametrize("n_good", [0, 2])
@pytest.mark.parametrize("bad", NO_TOKENS, ids=["dots", "empty", "spaces"])
def test_counselor_turn_without_tokens_leaves_no_trace(bad, n_good):
    agent, reference = ActiveCounselor(ScriptedBackend()), ActiveCounselor(ScriptedBackend())
    for utterance in CLIENT_SAYS[:n_good]:
        agent.counselor_turn(utterance)
        reference.counselor_turn(utterance)
    before = counselor_state(agent)
    with pytest.raises(EmptyTextError):
        agent.counselor_turn(bad)
    assert counselor_state(agent) == before
    good = CLIENT_SAYS[n_good]
    assert move_record(agent.counselor_turn(good)) == move_record(reference.counselor_turn(good))
    assert counselor_state(agent) == counselor_state(reference)


@pytest.mark.parametrize("n_good", [0, 2])
@pytest.mark.parametrize("bad", NO_TOKENS, ids=["dots", "empty", "spaces"])
def test_client_respond_without_tokens_leaves_no_trace(bad, n_good):
    session, reference = client(), client()
    for action, text in COUNSELOR_MOVES[:n_good]:
        session.respond(text, action)
        reference.respond(text, action)
    before = client_state(session)
    with pytest.raises(EmptyTextError):
        session.respond(bad, "Open Question")
    assert client_state(session) == before
    action, text = COUNSELOR_MOVES[n_good]
    assert session.respond(text, action) == reference.respond(text, action)
    assert client_state(session) == client_state(reference)
