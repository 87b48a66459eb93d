import math

import numpy as np
import pytest
import requests

from statecoach import backends
from statecoach.backends import (
    EMBED_DIM,
    RETRY_BACKOFF_S,
    BackendConfig,
    HttpBackend,
    ScriptedBackend,
    hashed_embedding,
    load_templates,
    make_backend,
    tokenize,
)
from statecoach.errors import (
    BackendUnavailableError,
    EmptyTextError,
    TemplateMissingError,
)
from statecoach.probs import LabelSpace, from_dict


def test_tokenize_strips_punctuation_and_case():
    assert tokenize("Mm-hmm, RIGHT?") == ["mmhmm", "right"]


def test_hashed_embedding_deterministic_and_unit():
    a = hashed_embedding("an utterance about mornings")
    b = hashed_embedding("an utterance about mornings")
    assert np.array_equal(a, b)
    assert a.shape == (EMBED_DIM,)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-6)


def test_hashed_embedding_empty_raises():
    with pytest.raises(EmptyTextError):
        hashed_embedding("...")


def test_disjoint_token_sets_are_orthogonal():
    # collision-free pair found by inspecting the bucket assignment
    a = hashed_embedding("Mm-hmm.")
    b = hashed_embedding("Keep no alcohol in the house during the week.")
    assert float(a @ b) == 0.0


def test_backend_config_validation():
    with pytest.raises(ValueError):
        BackendConfig(kind="http")  # endpoint required
    with pytest.raises(ValueError):
        BackendConfig(max_output_tokens=0)
    cfg = BackendConfig()
    assert cfg.seed == 42 and cfg.max_output_tokens == 1024


def test_templates_auto_loaded():
    cfg = BackendConfig()
    for tid in (
        "counselor_reply",
        "client_reply",
        "client_opening",
        "classify_counselor",
        "classify_talk_type",
        "summarize",
        "choose_action",
    ):
        assert tid in cfg.prompt_templates
    assert load_templates()["summarize"].count("{texts}") == 1


def test_classify_counselor_action_rules():
    b = ScriptedBackend()
    assert b.classify_counselor_action("What would make you feel more ready?") == "Open Question"
    assert b.classify_counselor_action("Mm-hmm.") == "Facilitate"
    assert b.classify_counselor_action("Have you tried before?") == "Closed Question"
    assert b.classify_counselor_action("You said: it helps you relax.") == "Simple Reflection"
    assert (
        b.classify_counselor_action("Would it be okay if I shared an idea?")
        == "Advise with Permission"
    )
    assert b.classify_counselor_action("The sky is large.") == "Give Information"
    with pytest.raises(EmptyTextError):
        b.classify_counselor_action("")


def test_classify_talk_type_cue_rules():
    b = ScriptedBackend()
    assert b.classify_talk_type("I could cut down to two a day.") == "preparation"
    assert b.classify_talk_type("I guess it does affect my daughter.") == "contemplation"
    assert b.classify_talk_type("There's nothing wrong with how I live.") == "precontemplation"
    assert b.classify_talk_type("Okay.") == "short_ack"
    assert b.classify_talk_type("It's not a big deal.") == "deflection"
    assert b.classify_talk_type("Maybe someday, who knows.") == "hedging"
    assert b.classify_talk_type("I could try this: walking at lunch.") == "plan_statement"


def test_generate_response_missing_template():
    b = ScriptedBackend()
    with pytest.raises(TemplateMissingError):
        b.generate_response("Affirm", None, None, "hi", template_id="nope")


def test_generate_response_reflection_echoes():
    b = ScriptedBackend()
    out = b.generate_response("Simple Reflection", None, None, "I sleep badly.")
    assert out == "You said: I sleep badly."


def test_generate_client_reply_deny_rule():
    b = ScriptedBackend()
    ctx = {"stage": "precontemplation", "topic": "t", "behavior": "b",
           "belief": "x", "motivation": "m", "plan": "p", "persona": ""}
    out = b.generate_client_reply("Deny", "anything", ctx)
    assert out == "There's nothing wrong with how I live."


def test_generate_client_reply_stage_conditioning():
    b = ScriptedBackend()
    ctx = {"stage": "contemplation", "topic": "t", "behavior": "b",
           "belief": "belief text", "motivation": "motivation text", "plan": "p",
           "persona": ""}
    out = b.generate_client_reply("Inform", "anything", ctx)
    assert "motivation text" in out
    ctx["stage"] = "precontemplation"
    out = b.generate_client_reply("Inform", "anything", ctx)
    assert "belief text" in out


def test_choose_client_action_is_argmax():
    b = ScriptedBackend()
    space = LabelSpace("c", ("Inform", "Deny"))
    assert b.choose_client_action(from_dict(space, {"Inform": 0.7, "Deny": 0.3})) == "Inform"
    assert b.choose_client_action(from_dict(space, {"Inform": 0.3, "Deny": 0.7})) == "Deny"


def test_summarize_joins_and_truncates():
    b = ScriptedBackend()
    assert b.summarize([]) == "No notable recent context."
    assert b.summarize(["a", " b "]) == "a b"
    assert len(b.summarize(["x" * 500])) == 240


class FakeResponse:
    def __init__(self, status_code=200, payload=None):
        self.status_code = status_code
        self._payload = payload or {}

    def json(self):
        return self._payload


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers})
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


@pytest.fixture(autouse=True)
def sleeps(monkeypatch):
    """Record the HTTP backoff delays instead of waiting them out."""
    delays = []
    monkeypatch.setattr(backends.time, "sleep", delays.append)
    return delays


def http_config(**kw):
    return BackendConfig(kind="http", endpoint="http://fake", retries=3, **kw)


def chat_payload(text):
    return {"choices": [{"message": {"content": text}}]}


def test_http_retries_then_unavailable():
    session = FakeSession([requests.ConnectionError("down")] * 3)
    b = HttpBackend(http_config(), session=session)
    with pytest.raises(BackendUnavailableError) as err:
        b.generate_response("Affirm", None, None, "hi")
    assert err.value.attempts == 3
    assert len(session.calls) == 3


def test_http_client_error_is_not_retried():
    session = FakeSession([FakeResponse(status_code=400)] * 3)
    b = HttpBackend(http_config(), session=session)
    with pytest.raises(BackendUnavailableError) as err:
        b.generate_response("Affirm", None, None, "hi")
    assert err.value.attempts == 1
    assert len(session.calls) == 1


def test_http_rate_limit_is_retried():
    session = FakeSession(
        [FakeResponse(status_code=429), FakeResponse(payload=chat_payload("Ok."))]
    )
    b = HttpBackend(http_config(), session=session)
    assert b.generate_response("Affirm", None, None, "hi") == "Ok."
    assert len(session.calls) == 2


@pytest.mark.parametrize(
    "responses, delays",
    [
        ([requests.ConnectionError("down")] * 3, [1, 2]),
        ([FakeResponse(status_code=503), FakeResponse(status_code=400)], [1]),
        ([FakeResponse(status_code=400)], []),
        ([FakeResponse(status_code=429), FakeResponse(payload=chat_payload("Ok."))], [1]),
        ([FakeResponse(payload=chat_payload("Ok."))], []),
    ],
)
def test_http_backoff_doubles_between_attempts_only(sleeps, responses, delays):
    b = HttpBackend(http_config(), session=FakeSession(responses))
    try:
        b.generate_response("Affirm", None, None, "hi")
    except BackendUnavailableError:
        pass
    assert sleeps == [RETRY_BACKOFF_S * d for d in delays]


def test_http_chat_request_shape(monkeypatch):
    monkeypatch.setenv("STATECOACH_API_KEY", "sek")
    session = FakeSession([FakeResponse(payload=chat_payload("Reply text."))])
    b = HttpBackend(http_config(model_name="m1"), session=session)
    out = b.generate_response("Affirm", None, None, "hi")
    assert out == "Reply text."
    call = session.calls[0]
    assert call["url"] == "http://fake/chat/completions"
    assert call["json"]["temperature"] == 0
    assert call["json"]["seed"] == 42
    assert call["json"]["model"] == "m1"
    assert call["headers"]["Authorization"] == "Bearer sek"


def test_http_empty_reply_is_error():
    session = FakeSession([FakeResponse(payload=chat_payload("  "))])
    b = HttpBackend(http_config(), session=session)
    with pytest.raises(BackendUnavailableError):
        b.generate_response("Affirm", None, None, "hi")


def test_http_classify_parses_and_falls_back():
    session = FakeSession(
        [
            FakeResponse(payload=chat_payload("open question.")),
            FakeResponse(payload=chat_payload("no idea, sorry")),
            FakeResponse(payload=chat_payload("Contemplation")),
            FakeResponse(payload=chat_payload("mystery")),
        ]
    )
    b = HttpBackend(http_config(), session=session)
    assert b.classify_counselor_action("What brings you in?") == "Open Question"
    assert b.classify_counselor_action("What brings you in?") == "Give Information"
    assert b.classify_talk_type("I have been thinking.") == "contemplation"
    assert b.classify_talk_type("I have been thinking.") == "precontemplation"


def test_http_embed_normalizes():
    session = FakeSession(
        [FakeResponse(payload={"data": [{"embedding": [3.0, 4.0]}]})]
    )
    b = HttpBackend(http_config(), session=session)
    vec = b.embed("hello")
    assert np.allclose(vec, [0.6, 0.8])
    assert math.isclose(float(np.linalg.norm(vec)), 1.0)


def test_http_embed_degenerate_vector_is_error():
    session = FakeSession([FakeResponse(payload={"data": [{"embedding": [0.0, 0.0]}]})])
    b = HttpBackend(http_config(), session=session)
    with pytest.raises(BackendUnavailableError):
        b.embed("hello")


def test_make_backend_factory():
    assert isinstance(make_backend(BackendConfig()), ScriptedBackend)
    assert isinstance(make_backend(http_config()), HttpBackend)
