import gc
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from statecoach import backends
from statecoach.backends import (
    EMBED_DIM,
    HTTP_RETRIES,
    HTTP_TIMEOUT_S,
    RETRY_BACKOFF_S,
    TOKEN_MEMO_SIZE,
    HttpBackend,
    ScriptedBackend,
    _apply_rules,
    _rule_matches,
    ask_once,
    hashed_embedding,
    load_templates,
    make_backend,
    match_label,
    tokenize,
)
from statecoach.config import RunConfig
from statecoach.errors import (
    BackendUnavailableError,
    EmptyTextError,
    TemplateMissingError,
)
from statecoach.probs import LabelSpace, from_dict
from statecoach.vocab import CLIENT_ACTIONS


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


def reference_embedding(text):
    """The embedding with each token's md5 taken afresh, as before the token memo."""
    v = np.zeros(EMBED_DIM)
    for tok in tokenize(text):
        v[int(hashlib.md5(tok.encode("utf-8")).hexdigest(), 16) % EMBED_DIM] += 1.0
    return v / np.linalg.norm(v)


WORDS = ["drink", "Drink!", "drink", "naïve", "日本語", "café", "🙂", "...", "?!", "--", "ok"]
texts = st.lists(
    st.one_of(st.sampled_from(WORDS), st.text(max_size=6)), max_size=12
).map(" ".join)


@settings(max_examples=200, deadline=None)
@given(text=texts, cold=st.booleans())
def test_hashed_embedding_matches_per_token_md5(text, cold):
    if cold:
        backends._bucket.cache_clear()
    if not tokenize(text):
        with pytest.raises(EmptyTextError):
            hashed_embedding(text)
        return
    expected = reference_embedding(text)
    for _ in range(2):  # the second call reads every token from a warm memo
        assert np.array_equal(hashed_embedding(text), expected)
    assert backends._bucket.cache_info().maxsize == TOKEN_MEMO_SIZE


def test_disjoint_token_sets_are_orthogonal():
    # collision-free pair found by inspecting the bucket assignment
    a = hashed_embedding("Mm-hmm.")
    b = hashed_embedding("Keep no alcohol in the house during the week.")
    assert float(a @ b) == 0.0


def test_backend_config_validation():
    # RunConfig checks the backend settings (tests/test_harness.py's table);
    # HttpBackend refuses a config of another kind.
    with pytest.raises(ValueError, match="backend_kind='http'"):
        HttpBackend(RunConfig())
    cfg = RunConfig()
    assert cfg.seed == 42 and cfg.max_output_tokens == 1024


def test_templates_auto_loaded():
    for backend in (ScriptedBackend(), HttpBackend(http_config(), session=FakeSession([]))):
        for tid in (
            "counselor_reply",
            "client_reply",
            "client_opening",
            "classify_counselor",
            "classify_talk_type",
            "summarize",
            "choose_action",
        ):
            assert tid in backend.templates
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
    # generate_response always renders counselor_reply; an id is only passed,
    # and so only checked, by generate_client_reply.
    b = ScriptedBackend()
    with pytest.raises(TemplateMissingError):
        b.generate_client_reply("Deny", "hi", {"stage": "contemplation"}, template_id="nope")


def _bad_response_rules(rules):
    b = ScriptedBackend()
    b._response_rules = rules
    return b.generate_response("Affirm", None, None, "hi")


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: _rule_matches({"mode": "sometimes", "label": "x"}, "hi"), ValueError,
         "unknown rule mode 'sometimes'"),
        (lambda: _apply_rules([{"mode": "question", "label": "x"}], "hi"), ValueError,
         "rule table is not total; add a catch-all rule"),
        (lambda: _bad_response_rules([{"response": "  "}]), BackendUnavailableError,
         "scripted rule produced empty text"),
        (lambda: _bad_response_rules([{"require": ["action:deny"], "response": "no"}]),
         BackendUnavailableError, "no scripted response rule matched"),
    ],
    ids=["unknown-mode", "no-catch-all", "empty-text", "no-rule-matched"],
)
def test_a_faulty_rule_table_raises(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


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
    inform = from_dict(space, {"Inform": 0.7, "Deny": 0.3})
    deny = from_dict(space, {"Inform": 0.3, "Deny": 0.7})
    assert b.choose_client_action(inform, "stage:precontemplation") == "Inform"
    assert b.choose_client_action(deny, "stage:precontemplation") == "Deny"


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
        self.calls.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
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
    return RunConfig(backend_kind="http", endpoint="http://fake", **kw)


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


@pytest.mark.parametrize("content", [5, ["a"], {"text": "hi"}])
def test_http_non_string_reply_is_unavailable(content):
    session = FakeSession([FakeResponse(payload=chat_payload(content))])
    b = HttpBackend(http_config(), session=session)
    with pytest.raises(BackendUnavailableError):
        b.generate_response("Affirm", None, None, "hi")


@pytest.mark.parametrize(
    "embedding",
    ["abc", [1, "x"], ["1", "2"], [[1, 2], [3, 4]], [[1, 2], [3]], 3, [True, False]],
)
def test_http_malformed_embedding_is_unavailable(embedding):
    session = FakeSession([FakeResponse(payload={"data": [{"embedding": embedding}]})])
    b = HttpBackend(http_config(), session=session)
    with pytest.raises(BackendUnavailableError):
        b.embed("hello")


def test_http_integer_embedding_is_a_vector():
    session = FakeSession([FakeResponse(payload={"data": [{"embedding": [3, 4]}]})])
    vec = HttpBackend(http_config(), session=session).embed("hello")
    assert vec.dtype == float and np.allclose(vec, [0.6, 0.8])


def test_make_backend_factory():
    assert isinstance(make_backend(RunConfig()), ScriptedBackend)
    assert isinstance(make_backend(http_config()), HttpBackend)


def test_a_missing_http_stack_is_a_backend_failure(monkeypatch):
    monkeypatch.setitem(sys.modules, "requests", None)
    with pytest.raises(BackendUnavailableError, match="'requests' package"):
        make_backend(http_config())


# Runs in a fresh interpreter: a scripted dialogue, then an HTTP backend built
# (its constructor sends no request).  Prints the HTTP stack modules loaded
# after each step.
IMPORT_PROBE = """\
import json, sys
import statecoach, statecoach.cli
from statecoach.backends import DATA_DIR, ScriptedBackend, make_backend
from statecoach.client_sim import ClientSession, TalkTypeTable, load_pop_prior, load_profiles
from statecoach.config import RunConfig
from statecoach.harness import ActiveCounselor, run_dialogue

STACK = ("requests", "urllib3", "http.client", "ssl")
cfg = RunConfig(max_turns=2)
backend = ScriptedBackend()
profile = load_profiles(DATA_DIR / "profiles")[0]
client = ClientSession(
    profile, TalkTypeTable.from_file(DATA_DIR / "talk_type_table.json"), backend,
    load_pop_prior(DATA_DIR / "pop_prior.json"),
)
turns = len(run_dialogue(ActiveCounselor(backend, cfg, profile.id), client, cfg).records)
scripted = [m for m in STACK if m in sys.modules]
make_backend(RunConfig(backend_kind="http", endpoint="http://127.0.0.1:9"))
http = [m for m in STACK if m in sys.modules]
print(json.dumps({"turns": turns, "scripted": scripted, "http": http}))
"""


def test_only_an_http_backend_loads_the_http_stack():
    """Importing the package and running a scripted dialogue load none of the
    HTTP stack; building an HttpBackend loads ``requests``."""
    package_root = str(Path(backends.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout)
    assert loaded["turns"] == 2
    assert loaded["scripted"] == []
    assert "requests" in loaded["http"]


def test_http_request_carries_the_run_config_it_was_built_from(monkeypatch):
    session = FakeSession(
        [FakeResponse(payload=chat_payload("Ok."))]
        + [requests.ConnectionError("down")] * HTTP_RETRIES
    )
    monkeypatch.setattr(requests, "Session", lambda: session)
    b = make_backend(http_config(model_name="m1", seed=7, max_output_tokens=77))
    assert b.generate_response("Affirm", None, None, "hi") == "Ok."
    body = session.calls[0]["json"]
    assert (body["model"], body["seed"], body["max_tokens"]) == ("m1", 7, 77)
    with pytest.raises(BackendUnavailableError) as err:
        b.embed("hello")  # a dead endpoint
    assert err.value.attempts == HTTP_RETRIES
    assert len(session.calls) == 1 + HTTP_RETRIES
    assert {call["timeout"] for call in session.calls} == {HTTP_TIMEOUT_S}


CLIENT_CONTEXT = {
    "stage": "contemplation", "topic": "late-night snacking", "behavior": "snacking",
    "belief": "Snacks keep me awake.", "motivation": "More energy.", "plan": "Fruit instead.",
    "persona": "Works night shifts.",
}
DIST = from_dict(CLIENT_ACTIONS, {"Inform": 0.5, "Hesitate": 0.3, "Engage": 0.2})

# Each chat method the turn loop calls, how it is called, its template, and
# the lines its prompt must hold.
HTTP_CHAT_METHODS = {
    "generate_client_reply": (
        lambda b: b.generate_client_reply("Hesitate", "What would help?", CLIENT_CONTEXT),
        "client_reply",
        ["You are role-playing a client in a counseling session about late-night snacking.",
         "Background: Works night shifts.",
         "Your current stance: contemplation", "Behavior to express this turn: Hesitate",
         "The counselor just said: What would help?"],
    ),
    "choose_client_action": (
        lambda b: b.choose_client_action(DIST, "stage:contemplation"),
        "choose_action",
        [f"Probabilities over behaviors: {json.dumps(DIST.as_dict())}",
         "Recent context: stage:contemplation",
         f"Answer with exactly one behavior name from: {', '.join(CLIENT_ACTIONS.labels)}"],
    ),
    "summarize": (
        lambda b: b.summarize(["Drinks after shifts.", "Wants to save money."]),
        "summarize",
        ["Drinks after shifts. Wants to save money."],
    ),
}


@pytest.mark.parametrize("method", sorted(HTTP_CHAT_METHODS))
def test_http_chat_method_renders_its_template_and_strips_the_reply(method):
    call, template_id, lines = HTTP_CHAT_METHODS[method]
    session = FakeSession([FakeResponse(payload=chat_payload("  The reply.\n"))])
    assert call(HttpBackend(http_config(), session=session)) == "The reply."
    prompt = session.calls[0]["json"]["messages"][0]["content"].splitlines()
    # The bundled template, line for line, with no placeholder left unfilled.
    assert len(prompt) == len(load_templates()[template_id].splitlines())
    assert not any(re.search(r"\{[a-z_]+\}", line) for line in prompt)
    assert all(line in prompt for line in lines)


@pytest.mark.parametrize("method", sorted(HTTP_CHAT_METHODS))
@pytest.mark.parametrize("payload", [{"choices": []}, {"choices": [{"message": {}}]}, {}])
def test_http_chat_method_malformed_response_is_unavailable(method, payload):
    call, _, _ = HTTP_CHAT_METHODS[method]
    session = FakeSession([FakeResponse(payload=payload)])
    with pytest.raises(BackendUnavailableError, match="malformed"):
        call(HttpBackend(http_config(), session=session))


@pytest.mark.parametrize("reply", ["complex reflection.", " Complex Reflection ", "COMPLEX REFLECTION"])
def test_http_classify_uses_the_shared_label_rule(reply):
    session = FakeSession([FakeResponse(payload=chat_payload(reply))])
    b = HttpBackend(http_config(), session=session)
    assert b.classify_counselor_action("You are weighing this.") == "Complex Reflection"


@pytest.mark.parametrize(
    "reply, label",
    [
        ("reflect.", "Reflect"),
        (" Reflect ", "Reflect"),
        ("Reflect", "Reflect"),
        ("reflects", None),
        ("reflect it.", None),
        ("", None),
        (None, None),
    ],
)
def test_match_label(reply, label):
    assert match_label(reply, ("Ask", "Reflect")) == label


# -- ask once ---------------------------------------------------------------

TEXT_METHODS = ("embed", "classify_talk_type", "classify_counselor_action")
TEXTS = ("I could cut down to two a day.", "Maybe, I guess.", "What brings you in?")


class Recorder:
    """Answers like a ScriptedBackend, records every (method, text) it is
    asked, and is down for the texts in ``failing``."""

    def __init__(self):
        self.inner = ScriptedBackend()
        self.asked = []
        self.failing = set()

    def _ask(self, method, text):
        self.asked.append((method, text))
        if text in self.failing:
            raise BackendUnavailableError("down")
        return getattr(self.inner, method)(text)

    def embed(self, text):
        return self._ask("embed", text)

    def classify_talk_type(self, text):
        return self._ask("classify_talk_type", text)

    def classify_counselor_action(self, text):
        return self._ask("classify_counselor_action", text)


def test_ask_once_asks_each_backend_once_per_method_and_text():
    b = Recorder()
    for _ in range(3):
        for method in TEXT_METHODS:
            for text in TEXTS:
                ask_once(b, method, text)
    assert sorted(b.asked) == sorted((m, t) for m in TEXT_METHODS for t in TEXTS)


def test_ask_once_answers_equal_direct_ones():
    b = ScriptedBackend()
    for method in TEXT_METHODS:
        for text in TEXTS:
            first = ask_once(b, method, text)
            assert np.array_equal(first, getattr(b, method)(text))
            assert ask_once(b, method, text) is first


def test_backends_do_not_share_answers():
    a, b = Recorder(), Recorder()
    b.inner.embed = lambda text: np.array([1.0, 0.0])
    assert np.array_equal(ask_once(a, "embed", TEXTS[0]), hashed_embedding(TEXTS[0]))
    assert np.array_equal(ask_once(b, "embed", TEXTS[0]), [1.0, 0.0])
    assert a.asked == b.asked == [("embed", TEXTS[0])]


def test_a_call_that_raised_is_asked_again():
    b = Recorder()
    b.failing.add(TEXTS[0])
    for _ in range(2):
        with pytest.raises(BackendUnavailableError):
            ask_once(b, "classify_talk_type", TEXTS[0])
    b.failing.clear()
    assert ask_once(b, "classify_talk_type", TEXTS[0]) == "preparation"
    assert ask_once(b, "classify_talk_type", TEXTS[0]) == "preparation"
    assert b.asked == [("classify_talk_type", TEXTS[0])] * 3
    with pytest.raises(EmptyTextError):
        ask_once(b, "embed", "...")
    with pytest.raises(EmptyTextError):
        ask_once(b, "embed", "...")


def test_ask_once_keeps_the_answers_used_last(monkeypatch):
    monkeypatch.setattr(backends, "ANSWER_MEMO_SIZE", 2)
    b = Recorder()
    for text in (TEXTS[0], TEXTS[1], TEXTS[0], TEXTS[2], TEXTS[0], TEXTS[1]):
        ask_once(b, "classify_talk_type", text)
    # TEXTS[1] was the least recently used when TEXTS[2] came, so it is asked again.
    assert [t for _, t in b.asked] == [TEXTS[0], TEXTS[1], TEXTS[2], TEXTS[1]]


def test_dropping_a_backend_frees_its_answers():
    gc.collect()
    before = len(backends._ANSWERS)
    b = Recorder()
    ask_once(b, "embed", TEXTS[0])
    assert len(backends._ANSWERS) == before + 1
    gone = weakref.ref(b)
    del b
    gc.collect()
    assert gone() is None
    assert len(backends._ANSWERS) == before
