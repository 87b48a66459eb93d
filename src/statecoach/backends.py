"""Pluggable boundary for every natural-language operation.

Two implementations share one duck-typed interface:

* ScriptedBackend — fully deterministic: keyword rule tables (shipped as
  JSON fixtures) and a hashed bag-of-tokens embedding.
  This is what tests and reproducible runs use.
* HttpBackend — an OpenAI-compatible chat-completions / embeddings client
  with greedy decoding, bounded retries with exponential backoff, and typed
  transport errors.  ``requests`` is imported only when an HttpBackend is
  built, so a scripted run never loads the HTTP stack; where ``requests``
  cannot be imported, building one raises BackendUnavailableError.

``make_backend`` builds either from the run's ``RunConfig``, the one place
backend settings are checked.  Both use the bundled prompt templates; the HTTP
timeout and attempt count are the constants ``HTTP_TIMEOUT_S`` and
``HTTP_RETRIES``.

The interface methods are: generate_response, generate_client_reply,
classify_counselor_action, classify_talk_type, choose_client_action,
summarize, embed.  Only generate_client_reply takes a template id:
``client_reply`` for a reply, ``client_opening`` for the opening.

``ask_once`` keeps a backend's answers to text-only queries (embed, both
classifiers), an HttpBackend fallback label too: at most ``ANSWER_MEMO_SIZE``
per backend object, least recently used out first, and none after the object
is gone.  Callers may ask a query once and keep the answer, because every
backend answers the same question the same way; a query whose answer was
dropped is asked again.  ``choose_client_action`` is asked once per client
session and stage: the stage's action distribution and its context do not
change within one.  A backend that sampled its client action would lose
per-turn variety that way; greedy decoding rules one out already.

``hashed_embedding`` hashes each distinct token once: its md5 bucket is kept
in one module-level memo of at most ``TOKEN_MEMO_SIZE`` tokens, least recently
used out first.  A bucket depends only on its token, so the memo is never
stale and needs no invalidating.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import string
import time
import weakref
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import BackendUnavailableError, EmptyTextError, TemplateMissingError, naming_file
from .probs import Categorical
from .vocab import CLIENT_ACTIONS, COUNSELOR_ACTIONS, CUES

if TYPE_CHECKING:
    import requests

DATA_DIR = Path(__file__).parent / "data"
EMBED_DIM = 256
API_KEY_ENV = "STATECOACH_API_KEY"
# Seconds one HTTP request may take, and how many times it is sent at most.
HTTP_TIMEOUT_S = 10.0
HTTP_RETRIES = 3
# Wait before the n-th resend of an HTTP request: RETRY_BACKOFF_S * 2**(n-1).
RETRY_BACKOFF_S = 0.5
# Most distinct tokens whose md5 bucket hashed_embedding keeps.
TOKEN_MEMO_SIZE = 1 << 14
# Most answers ask_once keeps per backend: room for the 119 distinct questions
# of the five bundled profiles' sessions, and at most about 0.6 MB of embeddings.
ANSWER_MEMO_SIZE = 256

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)

# id(backend) -> {(method, text): answer}, least recently used first; a
# finalizer removes the entry when its backend goes, before the id can be reused.
_ANSWERS: dict[int, dict] = {}
_MISSING = object()


def ask_once(backend, method: str, text: str):
    """``backend.<method>(text)``, asked once per weak-referenceable backend
    object while the answer is among its ``ANSWER_MEMO_SIZE`` used last;
    callers share the answer, and a call that raises is not kept."""
    answers = _ANSWERS.get(id(backend))
    if answers is None:
        weakref.finalize(backend, _ANSWERS.pop, id(backend), None)
        answers = _ANSWERS[id(backend)] = {}
    key = method, text
    answer = answers.pop(key, _MISSING)
    if answer is _MISSING:
        answer = getattr(backend, method)(text)
        if len(answers) >= ANSWER_MEMO_SIZE:
            del answers[next(iter(answers))]
    answers[key] = answer
    return answer


def match_label(reply, labels) -> str | None:
    """The label ``reply`` names, up to case, outer space and a final '.'; else None."""
    wanted = reply.strip().rstrip(".").lower() if isinstance(reply, str) else None
    return next((label for label in labels if label.lower() == wanted), None)


def load_templates() -> dict[str, str]:
    """Load the bundled {placeholder}-style prompt templates, one per .txt file."""
    paths = sorted((DATA_DIR / "templates").glob("*.txt"))
    return {p.stem: p.read_text(encoding="utf-8") for p in paths}


def _template(templates: dict[str, str], template_id: str) -> str:
    """The prompt template registered under ``template_id``."""
    try:
        return templates[template_id]
    except KeyError:
        raise TemplateMissingError(f"no template registered under {template_id!r}") from None


def _load_json(name: str) -> dict:
    path = DATA_DIR / name
    with naming_file(path):
        return json.loads(path.read_text(encoding="utf-8"))


def tokenize(text: str) -> list[str]:
    return text.lower().translate(_PUNCT_TABLE).split()


@functools.lru_cache(maxsize=TOKEN_MEMO_SIZE)
def _bucket(token: str) -> int:
    """The embedding dimension ``token`` counts toward, from its md5."""
    return int(hashlib.md5(token.encode("utf-8")).hexdigest(), 16) % EMBED_DIM


def hashed_embedding(text: str) -> np.ndarray:
    """Deterministic 256-dim bag-of-tokens embedding, unit L2 norm.

    Token buckets come from md5, which is stable across platforms and
    processes (unlike the builtin hash), read through the token memo.
    """
    tokens = tokenize(text)
    if not tokens:
        raise EmptyTextError("cannot embed text with no tokens")
    v = np.zeros(EMBED_DIM)
    for tok in tokens:
        v[_bucket(tok)] += 1.0
    return v / np.linalg.norm(v)


def _require_text(utterance: str) -> None:
    if not utterance or not utterance.strip():
        raise EmptyTextError("utterance must be non-empty")


def _rule_matches(rule: dict, utterance: str) -> bool:
    mode = rule.get("mode", "contains_any")
    text = utterance.lower().strip()
    bare = text.translate(_PUNCT_TABLE).strip()
    if mode == "always":
        return True
    if mode == "short_ack":
        return len(bare.split()) <= 3 and bare in rule["terms"]
    if mode == "question":
        return text.endswith("?")
    if mode == "question_with":
        if not text.endswith("?"):
            return False
        words = bare.split()
        return any(term in words or term in text for term in rule["terms"])
    if mode == "contains_any":
        return any(term in text for term in rule["terms"])
    raise ValueError(f"unknown rule mode {mode!r}")


def _apply_rules(rules: list[dict], utterance: str) -> str:
    for rule in rules:
        if _rule_matches(rule, utterance):
            return rule["label"]
    raise ValueError("rule table is not total; add a catch-all rule")


class ScriptedBackend:
    """Deterministic backend driven by fixture rule tables."""

    def __init__(self):
        self.templates = load_templates()
        self._counselor_rules = _load_json("counselor_rules.json")["rules"]
        self._cue_rules = _load_json("talk_type_rules.json")["cue_rules"]
        self._response_rules = _load_json("counselor_responses.json")["rules"]
        self._client_rules = _load_json("client_responses.json")["rules"]

    # -- generation -------------------------------------------------------

    def _scripted_reply(
        self, rules: list[dict], haystack: str, context: dict[str, str]
    ) -> str:
        for rule in rules:
            if all(term in haystack for term in rule.get("require", [])):
                text = rule["response"].format(**context)
                if not text.strip():
                    raise BackendUnavailableError("scripted rule produced empty text")
                return text
        raise BackendUnavailableError("no scripted response rule matched")

    def generate_response(
        self,
        action: str,
        belief: Categorical | None,
        memories: dict | None,
        user_utterance: str,
    ) -> str:
        relevant = (memories or {}).get("relevant", [])
        context = {
            "action": action,
            "utterance": user_utterance,
            "memory": relevant[0].text if relevant else "",
        }
        haystack = f"action:{action.lower()} || {user_utterance.lower()}"
        return self._scripted_reply(self._response_rules, haystack, context)

    def generate_client_reply(
        self,
        action: str,
        counselor_utterance: str,
        context: dict[str, str],
        template_id: str = "client_reply",
    ) -> str:
        _template(self.templates, template_id)
        fmt = {"action": action, "utterance": counselor_utterance, **context}
        haystack = (
            f"client_action:{action.lower()} || "
            f"stage:{context.get('stage', '').lower()} || {counselor_utterance.lower()}"
        )
        return self._scripted_reply(self._client_rules, haystack, fmt)

    # -- classification ---------------------------------------------------

    def classify_counselor_action(self, utterance: str) -> str:
        _require_text(utterance)
        return _apply_rules(self._counselor_rules, utterance)

    def classify_talk_type(self, utterance: str) -> str:
        _require_text(utterance)
        return _apply_rules(self._cue_rules, utterance)

    def choose_client_action(self, dist: Categorical, context: str) -> str:
        return dist.argmax_label()

    # -- misc -------------------------------------------------------------

    def summarize(self, texts: list[str]) -> str:
        joined = " ".join(t.strip() for t in texts if t and t.strip())
        if not joined:
            joined = "No notable recent context."
        return joined[:240]

    def embed(self, text: str) -> np.ndarray:
        return hashed_embedding(text)


class HttpBackend:
    """OpenAI-compatible HTTP client: chat completions plus embeddings.

    Greedy decoding (temperature 0) with the configured seed; transport
    failures surface as BackendUnavailableError carrying the attempt count,
    never as fabricated text.
    """

    def __init__(self, cfg, session: requests.Session | None = None):
        """``cfg`` is the run's ``RunConfig``, duck-typed: ``config`` imports
        this module through ``client_sim`` and ``memory``."""
        if cfg.backend_kind != "http":
            raise ValueError("HttpBackend requires backend_kind='http'")
        try:
            import requests
        except ImportError as exc:
            raise BackendUnavailableError(
                f"the HTTP backend needs the 'requests' package, which cannot be imported: {exc}"
            ) from exc
        self.cfg = cfg
        self.templates = load_templates()
        self.session = session or requests.Session()

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(API_KEY_ENV)
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def _post(self, path: str, payload: dict) -> dict:
        import requests  # loaded by __init__

        url = self.cfg.endpoint.rstrip("/") + path
        last_error = "unknown error"
        for attempt in range(1, HTTP_RETRIES + 1):
            try:
                resp = self.session.post(
                    url, json=payload, headers=self._headers(), timeout=HTTP_TIMEOUT_S
                )
                if resp.status_code == 200:
                    return resp.json()
                last_error = f"HTTP {resp.status_code}"
                # A client error will not change on resend, except a timeout
                # (408) or rate limit (429).
                if 400 <= resp.status_code < 500 and resp.status_code not in (408, 429):
                    break
            except requests.RequestException as exc:
                last_error = str(exc)
            if attempt < HTTP_RETRIES:
                time.sleep(RETRY_BACKOFF_S * 2 ** (attempt - 1))
        raise BackendUnavailableError(
            f"backend unreachable at {url}: {last_error}", attempts=attempt
        )

    def _render(self, template_id: str, **fields) -> str:
        return _template(self.templates, template_id).format(**fields)

    def _chat(self, prompt: str) -> str:
        body = {
            "model": self.cfg.model_name or "default",
            "messages": [{"role": "user", "content": prompt}],
            "temperature": 0,
            "max_tokens": self.cfg.max_output_tokens,
            "seed": self.cfg.seed,
        }
        data = self._post("/chat/completions", body)
        try:
            text = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            text = None
        if not isinstance(text, str):
            raise BackendUnavailableError("malformed chat-completions response")
        if not text.strip():
            raise BackendUnavailableError("backend returned empty text")
        return text.strip()

    def generate_response(
        self,
        action: str,
        belief: Categorical | None,
        memories: dict | None,
        user_utterance: str,
    ) -> str:
        relevant = (memories or {}).get("relevant", [])
        prompt = self._render(
            "counselor_reply",
            action=action,
            belief=belief.as_dict() if belief is not None else {},
            memory=relevant[0].text if relevant else "",
            utterance=user_utterance,
        )
        return self._chat(prompt)

    def generate_client_reply(
        self,
        action: str,
        counselor_utterance: str,
        context: dict[str, str],
        template_id: str = "client_reply",
    ) -> str:
        prompt = self._render(
            template_id, action=action, utterance=counselor_utterance, **context
        )
        return self._chat(prompt)

    def _classify(self, utterance: str, template_id: str, labels, fallback: str) -> str:
        _require_text(utterance)
        prompt = self._render(template_id, utterance=utterance, labels=", ".join(labels))
        return match_label(self._chat(prompt), labels) or fallback

    def classify_counselor_action(self, utterance: str) -> str:
        return self._classify(
            utterance, "classify_counselor", COUNSELOR_ACTIONS.labels, "Give Information"
        )

    def classify_talk_type(self, utterance: str) -> str:
        return self._classify(
            utterance, "classify_talk_type", CUES.labels, "precontemplation"
        )

    def choose_client_action(self, dist: Categorical, context: str) -> str:
        prompt = self._render(
            "choose_action",
            distribution=json.dumps(dist.as_dict()),
            context=context,
            labels=", ".join(CLIENT_ACTIONS.labels),
        )
        return self._chat(prompt)

    def summarize(self, texts: list[str]) -> str:
        prompt = self._render("summarize", texts=" ".join(texts))
        return self._chat(prompt)

    def embed(self, text: str) -> np.ndarray:
        _require_text(text)
        data = self._post(
            "/embeddings",
            {"model": self.cfg.model_name or "default", "input": text},
        )
        try:
            vec = np.asarray(data["data"][0]["embedding"])
        except (KeyError, IndexError, TypeError, ValueError):  # ragged rows raise ValueError
            vec = None
        # Only a non-empty flat list of numbers is a vector: no strings, bools or nesting.
        if vec is None or vec.ndim != 1 or not vec.size or vec.dtype.kind not in "iuf":
            raise BackendUnavailableError("malformed embeddings response")
        vec = vec.astype(float)
        norm = np.linalg.norm(vec)
        if norm == 0 or not np.isfinite(norm):
            raise BackendUnavailableError("degenerate embedding vector")
        return vec / norm


def make_backend(cfg):
    """The backend ``cfg.backend_kind`` names, built from the run's ``RunConfig``."""
    return HttpBackend(cfg) if cfg.backend_kind == "http" else ScriptedBackend()
