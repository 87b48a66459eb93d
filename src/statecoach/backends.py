"""Pluggable boundary for every natural-language operation.

Two implementations share one duck-typed interface:

* ScriptedBackend — fully deterministic: keyword rule tables (shipped as
  JSON fixtures) and a hashed bag-of-tokens embedding.
  This is what tests and reproducible runs use.
* HttpBackend — an OpenAI-compatible chat-completions / embeddings client
  with greedy decoding, bounded retries with exponential backoff, and typed
  transport errors.

The interface methods are: generate_response, generate_client_reply,
classify_counselor_action, classify_talk_type, choose_client_action,
summarize, embed.
"""

from __future__ import annotations

import hashlib
import json
import os
import string
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import requests

from .errors import BackendUnavailableError, EmptyTextError, TemplateMissingError
from .probs import Categorical
from .vocab import CLIENT_ACTIONS, COUNSELOR_ACTIONS, CUES

DATA_DIR = Path(__file__).parent / "data"
EMBED_DIM = 256
API_KEY_ENV = "STATECOACH_API_KEY"
# Wait before the n-th resend of an HTTP request: RETRY_BACKOFF_S * 2**(n-1).
RETRY_BACKOFF_S = 0.5

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


@dataclass
class BackendConfig:
    kind: str = "scripted"
    endpoint: str | None = None
    model_name: str | None = None
    max_output_tokens: int = 1024
    prompt_templates: dict[str, str] = field(default_factory=dict)
    seed: int = 42
    timeout: float = 10.0
    retries: int = 3

    def __post_init__(self):
        if self.kind not in ("scripted", "http"):
            raise ValueError(f"unknown backend kind {self.kind!r}")
        if self.kind == "http" and not self.endpoint:
            raise ValueError("http backend requires an endpoint")
        if self.max_output_tokens <= 0:
            raise ValueError("max_output_tokens must be positive")
        if not self.prompt_templates:
            self.prompt_templates = load_templates()


def load_templates(directory: str | Path | None = None) -> dict[str, str]:
    """Load {placeholder}-style prompt templates, one per .txt file."""
    directory = Path(directory) if directory else DATA_DIR / "templates"
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(directory.glob("*.txt"))}


def _load_json(name: str) -> dict:
    return json.loads((DATA_DIR / name).read_text(encoding="utf-8"))


def tokenize(text: str) -> list[str]:
    return text.lower().translate(_PUNCT_TABLE).split()


def hashed_embedding(text: str) -> np.ndarray:
    """Deterministic 256-dim bag-of-tokens embedding, unit L2 norm.

    Token buckets come from md5, which is stable across platforms and
    processes (unlike the builtin hash).
    """
    tokens = tokenize(text)
    if not tokens:
        raise EmptyTextError("cannot embed text with no tokens")
    v = np.zeros(EMBED_DIM)
    for tok in tokens:
        bucket = int(hashlib.md5(tok.encode("utf-8")).hexdigest(), 16) % EMBED_DIM
        v[bucket] += 1.0
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

    def __init__(self, config: BackendConfig | None = None):
        self.config = config or BackendConfig()
        self._counselor_rules = _load_json("counselor_rules.json")["rules"]
        self._cue_rules = _load_json("talk_type_rules.json")["cue_rules"]
        self._response_rules = _load_json("counselor_responses.json")["rules"]
        self._client_rules = _load_json("client_responses.json")["rules"]

    # -- generation -------------------------------------------------------

    def _check_template(self, template_id: str) -> None:
        if template_id not in self.config.prompt_templates:
            raise TemplateMissingError(f"no template registered under {template_id!r}")

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
        template_id: str = "counselor_reply",
    ) -> str:
        self._check_template(template_id)
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
        self._check_template(template_id)
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

    def choose_client_action(self, dist: Categorical, context: str = "") -> str:
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

    def __init__(self, config: BackendConfig, session: requests.Session | None = None):
        if config.kind != "http":
            raise ValueError("HttpBackend requires kind='http'")
        self.config = config
        self.session = session or requests.Session()

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(API_KEY_ENV)
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def _post(self, path: str, payload: dict) -> dict:
        url = self.config.endpoint.rstrip("/") + path
        last_error = "unknown error"
        for attempt in range(1, self.config.retries + 1):
            try:
                resp = self.session.post(
                    url, json=payload, headers=self._headers(), timeout=self.config.timeout
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
            if attempt < self.config.retries:
                time.sleep(RETRY_BACKOFF_S * 2 ** (attempt - 1))
        raise BackendUnavailableError(
            f"backend unreachable at {url}: {last_error}", attempts=attempt
        )

    def _render(self, template_id: str, **fields) -> str:
        try:
            template = self.config.prompt_templates[template_id]
        except KeyError:
            raise TemplateMissingError(
                f"no template registered under {template_id!r}"
            ) from None
        return template.format(**fields)

    def _chat(self, prompt: str) -> str:
        body = {
            "model": self.config.model_name or "default",
            "messages": [{"role": "user", "content": prompt}],
            "temperature": 0,
            "max_tokens": self.config.max_output_tokens,
            "seed": self.config.seed,
        }
        data = self._post("/chat/completions", body)
        try:
            text = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            raise BackendUnavailableError("malformed chat-completions response")
        if not text or not text.strip():
            raise BackendUnavailableError("backend returned empty text")
        return text.strip()

    def generate_response(
        self,
        action: str,
        belief: Categorical | None,
        memories: dict | None,
        user_utterance: str,
        template_id: str = "counselor_reply",
    ) -> str:
        relevant = (memories or {}).get("relevant", [])
        prompt = self._render(
            template_id,
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
        prompt = self._render(
            template_id, utterance=utterance, labels=", ".join(labels)
        )
        reply = self._chat(prompt).strip().rstrip(".")
        for label in labels:
            if reply.lower() == label.lower():
                return label
        return fallback

    def classify_counselor_action(self, utterance: str) -> str:
        return self._classify(
            utterance, "classify_counselor", COUNSELOR_ACTIONS.labels, "Give Information"
        )

    def classify_talk_type(self, utterance: str) -> str:
        return self._classify(
            utterance, "classify_talk_type", CUES.labels, "precontemplation"
        )

    def choose_client_action(self, dist: Categorical, context: str = "") -> str:
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
            {"model": self.config.model_name or "default", "input": text},
        )
        try:
            vec = np.asarray(data["data"][0]["embedding"], dtype=float)
        except (KeyError, IndexError, TypeError):
            raise BackendUnavailableError("malformed embeddings response")
        norm = np.linalg.norm(vec)
        if norm == 0 or not np.isfinite(norm):
            raise BackendUnavailableError("degenerate embedding vector")
        return vec / norm


def make_backend(config: BackendConfig):
    if config.kind == "http":
        return HttpBackend(config)
    return ScriptedBackend(config)
