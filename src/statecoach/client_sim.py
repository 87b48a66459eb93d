"""Profile-grounded simulated client with readiness dynamics.

The simulated client owns a hidden stage of change and a continuous
readiness score r.  Progress is driven by the counselor actually engaging
with the client's profile content: each belief, motivation, and plan
sentence becomes a trigger, and counselor utterances that semantically match
a trigger earn a discovery bonus plus a content-gated readiness gain.
Generic counselor chatter that matches nothing is gated down to a trickle,
and repeatedly matching the same trigger decays geometrically, so readiness
cannot be farmed from one lucky sentence.

Stage transitions are one-way: precontemplation moves to contemplation once
enough triggers have been discovered (readiness resets to zero at that
boundary), contemplation moves to preparation once readiness crosses the
profile's threshold, and preparation is absorbing.  Threshold calibration
replays an annotated trajectory through a live ``ClientSession``'s own
readiness step and stage-entry rule, so the two cannot drift apart.

The readiness push and the discovery bonuses are totalled by ``probs._total``
and ``act_kl`` is ``probs.kl_divergence`` of the smoothed sides, so no summing
or KL rule is stated here a second time.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .backends import ask_once, match_label
from .errors import (EmptyTriggerSetError, UnknownActionError, UnknownLabelError, is_finite,
                     is_json, json_record, naming_file)
from .probs import Categorical, _total, from_dict, kl_divergence, uniform
from .vocab import (
    CLIENT_ACTIONS,
    COUNSELOR_ACTIONS,
    STAGES,
    TALK_TYPES,
    TALK_TYPE_WEIGHTS,
)

DEFAULT_TAU = 0.45
DEFAULT_THETA_COV = 0.3
DEFAULT_THETA_PREP = 0.5
DEFAULT_ALPHA_DIRICHLET = 5.0
DEFAULT_MIN_SUPPORT = 3

# Per-category trigger admission rules: (minimum sentence length, bonus).
TRIGGER_RULES = {
    "beliefs": (10, 0.2),
    "motivations": (20, 0.4),
    "plans": (10, 0.5),
}

BASE_GATE = 0.1
ACT_KL_EPS = 1e-6  # act_kl's smoothing mass per entry

# The profile fields that hold lists of sentences.
_SENTENCE_FIELDS = ("personas", "beliefs", "motivations", "plans")

# The profile fields a file must give; the rest have defaults.
_REQUIRED_FIELDS = dict.fromkeys(("id", "topic", "behavior", "initial_stage"))

# The keys of one cell in a talk-type table file, each with its JSON type.
_TABLE_CELL = {"stage": "string", "action": "string", "p": None, "support": "integer"}


@dataclass(frozen=True)
class ClientProfile:
    id: str
    topic: str
    behavior: str
    personas: tuple[str, ...]
    beliefs: tuple[str, ...]
    motivations: tuple[str, ...]
    plans: tuple[str, ...]
    initial_stage: str
    action_counts: dict[str, dict[str, float]] = field(default_factory=dict)
    prep_threshold: float | None = None

    def __post_init__(self):
        pid = self.id  # names a transcript file, so it must not reach another directory
        if not isinstance(pid, str) or pid in ("", ".", "..") or any(c in pid for c in "/\\\0"):
            raise ValueError(f"profile id must be a plain file name, got {pid!r}")
        for k in ("topic", "behavior", "initial_stage"):  # null would reply as "None"
            v = getattr(self, k)
            if not isinstance(v, str):
                raise ValueError(f"profile field {k!r} must be a string, got {v!r}")
        for k in _SENTENCE_FIELDS:  # a string here would load as one-character sentences
            v = getattr(self, k)
            if not isinstance(v, (list, tuple)) or not all(isinstance(x, str) for x in v):
                raise ValueError(f"profile field {k!r} must be a list of strings")
            object.__setattr__(self, k, tuple(v))
        if self.initial_stage not in STAGES:
            raise UnknownLabelError(f"unknown initial stage {self.initial_stage!r}")
        counts = self.action_counts
        if not isinstance(counts, Mapping) or not all(
            isinstance(row, Mapping) for row in counts.values()
        ):
            raise ValueError("action_counts must map each stage to a mapping of action counts")
        for stage, row in counts.items():
            if stage not in STAGES:
                raise UnknownLabelError(f"unknown stage {stage!r} in action_counts")
            for action, n in row.items():
                if action not in CLIENT_ACTIONS:
                    raise UnknownActionError(f"unknown client action {action!r}")
                if not (is_json(n, "number") and n >= 0 and is_finite(n)):
                    raise ValueError(f"action_counts[{stage!r}][{action!r}] must be a finite "
                                     f"non-negative number, got {n!r}")
        t = self.prep_threshold  # NaN is never crossed
        if t is not None and not (is_json(t, "number") and is_finite(t)):
            raise ValueError(f"prep_threshold must be a finite number, got {t!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "ClientProfile":
        """A profile from its JSON object; a sentence field left out is empty.

        A value that is not an object, a missing required field, or a key that
        names no field (a typo such as ``beleifs``) is a ValueError.
        """
        json_record(d, "a profile", _REQUIRED_FIELDS, cls.__dataclass_fields__.keys())
        return cls(**{k: () for k in _SENTENCE_FIELDS} | d)

    @classmethod
    def from_file(cls, path: str | Path) -> "ClientProfile":
        """The profile in a JSON file; every fault in its content names the file.

        A profile that starts in precontemplation needs a trigger to leave it, so
        one with no sentence long enough to become a trigger is an
        EmptyTriggerSetError here, before any session runs.
        """
        with naming_file(path):
            profile = cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
            if profile.initial_stage == "precontemplation" and not any(
                _trigger_sentences(profile)
            ):
                raise EmptyTriggerSetError(
                    f"profile {profile.id!r} starts in precontemplation with no "
                    "sentence long enough to become a trigger"
                )
            return profile


@dataclass
class Trigger:
    id: str
    category: str
    text: str
    bonus: float
    embedding: np.ndarray
    hit_count: int = 0

    @property
    def discovered(self) -> bool:
        return self.hit_count > 0


def _trigger_sentences(profile: ClientProfile):
    """``(category, index, sentence, bonus)`` for each sentence that becomes a trigger.

    Beliefs and plans qualify above 10 characters, motivations above 20;
    persona sentences are background color and never become triggers.
    """
    for category, (min_len, bonus) in TRIGGER_RULES.items():
        for i, sentence in enumerate(getattr(profile, category)):
            if len(sentence) > min_len:
                yield category, i, sentence, bonus


def build_triggers(profile: ClientProfile, backend) -> list[Trigger]:
    """Turn the profile's qualifying sentences into triggers."""
    return [
        Trigger(
            id=f"{category}-{i}",
            category=category,
            text=sentence,
            bonus=bonus,
            embedding=ask_once(backend, "embed", sentence),
        )
        for category, i, sentence, bonus in _trigger_sentences(profile)
    ]


@dataclass(frozen=True)
class TriggerMatch:
    trigger: Trigger
    similarity: float
    newly_discovered: bool


def match_triggers(
    triggers: list[Trigger], utterance_embedding: np.ndarray, tau: float = DEFAULT_TAU
) -> list[TriggerMatch]:
    """Cosine-match an utterance against every trigger, updating hit counts."""
    matches = []
    for trig in triggers:
        rho = float(np.dot(trig.embedding, utterance_embedding))
        if rho >= tau and rho > 0:  # under a negative tau, an opposed utterance is no hit
            matches.append(TriggerMatch(trig, rho, not trig.discovered))
            trig.hit_count += 1
    return matches


def content_gate(matches: list[TriggerMatch]) -> float:
    """Gate in [0.1, 1.0] scaling readiness gains by match quality.

    No match leaves only the baseline 0.1.  Otherwise the gate grows with the
    best similarity and shrinks geometrically with repetition: the decay uses
    the smallest hit count among this turn's matches (counting the current
    hit), so a first discovery gets full credit and the k-th repeat 2^-(k-1).
    """
    if not matches:
        return BASE_GATE
    # A hand-built match can carry a negative cosine, and a unit-vector dot
    # product can stray past 1 by round-off; either would push g out of range.
    rho_max = min(max(max(m.similarity for m in matches), 0.0), 1.0)
    h = min(m.trigger.hit_count for m in matches)
    delta = 0.5 ** (h - 1)
    return BASE_GATE + 0.9 * rho_max * delta


def expected_delta_r(tt_row: Categorical) -> float:
    """Expected readiness push of a counselor action given its talk-type row."""
    return _total([tt_row.prob(tt) * TALK_TYPE_WEIGHTS[tt] for tt in TALK_TYPES.labels])


def update_readiness(
    r: float, delta_r_bar: float, g: float, new_trigger_bonuses: list[float]
) -> float:
    """r' = r + gated action-driven contribution + discovery bonuses."""
    if not (BASE_GATE <= g <= 1.0):
        raise ValueError(f"gate must lie in [{BASE_GATE}, 1.0], got {g}")
    return r + delta_r_bar * g + _total(new_trigger_bonuses)


class TalkTypeTable:
    """P(talk type | stage, counselor action) learned from annotated pairs.

    Cells with fewer than ``min_support`` observed pairs back off to the
    support-weighted marginal row of their stage, so thin evidence never
    produces a wild row.
    """

    def __init__(
        self,
        rows: dict[tuple[str, str], Categorical],
        support: dict[tuple[str, str], int],
        min_support: int = DEFAULT_MIN_SUPPORT,
    ):
        self.rows = rows
        self.support = support
        self.min_support = min_support
        self._marginals: dict[str, Categorical] = {}

    @classmethod
    def from_file(cls, path: str | Path) -> "TalkTypeTable":
        """The table in a JSON file; each fault in its content names the file.

        Each cell is a closed record whose stage and counselor action are labels
        and whose support, like the table's ``min_support``, is a non-negative
        integer.
        """
        with naming_file(path):
            data = json_record(json.loads(Path(path).read_text(encoding="utf-8")), "a table")
            if not isinstance(data.get("rows"), list):
                raise ValueError("a table must hold a list of rows")
            min_support = data.get("min_support", DEFAULT_MIN_SUPPORT)
            if not is_json(min_support, "integer") or min_support < 0:
                raise ValueError(f"min_support must be a non-negative integer, got {min_support!r}")
            rows, support = {}, {}
            for i, cell in enumerate(data["rows"]):
                json_record(cell, f"row {i}", _TABLE_CELL, _TABLE_CELL.keys())
                stage, action, n = cell["stage"], cell["action"], cell["support"]
                if stage not in STAGES:
                    raise UnknownLabelError(f"row {i} has unknown stage {stage!r}")
                if action not in COUNSELOR_ACTIONS:
                    raise UnknownActionError(f"row {i} has unknown counselor action {action!r}")
                if n < 0:
                    raise ValueError(f"row {i}'s support must be non-negative, got {n}")
                if not is_finite(n):
                    raise ValueError(f"row {i}'s support must be finite, got {n}")
                rows[stage, action] = from_dict(TALK_TYPES, json_record(cell["p"], f"row {i}'s p"))
                support[stage, action] = n
        return cls(rows, support, min_support)

    def _marginal(self, stage: str) -> Categorical:
        if stage not in self._marginals:
            acc = np.zeros(len(TALK_TYPES))
            total = 0
            for (s, _a), row in self.rows.items():
                if s == stage:
                    n = self.support[(s, _a)]
                    acc += n * row.probs
                    total += n
            self._marginals[stage] = (
                Categorical(TALK_TYPES, acc / total) if total > 0 else uniform(TALK_TYPES)
            )
        return self._marginals[stage]

    def row(self, stage: str, action: str) -> Categorical:
        key = (stage, action)
        if key in self.rows and self.support[key] >= self.min_support:
            return self.rows[key]
        return self._marginal(stage)


def client_action_dist(
    profile: ClientProfile,
    stage: str,
    pop_row: Categorical,
    alpha: float = DEFAULT_ALPHA_DIRICHLET,
) -> Categorical:
    """Dirichlet-smoothed blend of the profile's counts with the population prior."""
    counts = profile.action_counts.get(stage, {})
    n = np.array([counts.get(a, 0.0) for a in CLIENT_ACTIONS.labels], dtype=float)
    total = np.add.reduce(n)
    return Categorical(CLIENT_ACTIONS, (n + alpha * pop_row.probs) / (total + alpha))


def select_client_action(
    profile: ClientProfile,
    stage: str,
    pop_row: Categorical,
    backend,
    alpha: float = DEFAULT_ALPHA_DIRICHLET,
) -> str:
    """Pick the client's next behavior given its smoothed action distribution.

    The backend gets the distribution with the context ``stage:<name>`` and
    may answer with any text; a reply that names no action label
    (``backends.match_label``) falls back to the distribution's argmax.
    """
    dist = client_action_dist(profile, stage, pop_row, alpha)
    reply = backend.choose_client_action(dist, f"stage:{stage}")
    return match_label(reply, CLIENT_ACTIONS.labels) or dist.argmax_label()


def act_kl(sim_dist: Categorical, gold_dist: Categorical) -> float:
    """``kl_divergence(sim, gold)`` after ACT_KL_EPS-smoothing each side.

    Clamped at 0: for distributions a few ulps apart the summed terms can
    round to a tiny negative value, which KL never is.
    """
    def smoothed(d: Categorical) -> Categorical:
        scale = 1.0 + len(d.space) * ACT_KL_EPS
        return Categorical(d.space, [(x + ACT_KL_EPS) / scale for x in d.values])

    return max(0.0, kl_divergence(smoothed(sim_dist), smoothed(gold_dist)))


@dataclass(frozen=True)
class ClientTurn:
    """What the simulated client did in response to one counselor move."""

    action: str
    text: str
    stage: str
    readiness: float
    matched_ids: tuple[str, ...]
    newly_discovered_ids: tuple[str, ...]
    gate: float
    delta_r_bar: float


class ClientSession:
    """One client's side of a dialogue: state, dynamics, and response generation.

    The client is deterministic: ``seed`` is accepted and never read.  The
    profile, the population prior and α are fixed for the session's life, so
    each stage's question to ``choose_client_action`` (its action distribution
    and ``stage:<name>``) is too: it is asked once per session and stage, on the
    stage's first reply, and a call that raises keeps nothing.  A backend that
    sampled its answer would lose per-turn variety; greedy decoding (see
    ``backends``) already rules such a backend out.
    """

    def __init__(
        self,
        profile: ClientProfile,
        table: TalkTypeTable,
        backend,
        pop_prior: dict[str, Categorical],
        tau: float = DEFAULT_TAU,
        theta_cov: float = DEFAULT_THETA_COV,
        theta_prep: float = DEFAULT_THETA_PREP,
        alpha: float = DEFAULT_ALPHA_DIRICHLET,
        seed: int = 42,
    ):
        self.profile = profile
        self.table = table
        self.backend = backend
        self.pop_prior = pop_prior
        self.tau = tau
        self.theta_cov = theta_cov
        self.theta_prep = (
            profile.prep_threshold if profile.prep_threshold is not None else theta_prep
        )
        self.alpha = alpha
        self.stage = profile.initial_stage
        self.readiness = 0.0
        self.turn = 0
        self.triggers = build_triggers(profile, backend)
        self._actions: dict[str, str] = {}  # stage -> select_client_action's answer

    @property
    def coverage(self) -> float:
        if not self.triggers:
            return 0.0
        return sum(t.discovered for t in self.triggers) / len(self.triggers)

    def _rotating(self, sentences: tuple[str, ...]) -> str:
        if not sentences:
            return ""
        return sentences[(self.turn - 1) % len(sentences)]

    def _response_context(self) -> dict[str, str]:
        return {
            "stage": self.stage,
            "topic": self.profile.topic,
            "behavior": self.profile.behavior,
            "belief": self._rotating(self.profile.beliefs),
            "motivation": self._rotating(self.profile.motivations),
            "plan": self._rotating(self.profile.plans),
            "persona": self.profile.personas[0] if self.profile.personas else "",
        }

    def opening_statement(self) -> str:
        return self.backend.generate_client_reply(
            "Opening", "", self._response_context(), template_id="client_opening"
        )

    def _transition(self) -> None:
        """Apply at most one stage transition; preparation is absorbing."""
        if self.stage == "precontemplation":
            if not self.triggers:
                raise EmptyTriggerSetError(
                    f"profile {self.profile.id!r} has no triggers; coverage undefined"
                )
            if self.coverage >= self.theta_cov:
                self._enter("contemplation")
        elif self.stage == "contemplation":
            if self.readiness >= self.theta_prep:
                self._enter("preparation")

    def _enter(self, stage: str) -> None:
        """Move to ``stage``; entering contemplation from precontemplation resets r."""
        if stage not in STAGES:
            raise UnknownLabelError(f"unknown stage {stage!r}")
        if self.stage == "precontemplation" and stage == "contemplation":
            self.readiness = 0.0
        self.stage = stage

    def _advance(self, text: str, action: str) -> tuple[list[TriggerMatch], float, float]:
        """Update readiness under the current stage; returns (matches, gate, Δr̄)."""
        if action not in COUNSELOR_ACTIONS:
            raise UnknownActionError(f"unknown counselor action {action!r}")
        vector = ask_once(self.backend, "embed", text)
        matches = match_triggers(self.triggers, vector, self.tau)
        g = content_gate(matches)
        delta = expected_delta_r(self.table.row(self.stage, action))
        bonuses = [m.trigger.bonus for m in matches if m.newly_discovered]
        self.readiness = update_readiness(self.readiness, delta, g, bonuses)
        return matches, g, delta

    def respond(self, counselor_text: str, counselor_action: str) -> ClientTurn:
        """Consume one counselor move and produce the client's reply.

        Order per turn: match triggers, gate, readiness update under the
        pre-turn stage, stage transition, then action selection and response
        generation under the post-transition stage.
        """
        matches, g, delta = self._advance(counselor_text, counselor_action)
        self.turn += 1
        self._transition()
        action = self._actions.get(self.stage)
        if action is None:
            action = self._actions[self.stage] = select_client_action(
                self.profile, self.stage, self.pop_prior[self.stage], self.backend,
                self.alpha,
            )
        text = self.backend.generate_client_reply(
            action, counselor_text, self._response_context()
        )
        return ClientTurn(
            action=action,
            text=text,
            stage=self.stage,
            readiness=self.readiness,
            matched_ids=tuple(m.trigger.id for m in matches),
            newly_discovered_ids=tuple(
                m.trigger.id for m in matches if m.newly_discovered
            ),
            gate=g,
            delta_r_bar=delta,
        )


def calibrate_prep_threshold(
    profile: ClientProfile,
    trajectory: list[dict],
    table: TalkTypeTable,
    backend,
    tau: float = DEFAULT_TAU,
    default: float = DEFAULT_THETA_PREP,
) -> float:
    """Replay an annotated trajectory and read off the readiness level at
    which the gold labels first move from contemplation to preparation.

    Each trajectory turn needs counselor_text, counselor_action, and
    gold_stage.  The replay runs a live ``ClientSession``'s own readiness
    step and stage-entry rule, the gold labels taking the place of its
    transitions, so an unknown action or stage raises as it does live.  If
    the trajectory never shows that transition, the default is returned.
    """
    client = ClientSession(profile, table, backend, {}, tau=tau)  # the step reads no prior
    for turn in trajectory:
        client._advance(turn["counselor_text"], turn["counselor_action"])
        gold = turn["gold_stage"]
        if client.stage == "contemplation" and gold == "preparation":
            return client.readiness
        client._enter(gold)
    return default


def load_pop_prior(path: str | Path) -> dict[str, Categorical]:
    """Each stage's prior over client actions; a ValueError in the file names it."""
    with naming_file(path):
        data = json_record(json.loads(Path(path).read_text(encoding="utf-8")), "a population prior")
        return {
            stage: from_dict(CLIENT_ACTIONS, json_record(row, f"the row of {stage!r}"))
            for stage, row in data.items()
        }


def load_profiles(directory: str | Path) -> list[ClientProfile]:
    """Every ``*.json`` profile under ``directory``, by file name; ids must be unique."""
    by_id: dict[str, Path] = {}
    profiles = []
    for path in sorted(Path(directory).glob("*.json")):
        profile = ClientProfile.from_file(path)
        if profile.id in by_id:
            raise ValueError(
                f"{by_id[profile.id].name} and {path.name} share profile id {profile.id!r}"
            )
        by_id[profile.id] = path
        profiles.append(profile)
    return profiles
