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
profile's threshold, and preparation is absorbing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyTriggerSetError, UnknownActionError, UnknownLabelError
from .probs import Categorical, from_dict, uniform
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
    action_counts: dict[str, dict[str, float]]
    prep_threshold: float | None = None

    def __post_init__(self):
        if self.initial_stage not in STAGES:
            raise UnknownLabelError(f"unknown initial stage {self.initial_stage!r}")
        for stage, row in self.action_counts.items():
            if stage not in STAGES:
                raise UnknownLabelError(f"unknown stage {stage!r} in action_counts")
            for action, n in row.items():
                if action not in CLIENT_ACTIONS:
                    raise UnknownActionError(f"unknown client action {action!r}")
                if not n >= 0:  # NaN fails too
                    raise ValueError("action counts must be non-negative")

    @classmethod
    def from_dict(cls, d: dict) -> "ClientProfile":
        return cls(
            id=d["id"],
            topic=d["topic"],
            behavior=d["behavior"],
            personas=tuple(d.get("personas", ())),
            beliefs=tuple(d.get("beliefs", ())),
            motivations=tuple(d.get("motivations", ())),
            plans=tuple(d.get("plans", ())),
            initial_stage=d["initial_stage"],
            action_counts=d.get("action_counts", {}),
            prep_threshold=d.get("prep_threshold"),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "ClientProfile":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


@dataclass
class Trigger:
    id: str
    category: str
    text: str
    bonus: float
    embedding: np.ndarray
    hit_count: int = 0
    discovered: bool = False


def build_triggers(profile: ClientProfile, backend) -> list[Trigger]:
    """Turn profile sentences into triggers.

    Beliefs and plans qualify above 10 characters, motivations above 20;
    persona sentences are background color and never become triggers.
    """
    triggers = []
    for category, (min_len, bonus) in TRIGGER_RULES.items():
        for i, sentence in enumerate(getattr(profile, category)):
            if len(sentence) > min_len:
                triggers.append(
                    Trigger(
                        id=f"{category}-{i}",
                        category=category,
                        text=sentence,
                        bonus=bonus,
                        embedding=backend.embed(sentence),
                    )
                )
    return triggers


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
        if rho >= tau:
            newly = not trig.discovered
            trig.hit_count += 1
            trig.discovered = True
            matches.append(TriggerMatch(trig, rho, newly))
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
    # Guard against unit-vector dot products straying past 1 by round-off.
    rho_max = min(max(m.similarity for m in matches), 1.0)
    h = min(m.trigger.hit_count for m in matches)
    delta = 0.5 ** (h - 1)
    return BASE_GATE + 0.9 * rho_max * delta


def expected_delta_r(tt_row: Categorical) -> float:
    """Expected readiness push of a counselor action given its talk-type row."""
    return float(
        sum(tt_row.prob(tt) * TALK_TYPE_WEIGHTS[tt] for tt in TALK_TYPES.labels)
    )


def update_readiness(
    r: float, delta_r_bar: float, g: float, new_trigger_bonuses: list[float]
) -> float:
    """r' = r + gated action-driven contribution + discovery bonuses."""
    if not (BASE_GATE <= g <= 1.0):
        raise ValueError(f"gate must lie in [{BASE_GATE}, 1.0], got {g}")
    return r + delta_r_bar * g + sum(new_trigger_bonuses)


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
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        rows, support = {}, {}
        for cell in data["rows"]:
            key = (cell["stage"], cell["action"])
            rows[key] = from_dict(TALK_TYPES, cell["p"])
            support[key] = int(cell["support"])
        return cls(rows, support, min_support=data.get("min_support", DEFAULT_MIN_SUPPORT))

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
    total = n.sum()
    return Categorical(CLIENT_ACTIONS, (n + alpha * pop_row.probs) / (total + alpha))


def select_client_action(
    profile: ClientProfile,
    stage: str,
    pop_row: Categorical,
    backend,
    context: str = "",
    alpha: float = DEFAULT_ALPHA_DIRICHLET,
) -> tuple[str, Categorical]:
    """Pick the client's next behavior given its smoothed action distribution.

    The backend gets the distribution plus context and may answer with any
    text; anything that is not a valid action label falls back to the
    distribution's argmax.
    """
    dist = client_action_dist(profile, stage, pop_row, alpha)
    reply = backend.choose_client_action(dist, context)
    action = reply.strip() if isinstance(reply, str) else ""
    if action not in CLIENT_ACTIONS:
        action = dist.argmax_label()
    return action, dist


def act_kl(sim_dist: Categorical, gold_dist: Categorical, eps: float = 1e-6) -> float:
    """KL(sim || gold) over client actions after epsilon-smoothing both sides."""
    n = len(sim_dist.space)
    p = (sim_dist.probs + eps) / (1.0 + n * eps)
    q = (gold_dist.probs + eps) / (1.0 + n * eps)
    return float(np.sum(p * (np.log(p) - np.log(q))))


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
    """One client's side of a dialogue: state, dynamics, and response generation."""

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
        self.seed = seed
        self.stage = profile.initial_stage
        self.readiness = 0.0
        self.turn = 0
        self.triggers = build_triggers(profile, backend)
        # Counselor texts already embedded this session: scripted replies
        # repeat, and the backend's embedding of a text is taken as fixed.
        self._embedded: dict[str, np.ndarray] = {}

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
        context = {"stage": self.stage, **self._response_context()}
        return self.backend.generate_client_reply(
            "Opening", "", context, template_id="client_opening"
        )

    def _transition(self) -> None:
        """Apply at most one stage transition; preparation is absorbing."""
        if self.stage == "precontemplation":
            if not self.triggers:
                raise EmptyTriggerSetError(
                    f"profile {self.profile.id!r} has no triggers; coverage undefined"
                )
            if self.coverage >= self.theta_cov:
                self.stage = "contemplation"
                self.readiness = 0.0
        elif self.stage == "contemplation":
            if self.readiness >= self.theta_prep:
                self.stage = "preparation"

    def respond(self, counselor_text: str, counselor_action: str) -> ClientTurn:
        """Consume one counselor move and produce the client's reply.

        Order per turn: match triggers, gate, readiness update under the
        pre-turn stage, stage transition, then action selection and response
        generation under the post-transition stage.
        """
        if counselor_action not in COUNSELOR_ACTIONS:
            raise UnknownActionError(f"unknown counselor action {counselor_action!r}")
        self.turn += 1
        stage_before = self.stage
        vector = self._embedded.get(counselor_text)
        if vector is None:
            vector = self._embedded[counselor_text] = self.backend.embed(counselor_text)
        matches = match_triggers(self.triggers, vector, self.tau)
        g = content_gate(matches)
        delta = expected_delta_r(self.table.row(stage_before, counselor_action))
        bonuses = [m.trigger.bonus for m in matches if m.newly_discovered]
        self.readiness = update_readiness(self.readiness, delta, g, bonuses)
        self._transition()
        action, _dist = select_client_action(
            self.profile,
            self.stage,
            self.pop_prior[self.stage],
            self.backend,
            context=f"stage:{self.stage}",
            alpha=self.alpha,
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
    gold_stage.  If the trajectory never shows that transition, the default
    threshold is returned unchanged.
    """
    triggers = build_triggers(profile, backend)
    r = 0.0
    prev_stage = profile.initial_stage
    for turn in trajectory:
        matches = match_triggers(triggers, backend.embed(turn["counselor_text"]), tau)
        g = content_gate(matches)
        delta = expected_delta_r(table.row(prev_stage, turn["counselor_action"]))
        bonuses = [m.trigger.bonus for m in matches if m.newly_discovered]
        r = update_readiness(r, delta, g, bonuses)
        gold = turn["gold_stage"]
        if prev_stage == "contemplation" and gold == "preparation":
            return r
        if prev_stage == "precontemplation" and gold == "contemplation":
            r = 0.0
        prev_stage = gold
    return default


def load_pop_prior(path: str | Path) -> dict[str, Categorical]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return {stage: from_dict(CLIENT_ACTIONS, row) for stage, row in data.items()}


def load_profiles(directory: str | Path) -> list[ClientProfile]:
    paths = sorted(Path(directory).glob("*.json"))
    return [ClientProfile.from_file(p) for p in paths]
