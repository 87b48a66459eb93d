"""Dialogue orchestration: counselor agents, the turn loop, transcripts,
and offline evaluation against annotated sessions.

One ``BeliefTracker`` advances the belief and the world model every turn,
for the full agent and for offline evaluation alike; the two differ only in
where the action comes from: expected free energy, or the annotation.  The
full agent then touches memory and generates the reply.  Baseline agents
(random, fixed rotation, fully scripted) share the same interface so the
loop and the metrics treat all counselors alike.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .backends import DATA_DIR, ScriptedBackend, ask_once
from .belief import BeliefState, bayes_update, free_energy, fuse, widen_observation
from .client_sim import ClientSession
from .config import RunConfig
from .errors import EmptyInputError, NoGoldLabelsError
from .memory import STM, MemoryStore
from .planner import (
    EfeReport,
    PreferenceModel,
    planner_prior,
    select_action,
)
from .probs import Categorical, normalize, uniform
from .vocab import COUNSELOR_ACTIONS, STAGES
from .world_model import TurnEvidence, WorldModel

# Rotation used when expected-free-energy selection is switched off.
FALLBACK_ROTATION = ("Open Question", "Complex Reflection", "Give Information")

# Non-stage cues that still carry stage information: deflecting is
# precontemplation behavior, hedging is the ambivalence of contemplation,
# and stating a plan is preparation behavior.  Bare acknowledgments signal
# nothing and stay unseeded.
AUX_CUE_STAGE = {
    "deflection": "precontemplation",
    "hedging": "contemplation",
    "plan_statement": "preparation",
}


@dataclass(frozen=True)
class CounselorMove:
    action: str
    text: str
    belief: BeliefState | None = None
    efe: EfeReport | None = None
    cue: str | None = None


@dataclass
class TurnRecord:
    # Field order is key order, which is part of the transcript format; keep it stable.
    turn: int
    counselor_action: str
    counselor_text: str
    client_action: str
    client_text: str
    gold_stage: str | None
    sim_stage: str
    readiness: float
    belief: dict | None
    efe: dict | None
    matched_trigger_ids: list[str]

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "TurnRecord":
        return cls(**{k: d[k] for k in cls.__dataclass_fields__})


@dataclass
class Transcript:
    profile_id: str
    initial_stage: str
    n_triggers: int
    opening: str
    records: list[TurnRecord] = field(default_factory=list)

    @property
    def final_stage(self) -> str:
        return self.records[-1].sim_stage if self.records else self.initial_stage

    @property
    def discovered_ids(self) -> set[str]:
        ids: set[str] = set()
        for rec in self.records:
            ids.update(rec.matched_trigger_ids)
        return ids

    def header_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "records"}

    def to_jsonl(self) -> str:
        lines = [json.dumps(self.header_dict())]
        lines.extend(json.dumps(rec.to_dict()) for rec in self.records)
        return "\n".join(lines) + "\n"

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_jsonl(), encoding="utf-8")

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "Transcript":
        lines = [
            line for line in Path(path).read_text(encoding="utf-8").splitlines() if line
        ]
        header = json.loads(lines[0])
        records = [TurnRecord.from_dict(json.loads(line)) for line in lines[1:]]
        return cls(records=records, **header)


def init_world_model(cfg: RunConfig) -> WorldModel:
    """Fresh world model with seed counts tying each stage to the cues that
    signal it: its namesake cue plus the aligned auxiliary cue.

    Without the seeds every observation column is uniform, so classified
    cues carry no information about the stage and the belief never leaves
    the center of the simplex; a count per (stage, cue) pair breaks that
    symmetry while washing out quickly under real evidence.
    """
    wm = WorldModel(kappa_t=cfg.kappa_t, kappa_o=cfg.kappa_o)
    for stage in STAGES.labels:
        wm.observation_counts[STAGES.index(stage), wm.cues.index(stage)] += (
            cfg.obs_seed_count
        )
    for cue, stage in AUX_CUE_STAGE.items():
        wm.observation_counts[STAGES.index(stage), wm.cues.index(cue)] += (
            cfg.obs_seed_count
        )
    return wm


# The prior of a turn with no predictive prior to fuse: the first turn, and
# every turn with the planner disabled.
UNIFORM_STAGE_PRIOR = uniform(STAGES)


class BeliefTracker:
    """The belief over the client's stage and the world model learned with it.

    Each turn is ``observe`` (the client's reply) then ``act`` (the counselor
    action taken after it).  ``q`` is the last belief, ``action`` the last
    action and ``prior`` the predictive prior under it; all are ``None``
    until the first turn sets them.
    """

    def __init__(self, cfg: RunConfig, world_model: WorldModel | None = None):
        self.cfg = cfg
        self.wm = world_model if world_model is not None else init_world_model(cfg)
        self.q: Categorical | None = None
        self.action: str | None = None
        self.prior: Categorical | None = None

    def observe(self, utterance: str, cue: str) -> tuple[BeliefState, np.ndarray]:
        """Widen the cue's stage estimate by utterance quality, fuse it with
        the predictive prior and credit the world model with the turn.

        Returns the belief, without posterior or free energy, and the cue's
        likelihood over stages as it was before the world-model update.
        """
        likelihood = self.wm.observation_likelihood(cue)
        widened, alpha = widen_observation(normalize(STAGES, likelihood), utterance)
        if self.prior is not None and not self.cfg.disable_planner:
            p_prior, beta = self.prior, self.cfg.beta
            q = fuse(widened, p_prior, beta)
        else:
            p_prior, beta, q = UNIFORM_STAGE_PRIOR, 0.0, widened
        if self.action is not None:
            self.wm.update(
                TurnEvidence(self.q, self.action, q, cue), hard=self.cfg.hard_counts
            )
        else:
            self.wm.add_observation(q, cue, hard=self.cfg.hard_counts)
        self.q = q
        belief = BeliefState(q=q, p_obs=widened, p_prior=p_prior, alpha=alpha, beta=beta)
        return belief, likelihood

    def act(self, action: str) -> Categorical:
        """Commit to ``action``; returns the predictive prior for the next turn."""
        self.action = action
        self.prior = planner_prior(self.q, self.wm, action)
        return self.prior


class ActiveCounselor:
    """The full belief-tracking, free-energy-minimizing counselor agent."""

    def __init__(
        self,
        backend,
        cfg: RunConfig | None = None,
        session_id: str = "session",
        world_model: WorldModel | None = None,
        memory: MemoryStore | None = None,
        preference: PreferenceModel | None = None,
    ):
        self.backend = backend
        self.cfg = cfg or RunConfig()
        self.session_id = session_id
        self.tracker = BeliefTracker(self.cfg, world_model)
        self.wm = self.tracker.wm
        self.memory = memory if memory is not None else MemoryStore(backend)
        self.pref = preference or PreferenceModel.default()
        self.turn = 0

    def decide(self, client_utterance: str) -> CounselorMove:
        """Classify the client's reply, track the belief and commit to the
        next action; the move has no text yet, and memory is not touched."""
        self.turn += 1
        cue = ask_once(self.backend, "classify_talk_type", client_utterance)
        belief, likelihood = self.tracker.observe(client_utterance, cue)
        belief = replace(
            belief,
            posterior=bayes_update(belief.p_prior, likelihood),
            free_energy=free_energy(belief.q, belief.p_prior, likelihood),
        )

        report: EfeReport | None = None
        if self.cfg.efe_action:
            report = select_action(
                belief.q,
                self.wm,
                COUNSELOR_ACTIONS,
                self.pref,
                self.cfg.lambda_e,
                self.cfg.lambda_p,
                repeat_penalty=self.cfg.repeat_penalty,
                last_action=self.tracker.action,
            )
            action = report.chosen
        else:
            action = FALLBACK_ROTATION[(self.turn - 1) % len(FALLBACK_ROTATION)]
        self.tracker.act(action)
        return CounselorMove(action=action, text="", belief=belief, efe=report, cue=cue)

    def counselor_turn(self, client_utterance: str) -> CounselorMove:
        move = self.decide(client_utterance)
        memories = self.memory.retrieve(
            client_utterance,
            k=self.cfg.k_relevant,
            dist_thres=self.cfg.dist_thres,
            session=self.session_id,
        )
        self.memory.add(STM, client_utterance, self.turn, self.session_id)
        action, q = move.action, move.belief.q
        text = self.backend.generate_response(action, q, memories, client_utterance)
        self.memory.add(STM, text, self.turn, self.session_id)
        self.memory.consolidate(self.session_id, self.cfg.consolidate_every)
        return replace(move, text=text)


class RandomCounselor:
    """Uniform random action each turn; text from the same response rules."""

    def __init__(self, backend, seed: int = 42):
        self.backend = backend
        self.rng = np.random.default_rng(seed)

    def counselor_turn(self, client_utterance: str) -> CounselorMove:
        action = str(self.rng.choice(COUNSELOR_ACTIONS.labels))
        text = self.backend.generate_response(action, None, None, client_utterance)
        return CounselorMove(action=action, text=text)


class FixedCounselor:
    """Round-robins a small fixed action set; no belief machinery."""

    def __init__(self, backend, rotation: tuple[str, ...] = FALLBACK_ROTATION):
        self.backend = backend
        self.rotation = rotation
        self.turn = 0

    def counselor_turn(self, client_utterance: str) -> CounselorMove:
        action = self.rotation[self.turn % len(self.rotation)]
        self.turn += 1
        text = self.backend.generate_response(action, None, None, client_utterance)
        return CounselorMove(action=action, text=text)


class ScriptedCounselor:
    """Plays back a fixed list of (action, text) moves; cycles when exhausted."""

    def __init__(self, moves: list[tuple[str, str]], cycle: bool = True):
        if not moves:
            raise ValueError("scripted counselor needs at least one move")
        self.moves = list(moves)
        self.cycle = cycle
        self.turn = 0

    def counselor_turn(self, client_utterance: str) -> CounselorMove:
        i = self.turn % len(self.moves) if self.cycle else min(self.turn, len(self.moves) - 1)
        self.turn += 1
        action, text = self.moves[i]
        return CounselorMove(action=action, text=text)


def run_dialogue(
    counselor,
    client: ClientSession,
    cfg: RunConfig | None = None,
    out_path: str | Path | None = None,
) -> Transcript:
    """Alternate counselor and client until preparation or the turn cap.

    The client opens; each turn is one counselor move plus the client's
    reply.  When ``out_path`` is given, the header and every record are
    flushed as they happen, so a crash mid-run still leaves a parseable
    transcript prefix on disk.
    """
    cfg = cfg or RunConfig()
    opening = client.opening_statement()
    transcript = Transcript(
        profile_id=client.profile.id,
        initial_stage=client.profile.initial_stage,
        n_triggers=len(client.triggers),
        opening=opening,
    )
    fh = None
    if out_path is not None:
        fh = open(out_path, "w", encoding="utf-8")
        fh.write(json.dumps(transcript.header_dict()) + "\n")
        fh.flush()
    try:
        client_utterance = opening
        for turn in range(1, cfg.max_turns + 1):
            move = counselor.counselor_turn(client_utterance)
            outcome = client.respond(move.text, move.action)
            record = TurnRecord(
                turn=turn,
                counselor_action=move.action,
                counselor_text=move.text,
                client_action=outcome.action,
                client_text=outcome.text,
                gold_stage=None,
                sim_stage=outcome.stage,
                readiness=outcome.readiness,
                belief=move.belief.as_dict() if move.belief else None,
                efe=move.efe.as_dict() if move.efe else None,
                matched_trigger_ids=list(outcome.matched_ids),
            )
            transcript.records.append(record)
            if fh is not None:
                fh.write(json.dumps(record.to_dict()) + "\n")
                fh.flush()
            client_utterance = outcome.text
            if cfg.early_stop and outcome.stage == "preparation":
                break
    finally:
        if fh is not None:
            fh.close()
    return transcript


def offline_eval(sessions: list[dict], cfg: RunConfig | None = None, backend=None) -> dict:
    """Score state inference against annotated sessions.

    Each session is {"id", "turns": [{"client_text", "gold_stage",
    "counselor_action"}, ...]}.  The first warmup share of turns only feeds
    the belief and world model; the rest are scored: current-state accuracy
    compares the fused belief's argmax to gold, next-state accuracy compares
    the predictive prior under the session's actual action to the next gold.
    Sessions left with fewer than ``min_eval_turns`` scored turns are skipped.
    """
    cfg = cfg or RunConfig()
    backend = backend or ScriptedBackend()
    curr_hit = curr_tot = next_hit = next_tot = 0
    sessions_scored = 0
    for session in sessions:
        turns = session["turns"]
        if any(not t.get("gold_stage") for t in turns):
            raise NoGoldLabelsError(
                f"session {session.get('id', '?')!r} is missing gold stage labels"
            )
        n = len(turns)
        warmup = int(n * cfg.warmup_ratio)
        if n - warmup < cfg.min_eval_turns:
            continue
        sessions_scored += 1
        tracker = BeliefTracker(cfg)
        for t, turn in enumerate(turns):
            cue = ask_once(backend, "classify_talk_type", turn["client_text"])
            belief, _likelihood = tracker.observe(turn["client_text"], cue)
            prior_next = tracker.act(turn["counselor_action"])
            if t >= warmup:
                curr_tot += 1
                curr_hit += belief.q.argmax_label() == turn["gold_stage"]
                if t + 1 < n:
                    next_tot += 1
                    next_hit += prior_next.argmax_label() == turns[t + 1]["gold_stage"]
    if curr_tot == 0:
        raise EmptyInputError("no sessions were long enough to score")
    return {
        "curr_acc": curr_hit / curr_tot,
        "next_acc": (next_hit / next_tot) if next_tot else None,
        "sessions_scored": sessions_scored,
        "eval_turns": curr_tot,
    }


def load_annotated_sessions(path: str | Path | None = None) -> list[dict]:
    path = Path(path) if path else DATA_DIR / "annotated_sessions.json"
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return data["sessions"] if isinstance(data, dict) else data
