"""Dialogue orchestration: counselor agents, the turn loop, transcripts,
and offline evaluation against annotated sessions.

``BeliefTracker`` is the only path to the belief: each turn it observes the
client's reply, advancing the belief and the world model, then acts on the
action actually taken.  Its three drivers differ only in where that action
comes from: expected free energy (the full agent), the annotation (offline
evaluation), or the line the user typed (the ``repl`` advisor).  The full
agent then touches memory and generates the reply.  Baseline agents
(random, fixed rotation, fully scripted) share the same interface so the
loop and the metrics treat all counselors alike.

The full agent does each piece of a turn once.  The planner's rollout under
the chosen action is the next turn's prior, so an expected-free-energy turn
reads it from the report instead of rolling the belief forward again
(``planner_prior`` serves the turns with no report: the no-EFE rotation,
offline evaluation and the advisor).  Each turn builds one ``BeliefState``,
diagnostics included, and one ``CounselorMove``, text included.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .backends import DATA_DIR, ScriptedBackend, ask_once
from .belief import BeliefState, bayes_update, free_energy, fuse, widen_observation
from .client_sim import ClientSession
from .config import RunConfig
from .errors import (EmptyInputError, NoGoldLabelsError, UnknownActionError, UnknownLabelError,
                     json_lines, json_record, naming_file)
from .memory import STM, MemoryStore
from .planner import (
    EfeReport,
    PreferenceModel,
    planner_prior,
    select_action,
)
from .probs import Categorical, normalize, point_mass, uniform
from .vocab import COUNSELOR_ACTIONS, STAGES
from .world_model import WorldModel

# The one preference every plan is scored against; frozen and read-only, so shared.
PREFERENCE = PreferenceModel.default()

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
    def from_dict(cls, d: dict, what: str = "a turn record") -> "TurnRecord":
        keys = dict.fromkeys(cls.__dataclass_fields__)
        return cls(**json_record(d, what, keys, keys.keys()))


def _jsonl_line(d: dict) -> str:
    """One transcript line: the header or a record."""
    return json.dumps(d) + "\n"


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
        return _jsonl_line(self.header_dict()) + "".join(
            _jsonl_line(rec.to_dict()) for rec in self.records
        )

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "Transcript":
        """The transcript ``to_jsonl`` wrote to ``path``, its header and records read as
        closed records; each fault names its line and the file."""
        head = dict.fromkeys(f.name for f in fields(cls) if f.name != "records")
        with naming_file(path):
            lines = list(json_lines(path))
            if not lines:
                raise ValueError("line 1 has no transcript header: the file is blank")
            (number, header), *lines = lines
            header = json_record(header, f"line {number}", head, head.keys())
            records = [TurnRecord.from_dict(d, f"line {n}") for n, d in lines]
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
    for cue, stage in {**{s: s for s in STAGES}, **AUX_CUE_STAGE}.items():
        wm.observation_counts[STAGES.index(stage), wm.cues.index(cue)] += cfg.obs_seed_count
    return wm


# The prior of a turn with no predictive prior to fuse: the first turn, and
# every turn with the planner disabled.
UNIFORM_STAGE_PRIOR = uniform(STAGES)


class BeliefTracker:
    """The belief over the client's stage and the world model learned with it.

    Each turn is ``observe`` (the client's reply) then ``act`` (the counselor
    action taken after it); ``plan`` scores the actions in between.  ``q`` is
    the last belief, ``action`` the last action and ``prior`` the predictive
    prior under it; all are ``None`` until the first turn sets them.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.wm = init_world_model(cfg)
        self.q: Categorical | None = None
        self.action: str | None = None
        self.prior: Categorical | None = None

    def observe(self, utterance: str, cue: str) -> tuple[tuple, np.ndarray]:
        """Widen the cue's stage estimate by utterance quality, fuse it with
        the predictive prior and credit the world model with the turn (with
        argmax point masses in place of the beliefs under ``hard_counts``).

        Returns the belief's fields ``(q, p_obs, p_prior, alpha, beta)`` and
        the cue's likelihood over stages from before the world-model update.
        """
        likelihood = self.wm.observation_likelihood(cue)
        widened, alpha = widen_observation(normalize(STAGES, likelihood), utterance)
        if self.prior is not None and not self.cfg.disable_planner:
            p_prior, beta = self.prior, self.cfg.beta
            q = fuse(widened, p_prior, beta)
        else:
            p_prior, beta, q = UNIFORM_STAGE_PRIOR, 0.0, widened
        if self.action is not None:
            self.wm.update(self._credited(self.q), self.action, self._credited(q), cue)
        else:
            self.wm.add_observation(self._credited(q), cue)
        self.q = q
        return (q, widened, p_prior, alpha, beta), likelihood

    def plan(self) -> EfeReport:
        """The planner's report on every counselor action from the current belief."""
        cfg = self.cfg
        return select_action(self.q, self.wm, COUNSELOR_ACTIONS, PREFERENCE, cfg.lambda_e,
                             cfg.lambda_p, cfg.repeat_penalty, self.action)

    def _credited(self, q: Categorical) -> Categorical:
        """The belief the world model learns from."""
        return point_mass(q.space, q.argmax_label()) if self.cfg.hard_counts else q

    def act(self, action: str, report: EfeReport | None = None) -> Categorical:
        """Commit to ``action``; returns the predictive prior for the next turn.

        ``report``, the planner's report on the current belief and model,
        already holds that prior as its row for ``action``; without one the
        belief is rolled forward here.
        """
        self.action = action
        if report is None:
            self.prior = planner_prior(self.q, self.wm, action)
        else:
            row = report.q_next[report.actions.index(action)]
            self.prior = Categorical(report.space, row.tolist())
        return self.prior


class ActiveCounselor:
    """The full belief-tracking, free-energy-minimizing counselor agent."""

    def __init__(self, backend, cfg: RunConfig | None = None, session_id: str = "session"):
        self.backend = backend
        self.cfg = cfg or RunConfig()
        self.session_id = session_id
        self.tracker = BeliefTracker(self.cfg)
        self.memory = MemoryStore(backend)
        self.turn = 0

    def counselor_turn(self, client_utterance: str) -> CounselorMove:
        # Embed first: an utterance with no tokens then fails before any state moves.
        ask_once(self.backend, "embed", client_utterance)
        memories = self.memory.retrieve(
            client_utterance,
            k=self.cfg.k_relevant,
            dist_thres=self.cfg.dist_thres,
            session=self.session_id,
        )
        cue = ask_once(self.backend, "classify_talk_type", client_utterance)
        self.turn += 1
        parts, likelihood = self.tracker.observe(client_utterance, cue)
        q, _p_obs, p_prior, _alpha, _beta = parts
        belief = BeliefState(
            *parts, bayes_update(p_prior, likelihood), free_energy(q, p_prior, likelihood)
        )
        if self.cfg.efe_action:
            report = self.tracker.plan()
            action = report.chosen
        else:
            report = None
            action = FALLBACK_ROTATION[(self.turn - 1) % len(FALLBACK_ROTATION)]
        self.tracker.act(action, report)
        self.memory.add(STM, client_utterance, self.turn, self.session_id)
        text = self.backend.generate_response(action, q, memories, client_utterance)
        self.memory.add(STM, text, self.turn, self.session_id)
        self.memory.consolidate(self.session_id, self.cfg.consolidate_every)
        return CounselorMove(action, text, belief, report, cue)


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

    def __init__(self, backend):
        self.backend = backend
        self.turn = 0

    def counselor_turn(self, client_utterance: str) -> CounselorMove:
        action = FALLBACK_ROTATION[self.turn % len(FALLBACK_ROTATION)]
        self.turn += 1
        text = self.backend.generate_response(action, None, None, client_utterance)
        return CounselorMove(action=action, text=text)


class ScriptedCounselor:
    """Plays back a fixed list of (action, text) moves; cycles when exhausted."""

    def __init__(self, moves: list[tuple[str, str]]):
        if not moves:
            raise ValueError("scripted counselor needs at least one move")
        self.moves = list(moves)
        self.turn = 0

    def counselor_turn(self, client_utterance: str) -> CounselorMove:
        action, text = self.moves[self.turn % len(self.moves)]
        self.turn += 1
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
    sink = open(out_path, "w", encoding="utf-8") if out_path is not None else nullcontext()
    with sink as fh:

        def emit(d: dict) -> None:
            if fh is not None:
                fh.write(_jsonl_line(d))
                fh.flush()

        emit(transcript.header_dict())
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
            emit(record.to_dict())
            client_utterance = outcome.text
            if cfg.early_stop and outcome.stage == "preparation":
                break
    return transcript


# The keys every annotated turn carries, each a string.
_TURN_KEYS = {"client_text": "string", "gold_stage": "string", "counselor_action": "string"}


def _check_sessions(sessions: list[dict]) -> None:
    """Check each session's shape and each turn's keys, types and labels (a blank
    client_text fails); errors count from 0 and name an id-less session by index."""
    for i, session in enumerate(sessions):
        sid = json_record(session, f"session {i}").get("id", i)
        turns = session.get("turns")
        if not isinstance(turns, list):
            raise ValueError(f"session {sid!r} has no list of turns")
        for t, turn in enumerate(turns):
            json_record(turn, lambda: f"session {sid!r} turn {t}", _TURN_KEYS)
            if not turn["gold_stage"]:
                raise NoGoldLabelsError(f"session {sid!r} is missing gold stage labels")
            if not turn["client_text"].strip():
                raise ValueError(f"session {sid!r} turn {t} has a blank client_text")
        unknown = sorted({t["gold_stage"] for t in turns} - set(STAGES))
        if unknown:
            raise UnknownLabelError(f"session {sid!r} has unknown gold stages {unknown}")
        unknown = sorted({t["counselor_action"] for t in turns} - set(COUNSELOR_ACTIONS))
        if unknown:
            raise UnknownActionError(f"session {sid!r} has unknown counselor actions {unknown}")


def offline_eval(sessions: list[dict], cfg: RunConfig | None = None, backend=None) -> dict:
    """Score state inference against annotated sessions.

    Each session is {"id", "turns": [{"client_text", "gold_stage",
    "counselor_action"}, ...]}.  The first warmup share of turns only feeds
    the belief and world model; the rest are scored: current-state accuracy
    compares the fused belief's argmax to gold, next-state accuracy compares
    the predictive prior under the session's actual action to the next gold.
    Sessions left with fewer than ``min_eval_turns`` scored turns are skipped.
    Every session is checked (``_check_sessions``) before any backend call.
    """
    cfg = cfg or RunConfig()
    backend = backend or ScriptedBackend()
    _check_sessions(sessions)
    curr_hit = curr_tot = next_hit = next_tot = 0
    sessions_scored = 0
    for session in sessions:
        turns = session["turns"]
        n = len(turns)
        warmup = int(n * cfg.warmup_ratio)
        if n - warmup < cfg.min_eval_turns:
            continue
        sessions_scored += 1
        tracker = BeliefTracker(cfg)
        for t, turn in enumerate(turns):
            cue = ask_once(backend, "classify_talk_type", turn["client_text"])
            tracker.observe(turn["client_text"], cue)
            prior_next = tracker.act(turn["counselor_action"])
            if t >= warmup:
                curr_tot += 1
                curr_hit += tracker.q.argmax_label() == turn["gold_stage"]
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
    """The checked sessions in ``path`` (the bundled file if None); each fault names it."""
    path = Path(path) if path else DATA_DIR / "annotated_sessions.json"
    with naming_file(path):
        data = json.loads(path.read_text(encoding="utf-8"))
        sessions = data.get("sessions") if isinstance(data, dict) else data
        if not isinstance(sessions, list):
            raise ValueError("expected a list of sessions or an object whose 'sessions' is a list")
        _check_sessions(sessions)
    return sessions
