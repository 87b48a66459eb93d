"""Seeded inputs and closed-loop session runners for the benchmark workloads.

Every workload is a list of inputs generated from the seed and a function
that runs one input through statecoach's public API.  A *round* runs every
input once, in order, through one fresh counting proxy, the way
``statecoach run-dynamic`` runs every profile through one backend; rounds
repeat until the time is up.  Each input also has a reference output,
computed with a plain ``ScriptedBackend`` and the package's own entry points
(``run_dialogue`` / ``offline_eval``), which every timed output must match.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import resource
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

from statecoach import (
    ActiveCounselor,
    ClientProfile,
    ClientSession,
    RunConfig,
    ScriptedBackend,
    TalkTypeTable,
    Transcript,
    TurnRecord,
    load_pop_prior,
    load_profiles,
    offline_eval,
    run_dialogue,
)
from statecoach.backends import DATA_DIR
from statecoach.client_sim import TRIGGER_RULES
from statecoach.harness import load_annotated_sessions

from calibration import HostClock
from proxy import CountingBackend

DIALOGUE = ("active_short", "rotation_long")

# Sessions long enough that a counselor's memory holds hundreds of entries.
ROTATION_TURNS = 200
OFFLINE_SESSIONS = 16
# Every generated session has the same length, so session latency does not
# move with the seed; at the default warmup ratio of 0.5 it leaves six scored
# turns (offline_eval skips sessions with fewer than three).
OFFLINE_TURNS = 12


def run_config(workload: str) -> RunConfig:
    if workload == "active_short":
        return RunConfig(early_stop=False)
    if workload == "rotation_long":
        return RunConfig(max_turns=ROTATION_TURNS, efe_action=False, early_stop=False)
    return RunConfig()


@dataclass
class Fixtures:
    table: TalkTypeTable | None = None
    pop: dict | None = None
    profiles: list[ClientProfile] = field(default_factory=list)
    sessions: list[dict] = field(default_factory=list)


def load_fixtures(workload: str) -> Fixtures:
    if workload in DIALOGUE:
        return Fixtures(
            table=TalkTypeTable.from_file(DATA_DIR / "talk_type_table.json"),
            pop=load_pop_prior(DATA_DIR / "pop_prior.json"),
            profiles=load_profiles(DATA_DIR / "profiles"),
        )
    return Fixtures(sessions=load_annotated_sessions())


# -- inputs -------------------------------------------------------------------


def _n_triggers(d: dict) -> int:
    return sum(
        len(s) > min_len for cat, (min_len, _b) in TRIGGER_RULES.items() for s in d[cat]
    )


def profile_variant(profile: ClientProfile, rng: random.Random) -> ClientProfile:
    """The profile with a random subset of its belief, motivation and plan
    sentences, in random order, keeping at least one trigger."""
    d = dataclasses.asdict(profile)
    while True:
        for cat in TRIGGER_RULES:
            sentences = list(getattr(profile, cat))
            d[cat] = rng.sample(sentences, rng.randint(0, len(sentences)))
        if _n_triggers(d):
            return ClientProfile.from_dict(d)


def annotated_session(pool: list[dict], rng: random.Random, i: int) -> dict:
    turns = [dict(rng.choice(pool)) for _ in range(OFFLINE_TURNS)]
    return {"id": f"gen-{i}", "turns": turns}


def make_inputs(workload: str, fx: Fixtures, seed: int) -> list:
    rng = random.Random(f"{workload}:{seed}")
    if workload in DIALOGUE:
        return [profile_variant(p, rng) for p in fx.profiles]
    pool = [turn for s in fx.sessions for turn in s["turns"]]
    return [annotated_session(pool, rng, i) for i in range(OFFLINE_SESSIONS)]


def client_session(profile: ClientProfile, fx: Fixtures, backend, cfg: RunConfig):
    return ClientSession(
        profile,
        fx.table,
        backend,
        fx.pop,
        tau=cfg.tau,
        theta_cov=cfg.theta_cov,
        theta_prep=cfg.theta_prep,
        alpha=cfg.alpha_dirichlet,
        seed=cfg.seed,
    )


def setup_once(workload: str, inputs: list) -> float:
    """Seconds to load the fixtures, build a backend and, for dialogue
    workloads, build a ClientSession per input (which embeds its triggers)."""
    t0 = perf_counter()
    fx = load_fixtures(workload)
    backend = ScriptedBackend()
    if workload in DIALOGUE:
        cfg = run_config(workload)
        for profile in inputs:
            client_session(profile, fx, backend, cfg)
    return perf_counter() - t0


# -- one input ----------------------------------------------------------------


@dataclass
class SessionResult:
    turns: int
    turn_s: list[float]
    session_s: float
    digest: str | None
    memory_entries: int = 0
    error: str | None = None
    # perf_counter() at the middle of the session and of each turn sample,
    # and the host-speed factors found there (see run_rounds).
    mid: float = 0.0
    turn_mid: list[float] = field(default_factory=list)
    scale: float = 1.0
    turn_scale: list[float] = field(default_factory=list)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _failed(turns: int) -> SessionResult:
    traceback.print_exc(file=sys.stderr)
    return SessionResult(turns, [], 0.0, None, error=traceback.format_exc(limit=1))


def dialogue_session(profile, fx: Fixtures, backend, cfg: RunConfig, clock, tracer=None):
    """One counselor-vs-client session, timed per turn.

    The loop is ``run_dialogue``'s, so the transcript can be compared byte for
    byte with the reference; each turn is timed from the counselor's move to
    the client's reply being recorded.  The clock may run its kernel between
    turns; that time is left out of the session's.
    """
    turn_s: list[float] = []
    turn_mid: list[float] = []
    t0 = perf_counter()
    spent0 = clock.spent_s
    try:
        client = client_session(profile, fx, backend, cfg)
        counselor = ActiveCounselor(backend, cfg, session_id=profile.id)
        opening = client.opening_statement()
        transcript = Transcript(
            profile_id=client.profile.id,
            initial_stage=client.profile.initial_stage,
            n_triggers=len(client.triggers),
            opening=opening,
        )
        utterance = opening
        for turn in range(1, cfg.max_turns + 1):
            if tracer is not None:
                tracer.turn = turn
            ts = perf_counter()
            move = counselor.counselor_turn(utterance)
            outcome = client.respond(move.text, move.action)
            transcript.records.append(
                TurnRecord(
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
            )
            te = perf_counter()
            turn_s.append(te - ts)
            turn_mid.append((ts + te) / 2)
            clock.worked(te - ts)
            utterance = outcome.text
            if cfg.early_stop and outcome.stage == "preparation":
                break
        t1 = perf_counter()
    except Exception:
        return _failed(len(turn_s) + 1)
    return SessionResult(
        len(turn_s),
        turn_s,
        t1 - t0 - (clock.spent_s - spent0),
        _digest(transcript.to_jsonl()),
        memory_entries=len(counselor.memory),
        mid=(t0 + t1) / 2,
        turn_mid=turn_mid,
    )


def offline_session(session: dict, fx: Fixtures, backend, cfg: RunConfig, clock, tracer=None):
    """One ``offline_eval`` call on one generated session.  Per-turn latency
    is the call's time divided by its turns."""
    n = len(session["turns"])
    t0 = perf_counter()
    try:
        result = offline_eval([session], cfg, backend)
    except Exception:
        return _failed(n)
    t1 = perf_counter()
    clock.worked(t1 - t0)
    mid = (t0 + t1) / 2
    return SessionResult(
        n, [(t1 - t0) / n], t1 - t0, _digest(json.dumps(result)), mid=mid, turn_mid=[mid]
    )


def reference_digest(workload: str, x, fx: Fixtures, cfg: RunConfig) -> str:
    backend = ScriptedBackend()
    if workload in DIALOGUE:
        client = client_session(x, fx, backend, cfg)
        counselor = ActiveCounselor(backend, cfg, session_id=x.id)
        return _digest(run_dialogue(counselor, client, cfg).to_jsonl())
    return _digest(json.dumps(offline_eval([x], cfg, backend)))


def bundled_reference(fx: Fixtures) -> CountingBackend:
    """``active_short`` on the unmodified bundled profiles, through one proxy:
    the case the repository's recorded baseline counts were taken on."""
    cfg = run_config("active_short")
    proxy = CountingBackend(ScriptedBackend())
    for profile in fx.profiles:
        client = client_session(profile, fx, proxy, cfg)
        run_dialogue(ActiveCounselor(proxy, cfg, session_id=profile.id), client, cfg)
    return proxy


# -- timed rounds -------------------------------------------------------------


@dataclass
class Round:
    proxy: CountingBackend
    sessions: list[SessionResult]
    complete: bool
    # Peak resident set when the round ended, before later rounds add the
    # benchmark's own per-session records to it.
    peak_rss_kb: int


# Seconds of measured work between two runs of the calibration kernel.
CALIBRATE_EVERY_S = 0.1


def run_rounds(workload: str, inputs: list, fx: Fixtures, seconds: float, tracer=None):
    """Run rounds until ``seconds`` have passed; the first round always
    completes, later ones stop at the deadline.

    A HostClock runs the calibration kernel at the start, after every
    CALIBRATE_EVERY_S of turns or sessions, and at the end; each session and
    turn sample then gets the host-speed factor at its midpoint.
    """
    cfg = run_config(workload)
    one = dialogue_session if workload in DIALOGUE else offline_session
    backend = ScriptedBackend()
    clock = HostClock(CALIBRATE_EVERY_S, tracer)
    deadline = perf_counter() + seconds
    rounds: list[Round] = []
    while not rounds or perf_counter() < deadline:
        proxy = CountingBackend(backend, tracer)
        results = []
        for i, x in enumerate(inputs):
            if rounds and perf_counter() >= deadline:
                break
            if tracer is None:
                results.append(one(x, fx, proxy, cfg, clock))
            else:
                tracer.session = len(rounds) * len(inputs) + i
                tracer.turn = 0
                results.append(
                    tracer.call("bench.session", one, x, fx, proxy, cfg, clock, tracer)
                )
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rounds.append(Round(proxy, results, len(results) == len(inputs), peak))
    clock.sample()
    for r in rounds:
        for s in r.sessions:
            s.scale = float(clock.scale_at(s.mid))
            s.turn_scale = clock.scale_at(s.turn_mid).tolist()
    return rounds
