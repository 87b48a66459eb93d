"""Turn loop, counselor agents, transcripts, metrics, and offline scoring."""

import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from statecoach.backends import DATA_DIR, ScriptedBackend
from statecoach.client_sim import (
    TRIGGER_RULES,
    ClientProfile,
    ClientSession,
    TalkTypeTable,
    load_pop_prior,
    load_profiles,
)
from statecoach.config import RunConfig
from statecoach.errors import (EmptyInputError, NoGoldLabelsError, UnknownActionError,
                               UnknownLabelError)
from statecoach.harness import (
    AUX_CUE_STAGE,
    FALLBACK_ROTATION,
    ActiveCounselor,
    CounselorMove,
    FixedCounselor,
    RandomCounselor,
    ScriptedCounselor,
    Transcript,
    TurnRecord,
    init_world_model,
    load_annotated_sessions,
    offline_eval,
    run_dialogue,
)
from statecoach.metrics import Metrics, dynamic_metrics
from statecoach.probs import uniform
from statecoach.vocab import COUNSELOR_ACTIONS, STAGES


def scripted():
    return ScriptedBackend()


def p01_session(backend, cfg=None):
    cfg = cfg or RunConfig()
    profile = ClientProfile.from_file(DATA_DIR / "profiles" / "p01_alcohol.json")
    table = TalkTypeTable.from_file(DATA_DIR / "talk_type_table.json")
    pop = load_pop_prior(DATA_DIR / "pop_prior.json")
    return ClientSession(
        profile, table, backend, pop,
        tau=cfg.tau, theta_cov=cfg.theta_cov, theta_prep=cfg.theta_prep,
        alpha=cfg.alpha_dirichlet, seed=cfg.seed,
    )


def make_record(turn=1, sim_stage="precontemplation", readiness=0.1, matched=()):
    return TurnRecord(
        turn=turn,
        counselor_action="Open Question",
        counselor_text="What brings you in?",
        client_action="Downplay",
        client_text="It's nothing really.",
        gold_stage=None,
        sim_stage=sim_stage,
        readiness=readiness,
        belief=None,
        efe=None,
        matched_trigger_ids=list(matched),
    )


def make_transcript(final_stage, n_triggers=6, discovered=(), n_records=2,
                    initial="precontemplation"):
    records = [
        make_record(turn=i + 1, sim_stage=initial) for i in range(n_records - 1)
    ]
    records.append(
        make_record(turn=n_records, sim_stage=final_stage, matched=discovered)
    )
    return Transcript(
        profile_id="px", initial_stage=initial, n_triggers=n_triggers,
        opening="hi", records=records,
    )


# --- transcripts ---


def test_turn_record_key_order_is_stable():
    assert list(make_record().to_dict()) == [
        "turn", "counselor_action", "counselor_text", "client_action",
        "client_text", "gold_stage", "sim_stage", "readiness", "belief",
        "efe", "matched_trigger_ids",
    ]


def test_turn_record_round_trips():
    rec = make_record(matched=("beliefs-0",))
    assert TurnRecord.from_dict(rec.to_dict()) == rec
    with pytest.raises(ValueError, match=r"^a turn record has unknown key\(s\): zz$"):
        TurnRecord.from_dict({**rec.to_dict(), "zz": 1})


def test_transcript_jsonl_round_trip(tmp_path):
    t = make_transcript("contemplation", discovered=("beliefs-0", "plans-1"))
    path = tmp_path / "t.jsonl"
    path.write_text(t.to_jsonl(), encoding="utf-8")
    back = Transcript.from_jsonl(path)
    assert back == t
    assert back.final_stage == "contemplation"
    assert back.discovered_ids == {"beliefs-0", "plans-1"}


_HEADER = json.dumps(make_transcript("contemplation").header_dict())
_RECORD = make_record().to_dict()


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "line 1 has no transcript header: the file is blank"),
        (_HEADER + "\n\n{oops\n",
         "line 3 is not JSON: Expecting property name enclosed in double quotes"),
        (_HEADER[:-1] + ', "zz": 1}\n', "line 1 has unknown key(s): zz"),
        ("[1]\n", "line 1 must be a JSON object, got list"),
        (_HEADER + "\n" + json.dumps({k: v for k, v in _RECORD.items() if k != "readiness"}),
         "line 2 has no readiness"),
        (_HEADER + "\n\xff\n", "line 2 is not JSON: 'utf-8' codec can't decode byte 0xff"
         " in position 0: invalid start byte"),
        (_HEADER.replace('"n_triggers": 6', '"n_triggers": "three"'),
         "line 1 has a non-integer n_triggers"),
        (_HEADER + "\n" + json.dumps({**_RECORD, "readiness": "high"}),
         "line 2 has a non-number readiness"),
        (_HEADER + "\n" + json.dumps({**_RECORD, "turn": True}), "line 2 has a non-integer turn"),
        (_HEADER + "\n" + json.dumps({**_RECORD, "matched_trigger_ids": "abc"}),
         "line 2 has a non-array matched_trigger_ids"),
        (_HEADER + "\n" + json.dumps({**_RECORD, "belief": [0.5, 0.5]}),
         "line 2 has a non-object or null belief"),
    ],
    ids=["empty", "not-json", "header-extra-key", "header-list", "record-missing-key",
         "not-utf8", "header-mistyped-key", "record-readiness-string", "record-turn-bool",
         "record-trigger-ids-string", "record-belief-list"],
)
def test_from_jsonl_names_the_line_and_file_of_each_fault(tmp_path, text, message):
    path = tmp_path / "t.jsonl"
    path.write_bytes(text.encode("latin-1"))  # one byte a character: "\xff" is no UTF-8
    with pytest.raises(ValueError) as info:
        Transcript.from_jsonl(path)
    assert type(info.value) is ValueError
    assert str(info.value) == f"{message} (in {path})"


@pytest.mark.parametrize(
    "counselor, cfg",
    [(lambda b: RandomCounselor(b, seed=3), RunConfig(max_turns=5)),
     (FixedCounselor, RunConfig(max_turns=5)),
     (lambda b: ActiveCounselor(b, RunConfig(efe_action=False), "p01-alcohol"),
      RunConfig(max_turns=5, efe_action=False))],
    ids=["random", "fixed", "no-efe"],
)
def test_transcripts_with_null_keys_read_back_as_written(tmp_path, counselor, cfg):
    backend = scripted()
    path = tmp_path / "t.jsonl"
    t = run_dialogue(counselor(backend), p01_session(backend, cfg), cfg, out_path=path)
    assert t.records and all(rec.gold_stage is None and rec.efe is None for rec in t.records)
    assert Transcript.from_jsonl(path).to_jsonl() == path.read_text(encoding="utf-8") == t.to_jsonl()


def test_transcript_without_records_reports_initial_stage():
    t = Transcript(
        profile_id="px", initial_stage="contemplation", n_triggers=6, opening="hi"
    )
    assert t.final_stage == "contemplation"
    assert t.discovered_ids == set()


# --- world-model seeding ---


def test_world_model_seeds_stage_and_aligned_cues():
    wm = init_world_model(RunConfig())
    for stage in STAGES.labels:
        i = STAGES.index(stage)
        assert wm.observation_counts[i, wm.cues.index(stage)] == 1.0
    for cue, stage in AUX_CUE_STAGE.items():
        assert wm.observation_counts[STAGES.index(stage), wm.cues.index(cue)] == 1.0
    assert np.all(wm.observation_counts[:, wm.cues.index("short_ack")] == 0.0)
    assert wm.observation_counts.sum() == 6.0
    assert wm.transition_counts.sum() == 0.0


def test_seed_count_is_configurable():
    wm = init_world_model(RunConfig(obs_seed_count=2.5))
    assert wm.observation_counts.sum() == 15.0


# --- active counselor belief pipeline ---


def test_first_turn_uses_uniform_prior_without_fusion():
    agent = ActiveCounselor(scripted())
    move = agent.counselor_turn("I'm only here because my family keeps pushing me.")
    b = move.belief
    assert b.beta == 0.0
    assert np.allclose(b.p_prior.probs, uniform(STAGES).probs)
    assert np.allclose(b.q.probs, b.p_obs.probs)
    assert move.efe is not None and move.action == move.efe.chosen


def test_second_turn_fuses_with_cached_planner_prior():
    agent = ActiveCounselor(scripted())
    agent.counselor_turn("I'm only here because my family keeps pushing me.")
    cached = agent.tracker.prior
    move = agent.counselor_turn("Honestly, it's not a big deal.")
    b = move.belief
    assert b.beta == agent.cfg.beta == 0.35
    assert np.allclose(b.p_prior.probs, cached.probs)
    expected = 0.65 * b.p_obs.probs + 0.35 * cached.probs
    assert np.allclose(b.q.probs, expected)


def test_disable_planner_keeps_observation_only_belief():
    agent = ActiveCounselor(scripted(), RunConfig(disable_planner=True))
    agent.counselor_turn("I'm only here because my family keeps pushing me.")
    move = agent.counselor_turn("Honestly, it's not a big deal.")
    assert move.belief.beta == 0.0
    assert np.allclose(move.belief.p_prior.probs, uniform(STAGES).probs)
    assert np.allclose(move.belief.q.probs, move.belief.p_obs.probs)


def test_efe_off_walks_the_fallback_rotation():
    agent = ActiveCounselor(scripted(), RunConfig(efe_action=False))
    actions = [
        agent.counselor_turn(f"Filler client sentence number {i}.").action
        for i in range(4)
    ]
    assert actions == ["Open Question", "Complex Reflection", "Give Information",
                       "Open Question"]
    assert tuple(actions[:3]) == FALLBACK_ROTATION


def test_counselor_accumulates_soft_counts_across_turns():
    agent = ActiveCounselor(scripted())
    agent.counselor_turn("There's nothing wrong with how I live.")
    assert agent.tracker.wm.transition_counts.sum() == 0.0  # first turn has no pair yet
    agent.counselor_turn("I guess it does affect the people around me.")
    assert agent.tracker.wm.transition_counts.sum() == pytest.approx(1.0)
    assert agent.tracker.wm.observation_counts.sum() == pytest.approx(8.0)  # 6 seeds + 2


def test_counselor_cue_and_memory_plumbing():
    agent = ActiveCounselor(scripted())
    move = agent.counselor_turn("I could cut down to two a day.")
    assert move.cue == "preparation"
    assert move.text
    # Both sides of the turn land in short-term memory.
    assert len(agent.memory.entries) == 2


# --- baseline counselors ---


def test_random_counselor_is_seed_stable():
    texts = ["hello there"] * 5
    a = [RandomCounselor(scripted(), seed=7).counselor_turn(t).action for t in texts]
    b = [RandomCounselor(scripted(), seed=7).counselor_turn(t).action for t in texts]
    runs_a = [c for c in a]
    assert runs_a == b
    agent = RandomCounselor(scripted(), seed=7)
    seq = [agent.counselor_turn(t).action for t in texts]
    assert all(x in COUNSELOR_ACTIONS for x in seq)


def test_fixed_counselor_round_robins():
    agent = FixedCounselor(scripted())
    seq = [agent.counselor_turn("x").action for x in range(5)]
    assert seq == ["Open Question", "Complex Reflection", "Give Information",
                   "Open Question", "Complex Reflection"]


def test_scripted_counselor_cycles_or_clamps():
    cycling = ScriptedCounselor([("Affirm", "a"), ("Support", "b")])
    assert [cycling.counselor_turn("x").action for _ in range(3)] == [
        "Affirm", "Support", "Affirm"
    ]
    with pytest.raises(ValueError):
        ScriptedCounselor([])


# --- dialogue loop ---


def test_zero_turn_budget_yields_header_only_transcript():
    backend = scripted()
    t = run_dialogue(
        FixedCounselor(backend), p01_session(backend), RunConfig(max_turns=0)
    )
    assert t.records == []
    assert t.final_stage == "precontemplation"
    assert t.opening
    assert t.n_triggers == 6


def test_early_stop_at_preparation():
    backend = scripted()
    client = p01_session(backend)
    profile = client.profile
    moves = [
        ("Simple Reflection", profile.beliefs[0]),
        ("Simple Reflection", profile.beliefs[1]),
        ("Give Information", profile.motivations[0]),
    ]
    t = run_dialogue(ScriptedCounselor(moves), client, RunConfig())
    assert len(t.records) == 3
    assert [r.sim_stage for r in t.records] == [
        "precontemplation", "contemplation", "preparation"
    ]


def test_early_stop_can_be_disabled():
    backend = scripted()
    client = p01_session(backend)
    profile = client.profile
    moves = [
        ("Simple Reflection", profile.beliefs[0]),
        ("Simple Reflection", profile.beliefs[1]),
        ("Give Information", profile.motivations[0]),
    ]
    t = run_dialogue(
        ScriptedCounselor(moves), client, RunConfig(early_stop=False)
    )
    assert len(t.records) == 20
    assert all(r.sim_stage == "preparation" for r in t.records[2:])


def test_crash_leaves_parseable_transcript_prefix(tmp_path):
    class Boom(Exception):
        pass

    class BoomCounselor:
        def __init__(self):
            self.turn = 0

        def counselor_turn(self, utterance):
            self.turn += 1
            if self.turn == 3:
                raise Boom()
            from statecoach.harness import CounselorMove

            return CounselorMove(action="Facilitate", text="Mm-hmm.")

    backend = scripted()
    path = tmp_path / "partial.jsonl"
    with pytest.raises(Boom):
        run_dialogue(BoomCounselor(), p01_session(backend), RunConfig(), out_path=path)
    t = Transcript.from_jsonl(path)
    assert t.profile_id == "p01-alcohol"
    assert len(t.records) == 2


def test_transcript_flush_matches_returned_object(tmp_path):
    backend = scripted()
    path = tmp_path / "full.jsonl"
    t = run_dialogue(
        FixedCounselor(backend), p01_session(backend), RunConfig(max_turns=4),
        out_path=path,
    )
    assert path.read_text(encoding="utf-8") == t.to_jsonl()


def test_a_move_of_none_ends_the_session_before_the_client_replies(tmp_path):
    class TwoMoves:
        def __init__(self):
            self.moves = iter([CounselorMove("Facilitate", "Mm-hmm."),
                               CounselorMove("Affirm", "That took courage.")])

        def counselor_turn(self, utterance):
            return next(self.moves, None)

    backend = scripted()
    client = p01_session(backend)
    replies = []
    respond = client.respond
    client.respond = lambda *args: replies.append(args) or respond(*args)
    path = tmp_path / "stopped.jsonl"
    t = run_dialogue(TwoMoves(), client, RunConfig(), out_path=path)
    assert len(t.records) == 2 and len(replies) == 2
    assert path.read_text(encoding="utf-8") == t.to_jsonl()  # the header and two records


def test_observer_sees_the_header_then_each_record_once_as_written(tmp_path):
    backend = scripted()
    path = tmp_path / "observed.jsonl"
    seen = []  # (the last record or None, the file's text) at each call

    def observer(transcript):
        last = transcript.records[-1] if transcript.records else None
        seen.append((last, path.read_text(encoding="utf-8")))

    t = run_dialogue(FixedCounselor(backend), p01_session(backend), RunConfig(max_turns=4),
                     out_path=path, observer=observer)
    assert len(t.records) == 4
    assert [last for last, _ in seen] == [None, *t.records]
    lines = t.to_jsonl().splitlines(keepends=True)
    assert [on_disk for _, on_disk in seen] == ["".join(lines[:n + 1]) for n in range(5)]


def test_run_dialogue_embeds_each_text_once_per_user():
    class EmbedLog(ScriptedBackend):
        def __init__(self):
            super().__init__()
            self.embedded = []

        def embed(self, text):
            self.embedded.append(text)
            return super().embed(text)

    backend = EmbedLog()
    cfg = RunConfig(early_stop=False)
    client = p01_session(backend, cfg)
    counselor = ActiveCounselor(backend, cfg, session_id="p01")
    t = run_dialogue(counselor, client, cfg)
    assert any(e.tier == "LTM" for e in counselor.memory.entries)  # consolidation ran
    # Every client utterance the memory queries is stored too, so the
    # memory's texts cover its queries; the counselor's replies are both
    # stored and matched against the triggers, and share one embedding.
    texts = (
        {trig.text for trig in client.triggers}
        | {e.text for e in counselor.memory.entries}
        | {r.counselor_text for r in t.records}
    )
    assert sorted(backend.embedded) == sorted(texts)
    assert len(backend.embedded) == 20  # 27 with a memo per store and session
    n = len(backend.embedded)
    counselor.memory.retrieve("a query the memory has not seen", session="p01")
    counselor.memory.retrieve("a query the memory has not seen", session="p01")
    assert len(backend.embedded) == n + 1


def test_offline_eval_classifies_each_distinct_text_once():
    class CueLog(ScriptedBackend):
        def __init__(self):
            super().__init__()
            self.classified = []

        def classify_talk_type(self, utterance):
            self.classified.append(utterance)
            return super().classify_talk_type(utterance)

    sessions = load_annotated_sessions()
    backend = CueLog()
    assert offline_eval(sessions, backend=backend) == offline_eval(sessions)
    texts = {t["client_text"] for s in sessions for t in s["turns"]}
    assert len(backend.classified) == len(set(backend.classified))
    assert set(backend.classified) <= texts
    n = len(backend.classified)
    offline_eval(sessions, backend=backend)  # the same backend answers from its memo
    assert len(backend.classified) == n


@st.composite
def trigger_subset(draw):
    """A bundled profile keeping a random subset of its trigger sentences,
    at least one of which still qualifies as a trigger."""
    profile = draw(st.sampled_from(load_profiles(DATA_DIR / "profiles")))
    kept = {
        cat: tuple(draw(st.lists(st.sampled_from(getattr(profile, cat)), unique=True)))
        for cat in TRIGGER_RULES
    }
    assume(any(len(s) > TRIGGER_RULES[cat][0] for cat in kept for s in kept[cat]))
    return dataclasses.replace(profile, **kept)


@settings(max_examples=15, deadline=None)
@given(
    profile=trigger_subset(),
    max_turns=st.integers(0, 12),
    beta=st.floats(0.0, 1.0),
    lambda_e=st.floats(0.0, 2.0),
    lambda_p=st.floats(0.0, 2.0),
    repeat_penalty=st.floats(0.0, 1.0),
    disable_planner=st.booleans(),
    hard_counts=st.booleans(),
    efe_action=st.booleans(),
)
def test_run_dialogue_loop_invariants(profile, **knobs):
    assume(knobs["lambda_e"] or knobs["lambda_p"])  # both zero is out of range
    cfg = RunConfig(**knobs)
    backend = scripted()
    client = ClientSession(
        profile,
        TalkTypeTable.from_file(DATA_DIR / "talk_type_table.json"),
        backend,
        load_pop_prior(DATA_DIR / "pop_prior.json"),
        tau=cfg.tau, theta_cov=cfg.theta_cov, theta_prep=cfg.theta_prep,
        alpha=cfg.alpha_dirichlet, seed=cfg.seed,
    )
    counselor = ActiveCounselor(backend, cfg, session_id=profile.id)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.jsonl"
        t = run_dialogue(counselor, client, cfg, out_path=path)
        written = path.read_text(encoding="utf-8")
        assert Transcript.from_jsonl(path).to_jsonl() == written == t.to_jsonl()
    stage = t.initial_stage
    for rec in t.records:
        assert abs(sum(rec.belief["q"].values()) - 1.0) <= 1e-9
        assert STAGES.index(rec.sim_stage) >= STAGES.index(stage)
        if (stage, rec.sim_stage) == ("precontemplation", "contemplation"):
            assert rec.readiness == 0.0
        stage = rec.sim_stage
    # The planner's prediction for the chosen action is the next turn's prior, exactly.
    for rec, nxt in zip(t.records, t.records[1:]):
        if rec.efe is not None and not cfg.disable_planner:
            chosen = [s for s in rec.efe["scores"] if s["action"] == rec.efe["chosen"]]
            assert nxt.belief["p_prior"] == chosen[0]["q_next_prior"]


# --- offline evaluation ---


def test_offline_eval_hand_count_session():
    sessions = [s for s in load_annotated_sessions() if s["id"] == "hand-count"]
    for cfg in (RunConfig(), RunConfig(disable_planner=True)):
        got = offline_eval(sessions, cfg, scripted())
        assert got["curr_acc"] == pytest.approx(2 / 3)
        assert got["next_acc"] == pytest.approx(0.0)
        assert got["sessions_scored"] == 1
        assert got["eval_turns"] == 3


def test_offline_eval_stationary_session_is_perfect():
    sessions = [s for s in load_annotated_sessions() if s["id"] == "stationary"]
    got = offline_eval(sessions, RunConfig(), scripted())
    assert got["curr_acc"] == 1.0
    assert got["next_acc"] == 1.0
    assert got["eval_turns"] == 4


def test_offline_eval_skips_short_sessions_and_pools_the_rest():
    got = offline_eval(load_annotated_sessions(), RunConfig(), scripted())
    assert got["sessions_scored"] == 2
    assert got["eval_turns"] == 7
    assert got["curr_acc"] == pytest.approx(6 / 7)
    assert got["next_acc"] == pytest.approx(0.6)


def test_offline_eval_with_only_short_sessions_raises():
    sessions = [s for s in load_annotated_sessions() if s["id"] == "too-short"]
    with pytest.raises(EmptyInputError):
        offline_eval(sessions, RunConfig(), scripted())


def test_offline_eval_requires_gold_labels():
    sessions = [
        {
            "id": "unlabeled",
            "turns": [
                {"client_text": "hi", "gold_stage": "", "counselor_action": "Facilitate"}
            ] * 8,
        }
    ]
    with pytest.raises(NoGoldLabelsError):
        offline_eval(sessions, RunConfig(), scripted())


def test_offline_eval_rejects_unknown_gold_label():
    sessions = load_annotated_sessions()
    for turn in sessions[0]["turns"]:
        turn["gold_stage"] = turn["gold_stage"].upper()
    with pytest.raises(UnknownLabelError, match="PRECONTEMPLATION|CONTEMPLATION|PREPARATION"):
        offline_eval(sessions, RunConfig(), scripted())


@pytest.mark.parametrize("session", [0, 2])  # a scored session and one too short to score
def test_offline_eval_rejects_unknown_counselor_action_before_any_backend_call(session):
    class NoCalls(ScriptedBackend):
        def classify_talk_type(self, utterance):
            raise AssertionError("backend called before the labels were checked")

    sessions = load_annotated_sessions()
    sessions[session]["turns"][-1]["counselor_action"] = "Lecture"
    sid = sessions[session]["id"]
    with pytest.raises(UnknownLabelError, match=f"session '{sid}' has unknown counselor actions"):
        offline_eval(sessions, RunConfig(), NoCalls())


@pytest.mark.parametrize(
    "key, label, error",
    [("counselor_action", "Lecture", UnknownActionError),
     ("gold_stage", "relapse", UnknownLabelError)],
    ids=["counselor-action", "gold-stage"],
)
def test_offline_eval_unknown_label_has_its_exact_type(key, label, error):
    """An unknown counselor action is an UnknownActionError, as in the client
    step and the talk-type table; an unknown gold stage stays an UnknownLabelError."""
    sessions = load_annotated_sessions()
    sessions[0]["turns"][-1][key] = label
    with pytest.raises(UnknownLabelError) as info:
        offline_eval(sessions, RunConfig(), scripted())
    assert type(info.value) is error


@pytest.mark.parametrize("session", [0, 2])  # a scored session and one too short to score
def test_offline_eval_rejects_a_turn_missing_a_key_before_any_backend_call(session):
    class NoCalls(ScriptedBackend):
        def classify_talk_type(self, utterance):
            raise AssertionError("backend called before the turns were checked")

    sessions = load_annotated_sessions()
    turns = sessions[session]["turns"]
    del turns[-1]["counselor_action"], turns[-1]["client_text"]
    sid, last = sessions[session]["id"], len(turns) - 1
    with pytest.raises(
        ValueError, match=f"session '{sid}' turn {last} has no client_text, counselor_action"
    ):
        offline_eval(sessions, RunConfig(), NoCalls())


@pytest.mark.parametrize("session", [0, 2])  # a scored session and one too short to score
@pytest.mark.parametrize(
    "key, value, fault",
    [
        ("client_text", 5, "a non-string client_text"),
        ("client_text", " \t ", "a blank client_text"),
        ("gold_stage", ["contemplation"], "a non-string gold_stage"),
        ("counselor_action", ["Affirm"], "a non-string counselor_action"),
    ],
    ids=["client-text-int", "client-text-blank", "gold-stage-list", "action-list"],
)
def test_offline_eval_rejects_a_bad_turn_value_before_any_backend_call(session, key, value,
                                                                       fault):
    class NoCalls(ScriptedBackend):
        def classify_talk_type(self, utterance):
            raise AssertionError("backend called before the turns were checked")

    sessions = load_annotated_sessions()
    turns = sessions[session]["turns"]
    turns[-1][key] = value
    sid, last = sessions[session]["id"], len(turns) - 1
    with pytest.raises(ValueError, match=f"session '{sid}' turn {last} has {fault}$"):
        offline_eval(sessions, RunConfig(), NoCalls())


def test_offline_eval_accepts_a_turn_of_punctuation():
    # Offline evaluation embeds nothing, so a client_text with no tokens is accepted.
    sessions = load_annotated_sessions()
    sessions[0]["turns"][0]["client_text"] = "..."
    assert offline_eval(sessions, RunConfig(), scripted())["eval_turns"] > 0


def test_load_annotated_sessions_default():
    ids = [s["id"] for s in load_annotated_sessions()]
    assert ids == ["hand-count", "stationary", "too-short"]


# --- metrics ---


def test_dynamic_metrics_hand_values():
    ts = [
        make_transcript("preparation", discovered=("beliefs-0", "beliefs-1",
                                                   "motivations-0"), n_records=3),
        make_transcript("contemplation", discovered=(), n_records=5),
    ]
    m = dynamic_metrics(ts)
    assert m.lift == pytest.approx(1.5)
    assert m.prep_rate == pytest.approx(0.5)
    assert m.trig_cov == pytest.approx(0.25)  # (3/6 + 0/6) / 2
    assert m.avg_turns == pytest.approx(4.0)


def test_dynamic_metrics_all_unchanged_is_zero():
    ts = [make_transcript("precontemplation") for _ in range(3)]
    m = dynamic_metrics(ts)
    assert m.lift == 0.0
    assert m.prep_rate == 0.0


def test_dynamic_metrics_handles_zero_trigger_profiles():
    t = make_transcript("precontemplation", n_triggers=0)
    assert dynamic_metrics([t]).trig_cov == 0.0


def test_dynamic_metrics_empty_batch_raises():
    with pytest.raises(EmptyInputError):
        dynamic_metrics([])


def test_metrics_as_dict_shape():
    m = Metrics(lift=1.0, prep_rate=0.5, trig_cov=0.25, avg_turns=8.0)
    d = m.as_dict()
    assert list(d) == ["lift", "prep_rate", "trig_cov", "avg_turns",
                       "curr_acc", "next_acc"]
    assert d["curr_acc"] is None


# --- configuration ---


def test_config_defaults():
    cfg = RunConfig()
    assert cfg.max_turns == 20
    assert cfg.beta == 0.35
    assert cfg.theta_prep == 0.5
    assert cfg.efe_action and cfg.early_stop and not cfg.disable_planner


def test_config_file_merge_and_extras(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 7, "beta": 0.5}))
    cfg = RunConfig.from_file(path, seed=9)
    assert cfg.seed == 9  # explicit override beats the file
    assert cfg.beta == 0.5  # file beats the default
    assert cfg.max_turns == 20  # untouched default survives
    path.write_text(json.dumps({"seed": 7, "mystery_knob": 1, "lamda_e": 0.3}))
    with pytest.raises(ValueError, match="lamda_e, mystery_knob"):
        RunConfig.from_file(path)
    path.write_text(json.dumps([["seed", 7]]))
    with pytest.raises(ValueError, match="JSON object"):
        RunConfig.from_file(path)


@pytest.mark.parametrize(
    "field, value",
    [
        ("beta", -0.1),
        ("beta", 1.5),
        ("beta", float("nan")),
        ("k_relevant", -1),
        ("consolidate_every", 0),
        ("lambda_e", -1.0),
        ("lambda_p", float("nan")),
        ("repeat_penalty", -0.5),
        ("warmup_ratio", 1.5),
        ("warmup_ratio", float("nan")),
        ("max_turns", 2.5),
        ("max_turns", True),
        ("k_relevant", 1.5),
        ("beta", True),
        ("efe_action", "false"),
        ("efe_action", 1),
        ("backend_kind", None),
        ("endpoint", 3),
        ("tau", -1.5),
        ("tau", 1.5),
        ("tau", float("nan")),
        ("theta_cov", 1.5),
        ("theta_cov", float("nan")),
        ("theta_prep", float("inf")),
        ("theta_prep", float("nan")),
        ("alpha_dirichlet", -5),
        ("alpha_dirichlet", 0.0),
        ("kappa_t", 0.0),
        ("kappa_o", float("nan")),
        ("dist_thres", -0.1),
        ("dist_thres", float("nan")),
        ("obs_seed_count", -1.0),
        ("obs_seed_count", float("nan")),
        ("obs_seed_count", float("inf")),
        ("lambda_e", float("inf")),
        ("lambda_p", float("inf")),
        ("repeat_penalty", float("inf")),
        ("alpha_dirichlet", float("inf")),
        ("kappa_t", float("inf")),
        ("kappa_o", float("inf")),
        ("seed", -1),
        ("backend_kind", "grpc"),
        ("backend_kind", "http"),  # with no endpoint
        ("max_output_tokens", 0),
    ],
)
def test_run_config_rejects_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=field):
        RunConfig(**{field: value})


def test_run_config_accepts_range_edges():
    RunConfig(beta=0.0, k_relevant=0, consolidate_every=1, lambda_e=0.0, warmup_ratio=0.0)
    RunConfig(beta=1.0, lambda_p=0.0, repeat_penalty=0.0, warmup_ratio=1.0)
    RunConfig(seed=0, max_output_tokens=1, dist_thres=float("inf"))  # inf: no threshold


def test_dump_constants_reports_wired_defaults():
    consts = RunConfig().dump_constants()
    assert consts["tau"] == 0.45
    assert consts["theta_cov"] == 0.3
    assert consts["theta_prep_default"] == 0.5
    assert consts["talk_type_weights"] == {"change": 1.0, "neutral": 0.3,
                                           "sustain": -1.0}
    assert consts["alpha_dirichlet"] == 5.0
    assert consts["alpha_widths"] == [0.5, 0.65, 0.75, 0.85]
    assert consts["trigger_bonuses"] == {"beliefs": 0.2, "motivations": 0.4,
                                         "plans": 0.5}
    assert consts["lambda_e"] == 0.4 and consts["lambda_p"] == 0.6
    assert consts["dist_thres"] == 1.5 and consts["k_relevant"] == 1
    assert consts["consolidate_every"] == 12 and consts["context_n"] == 30
    assert "context_n" not in {f.name for f in dataclasses.fields(RunConfig)}
