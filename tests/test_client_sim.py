"""Simulated client: triggers, content gating, readiness, and stage dynamics."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statecoach.backends import DATA_DIR, ScriptedBackend, ask_once
from statecoach.client_sim import (
    BASE_GATE,
    DEFAULT_THETA_PREP,
    ClientProfile,
    ClientSession,
    TalkTypeTable,
    Trigger,
    TriggerMatch,
    act_kl,
    build_triggers,
    calibrate_prep_threshold,
    client_action_dist,
    content_gate,
    expected_delta_r,
    load_pop_prior,
    load_profiles,
    match_triggers,
    select_client_action,
    update_readiness,
)
from statecoach.config import RunConfig
from statecoach.errors import (
    BackendUnavailableError,
    DimensionMismatchError,
    EmptyTextError,
    EmptyTriggerSetError,
    UnknownActionError,
    UnknownLabelError,
)
from statecoach.harness import ActiveCounselor, FixedCounselor, run_dialogue
from statecoach.probs import Categorical, LabelSpace, from_dict, point_mass, uniform
from statecoach.vocab import CLIENT_ACTIONS, COUNSELOR_ACTIONS, STAGES, TALK_TYPES


def unit(v):
    a = np.asarray(v, dtype=float)
    return a / np.linalg.norm(a)


class StubBackend:
    """Embeds via an explicit text->vector table; canned choices and replies.

    Texts missing from the table land on a reserved axis that none of the
    deliberate fixture vectors use, so unknown text never matches anything.
    """

    DIM = 8

    def __init__(self, embeds=None, choice=""):
        self.embeds = dict(embeds or {})
        self.choice = choice
        self.choose_calls = []

    def embed(self, text):
        vec = self.embeds.get(text, [0.0] * (self.DIM - 1) + [1.0])
        return unit(vec)

    def choose_client_action(self, dist, context):
        self.choose_calls.append((dist, context))
        return self.choice

    def generate_client_reply(self, action, utterance, context, template_id=None):
        return f"({action}) mm."


BELIEF_A = "Snacks keep me awake on shift."
BELIEF_B = "Food is the one treat I control."
MOTIVATION_A = "I want enough energy to play with my kids on weekends."
PLAN_A = "Swap crisps for fruit after midnight."

AXES = {BELIEF_A: 0, BELIEF_B: 1, MOTIVATION_A: 2, PLAN_A: 3}


def axis(i):
    v = [0.0] * StubBackend.DIM
    v[i] = 1.0
    return v


def profile_embeds():
    return {text: axis(i) for text, i in AXES.items()}


def make_profile(**over):
    base = dict(
        id="t01",
        topic="late-night snacking",
        behavior="snacking",
        personas=("Works night shifts at a warehouse.",),
        beliefs=(BELIEF_A, BELIEF_B),
        motivations=(MOTIVATION_A,),
        plans=(PLAN_A,),
        initial_stage="precontemplation",
        action_counts={
            "precontemplation": {"Downplay": 4.0, "Deny": 2.0},
            "contemplation": {"Inform": 5.0, "Hesitate": 1.0},
            "preparation": {"Plan": 6.0},
        },
    )
    base.update(over)
    return ClientProfile.from_dict(base)


def make_table():
    rows = {
        ("precontemplation", "Simple Reflection"): from_dict(
            TALK_TYPES, {"change": 0.15, "neutral": 0.60, "sustain": 0.25}
        ),
        ("precontemplation", "Facilitate"): from_dict(
            TALK_TYPES, {"change": 0.05, "neutral": 0.75, "sustain": 0.20}
        ),
        ("contemplation", "Simple Reflection"): from_dict(
            TALK_TYPES, {"change": 0.50, "neutral": 0.40, "sustain": 0.10}
        ),
        ("contemplation", "Facilitate"): from_dict(
            TALK_TYPES, {"change": 0.20, "neutral": 0.70, "sustain": 0.10}
        ),
        ("preparation", "Open Question"): from_dict(
            TALK_TYPES, {"change": 0.60, "neutral": 0.35, "sustain": 0.05}
        ),
    }
    return TalkTypeTable(rows, {k: 10 for k in rows}, min_support=3)


def make_pop():
    return {
        "precontemplation": from_dict(
            CLIENT_ACTIONS, {"Downplay": 0.5, "Deny": 0.3, "Engage": 0.2}
        ),
        "contemplation": from_dict(
            CLIENT_ACTIONS, {"Inform": 0.5, "Hesitate": 0.3, "Engage": 0.2}
        ),
        "preparation": from_dict(CLIENT_ACTIONS, {"Plan": 0.6, "Accept": 0.4}),
    }


def make_session(**over):
    profile = over.pop("profile", make_profile())
    backend = over.pop("backend", StubBackend(profile_embeds()))
    return ClientSession(profile, make_table(), backend, make_pop(), **over)


# --- profile validation ---


def test_profile_rejects_unknown_initial_stage():
    with pytest.raises(UnknownLabelError):
        make_profile(initial_stage="maintenance")


def test_profile_rejects_unknown_stage_in_counts():
    with pytest.raises(UnknownLabelError):
        make_profile(action_counts={"limbo": {"Inform": 1.0}})


def test_profile_rejects_unknown_client_action():
    with pytest.raises(UnknownActionError):
        make_profile(action_counts={"contemplation": {"Meditate": 1.0}})


def test_profile_rejects_negative_counts():
    with pytest.raises(ValueError):
        make_profile(action_counts={"contemplation": {"Inform": -1.0}})


def test_profile_rejects_nan_counts():
    with pytest.raises(ValueError, match="non-negative"):
        make_profile(action_counts={"contemplation": {"Inform": float("nan")}})


@pytest.mark.parametrize("bad", ["../escaped", "a/b", "a\\b", ".", "..", "", "a\0b", 7, None])
def test_profile_rejects_an_id_that_is_not_a_plain_file_name(bad):
    with pytest.raises(ValueError, match="profile id must be a plain file name"):
        make_profile(id=bad)


_MINIMAL = {"id": "x", "topic": "t", "behavior": "b", "initial_stage": "contemplation"}


@pytest.mark.parametrize(
    "data, message",
    [
        ([1, 2], "a profile must be a JSON object, got list"),
        ({"id": "x", "behavior": "b"}, "a profile has no topic, initial_stage"),
        ({**_MINIMAL, "beleifs": []}, "a profile has unknown key(s): beleifs"),
        ({**_MINIMAL, "topic": None}, "profile field 'topic' must be a string, got None"),
        ({**_MINIMAL, "behavior": 3}, "profile field 'behavior' must be a string, got 3"),
        ({**_MINIMAL, "initial_stage": []},
         "profile field 'initial_stage' must be a string, got []"),
    ],
    ids=["list", "missing", "unknown-key", "null-topic", "int-behavior", "list-stage"],
)
def test_profile_from_dict_rejects_a_malformed_object(data, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ClientProfile.from_dict(data)


def test_profile_errors_name_their_file(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({**_MINIMAL, "initial_stage": "ready"}))
    with pytest.raises(UnknownLabelError, match=re.escape(f"'ready' (in {path})")):
        ClientProfile.from_file(path)


def test_load_profiles_rejects_duplicate_ids(tmp_path):
    for name in ("a.json", "b.json"):
        (tmp_path / name).write_text(json.dumps(dataclasses.asdict(make_profile())))
    with pytest.raises(ValueError, match="a.json and b.json share profile id 't01'"):
        load_profiles(tmp_path)


def test_profile_from_dict_defaults(tmp_path):
    p = ClientProfile.from_dict(
        {"id": "x", "topic": "t", "behavior": "b", "initial_stage": "contemplation"}
    )
    assert p.personas == () and p.beliefs == () and p.prep_threshold is None
    path = tmp_path / "x.json"
    path.write_text(
        json.dumps(
            {
                "id": "x",
                "topic": "t",
                "behavior": "b",
                "initial_stage": "contemplation",
                "prep_threshold": 2.5,
            }
        )
    )
    assert ClientProfile.from_file(path).prep_threshold == 2.5


@pytest.mark.parametrize("bad", ["0.5", True, False, float("nan"), float("inf"), -math.inf, [0.5]])
def test_profile_rejects_bad_prep_threshold(bad):
    with pytest.raises(ValueError, match="prep_threshold must be a finite number"):
        make_profile(prep_threshold=bad)


@pytest.mark.parametrize(
    "bad",
    [
        [["Inform", 3.0]],
        {"contemplation": [3.0, 2.0]},
        {"contemplation": {"Inform": "3"}},
        {"contemplation": {"Inform": True}},
        {"contemplation": {"Inform": None}},
        {"contemplation": {"Inform": math.inf}},
        "contemplation",
    ],
    ids=["list", "list-row", "string-count", "bool-count", "null-count", "inf-count", "string"],
)
def test_profile_rejects_action_counts_that_are_not_count_mappings(bad):
    with pytest.raises(ValueError, match="action_counts"):
        make_profile(action_counts=bad)


def test_profile_accepts_int_and_zero_action_counts():
    counts = {"contemplation": {"Inform": 3, "Deny": 0}}
    assert make_profile(action_counts=counts).action_counts == counts


@pytest.mark.parametrize("good", [None, 0, 2, 0.5, -1.0])
def test_profile_accepts_numeric_prep_threshold(good):
    assert make_profile(prep_threshold=good).prep_threshold == good


@pytest.mark.parametrize("field", ["personas", "beliefs", "motivations", "plans"])
@pytest.mark.parametrize(
    "bad",
    ["I do not think drinking is a problem for me", None, 3, {"a": "b"}, ["ok", 7], [None]],
    ids=["string", "none", "number", "object", "number-item", "none-item"],
)
def test_profile_rejects_sentence_field_that_is_not_a_list_of_strings(field, bad):
    with pytest.raises(ValueError, match=f"profile field '{field}' must be a list of strings"):
        make_profile(**{field: bad})


def test_profile_sentence_fields_load_as_tuples():
    p = make_profile(beliefs=[BELIEF_A, BELIEF_B], plans=[])
    assert p.beliefs == (BELIEF_A, BELIEF_B) and p.plans == ()


def test_bundled_profiles_round_trip_through_asdict():
    profiles = load_profiles(DATA_DIR / "profiles")
    assert len(profiles) == 5
    for p in profiles:
        assert ClientProfile.from_dict(dataclasses.asdict(p)) == p


# --- trigger construction ---


def test_trigger_length_rules_are_strict():
    profile = make_profile(
        beliefs=("a" * 10, "b" * 11),
        motivations=("c" * 20, "d" * 21),
        plans=("e" * 10, "f" * 11),
    )
    triggers = build_triggers(profile, StubBackend())
    assert [(t.id, t.bonus) for t in triggers] == [
        ("beliefs-1", 0.2),
        ("motivations-1", 0.4),
        ("plans-1", 0.5),
    ]


def test_personas_never_become_triggers():
    profile = make_profile(personas=("A very long persona sentence about life.",))
    triggers = build_triggers(profile, StubBackend(profile_embeds()))
    assert all(t.category != "personas" for t in triggers)
    assert len(triggers) == 4


def test_shipped_profiles_each_yield_six_triggers():
    backend = ScriptedBackend()
    profiles = load_profiles(DATA_DIR / "profiles")
    assert [p.id for p in profiles] == [
        "p01-alcohol",
        "p02-smoking",
        "p03-exercise",
        "p04-gambling",
        "p05-diet",
    ]
    for profile in profiles:
        triggers = build_triggers(profile, backend)
        assert len(triggers) == 6
        by_cat = {c: sum(t.category == c for t in triggers) for c in
                  ("beliefs", "motivations", "plans")}
        assert by_cat == {"beliefs": 2, "motivations": 2, "plans": 2}


# --- matching ---


def test_match_self_similarity_discovers_trigger():
    backend = StubBackend(profile_embeds())
    triggers = build_triggers(make_profile(), backend)
    matches = match_triggers(triggers, backend.embed(BELIEF_A))
    assert len(matches) == 1
    m = matches[0]
    assert m.trigger.id == "beliefs-0"
    assert m.similarity == pytest.approx(1.0)
    assert m.newly_discovered and m.trigger.discovered and m.trigger.hit_count == 1


def test_match_disjoint_text_matches_nothing():
    backend = StubBackend(profile_embeds())
    triggers = build_triggers(make_profile(), backend)
    assert match_triggers(triggers, backend.embed("totally unrelated words")) == []
    assert all(t.hit_count == 0 and not t.discovered for t in triggers)


def test_second_match_is_not_newly_discovered():
    backend = StubBackend(profile_embeds())
    triggers = build_triggers(make_profile(), backend)
    emb = backend.embed(BELIEF_A)
    match_triggers(triggers, emb)
    again = match_triggers(triggers, emb)
    assert again[0].trigger.hit_count == 2
    assert not again[0].newly_discovered


def test_discovered_is_read_from_the_hit_count():
    assert Trigger("beliefs-0", "beliefs", "x", 0.2, unit([1.0, 0.0]), hit_count=1).discovered
    assert not Trigger("beliefs-0", "beliefs", "x", 0.2, unit([1.0, 0.0])).discovered


def test_match_threshold_is_inclusive():
    trig = Trigger("beliefs-0", "beliefs", "x", 0.2, unit([1.0, 0.0]))
    probe = np.array([0.6, 0.8])
    assert len(match_triggers([trig], probe, tau=0.6)) == 1
    trig2 = Trigger("beliefs-0", "beliefs", "x", 0.2, unit([1.0, 0.0]))
    assert match_triggers([trig2], probe, tau=0.6000001) == []


# --- content gate ---


def test_gate_without_matches_is_baseline():
    assert content_gate([]) == BASE_GATE == 0.1


def test_gate_first_hit():
    trig = Trigger("beliefs-0", "beliefs", "x", 0.2, unit([1, 0]), hit_count=1)
    assert content_gate([TriggerMatch(trig, 0.6, True)]) == pytest.approx(0.64)


def test_gate_second_hit_halves_the_boost():
    trig = Trigger("beliefs-0", "beliefs", "x", 0.2, unit([1, 0]), hit_count=2)
    assert content_gate([TriggerMatch(trig, 0.6, False)]) == pytest.approx(0.37)


def test_gate_decays_geometrically_and_clamps_roundoff():
    trig = Trigger("beliefs-0", "beliefs", "x", 0.2, unit([1, 0]))
    gates = []
    for _ in range(4):
        trig.hit_count += 1
        gates.append(content_gate([TriggerMatch(trig, 1.0, trig.hit_count == 1)]))
    assert gates == pytest.approx([1.0, 0.55, 0.325, 0.2125])
    over = Trigger("beliefs-1", "beliefs", "y", 0.2, unit([1, 0]), hit_count=1)
    assert content_gate([TriggerMatch(over, 1.0 + 1e-9, True)]) == 1.0


def test_gate_uses_best_similarity_and_smallest_hit_count():
    stale = Trigger("beliefs-0", "beliefs", "x", 0.2, unit([1, 0]), hit_count=3)
    fresh = Trigger("plans-0", "plans", "y", 0.5, unit([0, 1]), hit_count=1)
    matches = [TriggerMatch(stale, 0.6, False), TriggerMatch(fresh, 0.5, True)]
    assert content_gate(matches) == pytest.approx(0.64)


@given(
    rho=st.floats(min_value=-1.0, max_value=1.0),
    h=st.integers(min_value=1, max_value=40),
)
def test_gate_stays_in_range(rho, h):
    trig = Trigger("beliefs-0", "beliefs", "x", 0.2, unit([1, 0]), hit_count=h)
    g = content_gate([TriggerMatch(trig, rho, h == 1)])
    assert BASE_GATE <= g <= 1.0


def test_negative_similarity_match_gets_the_baseline_gate():
    """Under a negative tau an utterance with a negative cosine to every trigger
    (a live embedding endpoint can return one) matches none of them: no hit is
    counted and the turn completes with the baseline gate."""
    text = "an utterance pointing away from every trigger"
    away = [-0.3 if i in AXES.values() else 0.0 for i in range(StubBackend.DIM - 1)] + [0.8]
    sess = make_session(backend=StubBackend({**profile_embeds(), text: away}), tau=-0.5)
    turn = sess.respond(text, "Simple Reflection")
    assert turn.gate == BASE_GATE
    assert len(turn.matched_ids) == 0 and len(sess.triggers) == 4
    assert all(t.hit_count == 0 for t in sess.triggers)


# --- readiness arithmetic ---


def test_expected_delta_r_hand_value():
    row = from_dict(TALK_TYPES, {"change": 0.5, "neutral": 0.3, "sustain": 0.2})
    assert expected_delta_r(row) == pytest.approx(0.39)


def test_expected_delta_r_weight_endpoints():
    assert expected_delta_r(point_mass(TALK_TYPES, "sustain")) == pytest.approx(-1.0)
    assert expected_delta_r(point_mass(TALK_TYPES, "neutral")) == pytest.approx(0.3)
    assert expected_delta_r(point_mass(TALK_TYPES, "change")) == pytest.approx(1.0)


def test_update_readiness_gated_trickle():
    assert update_readiness(0.0, 0.39, 0.1, []) == pytest.approx(0.039)


def test_update_readiness_with_discovery_bonus():
    assert update_readiness(0.0, 0.39, 0.64, [0.5]) == pytest.approx(0.7496)


def test_update_readiness_zero_increment_identity():
    assert update_readiness(0.42, 0.0, 0.7, []) == 0.42


def test_update_readiness_rejects_out_of_range_gate():
    with pytest.raises(ValueError):
        update_readiness(0.0, 0.1, 0.05, [])
    with pytest.raises(ValueError):
        update_readiness(0.0, 0.1, 1.2, [])
    update_readiness(0.0, 0.1, 0.1, [])
    update_readiness(0.0, 0.1, 1.0, [])


# --- talk-type table ---


def test_table_from_file_exposes_cells_and_min_support():
    table = TalkTypeTable.from_file(DATA_DIR / "talk_type_table.json")
    assert table.min_support == 3
    row = table.row("precontemplation", "Facilitate")
    assert row.prob("change") == pytest.approx(0.05)
    assert row.prob("neutral") == pytest.approx(0.75)
    assert row.prob("sustain") == pytest.approx(0.20)


def test_table_errors_name_their_file(tmp_path):
    path = tmp_path / "table.json"
    cell = {"stage": "contemplation", "action": "Facilitate", "support": 4,
            "p": {"change": 0.5, "neutral": 0.4}}
    path.write_text(json.dumps({"rows": [cell]}))
    with pytest.raises(ValueError, match=re.escape(f"sum to 1, got {np.float64(0.9)!r} (in {path})")):
        TalkTypeTable.from_file(path)


_CELL = {"stage": "contemplation", "action": "Facilitate", "support": 4,
         "p": {"change": 0.5, "neutral": 0.5}}


@pytest.mark.parametrize(
    "content, message",
    [([1], "a table must be a JSON object, got list"),
     ({"min_support": 3}, "a table must hold a list of rows"),
     ({"rows": [_CELL, [1]]}, "row 1 must be a JSON object, got list"),
     ({"rows": [{k: v for k, v in _CELL.items() if k != "action"}]}, "row 0 has no action"),
     ({"rows": [{**_CELL, "p": [0.5, 0.5]}]}, "row 0's p must be a JSON object, got list")],
    ids=["array", "no-rows", "list-cell", "no-action", "list-p"],
)
def test_wrongly_shaped_table_names_its_file(tmp_path, content, message):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(content))
    with pytest.raises(ValueError) as info:
        TalkTypeTable.from_file(path)
    assert type(info.value) is ValueError
    assert str(info.value) == f"{message} (in {path})"


@pytest.mark.parametrize(
    "content, error, message",
    [({"rows": [{**_CELL, "stage": "nonsense"}]}, UnknownLabelError,
      "row 0 has unknown stage 'nonsense'"),
     ({"rows": [_CELL, {**_CELL, "action": "Nope"}]}, UnknownActionError,
      "row 1 has unknown counselor action 'Nope'"),
     ({"rows": [{**_CELL, "stage": ["contemplation"]}]}, ValueError,
      "row 0 has a non-string stage"),
     ({"rows": [{**_CELL, "support": None}]}, ValueError, "row 0 has a non-integer support"),
     ({"rows": [{**_CELL, "support": 2.7}]}, ValueError, "row 0 has a non-integer support"),
     ({"rows": [{**_CELL, "support": True}]}, ValueError, "row 0 has a non-integer support"),
     ({"rows": [{**_CELL, "support": -1}]}, ValueError,
      "row 0's support must be non-negative, got -1"),
     ({"rows": [{**_CELL, "weight": 1}]}, ValueError, "row 0 has unknown key(s): weight"),
     ({"min_support": "x", "rows": [_CELL]}, ValueError,
      "min_support must be a non-negative integer, got 'x'"),
     ({"min_support": -1, "rows": [_CELL]}, ValueError,
      "min_support must be a non-negative integer, got -1"),
     ({"min_support": 2.5, "rows": [_CELL]}, ValueError,
      "min_support must be a non-negative integer, got 2.5")],
    ids=["unknown-stage", "unknown-action", "list-stage", "null-support", "float-support",
         "bool-support", "negative-support", "unknown-cell-key", "string-min-support",
         "negative-min-support", "float-min-support"],
)
def test_table_cell_labels_and_counts_are_checked_as_the_file_loads(tmp_path, content, error,
                                                                    message):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(content))
    with pytest.raises(error) as info:
        TalkTypeTable.from_file(path)
    assert type(info.value) is error
    assert str(info.value) == f"{message} (in {path})"


BIG = 10**400  # 401 digits: a JSON integer no float can hold


@pytest.mark.parametrize(
    "load, content, message",
    [(TalkTypeTable.from_file, {"rows": [{**_CELL, "p": {"change": BIG}}]},
      f"the probability of 'change' must be a finite number, got {BIG}"),
     (TalkTypeTable.from_file, {"rows": [{**_CELL, "p": {"change": True}}]},
      "the probability of 'change' must be a finite number, got True"),
     (TalkTypeTable.from_file, {"rows": [{**_CELL, "support": BIG}]},
      f"row 0's support must be finite, got {BIG}"),
     (load_pop_prior, {"contemplation": {"Inform": BIG}},
      f"the probability of 'Inform' must be a finite number, got {BIG}"),
     (load_pop_prior, {"contemplation": {"Inform": True}},
      "the probability of 'Inform' must be a finite number, got True"),
     (load_pop_prior, {"contemplation": {"Inform": "1.0"}},
      "the probability of 'Inform' must be a finite number, got '1.0'")],
    ids=["table-big-p", "table-true-p", "table-big-support", "prior-big-p", "prior-true-p",
         "prior-string-p"],
)
def test_a_probability_or_support_no_float_holds_is_rejected_naming_the_file(
    tmp_path, load, content, message
):
    """A number no float holds, or a bool or string where a probability belongs, is a
    ValueError as the file loads, not an overflow or a number read from a non-number."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(content))
    with pytest.raises(ValueError) as info:
        load(path)
    assert type(info.value) is ValueError
    assert str(info.value) == f"{message} (in {path})"


def test_table_missing_cell_backs_off_to_stage_marginal():
    table = TalkTypeTable.from_file(DATA_DIR / "talk_type_table.json")
    raw = json.loads((DATA_DIR / "talk_type_table.json").read_text())
    acc = np.zeros(len(TALK_TYPES))
    total = 0
    for cell in raw["rows"]:
        if cell["stage"] == "precontemplation":
            acc += cell["support"] * np.array(
                [cell["p"][tt] for tt in TALK_TYPES.labels]
            )
            total += cell["support"]
    got = table.row("precontemplation", "Raise Concern")
    assert np.allclose(got.probs, acc / total, atol=1e-12)


def test_table_thin_cell_backs_off(tmp_path):
    path = tmp_path / "table.json"
    path.write_text(
        json.dumps(
            {
                "min_support": 3,
                "rows": [
                    {
                        "stage": "contemplation",
                        "action": "Open Question",
                        "p": {"change": 0.6, "neutral": 0.3, "sustain": 0.1},
                        "support": 5,
                    },
                    {
                        "stage": "contemplation",
                        "action": "Closed Question",
                        "p": {"change": 0.1, "neutral": 0.8, "sustain": 0.1},
                        "support": 2,
                    },
                ],
            }
        )
    )
    table = TalkTypeTable.from_file(path)
    solid = table.row("contemplation", "Open Question")
    assert solid.prob("change") == pytest.approx(0.6)
    thin = table.row("contemplation", "Closed Question")
    expected = (5 * np.array([0.3, 0.6, 0.1]) + 2 * np.array([0.8, 0.1, 0.1])) / 7
    assert np.allclose(thin.probs, expected)


def test_table_stage_without_rows_falls_back_to_uniform():
    table = make_table()
    del table.rows[("preparation", "Open Question")]
    del table.support[("preparation", "Open Question")]
    got = table.row("preparation", "Affirm")
    assert np.allclose(got.probs, uniform(TALK_TYPES).probs)


# --- client action selection ---


def test_dirichlet_smoothing_hand_value():
    profile = make_profile(
        action_counts={"contemplation": {"Inform": 3.0, "Deny": 2.0}}
    )
    pop = from_dict(CLIENT_ACTIONS, {"Inform": 0.2, "Engage": 0.8})
    dist = client_action_dist(profile, "contemplation", pop, alpha=5.0)
    assert dist.prob("Inform") == pytest.approx(0.4)
    assert dist.prob("Deny") == pytest.approx(0.2)
    assert dist.prob("Engage") == pytest.approx(0.4)


def test_zero_counts_reduce_to_population_prior():
    profile = make_profile(action_counts={})
    pop = make_pop()["contemplation"]
    dist = client_action_dist(profile, "contemplation", pop)
    assert np.allclose(dist.probs, pop.probs)


@given(
    counts=st.lists(
        st.floats(min_value=0.0, max_value=50.0), min_size=11, max_size=11
    )
)
def test_smoothed_action_dist_is_always_proper(counts):
    profile = make_profile(
        action_counts={
            "contemplation": dict(zip(CLIENT_ACTIONS.labels, counts))
        }
    )
    dist = client_action_dist(profile, "contemplation", uniform(CLIENT_ACTIONS))
    assert dist.probs.sum() == pytest.approx(1.0)
    assert (dist.probs > 0).all()


def test_select_action_accepts_valid_backend_label():
    backend = StubBackend(choice=" Deny ")
    action = select_client_action(
        make_profile(), "precontemplation", make_pop()["precontemplation"], backend
    )
    assert action == "Deny"
    assert backend.choose_calls and backend.choose_calls[0][0].probs.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("reply", ["accept.", " Accept ", "ACCEPT"])
def test_select_action_uses_the_shared_label_rule(reply):
    # The same rule HttpBackend's classifiers apply: case, space and a final '.'.
    pop_row = make_pop()["precontemplation"]
    action = select_client_action(
        make_profile(), "precontemplation", pop_row, StubBackend(choice=reply)
    )
    dist = client_action_dist(make_profile(), "precontemplation", pop_row)
    assert action == "Accept" != dist.argmax_label()


def test_select_action_falls_back_to_argmax_on_garbage():
    backend = StubBackend(choice="definitely Inform, probably")
    pop_row = make_pop()["precontemplation"]
    action = select_client_action(make_profile(), "precontemplation", pop_row, backend)
    dist = client_action_dist(make_profile(), "precontemplation", pop_row)
    assert action == "Downplay"
    assert action == dist.argmax_label()


def test_client_action_is_asked_once_per_stage():
    """``choose_client_action`` is asked on a stage's first reply only; a reply
    that names no action falls back to the argmax on every turn of the stage,
    and a call that raises keeps nothing, so the next reply asks again."""

    class FailsFirst(StubBackend):
        def choose_client_action(self, dist, context):
            answer = super().choose_client_action(dist, context)
            if len(self.choose_calls) == 1:
                raise BackendUnavailableError("choose_client_action is down")
            return answer

    backend = FailsFirst(profile_embeds(), choice="garbage")
    sess = make_session(backend=backend)
    with pytest.raises(BackendUnavailableError):
        sess.respond("something entirely generic", "Facilitate")
    moves = [("more generic talk", "Facilitate"), (BELIEF_A, "Simple Reflection"),
             (BELIEF_B, "Simple Reflection"), ("something entirely generic", "Facilitate"),
             (BELIEF_A, "Simple Reflection"), (MOTIVATION_A, "Simple Reflection"),
             (PLAN_A, "Simple Reflection")]
    turns = [sess.respond(text, action) for text, action in moves]
    stages = ["precontemplation", "contemplation", "preparation"]
    assert [t.stage for t in turns] == [stages[0]] * 2 + [stages[1]] * 3 + [stages[2]] * 2
    # The call that raised, then one per stage entered.
    assert [c for _, c in backend.choose_calls] == [f"stage:{s}" for s in stages[:1] + stages]
    pop = make_pop()
    for (dist, _), stage in zip(backend.choose_calls[1:], stages):
        assert dist.as_dict() == client_action_dist(sess.profile, stage, pop[stage]).as_dict()
    assert [t.action for t in turns] == ["Downplay"] * 2 + ["Inform"] * 3 + ["Plan"] * 2
    for turn in turns:
        dist = client_action_dist(sess.profile, turn.stage, pop[turn.stage])
        assert turn.action == dist.argmax_label()


# --- action-distribution divergence ---


def test_act_kl_identical_is_zero():
    d = make_pop()["contemplation"]
    assert act_kl(d, d) == 0.0


def test_act_kl_point_vs_uniform_near_log_eleven():
    got = act_kl(point_mass(CLIENT_ACTIONS, "Inform"), uniform(CLIENT_ACTIONS))
    assert abs(got - math.log(len(CLIENT_ACTIONS))) < 1e-3


def test_act_kl_mass_swap_is_symmetric():
    p = from_dict(CLIENT_ACTIONS, {"Inform": 0.7, "Deny": 0.2, "Engage": 0.1})
    q = from_dict(CLIENT_ACTIONS, {"Inform": 0.2, "Deny": 0.7, "Engage": 0.1})
    assert act_kl(p, q) == pytest.approx(act_kl(q, p), abs=1e-12)
    assert act_kl(p, q) > 0.0


@given(
    weights=st.lists(
        st.floats(min_value=0.01, max_value=10.0), min_size=22, max_size=22
    )
)
def test_act_kl_nonnegative(weights):
    a = np.array(weights[:11])
    b = np.array(weights[11:])
    p = Categorical(CLIENT_ACTIONS, a / a.sum())
    q = Categorical(CLIENT_ACTIONS, b / b.sum())
    assert act_kl(p, q) >= 0.0
    assert act_kl(p, p) == 0.0


ACTION_WEIGHT = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=10.0))


@given(st.lists(ACTION_WEIGHT, min_size=22, max_size=22).filter(
    lambda w: sum(w[:11]) > 0 and sum(w[11:]) > 0))
def test_act_kl_equals_the_smoothed_numpy_formula(weights):
    """act_kl is kl_divergence of the smoothed sides, bit for bit the one numpy
    expression it replaced, zero cells included."""
    a, b = np.array(weights[:11]), np.array(weights[11:])
    sim, gold = Categorical(CLIENT_ACTIONS, a / a.sum()), Categorical(CLIENT_ACTIONS, b / b.sum())
    eps, n = 1e-6, len(CLIENT_ACTIONS)
    p = (sim.probs + eps) / (1.0 + n * eps)
    q = (gold.probs + eps) / (1.0 + n * eps)
    want = max(0.0, float(np.sum(p * (np.log(p) - np.log(q)))))
    assert repr(act_kl(sim, gold)) == repr(want)


def test_act_kl_across_spaces_is_a_dimension_mismatch():
    sim = uniform(CLIENT_ACTIONS)
    three = uniform(LabelSpace("three", ("a", "b", "c")))
    reversed_actions = uniform(LabelSpace("actions", CLIENT_ACTIONS.labels[::-1]))
    for gold in (three, reversed_actions):
        with pytest.raises(DimensionMismatchError):
            act_kl(sim, gold)


# --- session dynamics ---


def test_session_uses_profile_prep_threshold_override():
    assert make_session().theta_prep == 0.5
    sess = make_session(profile=make_profile(prep_threshold=6.0))
    assert sess.theta_prep == 6.0


def test_respond_rejects_unknown_counselor_action():
    sess = make_session()
    with pytest.raises(UnknownActionError):
        sess.respond("hello", "Meditate")
    assert sess.turn == 0


def test_empty_trigger_set_in_precontemplation_raises():
    profile = make_profile(beliefs=("Too short.",), motivations=("Short words here.",),
                           plans=("Tiny plan.",))
    sess = make_session(profile=profile)
    assert sess.triggers == []
    assert sess.coverage == 0.0
    with pytest.raises(EmptyTriggerSetError):
        sess.respond("anything at all", "Facilitate")


def hits(sess):
    """Each matched trigger's hit count."""
    return {t.id: t.hit_count for t in sess.triggers if t.hit_count}


def test_session_walks_through_both_transitions():
    sess = make_session(backend=StubBackend(profile_embeds(), choice="garbage"))
    stages = [sess.stage]

    # Turn 1: echo of the first belief. Full gate, discovery bonus, still
    # below the 0.3 coverage threshold (1 of 4).
    turn = sess.respond(BELIEF_A, "Simple Reflection")
    stages.append(turn.stage)
    assert turn.gate == pytest.approx(1.0)
    assert turn.delta_r_bar == pytest.approx(0.08)
    assert turn.matched_ids == ("beliefs-0",)
    assert hits(sess) == {"beliefs-0": 1}  # its first hit: newly discovered
    assert turn.readiness == pytest.approx(0.28)
    assert turn.stage == "precontemplation"
    assert turn.action == "Downplay"  # argmax fallback under the pre counts

    # Turn 2: second belief discovered, coverage 2/4 >= 0.3. Readiness had
    # climbed past theta_prep but the single-transition rule plus the reset
    # leaves the client freshly contemplative at r = 0.
    turn = sess.respond(BELIEF_B, "Simple Reflection")
    stages.append(turn.stage)
    assert turn.delta_r_bar == pytest.approx(0.08)  # pre-turn stage's row
    assert turn.stage == "contemplation"
    assert turn.readiness == 0.0
    assert turn.action == "Inform"  # post-transition stage drives selection

    # Turn 3: generic utterance, baseline gate only.
    turn = sess.respond("something entirely generic", "Facilitate")
    stages.append(turn.stage)
    assert turn.gate == BASE_GATE
    assert turn.matched_ids == ()
    assert turn.readiness == pytest.approx(0.1 * expected_delta_r(
        make_table().row("contemplation", "Facilitate")))

    # Turn 4: re-match of the first belief; halved boost, no new bonus.
    turn = sess.respond(BELIEF_A, "Simple Reflection")
    stages.append(turn.stage)
    assert turn.gate == pytest.approx(0.55)
    assert hits(sess)["beliefs-0"] == 2  # hit before: not newly discovered

    # Turn 5: motivation discovery pushes r past theta_prep.
    turn = sess.respond(MOTIVATION_A, "Simple Reflection")
    stages.append(turn.stage)
    assert turn.stage == "preparation"

    # Preparation absorbs everything afterwards.
    turn = sess.respond(PLAN_A, "Simple Reflection")
    stages.append(turn.stage)
    assert turn.stage == "preparation"

    ordinals = [STAGES.index(s) for s in stages]
    assert ordinals == sorted(ordinals)


def test_prep_boundary_is_inclusive():
    sess = make_session()
    sess.stage = "contemplation"
    sess.readiness = 0.49
    sess._transition()
    assert sess.stage == "contemplation"
    sess.readiness = 0.50
    sess._transition()
    assert sess.stage == "preparation"


def test_generic_counselor_never_unfreezes_precontemplation():
    backend = ScriptedBackend()
    profile = ClientProfile.from_file(DATA_DIR / "profiles" / "p01_alcohol.json")
    table = TalkTypeTable.from_file(DATA_DIR / "talk_type_table.json")
    pop = load_pop_prior(DATA_DIR / "pop_prior.json")
    sess = ClientSession(profile, table, backend, pop)
    lines = ["Mm-hmm.", "Right.", "Understood.", "Okay."]
    per_turn = 0.1 * expected_delta_r(table.row("precontemplation", "Facilitate"))
    for i in range(20):
        turn = sess.respond(lines[i % len(lines)], "Facilitate")
        assert turn.gate == BASE_GATE
        assert turn.matched_ids == ()
    assert sess.stage == "precontemplation"
    assert sess.coverage == 0.0
    assert sess.readiness == pytest.approx(20 * per_turn)


def test_opening_statement_mentions_topic():
    backend = ScriptedBackend()
    profile = ClientProfile.from_file(DATA_DIR / "profiles" / "p01_alcohol.json")
    table = TalkTypeTable.from_file(DATA_DIR / "talk_type_table.json")
    pop = load_pop_prior(DATA_DIR / "pop_prior.json")
    sess = ClientSession(profile, table, backend, pop)
    opening = sess.opening_statement()
    assert opening
    assert profile.topic in opening


# --- threshold calibration ---


def test_calibration_replay_on_shipped_trajectory():
    backend = ScriptedBackend()
    profile = ClientProfile.from_file(DATA_DIR / "profiles" / "p01_alcohol.json")
    table = TalkTypeTable.from_file(DATA_DIR / "talk_type_table.json")
    traj = json.loads(
        (DATA_DIR / "calibration_trajectory.json").read_text()
    )["turns"]
    got = calibrate_prep_threshold(profile, traj, table, backend)
    assert got == pytest.approx(1.84, abs=1e-9)


def test_calibration_empty_trajectory_returns_default():
    profile = make_profile()
    assert calibrate_prep_threshold(profile, [], make_table(), StubBackend()) == 0.5


def test_calibration_without_gold_transition_returns_default():
    traj = [
        {
            "counselor_text": "generic line",
            "counselor_action": "Facilitate",
            "gold_stage": "contemplation",
        },
        {
            "counselor_text": "another generic line",
            "counselor_action": "Facilitate",
            "gold_stage": "contemplation",
        },
    ]
    got = calibrate_prep_threshold(
        make_profile(), traj, make_table(), StubBackend(profile_embeds())
    )
    assert got == 0.5


_BUNDLED_PROFILES = load_profiles(DATA_DIR / "profiles")
_SHIPPED_TABLE = TalkTypeTable.from_file(DATA_DIR / "talk_type_table.json")


@pytest.mark.parametrize(
    "key, value, error",
    [("counselor_action", "Bogus", UnknownActionError),
     ("gold_stage", "prep", UnknownLabelError)],
)
def test_calibration_rejects_labels_the_live_client_rejects(key, value, error):
    profile = ClientProfile.from_file(DATA_DIR / "profiles" / "p01_alcohol.json")
    traj = json.loads((DATA_DIR / "calibration_trajectory.json").read_text())["turns"]
    traj[1][key] = value
    with pytest.raises(error, match=repr(value)):
        calibrate_prep_threshold(profile, traj, _SHIPPED_TABLE, ScriptedBackend())


# Whether the counselor is active (else FixedCounselor), and the config, for
# each live run the calibration must agree with.
_LIVE_RUNS = {
    "active": (True, {}),
    "fixed": (False, {}),
    "rotation-40": (True, {"efe_action": False, "max_turns": 40}),
    "active-tau-theta": (True, {"tau": 0.3, "theta_prep": 0.8}),
    "fixed-tau-theta": (False, {"tau": 0.3, "theta_prep": 0.8}),
    "rotation-40-tau-theta": (
        True, {"efe_action": False, "max_turns": 40, "tau": 0.3, "theta_prep": 0.8}
    ),
}


@pytest.mark.parametrize("run", sorted(_LIVE_RUNS))
def test_calibration_replays_a_live_run_to_its_prep_readiness(run):
    """Replaying a live transcript with its hidden stages as gold labels reads
    off exactly the readiness at which the live client entered preparation."""
    active, over = _LIVE_RUNS[run]
    cfg = RunConfig(**over)
    backend = ScriptedBackend()
    pop = load_pop_prior(DATA_DIR / "pop_prior.json")
    for profile in _BUNDLED_PROFILES:
        counselor = (
            ActiveCounselor(backend, cfg, session_id=profile.id) if active
            else FixedCounselor(backend)
        )
        client = ClientSession(
            profile, _SHIPPED_TABLE, backend, pop,
            tau=cfg.tau, theta_cov=cfg.theta_cov, theta_prep=cfg.theta_prep,
        )
        records = run_dialogue(counselor, client, cfg).records
        traj = [
            {"counselor_text": r.counselor_text, "counselor_action": r.counselor_action,
             "gold_stage": r.sim_stage}
            for r in records
        ]
        prep = [r.readiness for r in records if r.sim_stage == "preparation"]
        want = prep[0] if prep else DEFAULT_THETA_PREP
        assert calibrate_prep_threshold(profile, traj, _SHIPPED_TABLE, backend, tau=cfg.tau) == want


def reference_calibration(profile, trajectory, table, backend, tau=0.45, default=0.5):
    """The calibration loop as a stand-alone copy of the live client's rule.

    Written out step by step, independent of ``ClientSession``: the
    readiness step is taken under the previous gold stage, and readiness
    resets only on the gold move from precontemplation to contemplation.
    """
    triggers = build_triggers(profile, backend)
    r = 0.0
    prev_stage = profile.initial_stage
    for turn in trajectory:
        vector = ask_once(backend, "embed", turn["counselor_text"])
        matches = match_triggers(triggers, vector, tau)
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


_PROFILE_SENTENCES = sorted(
    {s for p in _BUNDLED_PROFILES for f in ("personas", "beliefs", "motivations", "plans")
     for s in getattr(p, f)}
)


@settings(max_examples=150, deadline=None)
@given(
    profile=st.sampled_from(_BUNDLED_PROFILES),
    turns=st.lists(
        st.fixed_dictionaries({
            "counselor_text": st.one_of(  # half the draws can match a trigger
                st.sampled_from(_PROFILE_SENTENCES),
                st.sampled_from(_PROFILE_SENTENCES),
                st.from_regex(r"[a-z][a-z ]{0,40}", fullmatch=True),
                st.text(max_size=40),
            ),
            "counselor_action": st.sampled_from(COUNSELOR_ACTIONS.labels),
            "gold_stage": st.sampled_from(STAGES.labels),
        }),
        max_size=12,
    ),
    tau=st.floats(-0.2, 1.0),
)
def test_calibration_equals_the_reference_loop(profile, turns, tau):
    """Bit for bit, or the same error (free text may hold no token to embed)."""
    def outcome(calibrate):
        try:
            return calibrate(profile, turns, _SHIPPED_TABLE, backend, tau=tau)
        except EmptyTextError as exc:
            return type(exc)

    backend = ScriptedBackend()
    assert outcome(calibrate_prep_threshold) == outcome(reference_calibration)


# --- shipped data loaders ---


def test_pop_prior_loads_proper_rows():
    pop = load_pop_prior(DATA_DIR / "pop_prior.json")
    assert set(pop) == set(STAGES.labels)
    for row in pop.values():
        assert len(row.space) == len(CLIENT_ACTIONS)
        assert row.probs.sum() == pytest.approx(1.0)


@pytest.mark.parametrize(
    "content, message",
    [("[1, 2]", "a population prior must be a JSON object, got list"),
     ('{"contemplation": {"Inform": -1.0, "Engage": 2.0}}', "probabilities must be non-negative"),
     ('{"contemplation": [0.5, 0.5]}', "the row of 'contemplation' must be a JSON object, got list"),
     ('{"precontemplation": {"Inform": 1.0}, "contemplaton": {"Inform": 1.0},'
      ' "preparation": {"Inform": 1.0}}', "a population prior has no contemplation"),
     ('{"precontemplation": {"Inform": 1.0}, "contemplation": {"Inform": 1.0},'
      ' "preparation": {"Inform": 1.0}, "maintenance": {"Inform": 1.0}}',
      "a population prior has unknown key(s): maintenance")],
    ids=["array", "negative-row", "list-row", "missing-stage", "unknown-stage"],
)
def test_pop_prior_errors_name_their_file(tmp_path, content, message):
    path = tmp_path / "pop.json"
    path.write_text(content)
    with pytest.raises(ValueError) as info:
        load_pop_prior(path)
    assert type(info.value) is ValueError
    assert str(info.value) == f"{message} (in {path})"
