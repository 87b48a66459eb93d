"""One record rule behind every JSON loader.

``errors.json_record`` checks that a value is a JSON object, that it holds its
required keys with their JSON types, and, for a closed record, that it holds no
other key.  The unit tests pin its four messages; the properties drive each
file kind through its loader or the CLI with a key left out, a key added, or a
value of the wrong JSON type.
"""

import contextlib
import io
import json
import shutil
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from statecoach.backends import DATA_DIR, ScriptedBackend
from statecoach.cli import main
from statecoach.client_sim import ClientProfile, TalkTypeTable
from statecoach.config import RunConfig
from statecoach.errors import NoGoldLabelsError, StateCoachError, json_record
from statecoach.harness import offline_eval
from statecoach.probs import LabelSpace
from statecoach.vocab import STAGES
from statecoach.world_model import WorldModel

# Any JSON value: null, bools, numbers, strings, lists and nested objects.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


def json_kinds(value) -> set[str]:
    """The JSON types ``value`` has as json.loads gives it; an integer is a number too."""
    kind = {bool: "boolean", int: "integer", float: "number", str: "string", list: "array",
            dict: "object", type(None): "null"}[type(value)]
    return {kind, "number"} if kind == "integer" else {kind}


_SPEC = {"name": "string", "n": "integer", "x": "number", "tags": "array", "meta": None,
         "on": "boolean"}
_GOOD = {"name": "a", "n": 1, "x": 0.5, "tags": [], "meta": None, "on": False}


@pytest.mark.parametrize(
    "value, allowed, message",
    [
        ([1], None, "thing must be a JSON object, got list"),
        ({"x": 0.5}, None, "thing has no name, n, tags, meta, on"),
        ({**_GOOD, "zz": 1, "aa": 2}, _SPEC.keys(), "thing has unknown key(s): aa, zz"),
        ({**_GOOD, "n": 1.0}, None, "thing has a non-integer n"),
        ({**_GOOD, "n": True}, None, "thing has a non-integer n"),
        ({**_GOOD, "x": False}, None, "thing has a non-number x"),
        ({**_GOOD, "on": 0}, None, "thing has a non-boolean on"),
        ({**_GOOD, "name": 1, "tags": {}}, None, "thing has a non-string name"),
        ({**_GOOD, "name": 1, "tags": {}, "zz": 0}, _SPEC.keys(),
         "thing has unknown key(s): zz"),
    ],
    ids=["not-object", "missing", "unknown", "float-int", "bool-int", "bool-number", "int-boolean",
         "first-kind", "unknown-before-type"],
)
def test_json_record_states_each_fault_in_one_wording(value, allowed, message):
    with pytest.raises(ValueError) as info:
        json_record(value, "thing", _SPEC, allowed)
    assert type(info.value) is ValueError
    assert str(info.value) == message


def test_json_record_returns_a_good_record_without_naming_it():
    def what():
        raise AssertionError("a good record formats no name")

    good = {**_GOOD, "x": 3, "extra": 1}
    assert json_record(good, what, _SPEC) is good
    assert json_record(_GOOD, what, _SPEC, _SPEC.keys()) is _GOOD
    with pytest.raises(ValueError, match="^session 'x' turn 2 has no n$"):
        json_record({}, lambda: "session 'x' turn 2", {"n": "integer"})


def _run_cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _field_kinds(annotation: str) -> set[str]:
    """The JSON types a ``RunConfig`` field annotation admits."""
    kind, _, rest = annotation.partition(" | ")
    kinds = {"int": {"integer"}, "float": {"integer", "number"}, "bool": {"boolean"},
             "str": {"string"}}[kind]
    return kinds | {"null"} if rest == "None" else kinds


_CONFIG_FIELDS = {f.name: _field_kinds(f.type) for f in fields(RunConfig)}


@settings(max_examples=60, deadline=None)
@given(
    key=st.sampled_from(sorted(_CONFIG_FIELDS)) | st.text(min_size=1, max_size=8),
    value=JSON_VALUES,
)
def test_config_file_with_an_unknown_key_or_a_mistyped_value_exits_2_naming_it(key, value):
    assume(key not in _CONFIG_FIELDS or not json_kinds(value) & _CONFIG_FIELDS[key])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps({key: value}))
        code, out, err = _run_cli(["eval-offline", "--config", str(path)])
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert line.startswith("error: ") and line.endswith(f" (in {path})")


def test_config_file_values_are_checked_with_the_flags_merged_in(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"lambda_e": 0, "lambda_p": 0, "beta": 2.0}))
    cfg = RunConfig.from_file(path, lambda_p=1.0, beta=0.5, seed=None)
    assert (cfg.lambda_e, cfg.lambda_p, cfg.beta) == (0, 1.0, 0.5)
    with pytest.raises(ValueError, match=rf"^beta must be in \[0, 1\], got 2\.0 \(in {path}\)$"):
        RunConfig.from_file(path, lambda_p=1.0)


# The JSON types each profile field admits.
_PROFILE_FIELDS = {
    "id": {"string"}, "topic": {"string"}, "behavior": {"string"},
    "initial_stage": {"string"}, "personas": {"array"}, "beliefs": {"array"},
    "motivations": {"array"}, "plans": {"array"}, "action_counts": {"object"},
    "prep_threshold": {"number", "null"},
}
_REQUIRED_PROFILE_FIELDS = ("id", "topic", "behavior", "initial_stage")


def test_profile_field_table_covers_every_field():
    assert set(_PROFILE_FIELDS) == {f.name for f in fields(ClientProfile)}


@settings(max_examples=40, deadline=None)
@given(
    fault=st.sampled_from(["missing", "unknown", "type"]),
    key=st.sampled_from(sorted(_PROFILE_FIELDS)),
    extra=st.text(min_size=1, max_size=8).filter(lambda k: k not in _PROFILE_FIELDS),
    value=JSON_VALUES,
)
def test_profile_file_with_a_missing_unknown_or_mistyped_key_exits_2_naming_it(
    fault, key, extra, value
):
    data = json.loads((DATA_DIR / "profiles" / "p03_exercise.json").read_text())
    if fault == "missing":
        assume(key in _REQUIRED_PROFILE_FIELDS)
        del data[key]
    elif fault == "unknown":
        data[extra] = value
    else:
        assume(not json_kinds(value) & _PROFILE_FIELDS[key])
        data[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        profiles = Path(tmp) / "profiles"
        shutil.copytree(DATA_DIR / "profiles", profiles)
        path = profiles / "p03_exercise.json"
        path.write_text(json.dumps(data))
        out = Path(tmp) / "runs"
        code, stdout, err = _run_cli(["run-dynamic", "--profiles", str(profiles),
                                      "--out", str(out)])
        assert not out.exists()
    assert (code, stdout) == (2, "")
    (line,) = err.splitlines()
    assert line.startswith("error: ") and line.endswith(f" (in {path})")


_TURN = {"client_text": "I'm not sure.", "gold_stage": "contemplation",
         "counselor_action": "Affirm"}


@settings(max_examples=40, deadline=None)
@given(
    key=st.sampled_from(sorted(_TURN)),
    value=JSON_VALUES | st.just(KeyError),  # KeyError: the key is left out
    turn=st.integers(0, 5),
)
def test_sessions_file_with_a_missing_or_mistyped_turn_key_exits_2_naming_the_turn(
    key, value, turn
):
    """Session errors name the session and the turn, not the file: offline_eval
    checks sessions in memory, after the file has loaded."""
    assume(value is KeyError or "string" not in json_kinds(value))
    turns = [dict(_TURN) for _ in range(6)]
    if value is KeyError:
        del turns[turn][key]
    else:
        turns[turn][key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sessions.json"
        path.write_text(json.dumps({"sessions": [{"id": "s", "turns": turns}]}))
        code, out, err = _run_cli(["eval-offline", "--sessions", str(path)])
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert line.startswith(f"error: session 's' turn {turn} has ")


@pytest.mark.parametrize(
    "gold, message",
    [(None, "session 's' turn 0 has a non-string gold_stage"),
     ("", "session 's' is missing gold stage labels")],
    ids=["null", "empty"],
)
def test_null_gold_stage_is_a_type_fault_and_an_empty_one_a_missing_label(
    tmp_path, capsys, gold, message
):
    sessions = [{"id": "s", "turns": [{**_TURN, "gold_stage": gold}] * 6}]
    with pytest.raises(ValueError if gold is None else NoGoldLabelsError):
        offline_eval(sessions)
    path = tmp_path / "sessions.json"
    path.write_text(json.dumps(sessions))
    assert main(["eval-offline", "--sessions", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message} (in {path})\n"


# The keys of a talk-type table cell and of a world-model file, with the JSON
# types each admits.
_CELL_KINDS = {"stage": {"string"}, "action": {"string"}, "p": {"object"},
               "support": {"integer"}}
_WORLD_MODEL_KINDS = {"states": {"array"}, "actions": {"array"}, "cues": {"array"},
                      "kappa_t": {"number"}, "kappa_o": {"number"},
                      "transition_counts": {"array"}, "observation_counts": {"array"}}


def _mutated(record: dict, kinds: dict, fault: str, key: str, extra: str, value) -> dict:
    """``record`` with ``key`` left out, ``extra`` added, or ``key`` mistyped."""
    record = dict(record)
    if fault == "missing":
        del record[key]
    elif fault == "unknown":
        assume(extra not in kinds)
        record[extra] = value
    else:
        assume(not json_kinds(value) & kinds[key])
        record[key] = value
    return record


FAULTS = st.sampled_from(["missing", "unknown", "type"])


@settings(max_examples=60, deadline=None)
@given(fault=FAULTS, key=st.sampled_from(sorted(_CELL_KINDS)), extra=st.text(max_size=8),
       value=JSON_VALUES)
def test_table_cell_with_a_missing_unknown_or_mistyped_key_names_the_file(
    fault, key, extra, value
):
    cell = {"stage": "contemplation", "action": "Affirm", "support": 4,
            "p": {"change": 0.5, "neutral": 0.5}}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.json"
        path.write_text(json.dumps(
            {"rows": [cell, _mutated(cell, _CELL_KINDS, fault, key, extra, value)]}))
        with pytest.raises((ValueError, StateCoachError)) as info:
            TalkTypeTable.from_file(path)
    assert str(info.value).startswith("row 1")
    assert str(info.value).endswith(f" (in {path})")


@settings(max_examples=60, deadline=None)
@given(fault=FAULTS, key=st.sampled_from(sorted(_WORLD_MODEL_KINDS)),
       extra=st.text(max_size=8), value=JSON_VALUES)
def test_world_model_file_with_a_missing_unknown_or_mistyped_key_names_the_file(
    fault, key, extra, value
):
    model = WorldModel(states=STAGES, actions=LabelSpace("a", ("ask", "tell")))
    data = _mutated(model.to_dict(), _WORLD_MODEL_KINDS, fault, key, extra, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "wm.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError) as info:
            WorldModel.load(path)
    assert str(info.value).startswith("a world model ")
    assert str(info.value).endswith(f" (in {path})")


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda c: c.pop("profile_id"), "a calibration trajectory has no profile_id"),
        (lambda c: c.update(turns={}), "a calibration trajectory has a non-array turns"),
        (lambda c: c["turns"][2].pop("gold_stage"), "turn 2 has no gold_stage"),
        (lambda c: c["turns"][0].update(counselor_text=None),
         "turn 0 has a non-string counselor_text"),
    ],
    ids=["no-profile-id", "object-turns", "turn-without-gold", "null-text"],
)
def test_damaged_calibration_trajectory_exits_2_naming_the_file(
    tmp_path, capsys, monkeypatch, damage, message
):
    data = tmp_path / "data"
    shutil.copytree(DATA_DIR, data)
    path = data / "calibration_trajectory.json"
    calib = json.loads(path.read_text(encoding="utf-8"))
    damage(calib)
    path.write_text(json.dumps(calib))
    monkeypatch.setattr("statecoach.cli.DATA_DIR", data)
    assert main(["validate-sim"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message} (in {path})\n"


def test_scripted_backend_rule_files_name_themselves(tmp_path, monkeypatch):
    data = tmp_path / "data"
    shutil.copytree(DATA_DIR, data)
    (data / "talk_type_rules.json").write_text('{"cue_rules":\n')
    monkeypatch.setattr("statecoach.backends.DATA_DIR", data)
    with pytest.raises(ValueError) as info:
        ScriptedBackend()
    assert str(info.value).endswith(f" (in {data / 'talk_type_rules.json'})")
