"""Command-line surface: subcommands, outputs, and exit codes."""

import argparse
import contextlib
import io
import json
import math
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import statecoach
from statecoach.backends import DATA_DIR, ScriptedBackend
from statecoach.client_sim import (
    ClientProfile,
    act_kl,
    client_action_dist,
    load_pop_prior,
    load_profiles,
)
from statecoach.cli import _add_config_flags, _advise, _cfg_from_args, build_parser, main
from statecoach.config import RunConfig
from statecoach.harness import BeliefTracker, Transcript
from statecoach.vocab import CLIENT_ACTIONS, COUNSELOR_ACTIONS, STAGES

PROFILE_IDS = ["p01-alcohol", "p02-smoking", "p03-exercise", "p04-gambling",
               "p05-diet"]


def run_cli(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_run_dynamic_writes_transcripts_and_metrics(tmp_path, capsys):
    out_dir = tmp_path / "runs"
    code, out = run_cli(
        capsys, ["run-dynamic", "--out", str(out_dir), "--counselor", "active"]
    )
    assert code == 0
    for pid in PROFILE_IDS:
        t = Transcript.from_jsonl(out_dir / f"{pid}.jsonl")
        assert t.profile_id == pid
        assert t.records
    report = json.loads((out_dir / "metrics.json").read_text())
    assert report["counselor"] == "active"
    assert report["profiles"] == PROFILE_IDS
    metrics = report["metrics"]
    assert metrics["lift"] == pytest.approx(1.8)
    assert metrics["prep_rate"] == pytest.approx(0.8)
    assert metrics["trig_cov"] == pytest.approx(8 / 15)
    assert metrics["avg_turns"] == pytest.approx(8.0)
    assert json.loads(out) == report


def test_run_dynamic_is_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli(capsys, ["run-dynamic", "--out", str(a)])
    run_cli(capsys, ["run-dynamic", "--out", str(b)])
    for pid in PROFILE_IDS:
        assert (a / f"{pid}.jsonl").read_bytes() == (b / f"{pid}.jsonl").read_bytes()
    assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()


def test_run_dynamic_counselor_flag_changes_outcomes(tmp_path, capsys):
    code, out = run_cli(
        capsys,
        ["run-dynamic", "--out", str(tmp_path / "r"), "--counselor", "random"],
    )
    assert code == 0
    metrics = json.loads(out)["metrics"]
    assert metrics["prep_rate"] == 0.0
    assert metrics["avg_turns"] == 20.0


def test_run_dynamic_fixed_counselor_writes_beliefless_transcripts(tmp_path, capsys):
    out_dir = tmp_path / "r"
    code, out = run_cli(capsys, ["run-dynamic", "--out", str(out_dir), "--counselor", "fixed"])
    assert code == 0
    assert sorted(p.name for p in out_dir.glob("*.jsonl")) == [f"{p}.jsonl" for p in PROFILE_IDS]
    for pid in PROFILE_IDS:
        records = Transcript.from_jsonl(out_dir / f"{pid}.jsonl").records
        assert records
        assert all(rec.belief is None and rec.efe is None for rec in records)
    report = json.loads((out_dir / "metrics.json").read_text())
    assert report["counselor"] == "fixed" and report["profiles"] == PROFILE_IDS
    assert json.loads(out) == report


def test_run_dynamic_with_no_profiles_exits_2(tmp_path, capsys):
    empty, out_dir = tmp_path / "empty", tmp_path / "r"
    empty.mkdir()
    code = main(["run-dynamic", "--profiles", str(empty), "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "no profile files found" in captured.err
    assert not (out_dir / "metrics.json").exists()


def test_eval_offline_prints_pooled_accuracy(capsys):
    code, out = run_cli(capsys, ["eval-offline"])
    assert code == 0
    got = json.loads(out)
    assert got["curr_acc"] == pytest.approx(6 / 7)
    assert got["next_acc"] == pytest.approx(0.6)
    assert got["sessions_scored"] == 2
    assert got["eval_turns"] == 7


def test_validate_sim_checks_pass(capsys):
    code, out = run_cli(capsys, ["validate-sim"])
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["deterministic"] is True
    assert report["calibrated_theta_prep"] == pytest.approx(1.84, abs=1e-9)
    assert report["act_kl_identical"] == 0.0
    assert abs(
        report["act_kl_point_vs_uniform"] - math.log(len(CLIENT_ACTIONS))
    ) < 1e-3
    assert set(report["act_kl_profile_vs_population"]) == set(PROFILE_IDS)


def test_validate_sim_smooths_with_the_configured_alpha(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"alpha_dirichlet": 1.0}))
    code, out = run_cli(capsys, ["validate-sim", "--config", str(path)])
    assert code == 0
    got = json.loads(out)["act_kl_profile_vs_population"]
    pop = load_pop_prior(DATA_DIR / "pop_prior.json")
    want = {
        p.id: {s: round(act_kl(client_action_dist(p, s, pop[s], 1.0), pop[s]), 6) for s in STAGES}
        for p in load_profiles(DATA_DIR / "profiles")
    }
    assert got == want
    assert got["p01-alcohol"]["precontemplation"] == 0.499986  # 0.261917 at the default α = 5


def test_selftest_prints_constants_and_passes(capsys):
    code, out = run_cli(capsys, ["selftest"])
    assert code == 0
    assert '"tau": 0.45' in out
    assert "free-energy bound: ok" in out
    assert "mutual-information identity: ok" in out
    assert "determinism probe: ok" in out


def test_repl_session_quits_cleanly(capsys, monkeypatch):
    monkeypatch.setattr(
        "sys.stdin", io.StringIO("It sounds like evenings are the hard part.\nquit\n")
    )
    code, out = run_cli(capsys, ["repl"])
    assert code == 0
    assert "client [precontemplation" in out
    assert "[classified as:" in out
    assert "matched triggers:" in out
    assert "session ended." in out


def test_repl_skips_line_without_words(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("...\nquit\n"))
    code, out = run_cli(capsys, ["repl"])
    assert code == 0
    assert "no words in that line" in out
    assert "[classified as:" not in out
    assert "session ended." in out


def test_repl_skips_a_blank_line_and_stops_at_preparation(tmp_path, capsys, monkeypatch):
    profile = json.loads((DATA_DIR / "profiles" / "p01_alcohol.json").read_text(encoding="utf-8"))
    path = tmp_path / "ready.json"
    path.write_text(json.dumps({**profile, "initial_stage": "contemplation",
                                "prep_threshold": 0.01}), encoding="utf-8")
    monkeypatch.setattr(
        "sys.stdin", io.StringIO("\nYou want to wake up clear-headed?\nnever read\n"))
    code, out = run_cli(capsys, ["repl", "--profile", str(path)])
    assert code == 0
    assert "you> you>   [classified as: Closed Question]\nclient [preparation" in out
    assert out.endswith("client reached preparation; session complete.\nsession ended.\n")


def test_repl_stops_at_the_turn_cap(capsys, monkeypatch):
    """With one turn allowed, the second typed line is never read."""
    monkeypatch.setattr("sys.stdin", io.StringIO(REPL_INPUT))
    code, out = run_cli(capsys, ["repl", "--max-turns", "1"])
    assert code == 0
    assert out.count("you>") == 1 and out.count("[classified as:") == 1
    assert "client reached preparation" not in out
    assert out.endswith("  matched triggers: beliefs-0 (new: beliefs-0)\nsession ended.\n")


_SELFTEST_CHECKS = {"_selftest_free_energy": "free-energy bound",
                    "_selftest_mi_identity": "mutual-information identity",
                    "_selftest_determinism": "determinism probe"}


@pytest.mark.parametrize("failing", sorted(_SELFTEST_CHECKS))
def test_selftest_reports_a_failed_check_and_exits_1(capsys, monkeypatch, failing):
    for check in _SELFTEST_CHECKS:
        problem = "broken on purpose" if check == failing else None
        monkeypatch.setattr(f"statecoach.cli.{check}", lambda *args, problem=problem: problem)
    code, out = run_cli(capsys, ["selftest"])
    assert code == 1
    assert out.endswith("".join(
        f"{name}: FAIL (broken on purpose)\n" if check == failing else f"{name}: ok\n"
        for check, name in _SELFTEST_CHECKS.items()))


def test_negative_max_turns_exits_2(tmp_path, capsys):
    code = main(["run-dynamic", "--out", str(tmp_path / "r"), "--max-turns", "-3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "max_turns must be non-negative" in captured.err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "flags, config, message",
    [
        (["--beta", "1.5"], None, "beta must be in [0, 1]"),
        ([], {"consolidate_every": 0}, "consolidate_every must be positive"),
        ([], {"k_relevant": -1}, "k_relevant must be non-negative"),
        (["--lambda-e", "-1"], None, "lambda_e must be non-negative"),
        (["--repeat-penalty", "-0.5"], None, "repeat_penalty must be non-negative"),
        (["--warmup-ratio", "1.5"], None, "warmup_ratio must be in [0, 1]"),
        (["--lambda-e", "0", "--lambda-p", "0"], None, "must not both be zero"),
        ([], {"min_eval_turns": 2.5}, "min_eval_turns must be int"),
        ([], {"k_relevant": 1.5}, "k_relevant must be int"),
        ([], {"efe_action": "false"}, "efe_action must be bool"),
        (["--tau", "nan"], None, "tau must be in [-1, 1]"),
        ([], {"alpha_dirichlet": -5}, "alpha_dirichlet must be positive"),
        (["--theta-cov", "1.5"], None, "theta_cov must be in [0, 1]"),
        (["--theta-prep", "inf"], None, "theta_prep must be finite"),
        ([], {"kappa_o": 0}, "kappa_o must be positive"),
        ([], {"dist_thres": -1.0}, "dist_thres must be non-negative"),
        ([], {"obs_seed_count": -1.0}, "obs_seed_count must be non-negative"),
        ([], {"min_eval_turns": 0}, "min_eval_turns must be positive"),
        ([], {"min_eval_turns": -1}, "min_eval_turns must be positive"),
        ([], {"obs_seed_count": math.inf}, "obs_seed_count must be finite"),
        ([], {"alpha_dirichlet": math.inf}, "alpha_dirichlet must be finite"),
        (["--lambda-e", "inf"], None, "lambda_e must be finite"),
        (["--counselor", "random", "--seed", "-1"], None, "seed must be non-negative"),
    ],
)
def test_out_of_range_config_exits_2_before_writing(tmp_path, capsys, flags, config, message):
    out = tmp_path / "runs"
    argv = ["run-dynamic", "--out", str(out), "--max-turns", "3", *flags]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    code = main(argv)
    assert code == 2
    assert message in capsys.readouterr().err
    assert list(out.glob("*.jsonl")) == []


@pytest.mark.parametrize("files", [[], ["p02_smoking.json"]])
def test_validate_sim_without_calibration_profile_exits_2(tmp_path, capsys, files):
    for name in files:
        (tmp_path / name).write_bytes((DATA_DIR / "profiles" / name).read_bytes())
    code = main(["validate-sim", "--profiles", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: calibration profile 'p01-alcohol' not found\n"


def test_repl_show_belief_adds_advisory_line(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))  # immediate EOF
    code, out = run_cli(capsys, ["repl", "--show-belief"])
    assert code == 0
    assert "advisory belief:" in out
    assert "suggested action:" in out


REPL_INPUT = (
    "Drinking helps you unwind after a long shift, it sounds like.\n"
    "You want to wake up clear-headed and save real money?\n"
    "What if you swap the evening beer for sparkling water?\n"
)
# What `repl --show-belief` prints for REPL_INPUT.  The advisor acts on the
# typed actions, not on its suggestions, so Open Question is still untried at
# suggestions 2 and 3 and wins the index-order tie among untried actions.
REPL_OUTPUT = (
    "client [precontemplation, r=0.00]: I'm only here because my family keeps pushing me about drinking.\n"
    '  advisory belief: {"precontemplation": 0.637, "contemplation": 0.182, "preparation": 0.182} | suggested action: Open Question\n'
    'you>   [classified as: Simple Reflection]\n'
    "client [precontemplation, r=0.26]: Honestly, it's not a big deal. Drinking helps me unwind after a long shift.\n"
    '  matched triggers: beliefs-0 (new: beliefs-0)\n'
    '  advisory belief: {"precontemplation": 0.55, "contemplation": 0.225, "preparation": 0.225} | suggested action: Open Question\n'
    'you>   [classified as: Closed Question]\n'
    "client [precontemplation, r=0.25]: Honestly, it's not a big deal. A few beers with friends is how I stay social.\n"
    '  matched triggers: none\n'
    '  advisory belief: {"precontemplation": 0.489, "contemplation": 0.256, "preparation": 0.256} | suggested action: Open Question\n'
    'you>   [classified as: Open Question]\n'
    'client [contemplation, r=0.00]: What matters to me is this: I want to wake up with a clear head for my kids.\n'
    '  matched triggers: plans-0 (new: plans-0)\n'
    '  advisory belief: {"precontemplation": 0.21, "contemplation": 0.569, "preparation": 0.221} | suggested action: Open Question\n'
    'you> \n'
    'session ended.\n'
)


def test_repl_show_belief_output_is_pinned(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(REPL_INPUT))
    code, out = run_cli(capsys, ["repl", "--show-belief"])
    assert code == 0
    assert out == REPL_OUTPUT


def test_repl_advisor_only_classifies(capsys):
    called = []

    class MethodLog(ScriptedBackend):
        def __getattribute__(self, name):
            if name in ("generate_response", "summarize", "embed", "classify_talk_type"):
                called.append(name)
            return super().__getattribute__(name)

    backend, tracker = MethodLog(), BeliefTracker(RunConfig(consolidate_every=1))
    for text in REPL_INPUT.splitlines():
        _advise(tracker, backend, text)
    assert called == ["classify_talk_type"] * 3
    assert capsys.readouterr().out.count("suggested action:") == 3


def test_repl_advisor_tracks_the_typed_actions(capsys, monkeypatch):
    seen = []  # (tracker, its transition counts, its action) after each advisory line

    def advise(tracker, backend, client_text):
        _advise(tracker, backend, client_text)
        seen.append((tracker, tracker.wm.transition_counts.copy(), tracker.action))

    monkeypatch.setattr("statecoach.cli._advise", advise)
    monkeypatch.setattr("sys.stdin", io.StringIO(REPL_INPUT))
    code, _ = run_cli(capsys, ["repl", "--show-belief"])
    assert code == 0
    assert len(seen) == 4 and len({id(tracker) for tracker, _, _ in seen}) == 1
    # After the first line, classified Simple Reflection, and the client's reply.
    _, counts, action = seen[1]
    assert action == "Simple Reflection"
    typed = COUNSELOR_ACTIONS.index("Simple Reflection")
    assert counts[:, typed, :].sum() > 0
    assert not np.delete(counts, typed, axis=1).any()
    # The last line typed was classified Open Question.
    assert seen[-1][2] == "Open Question"


def test_unknown_flag_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run-dynamic", "--bogus"])
    assert exc.value.code == 2


def test_missing_config_file_exits_2(tmp_path, capsys):
    code, _ = run_cli(
        capsys,
        ["run-dynamic", "--out", str(tmp_path), "--config", "/nonexistent.json"],
    )
    assert code == 2


@pytest.mark.parametrize("fault", ["config", "out", "profile"])
def test_a_file_system_fault_exits_2_naming_the_path(tmp_path, capsys, monkeypatch, fault):
    """A PermissionError from reading ``--config``, making ``--out`` or reading
    a ``--profiles`` file is one ``error:`` line naming the path, and no
    transcript is written.  The error is raised through ``monkeypatch``, since
    ``chmod`` denies nothing to a superuser."""
    cfg, out, profiles = tmp_path / "cfg.json", tmp_path / "runs", tmp_path / "profiles"
    cfg.write_text("{}", encoding="utf-8")
    profiles.mkdir()
    profile = profiles / "p01_alcohol.json"
    profile.write_bytes((DATA_DIR / "profiles" / "p01_alcohol.json").read_bytes())
    method, denied = {"config": ("read_text", cfg), "out": ("mkdir", out),
                      "profile": ("read_text", profile)}[fault]
    real = getattr(Path, method)

    def guarded(self, *args, **kwargs):
        if self == denied:
            raise PermissionError(13, "Permission denied", str(self))
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Path, method, guarded)
    code = main(["run-dynamic", "--config", str(cfg), "--out", str(out),
                 "--profiles", str(profiles)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and str(denied) in line
    assert not list(tmp_path.rglob("*.jsonl"))


def test_config_key_typo_exits_2_naming_the_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lamda_e": 1}))
    code = main(["run-dynamic", "--out", str(tmp_path / "runs"), "--config", str(cfg)])
    assert code == 2
    assert "lamda_e" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_missing_sessions_file_exits_2(capsys):
    code, _ = run_cli(capsys, ["eval-offline", "--sessions", "/nonexistent.json"])
    assert code == 2


def test_unknown_gold_label_exits_2(tmp_path, capsys):
    data = json.loads((DATA_DIR / "annotated_sessions.json").read_text())
    sessions = data["sessions"] if isinstance(data, dict) else data
    sessions[0]["turns"][0]["gold_stage"] = "Contemplation"
    path = tmp_path / "sessions.json"
    path.write_text(json.dumps(data))
    code = main(["eval-offline", "--sessions", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "'Contemplation'" in captured.err


@pytest.mark.parametrize("value", ['"0.5"', "NaN", "true"])
def test_bad_profile_prep_threshold_exits_2_before_writing(tmp_path, capsys, value):
    profiles = tmp_path / "profiles"
    profiles.mkdir()
    for src in sorted((DATA_DIR / "profiles").glob("*.json")):
        (profiles / src.name).write_bytes(src.read_bytes())
    text = (profiles / "p05_diet.json").read_text()
    assert '"prep_threshold": 6.0' in text
    (profiles / "p05_diet.json").write_text(
        text.replace('"prep_threshold": 6.0', f'"prep_threshold": {value}')
    )
    out = tmp_path / "runs"
    code = main(["run-dynamic", "--profiles", str(profiles), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "prep_threshold must be a finite number" in captured.err
    assert list(out.glob("*.jsonl")) == []


@pytest.mark.parametrize(
    "counts",
    [[3, 2], {"contemplation": [3, 2]}, {"contemplation": {"Inform": "3"}},
     {"contemplation": {"Inform": True}}],
    ids=["list", "list-row", "string-count", "bool-count"],
)
def test_bad_profile_action_counts_exits_2_before_writing(tmp_path, capsys, counts):
    profiles = tmp_path / "profiles"
    profiles.mkdir()
    for src in sorted((DATA_DIR / "profiles").glob("*.json")):
        (profiles / src.name).write_bytes(src.read_bytes())
    data = json.loads((profiles / "p04_gambling.json").read_text())
    data["action_counts"] = counts
    (profiles / "p04_gambling.json").write_text(json.dumps(data))
    out = tmp_path / "runs"
    code = main(["run-dynamic", "--profiles", str(profiles), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: action_counts")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_profile_sentence_field_given_as_string_exits_2_before_writing(tmp_path, capsys):
    profiles = tmp_path / "profiles"
    profiles.mkdir()
    for src in sorted((DATA_DIR / "profiles").glob("*.json")):
        (profiles / src.name).write_bytes(src.read_bytes())
    data = json.loads((profiles / "p03_exercise.json").read_text())
    data["beliefs"] = " ".join(data["beliefs"])
    (profiles / "p03_exercise.json").write_text(json.dumps(data))
    out = tmp_path / "runs"
    code = main(["run-dynamic", "--profiles", str(profiles), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "profile field 'beliefs' must be a list of strings" in captured.err
    assert not out.exists()


def _bundled_profiles_copy(tmp_path):
    profiles = tmp_path / "profiles"
    profiles.mkdir()
    for src in sorted((DATA_DIR / "profiles").glob("*.json")):
        (profiles / src.name).write_bytes(src.read_bytes())
    return profiles


@pytest.mark.parametrize("pid", ["../escaped", "..", ""])
def test_profile_id_outside_out_exits_2_before_writing(tmp_path, capsys, pid):
    profiles = _bundled_profiles_copy(tmp_path)
    data = json.loads((profiles / "p02_smoking.json").read_text())
    data["id"] = pid
    (profiles / "p02_smoking.json").write_text(json.dumps(data))
    out = tmp_path / "runs"
    code = main(["run-dynamic", "--profiles", str(profiles), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: profile id must be a plain file name")
    assert captured.err.count("\n") == 1
    assert not out.exists() and list(tmp_path.glob("*.jsonl")) == []


def test_duplicate_profile_ids_exit_2_before_writing(tmp_path, capsys):
    profiles = _bundled_profiles_copy(tmp_path)
    data = json.loads((profiles / "p02_smoking.json").read_text())
    data["id"] = json.loads((profiles / "p01_alcohol.json").read_text())["id"]
    (profiles / "p02_smoking.json").write_text(json.dumps(data))
    out = tmp_path / "runs"
    code = main(["run-dynamic", "--profiles", str(profiles), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: p01_alcohol.json and p02_smoking.json share")
    assert captured.err.count("\n") == 1
    assert not out.exists()


BIG = 10**400  # 401 digits: a JSON integer no float can hold


@pytest.mark.parametrize(
    "field",
    ["lambda_e", "lambda_p", "repeat_penalty", "obs_seed_count", "alpha_dirichlet",
     "kappa_t", "kappa_o", "theta_prep", "action_counts", "prep_threshold"],
)
def test_an_integer_beyond_the_float_range_exits_2_before_writing(tmp_path, capsys, field):
    """A config float, profile count or threshold no float holds is one error line, not
    an overflow at load or at the first client turn."""
    out = tmp_path / "runs"
    argv = ["run-dynamic", "--out", str(out), "--max-turns", "3"]
    if field in ("action_counts", "prep_threshold"):
        profiles = _bundled_profiles_copy(tmp_path)
        path = profiles / "p01_alcohol.json"
        data = json.loads(path.read_text())
        if field == "action_counts":
            data[field] = {"contemplation": {"Inform": BIG, "Hesitate": 2}}
            message = "action_counts['contemplation']['Inform'] must be a finite non-negative number"
        else:
            data[field] = BIG
            message = "prep_threshold must be a finite number"
        path.write_text(json.dumps(data))
        argv += ["--profiles", str(profiles)]
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({field: BIG}))
        message = f"{field} must be finite"
        argv += ["--config", str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}, got {BIG} (in {path})\n"
    assert not out.exists()



@pytest.mark.parametrize("command", ["run-dynamic", "repl"])
def test_precontemplation_profile_without_triggers_exits_2_naming_its_file(
    tmp_path, capsys, command
):
    """A profile that could never leave precontemplation fails as it loads."""
    profiles = _bundled_profiles_copy(tmp_path)
    zz = profiles / "zz.json"
    zz.write_text(json.dumps({"id": "zz", "topic": "t", "behavior": "b",
                              "initial_stage": "precontemplation"}))
    out = tmp_path / "runs"
    if command == "run-dynamic":
        argv = ["run-dynamic", "--profiles", str(profiles), "--out", str(out)]
    else:
        argv = ["repl", "--profile", str(zz)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: profile 'zz' starts in precontemplation with no sentence long enough "
        f"to become a trigger (in {zz})\n"
    )
    assert not out.exists() and list(tmp_path.rglob("*.jsonl")) == []

# Any JSON value: null, bools, numbers, strings, lists and nested objects.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


def _loads_as_profile(data) -> bool:
    try:
        ClientProfile.from_dict(data)
    except Exception:  # how it fails is for the CLI run to show
        return False
    return True


@settings(max_examples=100, deadline=None)
@given(
    key=st.sampled_from([f.name for f in fields(ClientProfile)] + [None]),
    value=JSON_VALUES,
)
def test_hostile_profile_json_exits_2_naming_the_file(key, value):
    """Arbitrary JSON in place of one profile field (``key``) or of the whole
    file (``key`` None): a profile that does not load ends the run with exit 2
    and one ``error:`` line naming the file, before any transcript is written."""
    data = json.loads((DATA_DIR / "profiles" / "p03_exercise.json").read_text())
    if key is None:
        data = value
    else:
        data[key] = value
    assume(not _loads_as_profile(data))
    with tempfile.TemporaryDirectory() as tmp:
        profiles = _bundled_profiles_copy(Path(tmp))
        (profiles / "p03_exercise.json").write_text(json.dumps(data))
        out = Path(tmp) / "runs"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["run-dynamic", "--profiles", str(profiles), "--out", str(out)])
        assert code == 2
        assert stdout.getvalue() == ""
        (line,) = stderr.getvalue().splitlines()
        assert line.startswith("error: ")
        assert line.endswith(f" (in {profiles / 'p03_exercise.json'})")
        assert not out.exists()


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--config", ["run-dynamic", "--out", "runs"]),
        ("--sessions", ["eval-offline"]),
        ("--profile", ["repl"]),
        ("--profiles", ["run-dynamic", "--out", "runs"]),
    ],
)
def test_malformed_json_names_its_file(tmp_path, capsys, monkeypatch, flag, argv):
    monkeypatch.chdir(tmp_path)
    if flag == "--profiles":
        arg = _bundled_profiles_copy(tmp_path)
        path = arg / "p02_smoking.json"
    else:
        path = arg = tmp_path / "bad.json"
    path.write_text('{"id":\n')
    code = main(argv + [flag, str(arg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: Expecting value: line 2 column 1 (char 7) (in {path})\n"
    assert not (tmp_path / "runs").exists()


def test_out_naming_an_existing_file_exits_2_before_any_session(tmp_path, capsys):
    out = tmp_path / "runs"
    out.write_text("keep me")
    code = main(["run-dynamic", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(out) in captured.err
    assert out.read_text() == "keep me" and list(tmp_path.glob("*.jsonl")) == []


def test_unknown_counselor_action_exits_2(tmp_path, capsys):
    data = json.loads((DATA_DIR / "annotated_sessions.json").read_text())
    sessions = data["sessions"] if isinstance(data, dict) else data
    sessions[-1]["turns"][-1]["counselor_action"] = "Lecture"
    path = tmp_path / "sessions.json"
    path.write_text(json.dumps(data))
    code = main(["eval-offline", "--sessions", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "'Lecture'" in captured.err and repr(sessions[-1]["id"]) in captured.err


@pytest.mark.parametrize("key", ["client_text", "gold_stage", "counselor_action"])
def test_annotated_turn_missing_a_key_exits_2(tmp_path, capsys, key):
    data = json.loads((DATA_DIR / "annotated_sessions.json").read_text())
    sessions = data["sessions"] if isinstance(data, dict) else data
    del sessions[1]["turns"][3][key]
    path = tmp_path / "sessions.json"
    path.write_text(json.dumps(data))
    code = main(["eval-offline", "--sessions", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: session {sessions[1]['id']!r} turn 3 has no {key} (in {path})\n"


_NOT_A_SESSION_LIST = "expected a list of sessions or an object whose 'sessions' is a list"


def _bad_turn_3(key, value):
    """One session of 6 well-formed turns, but turn 3's ``key`` set to ``value``."""
    turns = [{"client_text": "I'm not sure.", "gold_stage": "contemplation",
              "counselor_action": "Affirm"} for _ in range(6)]
    turns[3][key] = value
    return [{"id": "x", "turns": turns}]


@pytest.mark.parametrize(
    "content, message",
    [
        ([{"id": "x"}], "session 'x' has no list of turns"),
        (["abc"], "session 0 must be a JSON object, got str"),
        ([{"id": "x", "turns": "abc"}], "session 'x' has no list of turns"),
        ([{"id": "x", "turns": [1]}], "session 'x' turn 0 must be a JSON object, got int"),
        ({"foo": []}, _NOT_A_SESSION_LIST),
        ({"sessions": 5}, _NOT_A_SESSION_LIST),
        (_bad_turn_3("client_text", 5), "session 'x' turn 3 has a non-string client_text"),
        (_bad_turn_3("client_text", "   "), "session 'x' turn 3 has a blank client_text"),
        (_bad_turn_3("counselor_action", ["Affirm"]),
         "session 'x' turn 3 has a non-string counselor_action"),
        (_bad_turn_3("gold_stage", ["contemplation"]),
         "session 'x' turn 3 has a non-string gold_stage"),
    ],
    ids=["no-turns", "session-string", "turns-string", "turn-int", "no-sessions-key",
         "sessions-int", "client-text-int", "client-text-blank", "action-list",
         "gold-stage-list"],
)
def test_malformed_sessions_file_exits_2_naming_the_fault(tmp_path, capsys, content, message):
    path = tmp_path / "sessions.json"
    path.write_text(json.dumps(content))
    code = main(["eval-offline", "--sessions", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"{message} (in {path})" in captured.err


def test_http_backend_without_endpoint_exits_2(tmp_path, capsys):
    code, _ = run_cli(
        capsys, ["run-dynamic", "--out", str(tmp_path), "--backend", "http"]
    )
    assert code == 2


@pytest.mark.parametrize(
    "settings, flags",
    [({"backend_kind": "grpc"}, []), ({"max_output_tokens": 0}, []), ({}, ["--backend", "http"])],
)
def test_selftest_refuses_a_backend_setting(tmp_path, capsys, settings, flags):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(settings))
    code = main(["selftest", "--config", str(path), *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_unreachable_http_backend_exits_3(tmp_path, capsys):
    code, _ = run_cli(
        capsys,
        [
            "run-dynamic",
            "--out",
            str(tmp_path),
            "--backend",
            "http",
            "--endpoint",
            "http://127.0.0.1:9",
        ],
    )
    assert code == 3


def test_a_missing_http_stack_exits_3_and_a_scripted_run_does_not_need_it(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.setitem(sys.modules, "requests", None)
    out = tmp_path / "runs"
    code = main(
        ["run-dynamic", "--out", str(out), "--backend", "http", "--endpoint", "http://127.0.0.1:9"]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("backend failure: ") and captured.err.count("\n") == 1
    assert "'requests' package" in captured.err
    assert not out.exists()
    assert main(["run-dynamic", "--out", str(out), "--max-turns", "2"]) == 0


def _subcommand_parsers():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


@pytest.mark.parametrize("command", sorted(_subcommand_parsers()))
def test_config_flag_dests_are_run_config_fields(command):
    """``_cfg_from_args`` reads fields by name, so a flag whose dest names no
    field would be dropped silently."""
    probe = argparse.ArgumentParser(add_help=False)
    _add_config_flags(probe)
    options = {o for a in probe._actions for o in a.option_strings} - {"--config"}
    sub = _subcommand_parsers()[command]
    dests = {a.dest for a in sub._actions if set(a.option_strings) & options}
    assert len(dests) == len(options) == 18
    assert dests <= {f.name for f in fields(RunConfig)}


def test_config_flags_set_their_fields():
    args = build_parser().parse_args([
        "selftest", "--seed", "7", "--lambda-e", "0.3", "--warmup-ratio", "0.25",
        "--disable-planner", "--hard-counts", "--no-efe-action", "--no-early-stop",
        "--backend", "http", "--endpoint", "http://localhost:1", "--model", "m1",
    ])
    cfg = _cfg_from_args(args)
    assert (cfg.seed, cfg.lambda_e, cfg.warmup_ratio) == (7, 0.3, 0.25)
    assert cfg.disable_planner and cfg.hard_counts
    assert not cfg.efe_action and not cfg.early_stop
    assert (cfg.backend_kind, cfg.endpoint, cfg.model_name) == ("http", "http://localhost:1", "m1")
    assert _cfg_from_args(build_parser().parse_args(["selftest"])) == RunConfig()


def test_every_public_name_resolves():
    for name in statecoach.__all__:
        assert getattr(statecoach, name) is not None, name
