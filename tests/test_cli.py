"""Command-line surface: subcommands, outputs, and exit codes."""

import argparse
import io
import json
import math
from dataclasses import fields

import pytest

import statecoach
from statecoach.backends import DATA_DIR, ScriptedBackend
from statecoach.cli import _add_config_flags, _advise, _cfg_from_args, build_parser, main
from statecoach.config import RunConfig
from statecoach.harness import ActiveCounselor, Transcript
from statecoach.vocab import CLIENT_ACTIONS

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
# What `repl --show-belief` printed for REPL_INPUT when the advisor still ran
# a full shadow counselor turn (reply, memory and summaries included).
REPL_OUTPUT = (
    "client [precontemplation, r=0.00]: I'm only here because my family keeps pushing me about drinking.\n"
    '  advisory belief: {"precontemplation": 0.637, "contemplation": 0.182, "preparation": 0.182} | suggested action: Open Question\n'
    'you>   [classified as: Simple Reflection]\n'
    "client [precontemplation, r=0.26]: Honestly, it's not a big deal. Drinking helps me unwind after a long shift.\n"
    '  matched triggers: beliefs-0 (new: beliefs-0)\n'
    '  advisory belief: {"precontemplation": 0.55, "contemplation": 0.225, "preparation": 0.225} | suggested action: Closed Question\n'
    'you>   [classified as: Closed Question]\n'
    "client [precontemplation, r=0.25]: Honestly, it's not a big deal. A few beers with friends is how I stay social.\n"
    '  matched triggers: none\n'
    '  advisory belief: {"precontemplation": 0.489, "contemplation": 0.256, "preparation": 0.256} | suggested action: Simple Reflection\n'
    'you>   [classified as: Open Question]\n'
    'client [contemplation, r=0.00]: What matters to me is this: I want to wake up with a clear head for my kids.\n'
    '  matched triggers: plans-0 (new: plans-0)\n'
    '  advisory belief: {"precontemplation": 0.21, "contemplation": 0.569, "preparation": 0.221} | suggested action: Simple Reflection\n'
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

    shadow = ActiveCounselor(MethodLog(), RunConfig(consolidate_every=1), session_id="repl")
    for text in REPL_INPUT.splitlines():
        _advise(shadow, text)
    assert called == ["classify_talk_type"] * 3
    assert len(shadow.memory) == 0
    assert capsys.readouterr().out.count("suggested action:") == 3


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


def test_http_backend_without_endpoint_exits_2(tmp_path, capsys):
    code, _ = run_cli(
        capsys, ["run-dynamic", "--out", str(tmp_path), "--backend", "http"]
    )
    assert code == 2


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
