"""Command-line surface: subcommands, outputs, and exit codes."""

import io
import json
import math

import pytest

from statecoach.cli import main
from statecoach.harness import Transcript
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
        ([], {"context_n": -2}, "context_n must be non-negative"),
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


def test_repl_show_belief_adds_advisory_line(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))  # immediate EOF
    code, out = run_cli(capsys, ["repl", "--show-belief"])
    assert code == 0
    assert "advisory belief:" in out
    assert "suggested action:" in out


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
