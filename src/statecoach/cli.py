"""Command-line surface: batch dialogue runs, offline evaluation, fixture
validation, an interactive client session, and a constants self-test.

Exit codes: 0 success, 1 failed validation or self-test, 2 configuration or
usage error, 3 backend failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .backends import DATA_DIR, ScriptedBackend, ask_once, make_backend, tokenize
from .belief import bayes_update, free_energy
from .client_sim import (
    ClientProfile,
    ClientSession,
    TalkTypeTable,
    act_kl,
    calibrate_prep_threshold,
    client_action_dist,
    load_pop_prior,
    load_profiles,
)
from .config import RunConfig
from .errors import BackendUnavailableError, StateCoachError, json_record, naming_file
from .harness import (
    ActiveCounselor,
    BeliefTracker,
    FixedCounselor,
    RandomCounselor,
    init_world_model,
    load_annotated_sessions,
    offline_eval,
    run_dialogue,
)
from .metrics import dynamic_metrics
from .planner import epistemic_value, planner_prior
from .probs import Categorical, LabelSpace, entropy, kl_divergence, point_mass, uniform
from .vocab import CLIENT_ACTIONS, STAGES

CONFIG_ERRORS = (
    FileNotFoundError,
    FileExistsError,
    NotADirectoryError,
    IsADirectoryError,
    ValueError,
    StateCoachError,
)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """Flags that override RunConfig fields; each ``dest`` is the field it sets."""
    p.add_argument("--config", default=None, help="JSON config file; flags override it")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-turns", type=int, default=None)
    p.add_argument("--lambda-e", type=float, default=None)
    p.add_argument("--lambda-p", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--theta-cov", type=float, default=None)
    p.add_argument("--theta-prep", type=float, default=None)
    p.add_argument("--repeat-penalty", type=float, default=None)
    p.add_argument("--warmup-ratio", type=float, default=None)
    p.add_argument("--min-eval-turns", type=int, default=None)
    p.add_argument("--disable-planner", action="store_const", const=True, default=None)
    p.add_argument("--hard-counts", action="store_const", const=True, default=None)
    p.add_argument(
        "--no-efe-action", dest="efe_action", action="store_const", const=False, default=None
    )
    p.add_argument(
        "--no-early-stop", dest="early_stop", action="store_const", const=False, default=None
    )
    p.add_argument(
        "--backend", dest="backend_kind", choices=["scripted", "http"], default=None
    )
    p.add_argument("--endpoint", default=None)
    p.add_argument("--model", dest="model_name", default=None)


def _cfg_from_args(args: argparse.Namespace) -> RunConfig:
    overrides = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    if args.config is not None:
        return RunConfig.from_file(args.config, **overrides)
    return RunConfig(**{k: v for k, v in overrides.items() if v is not None})


def _sim_fixtures(profiles_dir=None):
    table = TalkTypeTable.from_file(DATA_DIR / "talk_type_table.json")
    pop = load_pop_prior(DATA_DIR / "pop_prior.json")
    profiles = load_profiles(profiles_dir or DATA_DIR / "profiles")
    return table, pop, profiles


def _client_session(profile, table, pop, backend, cfg: RunConfig) -> ClientSession:
    return ClientSession(
        profile,
        table,
        backend,
        pop,
        tau=cfg.tau,
        theta_cov=cfg.theta_cov,
        theta_prep=cfg.theta_prep,
        alpha=cfg.alpha_dirichlet,
        seed=cfg.seed,
    )


def _build_counselor(kind: str, backend, cfg: RunConfig, session_id: str):
    if kind == "random":
        return RandomCounselor(backend, seed=cfg.seed)
    if kind == "fixed":
        return FixedCounselor(backend)
    return ActiveCounselor(backend, cfg, session_id=session_id)


def cmd_run_dynamic(args: argparse.Namespace, cfg: RunConfig) -> int:
    backend = make_backend(cfg)
    table, pop, profiles = _sim_fixtures(args.profiles)
    if not profiles:
        raise FileNotFoundError(f"no profile files found under {args.profiles}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    transcripts = []
    for profile in profiles:
        counselor = _build_counselor(args.counselor, backend, cfg, profile.id)
        client = _client_session(profile, table, pop, backend, cfg)
        path = out_dir / f"{profile.id}.jsonl"
        transcripts.append(run_dialogue(counselor, client, cfg, out_path=path))
    metrics = dynamic_metrics(transcripts)
    report = {
        "counselor": args.counselor,
        "profiles": [t.profile_id for t in transcripts],
        "metrics": metrics.as_dict(),
    }
    (out_dir / "metrics.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(report, indent=2))
    return 0


def cmd_eval_offline(args: argparse.Namespace, cfg: RunConfig) -> int:
    backend = make_backend(cfg)
    sessions = load_annotated_sessions(args.sessions)
    result = offline_eval(sessions, cfg, backend)
    print(json.dumps(result, indent=2))
    return 0


# The keys of the calibration trajectory file and of each of its turns, with
# their JSON types.
_TRAJECTORY_KEYS = {"profile_id": "string", "turns": "array"}
_TRAJECTORY_TURN_KEYS = {
    "counselor_text": "string", "counselor_action": "string", "gold_stage": "string"
}


def cmd_validate_sim(args: argparse.Namespace, cfg: RunConfig) -> int:
    """Replay the shipped fixtures and report calibration, divergence, and
    determinism so a broken data file or nondeterministic change is caught
    without running the full test suite."""
    backend = make_backend(cfg)
    table, pop, profiles = _sim_fixtures(args.profiles)

    path = DATA_DIR / "calibration_trajectory.json"
    with naming_file(path):
        calib = json.loads(path.read_text(encoding="utf-8"))
        json_record(calib, "a calibration trajectory", _TRAJECTORY_KEYS)
        for i, turn in enumerate(calib["turns"]):
            json_record(turn, f"turn {i}", _TRAJECTORY_TURN_KEYS)
    calib_profile = next((p for p in profiles if p.id == calib["profile_id"]), None)
    if calib_profile is None:
        raise FileNotFoundError(f"calibration profile {calib['profile_id']!r} not found")
    theta = calibrate_prep_threshold(
        calib_profile, calib["turns"], table, backend, tau=cfg.tau
    )

    def one_run() -> str:
        counselor = ActiveCounselor(make_backend(cfg), cfg, session_id=profiles[0].id)
        client = _client_session(profiles[0], table, pop, make_backend(cfg), cfg)
        return run_dialogue(counselor, client, cfg).to_jsonl()

    deterministic = one_run() == one_run()

    u = uniform(CLIENT_ACTIONS)
    kl_ident = act_kl(u, u)
    kl_point = act_kl(point_mass(CLIENT_ACTIONS, CLIENT_ACTIONS.labels[0]), u)
    alpha = cfg.alpha_dirichlet
    profile_kl = {
        p.id: {
            stage: round(act_kl(client_action_dist(p, stage, pop[stage], alpha), pop[stage]), 6)
            for stage in STAGES.labels
        }
        for p in profiles
    }
    ok = (
        deterministic
        and abs(kl_ident) < 1e-12
        and abs(kl_point - math.log(len(CLIENT_ACTIONS))) < 1e-3
    )
    report = {
        "calibrated_theta_prep": theta,
        "deterministic": deterministic,
        "act_kl_identical": kl_ident,
        "act_kl_point_vs_uniform": kl_point,
        "act_kl_profile_vs_population": profile_kl,
        "ok": ok,
    }
    print(json.dumps(report, indent=2))
    return 0 if ok else 1


def _advise(tracker: BeliefTracker, backend, client_text: str) -> None:
    tracker.observe(client_text, ask_once(backend, "classify_talk_type", client_text))
    probs = {s: round(p, 3) for s, p in tracker.q.as_dict().items()}
    line = f"  advisory belief: {json.dumps(probs)}"
    if tracker.cfg.efe_action:
        line += f" | suggested action: {tracker.plan().chosen}"
    print(line)


def cmd_repl(args: argparse.Namespace, cfg: RunConfig) -> int:
    """Type counselor turns against a simulated client.

    The advisory display is read-only: the typed utterance is what the client
    hears.  The advisor takes the live counselor's belief step, acting on each
    typed line's action, never on its own suggestion.
    """
    backend = make_backend(cfg)
    table, pop, profiles = _sim_fixtures()
    profile = (
        ClientProfile.from_file(args.profile) if args.profile else profiles[0]
    )
    client = _client_session(profile, table, pop, backend, cfg)
    tracker = BeliefTracker(cfg) if args.show_belief else None

    opening = client.opening_statement()
    print(f"client [{client.stage}, r={client.readiness:.2f}]: {opening}")
    if tracker is not None:
        _advise(tracker, backend, opening)
    turns = 0
    while turns < cfg.max_turns:
        try:
            line = input("you> ").strip()
        except (EOFError, KeyboardInterrupt):
            print()
            break
        if not line:
            continue
        if line.lower() in {"quit", "exit"}:
            break
        if not tokenize(line):
            print("  (no words in that line; type an utterance, or 'quit')")
            continue
        turns += 1
        action = ask_once(backend, "classify_counselor_action", line)
        outcome = client.respond(line, action)
        print(f"  [classified as: {action}]")
        print(f"client [{outcome.stage}, r={outcome.readiness:.2f}]: {outcome.text}")
        matched = ", ".join(outcome.matched_ids) if outcome.matched_ids else "none"
        suffix = (
            f" (new: {', '.join(outcome.newly_discovered_ids)})"
            if outcome.newly_discovered_ids
            else ""
        )
        print(f"  matched triggers: {matched}{suffix}")
        if tracker is not None:
            tracker.act(action)
            _advise(tracker, backend, outcome.text)
        if outcome.stage == "preparation" and cfg.early_stop:
            print("client reached preparation; session complete.")
            break
    print("session ended.")
    return 0


def _selftest_free_energy(rng: np.random.Generator, n_models: int) -> str | None:
    for _ in range(n_models):
        n = int(rng.integers(2, 6))
        space = LabelSpace("s", tuple(f"s{i}" for i in range(n)))
        prior = Categorical(space, rng.dirichlet(np.full(n, 2.0)))
        lik = rng.uniform(0.05, 1.0, n)
        evidence = float(prior.probs @ lik)
        bound = -math.log(evidence)
        post = bayes_update(prior, lik)
        if abs(free_energy(post, prior, lik) - bound) > 1e-9:
            return "free energy at the posterior != -log evidence"
        q = Categorical(space, rng.dirichlet(np.full(n, 2.0)))
        if free_energy(q, prior, lik) < bound - 1e-9:
            return "free-energy bound violated"
    return None


def _selftest_mi_identity(rng: np.random.Generator, n_models: int) -> str | None:
    cfg = RunConfig()
    for _ in range(n_models):
        wm = init_world_model(cfg)
        wm.transition_counts += rng.random(wm.transition_counts.shape) * 5
        wm.observation_counts += rng.random(wm.observation_counts.shape) * 5
        q = Categorical(STAGES, rng.dirichlet(np.full(len(STAGES), 2.0)))
        action = str(rng.choice(wm.actions.labels))
        prior = planner_prior(q, wm, action)
        expected_post_entropy = epistemic_value(q, wm, action)
        expected_kl = 0.0
        for cue in wm.cues.labels:
            col = wm.observation_likelihood(cue)
            p_o = float(prior.probs @ col)
            if p_o > 0:
                expected_kl += p_o * kl_divergence(bayes_update(prior, col), prior)
        if abs((entropy(prior) - expected_post_entropy) - expected_kl) > 1e-9:
            return "mutual-information identity violated"
    return None


def _selftest_determinism() -> str | None:
    # Asks the backend itself: a memoized answer would repeat by construction.
    backend = ScriptedBackend()
    a = backend.embed("the same sentence twice")
    b = backend.embed("the same sentence twice")
    if not np.array_equal(a, b):
        return "embedding is not deterministic"
    labels = {
        backend.classify_talk_type("I could cut down to two a day."),
        backend.classify_talk_type("I could cut down to two a day."),
    }
    if labels != {"preparation"}:
        return "scripted classification is not deterministic"
    return None


def cmd_selftest(args: argparse.Namespace, cfg: RunConfig) -> int:
    print(json.dumps(cfg.dump_constants(), indent=2))
    rng = np.random.default_rng(cfg.seed)
    checks = [
        ("free-energy bound", _selftest_free_energy(rng, 200)),
        ("mutual-information identity", _selftest_mi_identity(rng, 200)),
        ("determinism probe", _selftest_determinism()),
    ]
    for name, problem in checks:
        if problem is None:
            print(f"{name}: ok")
        else:
            print(f"{name}: FAIL ({problem})")
    return 0 if all(problem is None for _, problem in checks) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statecoach",
        description="Belief-tracking counselor agent and simulated-client harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run-dynamic", help="run counselor-vs-simulator sessions")
    p.add_argument("--profiles", default=None, help="directory of client profiles")
    p.add_argument(
        "--counselor", choices=["active", "random", "fixed"], default="active"
    )
    p.add_argument("--out", default="runs", help="output directory for transcripts")
    p.set_defaults(func=cmd_run_dynamic)

    p = sub.add_parser("eval-offline", help="score state inference on annotated sessions")
    p.add_argument("--sessions", default=None, help="annotated sessions JSON")
    p.set_defaults(func=cmd_eval_offline)

    p = sub.add_parser("validate-sim", help="replay fixtures and report checks")
    p.add_argument("--profiles", default=None)
    p.set_defaults(func=cmd_validate_sim)

    p = sub.add_parser("repl", help="interactive session against a simulated client")
    p.add_argument("--profile", default=None, help="profile JSON file")
    p.add_argument(
        "--show-belief",
        action="store_true",
        help="display the tracked belief and suggested action each turn",
    )
    p.set_defaults(func=cmd_repl)

    p = sub.add_parser("selftest", help="print wired constants and run quick checks")
    p.set_defaults(func=cmd_selftest)

    for p in sub.choices.values():
        _add_config_flags(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, _cfg_from_args(args))
    except BackendUnavailableError as exc:
        print(f"backend failure: {exc}", file=sys.stderr)
        return 3
    except CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
