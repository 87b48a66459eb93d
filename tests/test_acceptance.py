"""Acceptance gate: one test per release criterion.

Each test prints a single summary line so `pytest -v` (or `-s`) reads as a
criterion-by-criterion pass/fail report.  Tolerances and runtime budgets are
asserted inside the tests themselves.
"""

import math
import time

import numpy as np

from statecoach.backends import DATA_DIR, ScriptedBackend
from statecoach.belief import bayes_update, free_energy, fuse, widen
from statecoach.client_sim import (
    ClientProfile,
    ClientSession,
    TalkTypeTable,
    Trigger,
    TriggerMatch,
    act_kl,
    build_triggers,
    client_action_dist,
    content_gate,
    expected_delta_r,
    load_pop_prior,
    load_profiles,
    update_readiness,
)
from statecoach.config import RunConfig
from statecoach.harness import (
    ActiveCounselor,
    ScriptedCounselor,
    Transcript,
    TurnRecord,
    init_world_model,
    load_annotated_sessions,
    offline_eval,
    run_dialogue,
)
from statecoach.metrics import dynamic_metrics
from statecoach.planner import (
    PreferenceModel,
    epistemic_value,
    planner_prior,
    pragmatic_value,
    select_action,
)
from statecoach.probs import (
    Categorical,
    LabelSpace,
    entropy,
    from_dict,
    kl_divergence,
    point_mass,
    uniform,
)
from statecoach.vocab import CLIENT_ACTIONS, STAGES, TALK_TYPES
from statecoach.world_model import TableModel

S2 = LabelSpace("s", ("s1", "s2"))
S3 = LabelSpace("s", ("s1", "s2", "s3"))
O2 = LabelSpace("o", ("o1", "o2"))
O3 = LabelSpace("o", ("o1", "o2", "o3"))


def scripted():
    return ScriptedBackend()


def sim_fixtures():
    table = TalkTypeTable.from_file(DATA_DIR / "talk_type_table.json")
    pop = load_pop_prior(DATA_DIR / "pop_prior.json")
    profiles = load_profiles(DATA_DIR / "profiles")
    return table, pop, profiles


def test_criterion_1_free_energy_bound_and_information_identity():
    """1000 random models: variational bound, equality at the posterior,
    posterior minimality, and the entropy-difference identity, all to 1e-9."""
    start = time.perf_counter()
    rng = np.random.default_rng(42)

    for _ in range(1000):
        n = int(rng.integers(2, 6))
        space = LabelSpace("s", tuple(f"s{i}" for i in range(n)))
        prior = Categorical(space, rng.dirichlet(np.full(n, 1.5)))
        lik = rng.uniform(0.05, 1.0, n)
        bound = -math.log(float(prior.probs @ lik))
        post = bayes_update(prior, lik)
        f_star = free_energy(post, prior, lik)
        assert abs(f_star - bound) <= 1e-9
        for _ in range(100):
            q = Categorical(space, rng.dirichlet(np.full(n, 1.0)))
            f_q = free_energy(q, prior, lik)
            assert f_q >= bound - 1e-9
            assert f_star <= f_q + 1e-9

    cfg = RunConfig()
    for _ in range(1000):
        wm = init_world_model(cfg)
        wm.transition_counts += rng.random(wm.transition_counts.shape) * 5
        wm.observation_counts += rng.random(wm.observation_counts.shape) * 5
        q = Categorical(STAGES, rng.dirichlet(np.full(len(STAGES), 2.0)))
        action = str(rng.choice(wm.actions.labels))
        prior = planner_prior(q, wm, action)
        lhs = entropy(prior) - epistemic_value(q, wm, action)
        rhs = 0.0
        for cue in wm.cues.labels:
            col = wm.observation_likelihood(cue)
            p_o = float(prior.probs @ col)
            if p_o > 0:
                rhs += p_o * kl_divergence(bayes_update(prior, col), prior)
        assert abs(lhs - rhs) <= 1e-9

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 1: PASS (bound + identity on 1000 models, {elapsed:.1f}s)")


def test_criterion_2_hand_derived_arithmetic_fixtures():
    """Every hand-derived example value reproduced to 1e-9, recomputed here
    with plain arithmetic rather than the library's own helpers."""
    start = time.perf_counter()
    checks = []

    post = bayes_update(
        Categorical(S3, np.array([0.5, 0.3, 0.2])), np.array([0.1, 0.6, 0.3])
    )
    checks.append(("bayes posterior", post.probs, [0.05 / 0.29, 0.18 / 0.29, 0.06 / 0.29]))

    fused = fuse(
        Categorical(S3, np.array([0.7, 0.2, 0.1])),
        Categorical(S3, np.array([0.1, 0.8, 0.1])),
        0.35,
    )
    checks.append(
        ("soft fusion", fused.probs,
         [0.65 * 0.7 + 0.35 * 0.1, 0.65 * 0.2 + 0.35 * 0.8, 0.65 * 0.1 + 0.35 * 0.1])
    )

    widened = widen(point_mass(S3, "s1"), 0.50)
    checks.append(
        ("widened observation", widened.probs,
         [0.5 + 0.5 / 3, 0.5 / 3, 0.5 / 3])
    )

    first = Trigger("beliefs-0", "beliefs", "x", 0.2, np.array([1.0, 0.0]), hit_count=1)
    checks.append(
        ("gate first hit", content_gate([TriggerMatch(first, 0.6, True)]),
         0.1 + 0.9 * 0.6 * 1.0)
    )
    second = Trigger("beliefs-0", "beliefs", "x", 0.2, np.array([1.0, 0.0]), hit_count=2)
    checks.append(
        ("gate second hit", content_gate([TriggerMatch(second, 0.6, False)]),
         0.1 + 0.9 * 0.6 * 0.5)
    )

    row = from_dict(TALK_TYPES, {"change": 0.5, "neutral": 0.3, "sustain": 0.2})
    checks.append(
        ("expected readiness push", expected_delta_r(row),
         0.5 * 1.0 + 0.3 * 0.3 + 0.2 * -1.0)
    )

    checks.append(
        ("readiness trickle", update_readiness(0.0, 0.39, 0.1, []), 0.39 * 0.1)
    )
    checks.append(
        ("readiness with bonus", update_readiness(0.0, 0.39, 0.64, [0.5]),
         0.39 * 0.64 + 0.5)
    )

    profile = ClientProfile.from_dict(
        {
            "id": "c2", "topic": "t", "behavior": "b",
            "initial_stage": "contemplation",
            "action_counts": {"contemplation": {"Inform": 3.0, "Deny": 2.0}},
        }
    )
    pop = from_dict(CLIENT_ACTIONS, {"Inform": 0.2, "Engage": 0.8})
    dist = client_action_dist(profile, "contemplation", pop, alpha=5.0)
    checks.append(("dirichlet smoothing", dist.prob("Inform"), (3 + 5 * 0.2) / (5 + 5)))

    wm = init_world_model(RunConfig(obs_seed_count=0.0))
    wm.transition_counts[0, 0] = [9, 0, 0]
    trans_row = wm.transition_prob(STAGES.labels[0], wm.actions.labels[0])
    checks.append(
        ("transition smoothing", trans_row.probs,
         [(9 + 1 / 3) / 10, (1 / 3) / 10, (1 / 3) / 10])
    )

    wm2 = init_world_model(RunConfig(obs_seed_count=0.0))
    wm2.observation_counts[0] = [5, 5, 0, 0, 0, 0, 0]
    obs_row = wm2.observation_prob(STAGES.labels[0])
    n_cues = len(wm2.cues)
    want_obs = [(5 + 1 / n_cues) / 11, (5 + 1 / n_cues) / 11] + [
        (1 / n_cues) / 11
    ] * (n_cues - 2)
    checks.append(("observation smoothing", obs_row.probs, want_obs))

    m = TableModel(
        states=S2,
        actions=LabelSpace("a", ("act",)),
        cues=O2,
        transitions={(s, "act"): np.array([0.5, 0.5]) for s in S2.labels},
        observations={"s1": np.array([0.9, 0.1]), "s2": np.array([0.2, 0.8])},
    )

    def h(p):
        return -sum(x * math.log(x) for x in p if x > 0)

    want_epistemic = 0.55 * h([9 / 11, 2 / 11]) + 0.45 * h([1 / 9, 8 / 9])
    checks.append(
        ("epistemic value", epistemic_value(uniform(S2), m, "act"), want_epistemic)
    )

    flat = TableModel(
        states=S2,
        actions=LabelSpace("a", ("act",)),
        cues=O2,
        transitions={(s, "act"): np.array([0.5, 0.5]) for s in S2.labels},
        observations={s: np.array([0.5, 0.5]) for s in S2.labels},
    )
    pref = PreferenceModel.from_weights(O2, {"o1": 0.8, "o2": 0.2})
    want_pragmatic = 0.5 * -math.log(0.8) + 0.5 * -math.log(0.2)
    checks.append(
        ("pragmatic value", pragmatic_value(uniform(S2), flat, "act", pref),
         want_pragmatic)
    )

    for name, got, want in checks:
        assert np.allclose(np.asarray(got, dtype=float), np.asarray(want), atol=1e-9), (
            f"{name}: got {got}, want {want}"
        )

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 2: PASS ({len(checks)} hand-derived fixtures, {elapsed:.2f}s)")


def test_criterion_3_published_constants_golden_dump():
    """Every published default surfaces unchanged in the constants dump."""
    consts = RunConfig().dump_constants()
    golden = {
        "tau": 0.45,
        "theta_cov": 0.3,
        "theta_prep_default": 0.5,
        "talk_type_weights": {"change": 1.0, "neutral": 0.3, "sustain": -1.0},
        "alpha_dirichlet": 5.0,
        "lambda_e": 0.4,
        "lambda_p": 0.6,
        "beta": 0.35,
        "alpha_widths": [0.50, 0.65, 0.75, 0.85],
        "trigger_bonuses": {"beliefs": 0.2, "motivations": 0.4, "plans": 0.5},
        "dist_thres": 1.5,
        "k_relevant": 1,
        "context_n": 30,
        "consolidate_every": 12,
        "warmup_ratio": 0.5,
        "min_eval_turns": 3,
        "max_turns": 20,
        "seed": 42,
    }
    for key, want in golden.items():
        assert consts[key] == want, f"constant {key!r} drifted: {consts[key]!r}"
    print(f"criterion 3: PASS ({len(golden)} constants match the golden dump)")


def test_criterion_4_simulator_end_to_end():
    """Trigger-oracle counselor advances every fixture client; the
    token-disjoint generic counselor advances none; runs are byte-identical."""
    start = time.perf_counter()
    backend = scripted()
    table, pop, profiles = sim_fixtures()
    assert len(profiles) == 5
    for profile in profiles:
        assert len(build_triggers(profile, backend)) == 6

    def oracle_moves(profile):
        return [
            ("Simple Reflection", profile.beliefs[0]),
            ("Simple Reflection", profile.beliefs[1]),
            ("Give Information", profile.motivations[0]),
            ("Give Information", profile.motivations[1]),
            ("Give Information", profile.plans[0]),
            ("Give Information", profile.plans[1]),
        ]

    generic_moves = [
        ("Facilitate", "Mm-hmm."),
        ("Facilitate", "Right."),
        ("Facilitate", "Understood."),
        ("Facilitate", "Okay."),
    ]

    def run_suite():
        oracle_ts, generic_ts = [], []
        for profile in profiles:
            client = ClientSession(profile, table, backend, pop)
            oracle_ts.append(
                run_dialogue(
                    ScriptedCounselor(oracle_moves(profile)), client, RunConfig()
                )
            )
            client = ClientSession(profile, table, backend, pop)
            generic_ts.append(
                run_dialogue(
                    ScriptedCounselor(generic_moves),
                    client,
                    RunConfig(early_stop=False),
                )
            )
        return oracle_ts, generic_ts

    oracle_ts, generic_ts = run_suite()

    # ceil(0.3 * 6) = 2 distinct-trigger turns to reach contemplation.
    for t in oracle_ts:
        assert t.records[1].sim_stage == "contemplation", t.profile_id
    prep = sum(t.final_stage == "preparation" for t in oracle_ts)
    assert prep >= 4

    for t in generic_ts:
        assert len(t.records) == 20
        assert t.final_stage == "precontemplation"
        assert all(r.sim_stage == "precontemplation" for r in t.records)
        assert t.discovered_ids == set()

    again_oracle, again_generic = run_suite()
    assert [t.to_jsonl() for t in oracle_ts] == [t.to_jsonl() for t in again_oracle]
    assert [t.to_jsonl() for t in generic_ts] == [t.to_jsonl() for t in again_generic]

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(
        f"criterion 4: PASS (oracle prep {prep}/5, generic frozen 5/5, "
        f"byte-identical, {elapsed:.1f}s)"
    )


def test_criterion_5_planner_discrimination_and_scale_invariance():
    """The planner tells informative from uninformative actions apart, chases
    preferred cues under pure exploitation, and ignores positive rescaling."""
    start = time.perf_counter()
    probe = TableModel(
        states=S3,
        actions=LabelSpace("a", ("A", "B")),
        cues=O3,
        transitions={
            **{(s, "A"): np.array([0.5, 0.5, 0.0]) for s in S3.labels},
            **{(s, "B"): np.array([0.5, 0.0, 0.5]) for s in S3.labels},
        },
        observations={
            "s1": np.array([1 / 3, 1 / 3, 1 / 3]),
            "s2": np.array([1 / 3, 1 / 3, 1 / 3]),
            "s3": np.array([0.0, 0.0, 1.0]),
        },
    )
    flat_pref = PreferenceModel.from_weights(O3, {"o1": 1.0, "o2": 1.0, "o3": 1.0})
    explore = select_action(uniform(S3), probe, ("A", "B"), flat_pref, 1.0, 0.0)
    assert explore.chosen == "B"
    assert explore.score_for("B").epistemic < explore.score_for("A").epistemic

    goal_pref = PreferenceModel.from_weights(O3, {"o1": 0.1, "o2": 0.1, "o3": 0.8})
    exploit = select_action(uniform(S3), probe, ("A", "B"), goal_pref, 0.0, 1.0)
    assert exploit.chosen == "B"
    assert exploit.score_for("B").pragmatic < exploit.score_for("A").pragmatic

    rng = np.random.default_rng(42)
    actions = ("A", "B", "C")
    for _ in range(1000):
        trans = {(s, a): rng.dirichlet(np.ones(3)) for s in S3.labels for a in actions}
        obs = {s: rng.dirichlet(np.ones(3)) for s in S3.labels}
        m = TableModel(S3, LabelSpace("a", actions), O3, trans, obs)
        pref = PreferenceModel.from_weights(
            O3, {c: float(w) for c, w in zip(O3.labels, rng.uniform(0.1, 1.0, 3))}
        )
        belief = Categorical(S3, rng.dirichlet(np.ones(3)))
        le, lp = rng.uniform(0.05, 1.0, 2)
        scale = float(rng.uniform(0.01, 100.0))
        plain = select_action(belief, m, actions, pref, le, lp).chosen
        scaled = select_action(belief, m, actions, pref, le * scale, lp * scale).chosen
        assert plain == scaled

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"criterion 5: PASS (discrimination + 1000 rescaling fixtures, {elapsed:.1f}s)")


def _metric_record(turn, stage, matched=()):
    return TurnRecord(
        turn=turn,
        counselor_action="Open Question",
        counselor_text="q",
        client_action="Inform",
        client_text="a",
        gold_stage=None,
        sim_stage=stage,
        readiness=0.0,
        belief=None,
        efe=None,
        matched_trigger_ids=list(matched),
    )


def test_criterion_6_metric_correctness():
    """Hand-counted metric values on a ten-turn fixture, to 1e-12."""
    reached = Transcript(
        profile_id="a", initial_stage="precontemplation", n_triggers=6, opening="",
        records=[
            _metric_record(1, "precontemplation", ("beliefs-0",)),
            _metric_record(2, "contemplation", ("beliefs-1",)),
            _metric_record(3, "contemplation", ("motivations-0",)),
            _metric_record(4, "preparation"),
        ],
    )
    stalled = Transcript(
        profile_id="b", initial_stage="precontemplation", n_triggers=6, opening="",
        records=[
            _metric_record(1, "precontemplation", ("beliefs-0",)),
            _metric_record(2, "precontemplation", ("beliefs-1",)),
            _metric_record(3, "contemplation", ("plans-0",)),
            _metric_record(4, "contemplation"),
            _metric_record(5, "contemplation"),
            _metric_record(6, "contemplation"),
        ],
    )
    assert len(reached.records) + len(stalled.records) == 10
    m = dynamic_metrics([reached, stalled])
    assert abs(m.lift - 1.5) <= 1e-12
    assert abs(m.prep_rate - 0.5) <= 1e-12
    assert abs(m.trig_cov - 0.5) <= 1e-12
    assert abs(m.avg_turns - 5.0) <= 1e-12

    sessions = [s for s in load_annotated_sessions() if s["id"] == "hand-count"]
    got = offline_eval(sessions, RunConfig(), scripted())
    assert abs(got["curr_acc"] - 2 / 3) <= 1e-12

    u = uniform(CLIENT_ACTIONS)
    assert act_kl(u, u) == 0.0
    point = point_mass(CLIENT_ACTIONS, "Inform")
    assert abs(act_kl(point, u) - math.log(len(CLIENT_ACTIONS))) < 1e-3
    print(
        "criterion 6: PASS (lift 1.5, prep 0.5, coverage 0.5, curr_acc 2/3, "
        "divergence endpoints)"
    )


def test_criterion_7_ablation_structure():
    """The four flag configurations separate into at least two distinct metric
    vectors, and switching the planner off provably removes prior fusion."""
    backend = scripted()
    table, pop, profiles = sim_fixtures()
    configs = {
        "full": RunConfig(),
        "no_fusion": RunConfig(disable_planner=True),
        "no_efe": RunConfig(efe_action=False),
        "hard_counts": RunConfig(hard_counts=True),
    }
    vectors = {}
    no_fusion_ts = None
    for name, cfg in configs.items():
        ts = []
        for profile in profiles:
            counselor = ActiveCounselor(backend, cfg, session_id=profile.id)
            client = ClientSession(
                profile, table, backend, pop,
                tau=cfg.tau, theta_cov=cfg.theta_cov, theta_prep=cfg.theta_prep,
                alpha=cfg.alpha_dirichlet, seed=cfg.seed,
            )
            ts.append(run_dialogue(counselor, client, cfg))
        m = dynamic_metrics(ts)
        vectors[name] = (
            round(m.lift, 9), round(m.prep_rate, 9),
            round(m.trig_cov, 9), round(m.avg_turns, 9),
        )
        if name == "no_fusion":
            no_fusion_ts = ts

    assert len(set(vectors.values())) >= 2, vectors

    for t in no_fusion_ts:
        for rec in t.records:
            belief = rec.belief
            assert belief["beta"] == 0.0
            for stage, value in belief["q"].items():
                assert abs(value - belief["p_obs"][stage]) <= 1e-12

    distinct = len(set(vectors.values()))
    print(f"criterion 7: PASS ({distinct} distinct metric vectors: {vectors})")
