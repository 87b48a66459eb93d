import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from statecoach.belief import bayes_update
from statecoach.errors import DimensionMismatchError, EmptyActionSetError, InvalidWeightsError
from statecoach.planner import (
    _rollout,
    DEFAULT_LAMBDA_E,
    DEFAULT_LAMBDA_P,
    PreferenceModel,
    epistemic_value,
    planner_prior,
    pragmatic_value,
    select_action,
)
from statecoach.probs import Categorical, LabelSpace, entropy, kl_divergence, uniform
from statecoach.vocab import COUNSELOR_ACTIONS, CUES, STAGES
from statecoach.world_model import TableModel, WorldModel

S3 = LabelSpace("s", ("s1", "s2", "s3"))
S2 = LabelSpace("s", ("s1", "s2"))
O2 = LabelSpace("o", ("o1", "o2"))
O3 = LabelSpace("o", ("o1", "o2", "o3"))


def two_state_model():
    return TableModel(
        states=S2,
        actions=LabelSpace("a", ("act",)),
        cues=O2,
        transitions={(s, "act"): np.array([0.5, 0.5]) for s in S2.labels},
        observations={"s1": np.array([0.9, 0.1]), "s2": np.array([0.2, 0.8])},
    )


def probe_model():
    """Two actions over three states: A's outcomes look identical through the
    observation model, B's can be told apart.  Both predictive distributions
    have entropy ln 2."""
    return TableModel(
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


def test_default_lambdas():
    assert (DEFAULT_LAMBDA_E, DEFAULT_LAMBDA_P) == (0.4, 0.6)


def test_preference_model_normalizes_and_logs():
    pref = PreferenceModel.from_weights(O2, {"o1": 0.8, "o2": 0.2})
    assert np.allclose(np.exp(pref.log_pref), [0.8, 0.2])
    assert np.allclose(pref.log_pref, np.log([0.8, 0.2]))
    with pytest.raises(ValueError):
        PreferenceModel.from_weights(O2, {"o1": 1.0, "o2": 0.0})


def test_default_preference_covers_all_cues():
    pref = PreferenceModel.default()
    assert math.isclose(float(np.exp(pref.log_pref).sum()), 1.0, abs_tol=1e-12)
    assert len(pref.log_pref) == 7


def p_obs(belief, model, action):
    """p(o | action) from the planner's rollout."""
    return _rollout(belief, model, (action,))[2][0]


def test_predict_obs_dist_mixture():
    m = two_state_model()
    out = p_obs(uniform(S2), m, "act")
    assert np.allclose(out, [0.55, 0.45], atol=1e-12)


def test_predict_obs_dist_uniform_rows_uninformative():
    m = TableModel(
        states=S2,
        actions=LabelSpace("a", ("act",)),
        cues=O2,
        transitions={(s, "act"): np.array([0.9, 0.1]) for s in S2.labels},
        observations={s: np.array([0.5, 0.5]) for s in S2.labels},
    )
    assert np.allclose(p_obs(uniform(S2), m, "act"), [0.5, 0.5])


def test_epistemic_value_two_state_hand_value():
    m = two_state_model()
    want = 0.55 * entropy(Categorical(S2, np.array([9 / 11, 2 / 11]))) + 0.45 * entropy(
        Categorical(S2, np.array([1 / 9, 8 / 9]))
    )
    assert epistemic_value(uniform(S2), m, "act") == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(0.41775, abs=1e-5)


def test_epistemic_value_identifying_observations_zero():
    m = TableModel(
        states=S2,
        actions=LabelSpace("a", ("act",)),
        cues=O2,
        transitions={(s, "act"): np.array([0.5, 0.5]) for s in S2.labels},
        observations={"s1": np.array([1.0, 0.0]), "s2": np.array([0.0, 1.0])},
    )
    assert epistemic_value(uniform(S2), m, "act") == pytest.approx(0.0, abs=1e-12)


def test_epistemic_value_identical_rows_keeps_prior_entropy():
    m = TableModel(
        states=S2,
        actions=LabelSpace("a", ("act",)),
        cues=O2,
        transitions={(s, "act"): np.array([0.7, 0.3]) for s in S2.labels},
        observations={s: np.array([0.6, 0.4]) for s in S2.labels},
    )
    q_next = Categorical(S2, np.array([0.7, 0.3]))
    assert epistemic_value(uniform(S2), m, "act") == pytest.approx(
        entropy(q_next), abs=1e-12
    )


def test_pragmatic_value_hand_value():
    m = TableModel(
        states=S2,
        actions=LabelSpace("a", ("act",)),
        cues=O2,
        transitions={(s, "act"): np.array([0.5, 0.5]) for s in S2.labels},
        observations={s: np.array([0.5, 0.5]) for s in S2.labels},
    )
    pref = PreferenceModel.from_weights(O2, {"o1": 0.8, "o2": 0.2})
    want = 0.5 * -math.log(0.8) + 0.5 * -math.log(0.2)
    assert pragmatic_value(uniform(S2), m, "act", pref) == pytest.approx(want, abs=1e-12)


def test_expected_free_energy_is_weighted_sum():
    m = two_state_model()
    pref = PreferenceModel.from_weights(O2, {"o1": 0.8, "o2": 0.2})
    epi = epistemic_value(uniform(S2), m, "act")
    prag = pragmatic_value(uniform(S2), m, "act", pref)
    got = select_action(uniform(S2), m, ("act",), pref).score_for("act").total
    assert got == pytest.approx(0.4 * epi + 0.6 * prag, abs=1e-12)


def test_invalid_weights_rejected():
    m = two_state_model()
    pref = PreferenceModel.from_weights(O2, {"o1": 0.8, "o2": 0.2})
    with pytest.raises(InvalidWeightsError):
        select_action(uniform(S2), m, ("act",), pref, lambda_e=-0.1, lambda_p=1)
    with pytest.raises(InvalidWeightsError):
        select_action(uniform(S2), m, ("act",), pref, lambda_e=0, lambda_p=0)


def test_pure_exploration_picks_identifying_action():
    m = probe_model()
    pref = PreferenceModel.from_weights(O3, {"o1": 1.0, "o2": 1.0, "o3": 1.0})
    report = select_action(uniform(S3), m, ("A", "B"), pref, lambda_e=1.0, lambda_p=0.0)
    assert report.chosen == "B"
    assert report.score_for("B").epistemic < report.score_for("A").epistemic


def test_pure_exploitation_picks_preferred_cue_action():
    m = probe_model()
    pref = PreferenceModel.from_weights(O3, {"o1": 0.1, "o2": 0.1, "o3": 0.8})
    report = select_action(uniform(S3), m, ("A", "B"), pref, lambda_e=0.0, lambda_p=1.0)
    assert report.chosen == "B"
    assert report.score_for("B").pragmatic < report.score_for("A").pragmatic


def test_uniform_preference_makes_pragmatic_constant():
    m = probe_model()
    pref = PreferenceModel.from_weights(O3, {"o1": 1.0, "o2": 1.0, "o3": 1.0})
    report = select_action(uniform(S3), m, ("A", "B"), pref)
    assert report.score_for("A").pragmatic == pytest.approx(
        report.score_for("B").pragmatic, abs=1e-12
    )


def test_tie_breaks_to_first_action():
    m = TableModel(
        states=S2,
        actions=LabelSpace("a", ("A", "B")),
        cues=O2,
        transitions={(s, a): np.array([0.5, 0.5]) for s in S2.labels for a in ("A", "B")},
        observations={s: np.array([0.5, 0.5]) for s in S2.labels},
    )
    pref = PreferenceModel.from_weights(O2, {"o1": 0.5, "o2": 0.5})
    assert select_action(uniform(S2), m, ("A", "B"), pref).chosen == "A"
    assert select_action(uniform(S2), m, ("B", "A"), pref).chosen == "B"


def test_repeat_penalty_moves_choice_off_last_action():
    m = TableModel(
        states=S2,
        actions=LabelSpace("a", ("A", "B")),
        cues=O2,
        transitions={(s, a): np.array([0.5, 0.5]) for s in S2.labels for a in ("A", "B")},
        observations={s: np.array([0.5, 0.5]) for s in S2.labels},
    )
    pref = PreferenceModel.from_weights(O2, {"o1": 0.5, "o2": 0.5})
    report = select_action(uniform(S2), m, ("A", "B"), pref, repeat_penalty=0.1, last_action="A")
    assert report.chosen == "B"
    with pytest.raises(ValueError):
        select_action(uniform(S2), m, ("A", "B"), pref, repeat_penalty=-1.0)


def test_empty_action_set_raises():
    m = two_state_model()
    pref = PreferenceModel.from_weights(O2, {"o1": 0.5, "o2": 0.5})
    with pytest.raises(EmptyActionSetError):
        select_action(uniform(S2), m, (), pref)


def test_positive_rescaling_never_changes_choice():
    rng = np.random.default_rng(7)
    for _ in range(50):
        obs = {s: rng.dirichlet(np.ones(3)) for s in S3.labels}
        trans = {
            (s, a): rng.dirichlet(np.ones(3))
            for s in S3.labels
            for a in ("A", "B", "C")
        }
        m = TableModel(S3, LabelSpace("a", ("A", "B", "C")), O3, trans, obs)
        pref = PreferenceModel.from_weights(
            O3, {c: float(w) for c, w in zip(O3.labels, rng.uniform(0.1, 1.0, 3))}
        )
        belief = Categorical(S3, rng.dirichlet(np.ones(3)))
        le, lp = rng.uniform(0.1, 1.0, 2)
        scale = float(rng.uniform(0.01, 100))
        a1 = select_action(belief, m, ("A", "B", "C"), pref, le, lp).chosen
        a2 = select_action(belief, m, ("A", "B", "C"), pref, le * scale, lp * scale).chosen
        assert a1 == a2


def test_mutual_information_identity_on_random_models():
    rng = np.random.default_rng(11)
    for _ in range(50):
        obs = {s: rng.dirichlet(np.ones(3)) for s in S3.labels}
        trans = {(s, "act"): rng.dirichlet(np.ones(3)) for s in S3.labels}
        m = TableModel(S3, LabelSpace("a", ("act",)), O3, trans, obs)
        belief = Categorical(S3, rng.dirichlet(np.ones(3)))
        q_next = planner_prior(belief, m, "act")
        expected_post_entropy = epistemic_value(belief, m, "act")
        expected_kl = 0.0
        for j, cue in enumerate(O3.labels):
            col = m.observation_likelihood(cue)
            p_o = float(q_next.probs @ col)
            if p_o > 0:
                expected_kl += p_o * kl_divergence(bayes_update(q_next, col), q_next)
        lhs = entropy(q_next) - expected_post_entropy
        assert lhs == pytest.approx(expected_kl, abs=1e-9)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_belief_over_another_number_of_states_is_a_dimension_mismatch(n):
    belief = uniform(LabelSpace("b", tuple(f"b{i}" for i in range(n))))
    wm, pref = WorldModel(), PreferenceModel.default()
    sizes = f"belief over {n} states of 'b', but the model has {len(STAGES)} states"
    for call in (
        lambda: select_action(belief, wm, COUNSELOR_ACTIONS, pref),
        lambda: epistemic_value(belief, wm, "Open Question"),
        lambda: pragmatic_value(belief, wm, "Open Question", pref),
    ):
        with pytest.raises(DimensionMismatchError, match=sizes):
            call()
    with pytest.raises(DimensionMismatchError):
        planner_prior(belief, wm, "Open Question")


def test_planner_prior_matches_predictive_distribution():
    m = two_state_model()
    out = planner_prior(Categorical(S2, np.array([0.3, 0.7])), m, "act")
    assert np.allclose(out.probs, [0.5, 0.5])


def reference_scores(belief, model, action, pref):
    """Per-state, per-cue scoring of one action, written from bayes_update
    and entropy: the formulation the array path replaced, kept as reference."""
    q_next = np.zeros(len(model.states))
    for i, s in enumerate(model.states.labels):
        if belief.probs[i] > 0:
            q_next += belief.probs[i] * model.transition_prob(s, action).probs
    obs = np.zeros(len(model.cues))
    for i, s in enumerate(model.states.labels):
        if q_next[i] > 0:
            obs += q_next[i] * model.observation_prob(s).probs
    prior = Categorical(model.states, q_next)
    epistemic = 0.0
    for j, cue in enumerate(model.cues.labels):
        if obs[j] > 0:
            posterior = bayes_update(prior, model.observation_likelihood(cue))
            epistemic += obs[j] * entropy(posterior)
    return float(epistemic), float(-np.sum(obs * pref.log_pref)), q_next


def assert_matches_reference(belief, model, pref):
    report = select_action(belief, model, model.actions, pref)
    for a in model.actions.labels:
        epistemic, pragmatic, q_next = reference_scores(belief, model, a, pref)
        score = report.score_for(a)
        assert score.epistemic == epistemic
        assert score.pragmatic == pragmatic
        assert np.array_equal(score.q_next_prior.probs, q_next)


# Weights with exact zeros, so rows, beliefs and p(o | a) hit zero cells.
WEIGHT = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1.0))


@st.composite
def distribution(draw, n):
    w = np.array(draw(st.lists(WEIGHT, min_size=n, max_size=n).filter(any)))
    return w / w.sum()


@st.composite
def table_case(draw):
    n_s, n_a, n_c = (draw(st.integers(2, 4)), draw(st.integers(1, 4)), draw(st.integers(2, 5)))
    states = LabelSpace("s", tuple(f"s{i}" for i in range(n_s)))
    actions = LabelSpace("a", tuple(f"a{i}" for i in range(n_a)))
    cues = LabelSpace("o", tuple(f"o{i}" for i in range(n_c)))
    trans = {(s, a): draw(distribution(n_s)) for s in states.labels for a in actions.labels}
    obs = {s: draw(distribution(n_c)) for s in states.labels}
    prefs = draw(st.lists(st.floats(0.05, 1.0), min_size=n_c, max_size=n_c))
    return (
        Categorical(states, draw(distribution(n_s))),
        TableModel(states, actions, cues, trans, obs),
        PreferenceModel.from_weights(cues, dict(zip(cues.labels, prefs))),
    )


@settings(max_examples=150, deadline=None)
@given(table_case())
def test_one_pass_scores_equal_reference_on_tables_with_zero_cells(case):
    assert_matches_reference(*case)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), distribution(len(STAGES)))
def test_one_pass_scores_equal_reference_on_count_models(seed, q):
    rng = np.random.default_rng(seed)
    wm = WorldModel(kappa_t=float(rng.uniform(0.1, 3.0)), kappa_o=float(rng.uniform(0.1, 3.0)))
    shape_t, shape_o = wm.transition_counts.shape, wm.observation_counts.shape
    wm.transition_counts += rng.random(shape_t) * 5 * (rng.random(shape_t) < 0.5)
    wm.observation_counts += rng.random(shape_o) * 5 * (rng.random(shape_o) < 0.5)
    assert wm.actions is COUNSELOR_ACTIONS and wm.cues is CUES
    assert_matches_reference(Categorical(STAGES, q), wm, PreferenceModel.default())
