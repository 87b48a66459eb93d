"""The planner's report keeps its scores as arrays.

Its transcript form must be the bytes the per-action construction gave (one
``Categorical`` and Python-float total per action), its rows are checked as
distributions with ``Categorical``'s rule and messages, and it is read-only.
Each ``q_next`` row is bit for bit ``planner_prior`` of its action, for a
``TableModel`` and a count-based ``WorldModel`` alike, since the counselor takes
the chosen row as its next prior.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from statecoach.errors import DimensionMismatchError
from statecoach.planner import (
    PreferenceModel,
    _epistemic,
    _pragmatic,
    _rollout,
    planner_prior,
    select_action,
)
from statecoach.probs import Categorical, LabelSpace, uniform
from statecoach.world_model import TableModel, WorldModel

S2 = LabelSpace("s", ("s1", "s2"))
O2 = LabelSpace("o", ("o1", "o2"))
A3 = LabelSpace("a", ("A", "B", "C"))


def per_action_bytes(belief, model, labels, pref, lambda_e, lambda_p, repeat_penalty, last_action):
    """``json.dumps`` of the report as the per-action construction built it."""
    q_next, joint, p_obs = _rollout(belief, model, labels)
    epistemic, pragmatic = _epistemic(joint, p_obs), _pragmatic(p_obs, pref)
    scores = []
    for i, a in enumerate(labels):
        epi, prag = float(epistemic[i]), float(pragmatic[i])
        total = lambda_e * epi + lambda_p * prag
        if last_action is not None and a == last_action:
            total += repeat_penalty
        q = Categorical(belief.space, q_next[i])
        scores.append({
            "action": a, "epistemic": epi, "pragmatic": prag, "total": total,
            "q_next_prior": {l: float(p) for l, p in zip(q.space.labels, q.probs)},
        })
    best = min(range(len(scores)), key=lambda i: (scores[i]["total"], i))
    return json.dumps({"chosen": labels[best], "scores": scores})


# Weights with exact zeros, so rows, beliefs and p(o | a) hit zero cells.
WEIGHT = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1.0))


@st.composite
def distribution(draw, n):
    w = np.array(draw(st.lists(WEIGHT, min_size=n, max_size=n).filter(any)))
    return w / w.sum()


COUNT = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=50.0))
KAPPA = st.floats(min_value=0.05, max_value=5.0)


@st.composite
def count_table(draw, shape):
    n = int(np.prod(shape))
    return np.array(draw(st.lists(COUNT, min_size=n, max_size=n))).reshape(shape)


@st.composite
def planning_case(draw):
    n_s, n_a, n_c = draw(st.integers(2, 4)), draw(st.integers(1, 5)), draw(st.integers(2, 5))
    states = LabelSpace("s", tuple(f"s{i}" for i in range(n_s)))
    actions = LabelSpace("a", tuple(f"a{i}" for i in range(n_a)))
    cues = LabelSpace("o", tuple(f"o{i}" for i in range(n_c)))
    if draw(st.booleans()):  # every action scores the same: exact ties
        trans = {(s, a): np.full(n_s, 1 / n_s) for s in states.labels for a in actions.labels}
        obs = {s: np.full(n_c, 1 / n_c) for s in states.labels}
    else:
        trans = {(s, a): draw(distribution(n_s)) for s in states.labels for a in actions.labels}
        obs = {s: draw(distribution(n_c)) for s in states.labels}
    model = TableModel(states, actions, cues, trans, obs)
    if draw(st.booleans()):  # a WorldModel instead, every row smoothed from drawn counts
        model = WorldModel(states, actions, cues, kappa_t=draw(KAPPA), kappa_o=draw(KAPPA))
        model.transition_counts = draw(count_table((n_s, n_a, n_s)))
        model.observation_counts = draw(count_table((n_s, n_c)))
    prefs = draw(st.lists(st.floats(0.05, 1.0), min_size=n_c, max_size=n_c))
    lambda_e, lambda_p = draw(st.sampled_from([(0.4, 0.6), (1.0, 0.0), (0.0, 1.0), (0.7, 0.3)]))
    return (
        Categorical(states, draw(distribution(n_s))),
        model,
        actions.labels,
        PreferenceModel.from_weights(cues, dict(zip(cues.labels, prefs))),
        lambda_e,
        lambda_p,
        draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0))),
        draw(st.one_of(st.none(), st.sampled_from(actions.labels))),
    )


@settings(max_examples=150, deadline=None)
@given(planning_case())
def test_report_bytes_equal_the_per_action_construction(case):
    belief, model, labels, pref, lambda_e, lambda_p, penalty, last = case
    report = select_action(
        belief, model, labels, pref, lambda_e, lambda_p, repeat_penalty=penalty, last_action=last
    )
    assert json.dumps(report.as_dict()) == per_action_bytes(*case)
    best = labels.index(report.chosen)
    assert report.total[best] == report.total.min()
    assert (report.total[:best] > report.total.min()).all()
    for i, a in enumerate(labels):
        assert np.array_equal(report.q_next[i], planner_prior(belief, model, a).probs)


def test_tie_with_repeat_penalty_goes_to_the_next_earliest_action():
    model = TableModel(
        S2, A3, O2,
        {(s, a): np.array([0.5, 0.5]) for s in S2.labels for a in A3.labels},
        {s: np.array([0.5, 0.5]) for s in S2.labels},
    )
    pref = PreferenceModel.from_weights(O2, {"o1": 0.5, "o2": 0.5})
    report = select_action(uniform(S2), model, A3, pref, repeat_penalty=0.1, last_action="A")
    assert report.chosen == "B"
    assert report.total[0] > report.total[1] == report.total[2]


class StubModel:
    """Serves a transition array as given, unchecked, the way a faulty model could."""

    actions = A3

    def __init__(self, T, O=((0.9, 0.1), (0.2, 0.8))):
        self.T, self.O = T, np.array(O)

    def transitions(self):
        return self.T

    def observations(self):
        return self.O


def stub_with_rows(rows):
    """A model whose next-state row is ``rows[a]`` from every state."""
    return StubModel(np.array([[rows[a] for a in A3.labels] for _ in S2.labels]))


GOOD = [0.5, 0.5]


@pytest.mark.parametrize(
    "bad_row",
    [[0.45, 0.45], [1.1, -0.1], [np.nan, 0.5], [0.0, 0.0]],
    ids=["sums-to-0.9", "negative", "nan", "all-zero"],
)
def test_bad_row_raises_categoricals_error(bad_row):
    model = stub_with_rows({"A": GOOD, "B": bad_row, "C": GOOD})
    q_next, _, _ = _rollout(uniform(S2), model, A3.labels)
    with pytest.raises(ValueError) as want:
        Categorical(S2, q_next[1])
    pref = PreferenceModel.from_weights(O2, {"o1": 0.5, "o2": 0.5})
    with pytest.raises(ValueError) as got:
        select_action(uniform(S2), model, A3, pref)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


def test_first_bad_row_decides_the_error():
    # The per-action construction checked B first: its sum, not C's sign.
    model = stub_with_rows({"A": GOOD, "B": [0.45, 0.45], "C": [1.1, -0.1]})
    pref = PreferenceModel.from_weights(O2, {"o1": 0.5, "o2": 0.5})
    with pytest.raises(ValueError, match="must sum to 1"):
        select_action(uniform(S2), model, A3, pref)


def test_rows_of_another_length_raise_dimension_mismatch():
    # Three next states for a two-state belief: each row was a Categorical of the wrong length.
    model = StubModel(np.full((2, 3, 3), 1 / 3), O=np.full((3, 2), 0.5))
    pref = PreferenceModel.from_weights(O2, {"o1": 0.5, "o2": 0.5})
    with pytest.raises(DimensionMismatchError):
        select_action(uniform(S2), model, A3, pref)


def test_report_arrays_are_read_only_and_unknown_actions_raise():
    model = stub_with_rows({"A": GOOD, "B": [1.0, 0.0], "C": [0.2, 0.8]})
    pref = PreferenceModel.from_weights(O2, {"o1": 0.5, "o2": 0.5})
    report = select_action(uniform(S2), model, A3, pref)
    assert report.q_next.shape == (3, 2)
    for arr in (report.epistemic, report.pragmatic, report.total, report.q_next):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    score = report.score_for("C")
    assert score.q_next_prior.as_dict() == {"s1": 0.2, "s2": 0.8}
    assert score.total == float(report.total[2])
    with pytest.raises(KeyError):
        report.score_for("nope")
