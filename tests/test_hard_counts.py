"""Hard counts are the belief-weighted update fed argmax point masses.

``WorldModel`` has one update rule.  The ``hard_counts`` ablation credits the
point mass of each belief's argmax stage instead of the belief, which must give
counts bit-equal to committing one count at the argmax cells directly: a point
mass row adds exactly 1.0 to one cell and 0.0 to every other, and
``argmax_label`` breaks ties toward the smaller index.  The reference below is
that direct form, written out here so the equivalence is checked, not assumed.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from statecoach.backends import ScriptedBackend
from statecoach.config import RunConfig
from statecoach.harness import BeliefTracker, init_world_model
from statecoach.probs import Categorical, point_mass
from statecoach.vocab import COUNSELOR_ACTIONS, CUES, STAGES


def reference_hard_update(wm, q_prev, action, q_curr, cue):
    """One count at (argmax q_prev, action, argmax q_curr) and (argmax q_curr, cue)."""
    i = STAGES.index(q_prev.argmax_label())
    k = STAGES.index(q_curr.argmax_label())
    wm.transition_counts[i, COUNSELOR_ACTIONS.index(action), k] += 1.0
    reference_hard_observation(wm, q_curr, cue)


def reference_hard_observation(wm, q, cue):
    wm.observation_counts[STAGES.index(q.argmax_label()), CUES.index(cue)] += 1.0


def hard(q):
    return point_mass(q.space, q.argmax_label())


# Small integer weights make exact argmax ties common.
beliefs = st.lists(st.integers(0, 3), min_size=3, max_size=3).filter(any).map(
    lambda w: Categorical(STAGES, np.array(w, dtype=float) / sum(w))
)
turns = st.lists(
    st.tuples(beliefs, st.sampled_from(COUNSELOR_ACTIONS.labels), st.sampled_from(CUES.labels)),
    min_size=1,
    max_size=12,
)


@settings(max_examples=150, deadline=None)
@given(first=beliefs, first_cue=st.sampled_from(CUES.labels), turns=turns,
       seed=st.integers(0, 2**32 - 1))
def test_point_mass_updates_equal_the_hard_branch(first, first_cue, turns, seed):
    rng = np.random.default_rng(seed)
    model, ref = init_world_model(RunConfig()), init_world_model(RunConfig())
    # Fractional starting counts: adding 0.0 must leave every other cell as it was.
    model.transition_counts += rng.random(model.transition_counts.shape) * 3
    model.observation_counts += rng.random(model.observation_counts.shape) * 3
    ref.transition_counts[:] = model.transition_counts
    ref.observation_counts[:] = model.observation_counts

    model.add_observation(hard(first), first_cue)
    reference_hard_observation(ref, first, first_cue)
    q_prev = first
    for q, action, cue in turns:
        model.update(hard(q_prev), action, hard(q), cue)
        reference_hard_update(ref, q_prev, action, q, cue)
        q_prev = q
    assert np.array_equal(model.transition_counts, ref.transition_counts)
    assert np.array_equal(model.observation_counts, ref.observation_counts)


UTTERANCES = [
    "I don't see a problem with it, everyone does it.",
    "Maybe I could think about it.",
    "I'm not sure.",
    "I have been thinking about cutting down, it would help my sleep.",
    "I could cut down to two a day.",
    "Yeah.",
    "I will start on Monday and tell my sister about the plan.",
]


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(
    st.tuples(st.sampled_from(UTTERANCES), st.sampled_from(COUNSELOR_ACTIONS.labels)),
    min_size=1,
    max_size=10,
))
def test_tracker_credits_argmax_point_masses_under_hard_counts(steps):
    backend = ScriptedBackend()
    cfg = RunConfig(hard_counts=True)
    tracker = BeliefTracker(cfg)
    ref = init_world_model(cfg)
    q_prev = action_prev = None
    for utterance, action in steps:
        cue = backend.classify_talk_type(utterance)
        tracker.observe(utterance, cue)
        if action_prev is None:
            reference_hard_observation(ref, tracker.q, cue)
        else:
            reference_hard_update(ref, q_prev, action_prev, tracker.q, cue)
        tracker.act(action)
        q_prev, action_prev = tracker.q, action
    assert np.array_equal(tracker.wm.transition_counts, ref.transition_counts)
    assert np.array_equal(tracker.wm.observation_counts, ref.observation_counts)
