"""The belief step's Python-float paths equal the numpy expressions they replace.

``observation_likelihood``, ``planner_prior``, ``mix`` and ``bayes_update``
do their arithmetic on the Python floats of one ``tolist()``.  Each reference
below is the numpy expression the package used before, kept here; every path
must give the reference's value bit for bit (signed zeros included), or raise
the same error type with the same message.  The references run with numpy's
floating-point warnings off, since the float paths have no such warnings to
give: an overflow or ``0 * inf`` yields the same inf or NaN either way.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from statecoach.belief import _evidence, bayes_update
from statecoach.errors import WeightOutOfRangeError, ZeroEvidenceError
from statecoach.planner import _predict, planner_prior
from statecoach.probs import Categorical, LabelSpace, mix
from statecoach.world_model import TableModel, WorldModel, _smoothed


def space(name, n):
    return LabelSpace(name, tuple(f"{name}{i}" for i in range(n)))


def outcome(f, *args):
    """The bytes of what ``f`` returns (a Categorical's vector or an array),
    or the type and message of what it raises."""
    with np.errstate(all="ignore"):
        try:
            out = f(*args)
        except Exception as exc:  # the error itself is what is compared
            return type(exc), str(exc)
    out = out.probs if isinstance(out, Categorical) else out
    return np.asarray(out, dtype=float).tobytes()


# Counts with zeros (both signs), fractions, tiny values and values near 1e300.
COUNT = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1.0, 3.0]),
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=1e-300, max_value=1e-290),
    st.floats(min_value=1e299, max_value=1e300),
)
KAPPA = st.one_of(st.just(1.0), st.floats(min_value=1e-6, max_value=1e6))

# Weights with exact zeros, so vectors and rows hit zero cells.
WEIGHT = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(min_value=1e-3, max_value=1.0))


@st.composite
def counts(draw, shape):
    n = int(np.prod(shape))
    return np.array(draw(st.lists(COUNT, min_size=n, max_size=n))).reshape(shape)


@st.composite
def distribution(draw, n):
    """A vector over n entries that ``Categorical`` accepts, zeros included."""
    w = np.array(draw(st.lists(WEIGHT, min_size=n, max_size=n).filter(any)))
    return w / np.add.reduce(w)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.integers(1, 20), KAPPA, st.data())
def test_observation_likelihood_is_the_smoothed_column(n_s, n_c, kappa, data):
    # 1 to 20 cue columns: row totals below and from _PAIRWISE_FROM entries.
    model = WorldModel(space("s", n_s), space("a", 1), space("o", n_c), kappa_o=kappa)
    model.observation_counts = data.draw(counts((n_s, n_c)))
    for c, cue in enumerate(model.cues.labels):
        want = outcome(lambda: _smoothed(model.observation_counts, kappa)[:, c])
        assert outcome(model.observation_likelihood, cue) == want


@st.composite
def predict_case(draw):
    n_s, n_a = draw(st.integers(1, 10)), draw(st.integers(1, 2))
    states, actions = space("s", n_s), space("a", n_a)
    if draw(st.booleans()):
        model = WorldModel(states, actions, space("o", 2), kappa_t=draw(KAPPA))
        model.transition_counts = draw(counts((n_s, n_a, n_s)))
    else:
        rows = {(s, a): draw(distribution(n_s)) for s in states.labels for a in actions.labels}
        model = TableModel(states, actions, space("o", 1), rows, {s: [1.0] for s in states.labels})
    belief = Categorical(states, draw(distribution(n_s)))
    return belief, model, draw(st.sampled_from(actions.labels))


@settings(max_examples=200, deadline=None)
@given(predict_case())
def test_planner_prior_is_the_predicted_row(case):
    belief, model, action = case

    def reference():
        return Categorical(belief.space, _predict(belief, model, (action,))[0])

    assert outcome(planner_prior, belief, model, action) == outcome(reference)


def mix_reference(a, b, weight):
    """``mix`` as numpy computed it, for two vectors over one space."""
    if not (0.0 <= weight <= 1.0):
        raise WeightOutOfRangeError(f"mixing weight must be in [0, 1], got {weight}")
    return Categorical(a.space, (1.0 - weight) * a.probs + weight * b.probs)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 10).flatmap(lambda n: st.tuples(distribution(n), distribution(n))),
    st.one_of(st.sampled_from([0.0, 1.0, 0, 1, 0.35, np.nan, -0.1, 1.5]), st.floats(0.0, 1.0)),
)
def test_mix_is_the_numpy_combination(pair, weight):
    s = space("s", len(pair[0]))
    a, b = Categorical(s, pair[0]), Categorical(s, pair[1])
    assert outcome(mix, a, b, weight) == outcome(mix_reference, a, b, weight)


def bayes_reference(prior, likelihood):
    """``bayes_update`` as numpy computed it."""
    joint = prior.probs * _evidence(likelihood, prior)[0]
    evidence = np.add.reduce(joint)
    if evidence <= 0:
        raise ZeroEvidenceError("prior and likelihood have disjoint support; posterior undefined")
    return Categorical(prior.space, joint / evidence)


LIKELIHOOD = st.one_of(
    WEIGHT,
    st.floats(min_value=0.0, max_value=1e300),
    st.sampled_from([np.inf, np.nan, -1.0, 5e-324]),
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 10).flatmap(
        lambda n: st.tuples(distribution(n), st.lists(LIKELIHOOD, min_size=n, max_size=n))
    )
)
def test_bayes_update_is_the_numpy_posterior(case):
    prior = Categorical(space("s", len(case[0])), case[0])
    assert outcome(bayes_update, prior, case[1]) == outcome(bayes_reference, prior, case[1])


@pytest.mark.parametrize(
    "likelihood, error",
    [([0.0, 0.5, 0.5], ZeroEvidenceError), ([np.nan, 0.5, 0.5], ValueError),
     ([np.inf, 0.5, 0.5], None)],
    ids=["zero-evidence", "nan", "inf"],
)
def test_bayes_update_edge_cases_match(likelihood, error):
    prior = Categorical(space("s", 3), [1.0, 0.0, 0.0])
    got = outcome(bayes_update, prior, likelihood)
    assert got == outcome(bayes_reference, prior, likelihood)
    if error is None:  # inf / inf: the posterior is NaN, which Categorical rejects
        assert got == (ValueError, "probabilities must sum to 1, got np.float64(nan)")
    else:
        assert got[0] is error
