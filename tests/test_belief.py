import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from statecoach.belief import (
    ALPHA_WIDTHS,
    DEFAULT_BETA,
    HEDGE_TERMS,
    BeliefState,
    _evidence,
    bayes_update,
    free_energy,
    fuse,
    length_aware_alpha,
    widen,
    widen_observation,
)
from statecoach.errors import DimensionMismatchError, EmptyTextError, ZeroEvidenceError
from statecoach.planner import planner_prior
from statecoach.probs import Categorical, LabelSpace, point_mass, uniform
from statecoach.world_model import TableModel

S3 = LabelSpace("s", ("s1", "s2", "s3"))
S2 = LabelSpace("s", ("s1", "s2"))


def model_with_rows(rows):
    return TableModel(
        states=S3,
        actions=LabelSpace("a", ("act",)),
        cues=LabelSpace("o", ("o1",)),
        transitions={(s, "act"): np.array(r) for s, r in zip(S3.labels, rows)},
        observations={s: np.array([1.0]) for s in S3.labels},
    )


def test_planner_prior_point_mass_returns_row():
    m = model_with_rows([[0.6, 0.3, 0.1], [1, 0, 0], [1, 0, 0]])
    out = planner_prior(point_mass(S3, "s1"), m, "act")
    assert np.allclose(out.probs, [0.6, 0.3, 0.1])


def test_planner_prior_identity_dynamics():
    m = model_with_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    prev = Categorical(S3, np.array([0.2, 0.5, 0.3]))
    assert np.allclose(planner_prior(prev, m, "act").probs, prev.probs)


def test_planner_prior_mixture():
    m = model_with_rows([[0.8, 0.2, 0], [0.2, 0.8, 0], [0, 0, 1]])
    prev = Categorical(S3, np.array([0.5, 0.5, 0.0]))
    assert np.allclose(planner_prior(prev, m, "act").probs, [0.5, 0.5, 0.0])


def test_bayes_update_hand_values():
    prior = Categorical(S3, np.array([0.5, 0.3, 0.2]))
    post = bayes_update(prior, np.array([0.1, 0.6, 0.3]))
    assert np.allclose(post.probs, [5 / 29, 18 / 29, 6 / 29], atol=1e-9)


def test_bayes_update_uniform_likelihood_keeps_prior():
    prior = Categorical(S3, np.array([0.5, 0.3, 0.2]))
    post = bayes_update(prior, np.array([0.4, 0.4, 0.4]))
    assert np.allclose(post.probs, prior.probs)


def test_bayes_update_zero_evidence():
    with pytest.raises(ZeroEvidenceError):
        bayes_update(point_mass(S3, "s1"), np.array([0.0, 0.5, 0.5]))


def test_free_energy_equals_neg_log_evidence_at_posterior():
    prior = uniform(S2)
    lik = np.array([0.8, 0.2])
    post = bayes_update(prior, lik)
    assert np.allclose(post.probs, [0.8, 0.2])
    assert free_energy(post, prior, lik) == pytest.approx(-math.log(0.5), abs=1e-12)


def test_free_energy_slack_away_from_posterior():
    prior = uniform(S2)
    lik = np.array([0.8, 0.2])
    f = free_energy(uniform(S2), prior, lik)
    want = 0.5 * -math.log(0.8) + 0.5 * -math.log(0.2)
    assert f == pytest.approx(want, abs=1e-12)
    assert f > -math.log(0.5)


def test_free_energy_perfect_likelihood_is_zero():
    prior = Categorical(S2, np.array([0.3, 0.7]))
    assert free_energy(prior, prior, np.array([1.0, 1.0])) == pytest.approx(0.0, abs=1e-12)


def test_free_energy_infinite_when_q_off_support():
    prior = uniform(S2)
    assert free_energy(point_mass(S2, "s2"), prior, np.array([0.5, 0.0])) == math.inf


@pytest.mark.parametrize("bad", [math.nan, -0.5, -math.inf])
def test_free_energy_rejects_likelihood_bayes_update_rejects(bad):
    lik = np.array([bad, 1.0, 1.0])
    for call in (
        lambda: free_energy(uniform(S3), uniform(S3), lik),
        lambda: bayes_update(uniform(S3), lik),
    ):
        with pytest.raises(ValueError, match="likelihood values must be non-negative"):
            call()


def test_free_energy_zero_evidence_state_is_still_infinite():
    # Every state of q's support ruled out: +inf, where bayes_update raises.
    lik = np.array([0.0, 0.5, 0.5])
    assert free_energy(point_mass(S3, "s1"), uniform(S3), lik) == math.inf
    with pytest.raises(ZeroEvidenceError):
        bayes_update(point_mass(S3, "s1"), lik)


def test_alpha_tiers_by_length():
    assert length_aware_alpha("too short") == 0.50
    assert length_aware_alpha("this reply has exactly seven words in") == 0.65
    text_15 = " ".join(["word"] * 15)
    assert length_aware_alpha(text_15) == 0.75
    text_30 = " ".join(["word"] * 30)
    assert length_aware_alpha(text_30) == 0.85


def test_alpha_hedge_caps_long_text():
    hedged = "maybe " + " ".join(["word"] * 30)
    assert length_aware_alpha(hedged) == 0.65


def test_alpha_empty_raises():
    with pytest.raises(EmptyTextError):
        length_aware_alpha("   ")


def alpha_reference(utterance):
    """``length_aware_alpha`` as it was written before it searched for a hedge
    only from 12 words on."""
    if not utterance or not utterance.strip():
        raise EmptyTextError("cannot score an empty utterance")
    words = utterance.split()
    lowered = utterance.lower()
    hedged = any(term in lowered for term in HEDGE_TERMS)
    if len(words) < 6:
        return ALPHA_WIDTHS[0]
    if len(words) < 12 or hedged:
        return ALPHA_WIDTHS[1]
    if len(words) < 25:
        return ALPHA_WIDTHS[2]
    return ALPHA_WIDTHS[3]


def alpha_outcome(f, utterance):
    try:
        return f(utterance)
    except EmptyTextError as exc:
        return type(exc), str(exc)


# A hedge term with each letter in either case.
CASED_HEDGE = st.sampled_from(HEDGE_TERMS).flatmap(
    lambda term: st.lists(st.booleans(), min_size=len(term), max_size=len(term)).map(
        lambda upper: "".join(c.upper() if u else c for c, u in zip(term, upper))
    )
)
# Plain words, with "İ", which lowers to two characters, and "ẞ", which lowers to "ß".
WORD = st.one_of(st.sampled_from(["İ", "ẞ", "I", "GUESS", "kind", "OF", "not", "sure"]),
                 st.text(alphabet="abxİẞ", min_size=1, max_size=4))
GAP = st.sampled_from([" ", "  ", "\t", "\n", "\u3000"])


@st.composite
def utterance(draw):
    """1 to 30 words, with up to two hedge terms set in as a word, at a word's
    start or end, or inside it."""
    words = draw(st.lists(WORD, min_size=(n := draw(st.integers(1, 30))), max_size=n))
    for term in draw(st.lists(CASED_HEDGE, max_size=2)):
        i = draw(st.integers(0, n - 1))
        cut = draw(st.integers(0, len(words[i])))
        words[i] = draw(st.sampled_from([term, words[i][:cut] + term + words[i][cut:]]))
    gaps = draw(st.lists(GAP, min_size=n + 1, max_size=n + 1))
    return gaps[0] + "".join(w + g for w, g in zip(words, gaps[1:]))


@settings(max_examples=400, deadline=None)
@given(st.one_of(utterance(), st.sampled_from(["", " ", "\t\n", "\u3000"])))
def test_alpha_equals_the_form_that_always_searched(text):
    assert alpha_outcome(length_aware_alpha, text) == alpha_outcome(alpha_reference, text)


def evidence_reference(likelihood, p):
    """``_evidence`` as it was written before it checked a list of Python
    floats without numpy."""
    lik = np.asarray(likelihood, dtype=float)
    if lik.shape != (len(p.space),):
        raise DimensionMismatchError(
            f"likelihood shape {lik.shape} does not match space {p.space.name!r}"
        )
    values = lik.tolist()
    positive = all(e > 0 for e in values)
    if not positive and not all(e >= 0 for e in values):  # NaN fails too
        raise ValueError("likelihood values must be non-negative")
    return values, positive


def evidence_outcome(f, likelihood, p):
    """Each value's type and bits and the positivity flag's type and value, or
    the type and message of what ``f`` raises."""
    try:
        values, positive = f(likelihood, p)
    except Exception as exc:
        return type(exc), str(exc)
    return [(type(v), v.hex()) for v in values], (type(positive), positive)


# Every float, with zeros of both signs, negatives, NaN and both infinities made likely.
EVIDENCE_FLOAT = st.one_of(st.sampled_from([0.0, -0.0, -1.0, math.nan, math.inf, -math.inf]),
                           st.floats(min_value=0.0), st.floats())


@st.composite
def evidence_case(draw):
    """A space of 2 or 3 labels and a likelihood for it: mostly of its length,
    else one short or long; a list of floats, ints, bools or a mix, an ndarray,
    a tuple, a list of numpy floats, or a list with nested lists."""
    space = draw(st.sampled_from([S2, S3]))
    n = draw(st.sampled_from([len(space)] * 3 + [len(space) - 1, len(space) + 1, 0]))
    floats = st.lists(EVIDENCE_FLOAT, min_size=n, max_size=n)
    likelihood = draw(st.one_of(
        floats,
        floats.map(np.array),
        floats.map(tuple),
        floats.map(lambda xs: [np.float64(x) for x in xs]),
        st.lists(st.one_of(st.integers(-2, 3), st.booleans()), min_size=n, max_size=n),
        st.lists(st.one_of(EVIDENCE_FLOAT, st.integers(), st.booleans()), min_size=n, max_size=n),
        st.lists(st.one_of(EVIDENCE_FLOAT, st.lists(EVIDENCE_FLOAT, max_size=2)),
                 min_size=n, max_size=n),
    ))
    return likelihood, uniform(space)


@settings(max_examples=600, deadline=None)
@given(evidence_case())
def test_evidence_equals_the_numpy_check(case):
    likelihood, p = case
    assert evidence_outcome(_evidence, likelihood, p) == evidence_outcome(
        evidence_reference, likelihood, p)


def test_alpha_widths_constant():
    assert ALPHA_WIDTHS == (0.50, 0.65, 0.75, 0.85)


def test_widen_point_mass():
    out = widen(point_mass(S3, "s1"), 0.50)
    assert np.allclose(out.probs, [2 / 3, 1 / 6, 1 / 6], atol=1e-12)


def test_widen_observation_pairs_alpha_with_text():
    p = point_mass(S3, "s1")
    widened, alpha = widen_observation(p, "ok")
    assert alpha == 0.50
    assert np.allclose(widened.probs, [2 / 3, 1 / 6, 1 / 6])


def test_fuse_hand_values():
    p_obs = Categorical(S3, np.array([0.7, 0.2, 0.1]))
    prior = Categorical(S3, np.array([0.1, 0.8, 0.1]))
    assert np.allclose(fuse(p_obs, prior, 0.35).probs, [0.49, 0.41, 0.10], atol=1e-12)


def test_fuse_beta_zero_keeps_observation():
    p_obs = Categorical(S3, np.array([0.7, 0.2, 0.1]))
    prior = uniform(S3)
    assert np.allclose(fuse(p_obs, prior, 0.0).probs, p_obs.probs)


def test_default_beta():
    assert DEFAULT_BETA == 0.35


def test_belief_state_as_dict_contents():
    q = uniform(S3)
    b = BeliefState(q=q, p_obs=q, p_prior=q, alpha=0.5, beta=0.0, posterior=q, free_energy=1.0)
    d = b.as_dict()
    assert d["alpha"] == 0.5 and d["beta"] == 0.0
    assert d["free_energy"] == 1.0 and d["posterior"] == q.as_dict()


@given(
    st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=3, max_size=3),
    st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=3, max_size=3),
)
def test_free_energy_bounds_evidence(prior_w, lik):
    prior = Categorical(S3, np.array(prior_w) / sum(prior_w))
    lik = np.array(lik)
    evidence = float(prior.probs @ lik)
    post = bayes_update(prior, lik)
    assert free_energy(post, prior, lik) >= -math.log(evidence) - 1e-9
    assert free_energy(post, prior, lik) == pytest.approx(-math.log(evidence), abs=1e-9)
