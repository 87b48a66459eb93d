"""The belief step's Python-float paths equal the numpy expressions they replace.

``observation_likelihood``, ``planner_prior``, ``mix`` and ``bayes_update``
do their arithmetic on the Python floats of one ``tolist()``.  Each reference
below is the numpy expression the package used before, kept here; every path
must give the reference's value bit for bit (signed zeros included), or raise
the same error type with the same message.  The references run with numpy's
floating-point warnings off, since the float paths have no such warnings to
give: an overflow or ``0 * inf`` yields the same inf or NaN either way.

The count writes went the other way, from a loop over Python floats to
numpy's in-place ``+=``: that loop is kept below as their reference.  So is
the loop ``planner_prior`` ran before each model's ``predict`` took the sum
over: one action's smoothed slice of T, transposed and summed column by column.

The planner's scoring pass is held to its masked form the same way: the
``where=`` forms of ``_epistemic`` and ``check_rows`` are kept below, and
``select_action``'s report must equal them byte for byte.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from statecoach.belief import _evidence, bayes_update, free_energy
from statecoach.errors import (
    AllZeroError,
    DimensionMismatchError,
    SupportViolationError,
    WeightOutOfRangeError,
    ZeroEvidenceError,
)
from statecoach.planner import (
    PreferenceModel,
    _predict,
    epistemic_value,
    planner_prior,
    pragmatic_value,
    select_action,
)
from statecoach.probs import (
    PROB_TOL,
    Categorical,
    LabelSpace,
    check_rows,
    kl_divergence,
    mix,
    normalize,
    _total,
)
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


def transition_slice_reference(model, action):
    """T[:, action, :] as one list of Python floats per state, built as the
    package built it before ``predict``: a whole smoothed row at a time."""
    if isinstance(model, TableModel):
        return model.T[:, model.actions.index(action)].tolist()
    rows = model.transition_counts[:, model.actions.index(action)].tolist()
    kappa = model.kappa_t
    k = kappa / len(rows[0])
    smoothed = []
    for row in rows:
        total = _total(row) + kappa
        smoothed.append([(c + k) / total for c in row])
    return smoothed


def predict_reference(q, model, action):
    """``predict`` as the package summed it before: the slice transposed, and
    each column's q(s) * T[s, a, s'] added in order from 0.0."""
    q_next = []
    for column in zip(*transition_slice_reference(model, action)):
        total = 0.0
        for q_s, t in zip(q, column):
            total += q_s * t
        q_next.append(total)
    return q_next


@settings(max_examples=300, deadline=None)
@given(predict_case(), st.integers(-2, 2), st.data())
def test_predict_is_the_transposed_slice_loop(case, extra, data):
    # A belief of another length (extra != 0) is zipped short, as the loop zips it.
    _belief, model, action = case
    n = len(model.states) + extra
    assume(n >= 1)
    belief = Categorical(space("b", n), data.draw(distribution(n)))
    assert outcome(model.predict, belief.values, action) == outcome(
        predict_reference, belief.values, model, action)
    reference = lambda: Categorical(belief.space, predict_reference(belief.values, model, action))
    assert outcome(planner_prior, belief, model, action) == outcome(reference)


def test_predict_reads_the_counts_written_last():
    model, q = WorldModel(), (0.2, 0.5, 0.3)
    action = model.actions.labels[1]
    fresh = model.predict(q, action)
    model.transition_counts[:, 1, 0] += 4.0
    written = model.predict(q, action)
    assert written != fresh and written == predict_reference(q, model, action)
    model.transition_counts = np.zeros_like(model.transition_counts)
    assert model.predict(q, action) == fresh


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


# -- free_energy, kl_divergence, normalize and the count writes ------------------
#
# These also run on Python floats, with each function's logs taken by one
# ``np.log`` call on a list; the references are the numpy expressions they
# replace.


def evidence_reference(likelihood, p):
    """``_evidence`` as numpy computed it: the likelihood array and whether it is all positive."""
    lik = np.asarray(likelihood, dtype=float)
    if lik.shape != p.probs.shape:
        raise DimensionMismatchError(
            f"likelihood shape {lik.shape} does not match space {p.space.name!r}"
        )
    positive = np.logical_and.reduce(lik > 0)
    if not positive and not np.logical_and.reduce(lik >= 0):
        raise ValueError("likelihood values must be non-negative")
    return lik, positive


def kl_reference(q, p):
    """``kl_divergence`` as numpy computed it."""
    if q.space is not p.space and q.space.labels != p.space.labels:
        raise DimensionMismatchError(
            f"KL between different spaces: {q.space.name!r} vs {p.space.name!r}"
        )
    qp, pp = q.probs, p.probs
    nz = qp > 0
    bad = nz & (pp <= 0)
    if np.logical_or.reduce(bad):
        labels = [q.space.labels[i] for i in bad.nonzero()[0]]
        raise SupportViolationError(f"q has mass outside p's support at {labels}")
    return float(np.add.reduce(qp[nz] * (np.log(qp[nz]) - np.log(pp[nz]))))


def free_energy_reference(q, prior, likelihood):
    """``free_energy`` as numpy computed it."""
    lik, positive = evidence_reference(likelihood, q)
    qp = q.probs
    nz = qp > 0
    if not positive and np.logical_or.reduce(nz & (lik <= 0)):
        return float("inf")
    expected_log_lik = float(np.add.reduce(qp[nz] * np.log(lik[nz])))
    return kl_reference(q, prior) - expected_log_lik


@st.composite
def belief_pair(draw):
    """Two distributions over one space of 1 to 20 entries (both summing
    orders), with zeros, so supports often differ; the second sometimes on an
    equal twin space, or on another space of the same length."""
    n = draw(st.integers(1, 20))
    s = space("s", n)
    other = draw(st.sampled_from([s, space("s", n), space("t", n)]))
    vectors = [draw(distribution(n)) for _ in range(2)]
    as_list = draw(st.booleans())  # a list of floats or an array: Categorical's two routes
    q, p = (v.tolist() if as_list else v for v in vectors)
    return Categorical(s, q), Categorical(other, p)


@settings(max_examples=200, deadline=None)
@given(belief_pair())
def test_kl_divergence_is_the_numpy_sum(pair):
    q, p = pair
    assert outcome(kl_divergence, q, p) == outcome(kl_reference, q, p)


def test_kl_divergence_names_every_label_outside_the_support():
    s = space("s", 4)
    q, p = Categorical(s, [0.25, 0.25, 0.25, 0.25]), Categorical(s, [1.0, 0.0, -0.0, 0.0])
    want = (SupportViolationError, "q has mass outside p's support at ['s1', 's2', 's3']")
    assert outcome(kl_divergence, q, p) == outcome(kl_reference, q, p) == want


@settings(max_examples=200, deadline=None)
@given(belief_pair(), st.data())
def test_free_energy_is_the_numpy_value(pair, data):
    q, prior = pair
    n = len(q.space)
    length = data.draw(st.sampled_from([n, n, n, n + 1]))
    likelihood = data.draw(st.lists(LIKELIHOOD, min_size=length, max_size=length))
    got = outcome(free_energy, q, prior, likelihood)
    assert got == outcome(free_energy_reference, q, prior, likelihood)


def test_free_energy_is_inf_where_the_evidence_rules_q_out():
    s = space("s", 3)
    q, prior = Categorical(s, [0.5, 0.5, 0.0]), Categorical(s, [0.2, 0.3, 0.5])
    for likelihood in ([0.0, 1.0, 1.0], [1.0, -0.0, 0.0]):
        got = outcome(free_energy, q, prior, likelihood)
        assert got == outcome(free_energy_reference, q, prior, likelihood)
        assert got == np.float64(np.inf).tobytes()
    # mass only where the evidence is zero is not ruled out
    assert outcome(free_energy, q, prior, [1.0, 1.0, 0.0]) == outcome(
        free_energy_reference, q, prior, [1.0, 1.0, 0.0]
    )


def test_kl_divergence_and_free_energy_take_numpys_logs():
    """Seeded vectors of many distinct entries, which the drawn ones rarely
    have: ``math.log`` differs from ``np.log`` on about 0.35% of inputs, so a
    change of log routine fails here."""
    rng = np.random.default_rng(22)
    for n in range(1, 21):
        s = space("s", n)
        for _ in range(100):
            q, p, lik = rng.random((3, n))
            q[rng.random(n) < 0.2] = 0.0
            if not q.any():
                q[0] = 1.0
            q, p = Categorical(s, (q / q.sum()).tolist()), Categorical(s, p / p.sum())
            assert outcome(kl_divergence, q, p) == outcome(kl_reference, q, p)
            assert outcome(free_energy, q, p, lik) == outcome(free_energy_reference, q, p, lik)


def normalize_reference(space, weights):
    """``normalize`` of a 1-d vector as numpy computed it."""
    w = np.asarray(weights, dtype=float)
    if not np.logical_and.reduce(w >= 0):
        raise ValueError("weights must be non-negative")
    total = np.add.reduce(w)
    if total <= 0:
        raise AllZeroError(f"cannot normalize all-zero weights over {space.name!r}")
    return Categorical(space, w / total)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 20).flatmap(lambda n: st.lists(COUNT | LIKELIHOOD, min_size=n, max_size=n)),
       st.booleans())
def test_normalize_divides_a_1d_vector_as_numpy_does(weights, as_array):
    s = space("s", len(weights))
    value = np.array(weights) if as_array else weights
    assert outcome(normalize, s, value) == outcome(normalize_reference, s, value)


def write_reference(model, q_prev, action, q_curr, cue):
    """One turn of ``WorldModel.update`` as numpy computed it; with no
    ``q_prev``, ``add_observation`` alone."""
    if q_prev is not None:
        a = model.actions.index(action)
        model.transition_counts[:, a, :] += q_prev.probs[:, None] * q_curr.probs[None, :]
    model.observation_counts[:, model.cues.index(cue)] += q_curr.probs


@st.composite
def count_writes(draw):
    n_s, n_a, n_c = draw(st.integers(1, 9)), draw(st.integers(1, 2)), draw(st.integers(1, 4))
    states, actions, cues = space("s", n_s), space("a", n_a), space("o", n_c)
    transition_counts = draw(counts((n_s, n_a, n_s)))
    observation_counts = draw(counts((n_s, n_c)))
    beliefs = [Categorical(states, draw(distribution(n_s)).tolist())
               for _ in range(draw(st.integers(1, 3)))]
    turns = [(None if i == 0 else beliefs[i - 1], draw(st.sampled_from(actions.labels)), q,
              draw(st.sampled_from(cues.labels))) for i, q in enumerate(beliefs)]
    models = []
    for _ in range(2):
        model = WorldModel(states, actions, cues)
        model.transition_counts = transition_counts.copy()
        model.observation_counts = observation_counts.copy()
        models.append(model)
    return models, turns


@settings(max_examples=100, deadline=None)
@given(count_writes())
def test_count_writes_are_the_numpy_sums(case):
    (model, twin), turns = case
    with np.errstate(all="ignore"):
        for q_prev, action, q_curr, cue in turns:
            if q_prev is None:
                model.add_observation(q_curr, cue)
            else:
                model.update(q_prev, action, q_curr, cue)
            write_reference(twin, q_prev, action, q_curr, cue)
            assert model.transition_counts.tobytes() == twin.transition_counts.tobytes()
            assert model.observation_counts.tobytes() == twin.observation_counts.tobytes()


def write_loop_reference(model, q_prev, action, q_curr, cue):
    """One turn of writes as ``update`` and ``add_observation`` made them before
    they added in place: ``n + x * y`` and ``n + x`` on the Python floats of
    the slice, written back as nested lists."""
    if q_prev is not None:
        a, curr = model.actions.index(action), q_curr.values
        block = model.transition_counts[:, a, :].tolist()
        model.transition_counts[:, a, :] = [
            [n + x * y for n, y in zip(row, curr, strict=True)]
            for row, x in zip(block, q_prev.values, strict=True)
        ]
    c = model.cues.index(cue)
    column = model.observation_counts[:, c].tolist()
    model.observation_counts[:, c] = [n + x for n, x in zip(column, q_curr.values, strict=True)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(count_writes())
def test_in_place_writes_equal_the_python_float_loop(case):
    (model, twin), turns = case
    for q_prev, action, q_curr, cue in turns:
        if q_prev is None:
            model.add_observation(q_curr, cue)
        else:
            model.update(q_prev, action, q_curr, cue)
        write_loop_reference(twin, q_prev, action, q_curr, cue)
        assert model.transition_counts.tobytes() == twin.transition_counts.tobytes()
        assert model.observation_counts.tobytes() == twin.observation_counts.tobytes()


def check_rows_reference(space, rows):
    """``check_rows`` as it checked every row in one masked pass."""
    if rows.shape[1:] != (len(space),):
        raise DimensionMismatchError(
            f"expected rows of {len(space)} probabilities for {space.name!r}, got {rows.shape}"
        )
    negative = np.logical_or.reduce(rows < 0, axis=1)
    totals = np.add.reduce(rows, axis=1)
    bad = negative | ~(np.abs(totals - 1.0) <= PROB_TOL)
    if np.logical_or.reduce(bad):
        i = int(bad.argmax())
        if negative[i]:
            raise ValueError("probabilities must be non-negative")
        raise ValueError(f"probabilities must sum to 1, got {totals[i]!r}")


def epistemic_reference(joint, p_obs):
    """``_epistemic`` with ``where=`` masks over zero-filled outputs."""
    seen = (p_obs > 0)[:, None, :]
    post = np.divide(joint, p_obs[:, None, :], out=np.zeros_like(joint), where=seen)
    log_post = np.log(post, out=np.zeros_like(post), where=post > 0)
    h = -np.add.reduce(post * log_post, axis=1)
    return 0.0 + np.add.reduce(p_obs * h, axis=1)


def select_reference(belief, model, labels, pref, lambda_e, lambda_p, penalty, last):
    """``select_action``'s arrays and choice, every candidate's T column gathered."""
    idx = [model.actions.index(a) for a in labels]
    q_next = np.add.reduce(belief.probs[:, None, None] * model.transitions().take(idx, axis=1),
                           axis=0)
    joint = q_next[:, :, None] * model.observations()
    p_obs = np.add.reduce(joint, axis=1)
    check_rows_reference(belief.space, q_next)
    epistemic = epistemic_reference(joint, p_obs)
    pragmatic = -np.add.reduce(p_obs * pref.log_pref, axis=1)
    total = lambda_e * epistemic + lambda_p * pragmatic
    for i, a in enumerate(labels):
        if a == last:
            total[i] += penalty
    return epistemic, pragmatic, total, q_next, labels[int(np.argmin(total))]


@st.composite
def scoring_case(draw):
    """One planning step over one of three kinds of model: a ``WorldModel``
    smoothed from drawn counts, a ``TableModel`` with zero O cells (some of them
    revealing: each state's cue its own, so every posterior is certain), and a
    ``TableModel`` with zero T cells."""
    n_s, n_a, n_c = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 6))
    states, actions, cues = space("s", n_s), space("a", n_a), space("o", n_c)
    kind = draw(st.sampled_from(["counts", "zero-O", "zero-T"]))
    if kind == "counts":
        model = WorldModel(states, actions, cues, kappa_t=draw(st.floats(0.1, 5.0)),
                           kappa_o=draw(st.floats(0.1, 5.0)))
        model.transition_counts = draw(counts((n_s, n_a, n_s)))
        model.observation_counts = draw(counts((n_s, n_c)))
    else:
        T = st.just(np.full(n_s, 1 / n_s)) if kind == "zero-O" else distribution(n_s)
        trans = {(s, a): draw(T) for s in states.labels for a in actions.labels}
        if kind == "zero-O" and n_c >= n_s and draw(st.booleans()):
            obs = {s: np.eye(n_c)[i] for i, s in enumerate(states.labels)}
        elif kind == "zero-O":
            obs = {s: draw(distribution(n_c)) for s in states.labels}
        else:
            obs = {s: np.full(n_c, 1 / n_c) for s in states.labels}
        model = TableModel(states, actions, cues, trans, obs)
    if draw(st.booleans()):
        labels = actions.labels  # the counselor's case: T read whole
    else:
        labels = tuple(draw(st.permutations(actions.labels))[:draw(st.integers(1, n_a))])
    prefs = draw(st.lists(st.floats(0.05, 1.0), min_size=n_c, max_size=n_c))
    return (
        Categorical(states, draw(distribution(n_s)).tolist()),
        model,
        labels,
        PreferenceModel.from_weights(cues, dict(zip(cues.labels, prefs))),
        *draw(st.sampled_from([(0.4, 0.6), (1.0, 0.0), (0.0, 1.0), (0.7, 0.3)])),
        draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0))),
        draw(st.one_of(st.none(), st.sampled_from(actions.labels))),
    )


@settings(max_examples=400, deadline=None)
@given(scoring_case())
def test_select_action_equals_the_masked_scoring_pass(case):
    belief, model, labels, pref, lambda_e, lambda_p, penalty, last = case
    report = select_action(belief, model, labels, pref, lambda_e, lambda_p,
                           repeat_penalty=penalty, last_action=last)
    *arrays, chosen = select_reference(*case)
    got = (report.epistemic, report.pragmatic, report.total, report.q_next)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in arrays]
    assert report.chosen == chosen
    action = labels[0]
    assert outcome(epistemic_value, belief, model, action) == arrays[0][:1].tobytes()
    assert outcome(pragmatic_value, belief, model, action, pref) == arrays[1][:1].tobytes()


ROW_ENTRY = st.one_of(WEIGHT, st.sampled_from([np.nan, np.inf, -np.inf, -1e-12, 1.0 + 1e-9]))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10), st.integers(0, 5), st.data())
def test_check_rows_raises_as_the_masked_pass_does(n, k, data):
    s = space("s", n)
    rows = np.array([
        data.draw(st.one_of(distribution(n), st.lists(ROW_ENTRY, min_size=n, max_size=n)))
        for _ in range(k)
    ]).reshape(k, n)
    assert outcome(check_rows, s, rows) == outcome(check_rows_reference, s, rows)
