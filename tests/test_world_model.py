import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from statecoach.errors import DimensionMismatchError, UnknownLabelError
from statecoach.probs import Categorical, LabelSpace, point_mass, uniform
from statecoach.vocab import CUES, STAGES
from statecoach.world_model import DEFAULT_KAPPA, TableModel, WorldModel

A2 = LabelSpace("a", ("ask", "tell"))
O4 = LabelSpace("o", ("o1", "o2", "o3", "o4"))


def fresh():
    return WorldModel(states=STAGES, actions=A2, cues=O4)


def test_default_kappa():
    assert DEFAULT_KAPPA == 1.0


def test_transition_all_zero_counts_is_uniform():
    m = fresh()
    row = m.transition_prob("precontemplation", "ask")
    assert np.allclose(row.probs, [1 / 3, 1 / 3, 1 / 3])


def test_transition_smoothing_hand_value():
    m = fresh()
    m.transition_counts[0, 0] = [9, 0, 0]
    row = m.transition_prob("precontemplation", "ask")
    assert np.allclose(row.probs, [(9 + 1 / 3) / 10, (1 / 3) / 10, (1 / 3) / 10], atol=1e-12)
    assert row.probs[0] == pytest.approx(0.933333, abs=1e-6)


def test_transition_symmetric_counts_stay_uniform():
    m = fresh()
    m.transition_counts[0, 0] = [2, 2, 2]
    assert np.allclose(m.transition_prob("precontemplation", "ask").probs, [1 / 3] * 3)


def test_observation_zero_counts_uniform():
    m = fresh()
    assert np.allclose(m.observation_prob("contemplation").probs, [0.25] * 4)


def test_observation_smoothing_hand_value():
    m = fresh()
    m.observation_counts[0] = [3, 1, 0, 0]
    row = m.observation_prob("precontemplation")
    assert np.allclose(row.probs, [0.65, 0.25, 0.05, 0.05], atol=1e-12)


def test_observation_smoothing_split_counts():
    m = fresh()
    m.observation_counts[0] = [5, 5, 0, 0]
    row = m.observation_prob("precontemplation")
    assert np.allclose(row.probs, [5.25 / 11, 5.25 / 11, 0.25 / 11, 0.25 / 11], atol=1e-12)


def test_observation_likelihood_is_column():
    m = fresh()
    m.observation_counts[0] = [3, 1, 0, 0]
    col = m.observation_likelihood("o1")
    want = [m.observation_prob(s).probs[0] for s in STAGES.labels]
    assert np.allclose(col, want)


def test_hard_update_point_masses_increment_single_cells():
    m = fresh()
    m.update(
        point_mass(STAGES, "precontemplation"),
        "ask",
        point_mass(STAGES, "contemplation"),
        "o2",
    )
    assert m.transition_counts[0, 0, 1] == 1.0
    assert m.transition_counts.sum() == 1.0
    assert m.observation_counts[1, 1] == 1.0
    assert m.observation_counts.sum() == 1.0


def test_soft_update_spreads_outer_product():
    m = fresh()
    q_prev = Categorical(STAGES, np.array([0.5, 0.5, 0.0]))
    q_curr = point_mass(STAGES, "precontemplation")
    m.update(q_prev, "ask", q_curr, "o1")
    assert m.transition_counts[0, 0, 0] == pytest.approx(0.5)
    assert m.transition_counts[1, 0, 0] == pytest.approx(0.5)
    assert m.transition_counts.sum() == pytest.approx(1.0)
    assert np.allclose(m.observation_counts[:, 0], q_curr.probs)


S1 = LabelSpace("one", ("only",))
S4 = LabelSpace("four", ("a", "b", "c", "d"))
Q3 = Categorical(STAGES, [0.2, 0.3, 0.5])


@pytest.mark.parametrize(
    "write, error, message",
    [
        (lambda m: m.update(Q3, "ask", Q3, "nope"), UnknownLabelError, "'nope' not in space 'o'"),
        (lambda m: m.update(Q3, "nope", Q3, "o1"), UnknownLabelError, "'nope' not in space 'a'"),
        (lambda m: m.update(uniform(S1), "ask", Q3, "o1"), DimensionMismatchError,
         "belief over 1 states of 'one', but the model has 3 states"),
        (lambda m: m.update(Q3, "ask", uniform(S1), "o1"), DimensionMismatchError,
         "belief over 1 states of 'one', but the model has 3 states"),
        (lambda m: m.update(Q3, "tell", uniform(S4), "o2"), DimensionMismatchError,
         "belief over 4 states of 'four', but the model has 3 states"),
        (lambda m: m.add_observation(Q3, "nope"), UnknownLabelError, "'nope' not in space 'o'"),
        (lambda m: m.add_observation(uniform(S1), "o1"), DimensionMismatchError,
         "belief over 1 states of 'one', but the model has 3 states"),
        (lambda m: m.add_observation(uniform(S4), "o1"), DimensionMismatchError,
         "belief over 4 states of 'four', but the model has 3 states"),
    ],
    ids=["update-cue", "update-action", "update-prev-1", "update-curr-1", "update-curr-4",
         "observation-cue", "observation-1", "observation-4"],
)
def test_a_failed_write_leaves_both_count_arrays_as_they_were(write, error, message):
    # A one-entry belief is the case numpy's += would broadcast over every state.
    m = fresh()
    m.update(Q3, "ask", point_mass(STAGES, "contemplation"), "o2")
    before = m.transition_counts.tobytes(), m.observation_counts.tobytes()
    with pytest.raises(error) as info:
        write(m)
    assert str(info.value) == message
    assert (m.transition_counts.tobytes(), m.observation_counts.tobytes()) == before


def test_both_models_read_a_likelihood_as_python_floats():
    table = {s: np.array(row) for s, row in zip(STAGES.labels, np.eye(3, 4) * 0.7 + 0.075)}
    t = TableModel(STAGES, A2, O4, {(s, a): np.full(3, 1 / 3) for s in STAGES.labels
                                    for a in A2.labels}, table)
    m = fresh()
    m.observation_counts[:] = [[3.0, 1.0, 0.0, 0.5], [0.0, 2.0, 7.0, 0.0], [1e-300, 0.0, 1.0, 9.0]]
    for model in (t, m):
        o = model.observations()
        for c, cue in enumerate(O4.labels):
            col = model.observation_likelihood(cue)
            assert type(col) is list and all(type(x) is float for x in col)
            assert np.array(col).tobytes() == o[:, c].tobytes()


def test_updates_commute():
    evs = [
        (uniform(STAGES), "ask", point_mass(STAGES, "contemplation"), "o1"),
        (
            point_mass(STAGES, "contemplation"),
            "tell",
            Categorical(STAGES, np.array([0.2, 0.3, 0.5])),
            "o3",
        ),
    ]
    m1, m2 = fresh(), fresh()
    for e in evs:
        m1.update(*e)
    for e in reversed(evs):
        m2.update(*e)
    assert np.allclose(m1.transition_counts, m2.transition_counts)
    assert np.allclose(m1.observation_counts, m2.observation_counts)


def test_save_load_round_trip(tmp_path):
    m = fresh()
    m.update(uniform(STAGES), "tell", point_mass(STAGES, "preparation"), "o4")
    path = tmp_path / "wm.json"
    m.save(path)
    back = WorldModel.load(path)
    assert back.states.labels == m.states.labels
    assert back.actions.labels == m.actions.labels
    assert np.allclose(back.transition_counts, m.transition_counts)
    assert np.allclose(back.observation_counts, m.observation_counts)


def test_default_spaces_are_stage_and_cue_vocabulary():
    m = WorldModel()
    assert m.states is STAGES
    assert m.cues is CUES


def test_kappa_must_be_positive():
    with pytest.raises(ValueError):
        WorldModel(kappa_t=0.0)


def test_table_model_exposes_exact_rows():
    t = TableModel(
        states=STAGES,
        actions=A2,
        cues=O4,
        transitions={(s, a): np.array([1.0, 0, 0]) for s in STAGES.labels for a in A2.labels},
        observations={s: np.array([0, 0, 0, 1.0]) for s in STAGES.labels},
    )
    assert np.allclose(t.transition_prob("contemplation", "ask").probs, [1, 0, 0])
    assert np.allclose(t.observation_prob("preparation").probs, [0, 0, 0, 1])
    assert np.allclose(t.observation_likelihood("o4"), [1, 1, 1])


def test_table_model_missing_cell_fails_at_construction():
    trans = {(s, a): np.array([1.0, 0, 0]) for s in STAGES.labels for a in A2.labels}
    del trans[("preparation", "tell")]
    obs = {s: np.array([0, 0, 0, 1.0]) for s in STAGES.labels}
    with pytest.raises(KeyError):
        TableModel(STAGES, A2, O4, trans, obs)


@given(
    st.lists(st.floats(min_value=0.0, max_value=20.0), min_size=3, max_size=3),
    st.floats(min_value=0.1, max_value=5.0),
)
def test_smoothed_rows_are_distributions(counts, kappa):
    m = WorldModel(states=STAGES, actions=A2, cues=O4, kappa_t=kappa, kappa_o=kappa)
    m.transition_counts[1, 1] = counts
    row = m.transition_prob("contemplation", "tell")
    assert math.isclose(float(row.probs.sum()), 1.0, abs_tol=1e-9)
    assert np.all(row.probs > 0)


COUNT = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=1e100, max_value=1e200),
)


@given(
    st.lists(st.lists(COUNT, min_size=4, max_size=4), min_size=3, max_size=3),
    st.floats(min_value=1e-6, max_value=1e6),
    st.sampled_from(["float", "int", "zero_row"]),
    st.tuples(st.integers(0, 2), st.integers(0, 3), st.floats(min_value=0.0, max_value=1e3)),
)
def test_observation_likelihood_is_bit_equal_to_the_column(table, kappa, kind, write):
    m = WorldModel(states=STAGES, actions=A2, cues=O4, kappa_o=kappa)
    counts = np.array(table)
    if kind == "int":  # a direct write of whole counts in another dtype
        counts = np.minimum(counts, 1e12).astype(np.int64)
    elif kind == "zero_row":
        counts[1] = 0.0
    m.observation_counts = counts

    def columns_match():
        table_o = m.observations()
        return all(
            np.array_equal(m.observation_likelihood(cue), table_o[:, c])
            for c, cue in enumerate(O4.labels)
        )

    assert columns_match()
    s, c, n = write
    m.observation_counts[s, c] += n  # a direct write between reads
    assert columns_match()


def model_dict(**counts):
    """``fresh()``'s file content, with any count table replaced."""
    return {**fresh().to_dict(), **counts}


@pytest.mark.parametrize(
    "counts, message",
    [
        ({"transition_counts": [[1, 2]]},
         "transition_counts must have shape (3, 2, 3), got (1, 2)"),
        ({"observation_counts": [[0.0] * 4] * 2},
         "observation_counts must have shape (3, 4), got (2, 4)"),
        ({"observation_counts": [[-5.0, 0, 0, 0]] + [[0.0] * 4] * 2},
         "observation_counts must be finite and non-negative"),
        ({"transition_counts": np.full((3, 2, 3), np.nan).tolist()},
         "transition_counts must be finite and non-negative"),
        ({"observation_counts": [[math.inf, 0, 0, 0]] + [[0.0] * 4] * 2},
         "observation_counts must be finite and non-negative"),
    ],
    ids=["transition-shape", "observation-shape", "negative", "nan", "inf"],
)
def test_from_dict_rejects_counts_the_reads_cannot_use(tmp_path, counts, message):
    with pytest.raises(ValueError) as info:
        WorldModel.from_dict(model_dict(**counts))
    assert str(info.value) == message
    path = tmp_path / "wm.json"
    path.write_text(json.dumps(model_dict(**counts)))
    with pytest.raises(ValueError) as info:
        WorldModel.load(path)
    assert type(info.value) is ValueError
    assert str(info.value) == f"{message} (in {path})"


_DROP = object()  # in place of a value: the key is left out


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("kappa_t", _DROP, "a world model has no kappa_t"),
        ("kappa_t", "1", "a world model has a non-number kappa_t"),
        ("kappa_o", True, "a world model has a non-number kappa_o"),
        ("cues", "o1", "a world model has a non-array cues"),
        ("mystery", 1, "a world model has unknown key(s): mystery"),
        ("transition_counts", [[[{}] * 3] * 2] * 3,
         "transition_counts must be an array of numbers"),
        ("observation_counts", [["1.5", 0, 0, 0]] + [[0.0] * 4] * 2,
         "observation_counts must be an array of numbers"),
        ("observation_counts", [[True, 0, 0, 0]] + [[0.0] * 4] * 2,
         "observation_counts must be an array of numbers"),
        ("transition_counts", [[1, 2], [3]], "transition_counts must be an array of numbers"),
        ("kappa_t", math.nan, "smoothing constant kappa_t must be finite and positive"),
        ("kappa_o", math.inf, "smoothing constant kappa_o must be finite and positive"),
        ("kappa_t", 10**400, "smoothing constant kappa_t must be finite and positive"),
        ("kappa_o", 0, "smoothing constant kappa_o must be finite and positive"),
        ("states", [["a"], "b", "c"], "states must be an array of strings"),
        ("observation_counts", [[10**400, 0, 0, 0]] + [[0.0] * 4] * 2,
         "observation_counts must be finite and non-negative"),
    ],
    ids=["no-kappa", "string-kappa", "bool-kappa", "string-cues", "unknown-key",
         "object-count", "string-count", "bool-count", "ragged-counts",
         "nan-kappa", "inf-kappa", "overflow-kappa", "zero-kappa", "list-label",
         "overflow-count"],
)
def test_world_model_file_is_a_closed_record_of_typed_values(tmp_path, key, value, message):
    data = fresh().to_dict()
    if value is _DROP:
        del data[key]
    else:
        data[key] = value
    path = tmp_path / "wm.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError) as info:
        WorldModel.load(path)
    assert type(info.value) is ValueError
    assert str(info.value) == f"{message} (in {path})"


def test_world_model_file_is_read_as_utf8(tmp_path):
    m = WorldModel(states=STAGES, actions=LabelSpace("a", ("déjà", "vu")), cues=O4)
    path = tmp_path / "wm.json"
    path.write_bytes(json.dumps(m.to_dict(), ensure_ascii=False).encode("utf-8"))
    assert WorldModel.load(path).actions.labels == ("déjà", "vu")
