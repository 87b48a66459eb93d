import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from statecoach.errors import (
    AllZeroError,
    DimensionMismatchError,
    SupportViolationError,
    UnknownLabelError,
    WeightOutOfRangeError,
)
from statecoach.probs import (
    Categorical,
    LabelSpace,
    check_rows,
    entropy,
    from_dict,
    kl_divergence,
    mix,
    normalize,
    point_mass,
    uniform,
)

S3 = LabelSpace("s3", ("a", "b", "c"))
S2 = LabelSpace("s2", ("x", "y"))


def probs3():
    return st.lists(
        st.floats(min_value=1e-6, max_value=1.0), min_size=3, max_size=3
    ).map(lambda w: np.array(w) / sum(w))


def test_label_space_index_and_membership():
    assert S3.index("b") == 1
    assert "c" in S3
    assert "z" not in S3
    with pytest.raises(UnknownLabelError):
        S3.index("z")


def test_normalize_proportionality():
    c = normalize(S3, [1, 2, 1])
    assert np.allclose(c.probs, [0.25, 0.5, 0.25])


def test_normalize_single_support():
    assert np.allclose(normalize(S3, [0, 0, 5]).probs, [0, 0, 1])


def test_normalize_all_zero_raises():
    with pytest.raises(AllZeroError):
        normalize(S3, [0, 0, 0])


def test_categorical_validation():
    with pytest.raises(DimensionMismatchError):
        Categorical(S3, np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        Categorical(S3, np.array([0.5, 0.6, -0.1]))
    with pytest.raises(ValueError):
        Categorical(S3, np.array([0.5, 0.4, 0.2]))


def test_categorical_is_read_only():
    c = uniform(S3)
    with pytest.raises(ValueError):
        c.probs[0] = 0.9


def test_uniform_is_built_once_per_space():
    space = LabelSpace("fresh", ("a", "b", "c", "d"))
    u = uniform(space)
    assert uniform(space) is u
    assert u.space is space
    assert np.array_equal(u.probs, np.full(4, 0.25))
    assert not u.probs.flags.writeable
    with pytest.raises(ValueError):
        u.probs[0] = 1.0
    # An equal but distinct space gets its own instance, on itself.
    twin = LabelSpace("fresh", ("a", "b", "c", "d"))
    assert uniform(twin).space is twin and uniform(twin) is not u
    # The shared instance is not a field: equality, hashing and repr ignore it.
    assert twin == space and hash(twin) == hash(space)
    assert repr(space) == "LabelSpace(name='fresh', labels=('a', 'b', 'c', 'd'))"


# What each check raises, exact type and message, for the inputs its reductions
# could treat differently: negative, NaN, infinite, short-sum, wrong-length and
# wrong-rank values.
def _sum_message(total):
    return f"probabilities must sum to 1, got {np.float64(total)!r}"


NAN, INF = float("nan"), float("inf")
RAISES = [
    # Categorical(S3, value)
    ("Categorical", [-0.1, 0.6, 0.5], ValueError, "probabilities must be non-negative"),
    ("Categorical", [-INF, 0.5, 0.5], ValueError, "probabilities must be non-negative"),
    ("Categorical", [NAN, 0.5, 0.5], ValueError, _sum_message(NAN)),
    ("Categorical", [INF, 0.5, 0.5], ValueError, _sum_message(INF)),
    ("Categorical", [0.3, 0.3, 0.3], ValueError, _sum_message(0.8999999999999999)),
    ("Categorical", [0.5, 0.5], DimensionMismatchError,
     "expected 3 probabilities for space 's3', got shape (2,)"),
    ("Categorical", [[0.2, 0.3, 0.5]], DimensionMismatchError,
     "expected 3 probabilities for space 's3', got shape (1, 3)"),
    ("Categorical", 1.0, DimensionMismatchError,
     "expected 3 probabilities for space 's3', got shape ()"),
    # normalize(S3, value)
    ("normalize", [-0.1, 0.6, 0.5], ValueError, "weights must be non-negative"),
    ("normalize", [NAN, 0.5, 0.5], ValueError, "weights must be non-negative"),
    ("normalize", [INF, 0.5, 0.5], ValueError, _sum_message(NAN)),
    ("normalize", [0.0, 0.0, 0.0], AllZeroError, "cannot normalize all-zero weights over 's3'"),
    ("normalize", [0.5, 0.5], DimensionMismatchError,
     "expected 3 probabilities for space 's3', got shape (2,)"),
    ("normalize", [[0.2, 0.3, 0.5]], DimensionMismatchError,
     "expected 3 probabilities for space 's3', got shape (1, 3)"),
    ("normalize", [[-0.2, 0.3, 0.5]], ValueError, "weights must be non-negative"),
    ("normalize", [[0.0, 0.0, 0.0]], AllZeroError, "cannot normalize all-zero weights over 's3'"),
    ("normalize", 2.0, DimensionMismatchError,
     "expected 3 probabilities for space 's3', got shape ()"),
    # check_rows(S3, value): the first bad row fails as its own Categorical would
    ("check_rows", [[-0.1, 0.6, 0.5]], ValueError, "probabilities must be non-negative"),
    ("check_rows", [[1.0, 0.0, 0.0], [NAN, 0.5, 0.5]], ValueError, _sum_message(NAN)),
    ("check_rows", [[INF, 0.5, 0.5]], ValueError, _sum_message(INF)),
    ("check_rows", [[1.0, 0.0, 0.0], [0.3, 0.3, 0.3], [-1.0, 1.0, 1.0]], ValueError,
     _sum_message(0.8999999999999999)),
    ("check_rows", [[0.5, 0.5]], DimensionMismatchError,
     "expected rows of 3 probabilities for 's3', got (1, 2)"),
    ("check_rows", [0.2, 0.3, 0.5], DimensionMismatchError,
     "expected rows of 3 probabilities for 's3', got (3,)"),
    ("check_rows", [[[0.2, 0.3, 0.5]]], DimensionMismatchError,
     "expected rows of 3 probabilities for 's3', got (1, 1, 3)"),
]
CHECKS = {
    "Categorical": lambda v: Categorical(S3, v),
    "normalize": lambda v: normalize(S3, v),
    "check_rows": lambda v: check_rows(S3, np.asarray(v, dtype=float)),
}


@pytest.mark.parametrize("check, value, error, message", RAISES)
def test_checks_raise_exact_type_and_message(check, value, error, message):
    with np.errstate(invalid="ignore"), pytest.raises(error) as info:
        CHECKS[check](value)
    assert type(info.value) is error
    assert str(info.value) == message


def test_point_mass_and_prob():
    c = point_mass(S3, "b")
    assert c.prob("b") == 1.0
    assert c.prob("a") == 0.0
    assert c.argmax_label() == "b"


def test_argmax_tie_takes_first_label():
    assert Categorical(S3, np.array([0.4, 0.4, 0.2])).argmax_label() == "a"


def test_from_dict_and_as_dict_round_trip():
    c = from_dict(S3, {"a": 0.2, "b": 0.5, "c": 0.3})
    assert c.as_dict() == {"a": 0.2, "b": 0.5, "c": 0.3}


def test_entropy_known_values():
    assert entropy(uniform(S3)) == pytest.approx(math.log(3), abs=1e-12)
    assert entropy(point_mass(S3, "a")) == 0.0
    half = Categorical(S3, np.array([0.5, 0.5, 0.0]))
    assert entropy(half) == pytest.approx(math.log(2), abs=1e-12)


def test_kl_identity_and_point_vs_uniform():
    c = Categorical(S3, np.array([0.2, 0.3, 0.5]))
    assert kl_divergence(c, c) == pytest.approx(0.0, abs=1e-12)
    assert kl_divergence(point_mass(S3, "a"), uniform(S3)) == pytest.approx(
        math.log(3), abs=1e-12
    )


def test_kl_support_violation():
    with pytest.raises(SupportViolationError):
        kl_divergence(uniform(S2), point_mass(S2, "y"))


def test_kl_cross_space_raises():
    with pytest.raises(DimensionMismatchError):
        kl_divergence(uniform(S3), uniform(S2))


def test_mix_endpoints_and_hand_value():
    a = Categorical(S3, np.array([0.7, 0.2, 0.1]))
    b = Categorical(S3, np.array([0.1, 0.8, 0.1]))
    assert np.allclose(mix(a, b, 0.0).probs, a.probs)
    assert np.allclose(mix(a, b, 1.0).probs, b.probs)
    assert np.allclose(mix(a, b, 0.35).probs, [0.49, 0.41, 0.10], atol=1e-12)
    with pytest.raises(WeightOutOfRangeError):
        mix(a, b, 1.5)


def test_nan_distributions_rejected():
    nan = float("nan")
    with pytest.raises(ValueError, match="must sum to 1"):
        Categorical(S3, [nan, nan, nan])
    with pytest.raises(ValueError, match="must sum to 1"):
        Categorical(S3, [nan, 0.5, 0.5])
    with pytest.raises(ValueError, match="weights must be non-negative"):
        normalize(S3, [nan, 1.0, 1.0])


@given(probs3())
def test_entropy_bounds(p):
    h = entropy(Categorical(S3, p))
    assert -1e-12 <= h <= math.log(3) + 1e-12


@given(probs3(), probs3())
def test_kl_nonnegative(p, q):
    assert kl_divergence(Categorical(S3, p), Categorical(S3, q)) >= -1e-12


@given(probs3(), probs3(), st.floats(min_value=0.0, max_value=1.0))
def test_mix_stays_normalized(p, q, w):
    m = mix(Categorical(S3, p), Categorical(S3, q), w)
    assert math.isclose(float(m.probs.sum()), 1.0, abs_tol=1e-9)
