import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from statecoach.errors import (
    AllZeroError,
    DimensionMismatchError,
    SupportViolationError,
    UnknownLabelError,
    WeightOutOfRangeError,
)
from statecoach.probs import (
    PROB_TOL,
    Categorical,
    LabelSpace,
    _checked_total,
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
# wrong-rank values; and a label space's and mix's checks of their spaces.
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
    # LabelSpace("t", value), and mix(uniform(S3), uniform(value), 0.5)
    ("LabelSpace", (), ValueError, "label space 't' must not be empty"),
    ("LabelSpace", ("a", "b", "a"), ValueError, "label space 't' has duplicate labels"),
    ("mix", S2, DimensionMismatchError, "mixing different spaces: 's3' vs 's2'"),
]
CHECKS = {
    "Categorical": lambda v: Categorical(S3, v),
    "normalize": lambda v: normalize(S3, v),
    "check_rows": lambda v: check_rows(S3, np.asarray(v, dtype=float)),
    "LabelSpace": lambda v: LabelSpace("t", v),
    "mix": lambda v: mix(uniform(S3), uniform(v), 0.5),
}


@pytest.mark.parametrize("check, value, error, message", RAISES)
def test_checks_raise_exact_type_and_message(check, value, error, message):
    with np.errstate(invalid="ignore"), pytest.raises(error) as info:
        CHECKS[check](value)
    assert type(info.value) is error
    assert str(info.value) == message


# The numpy checks Categorical and normalize made before they checked Python
# floats, kept as the reference: the float-list checks must raise what these
# raise, with the same message, or accept and return the same vector.
def reference_categorical(space, value):
    p = np.array(value, dtype=float)
    if p.ndim != 1 or p.shape[0] != len(space):
        raise DimensionMismatchError(
            f"expected {len(space)} probabilities for space {space.name!r}, got shape {p.shape}"
        )
    if np.logical_or.reduce(p < 0):
        raise ValueError("probabilities must be non-negative")
    total = np.add.reduce(p)
    if not abs(total - 1.0) <= PROB_TOL:
        raise ValueError(f"probabilities must sum to 1, got {total!r}")
    return p


def reference_normalize(space, weights):
    w = np.asarray(weights, dtype=float)
    if not np.logical_and.reduce(w >= 0, axis=None):
        raise ValueError("weights must be non-negative")
    total = np.add.reduce(w, axis=None)
    if total <= 0:
        raise AllZeroError(f"cannot normalize all-zero weights over {space.name!r}")
    return reference_categorical(space, w / total)


def outcome(check, space, value):
    """``("ok", dtype, shape, bytes)`` of the checked vector, or ``(error type, message)``."""
    with np.errstate(all="ignore"):
        try:
            result = check(space, value)
        except Exception as exc:
            return type(exc), str(exc)
    probs = result.probs if isinstance(result, Categorical) else result
    return "ok", probs.dtype, probs.shape, probs.tobytes()


SPACES = {n: LabelSpace(f"s{n}", tuple(f"l{i}" for i in range(n))) for n in range(1, 21)}
SPECIAL = [0.0, -0.0, NAN, INF, -INF, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-300, 1.0]


def nudged(x, ulps):
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(INF, ulps))
    return x


@st.composite
def vectors(draw):
    """0 to 20 floats: arbitrary ones, or ones summing within a few ulps of 1 or 1 ± PROB_TOL."""
    n = draw(st.integers(0, 20))
    if draw(st.booleans()):
        entry = st.one_of(st.floats(allow_subnormal=True), st.sampled_from(SPECIAL))
        return draw(st.lists(entry, min_size=n, max_size=n))
    v = draw(st.lists(st.floats(0.0, 1.0, allow_subnormal=True), min_size=n, max_size=n))
    total = math.fsum(v)
    if total > 0:
        v = [x / total for x in v]
    if v:
        target = draw(st.sampled_from([1.0, 1.0 + PROB_TOL, 1.0 - PROB_TOL]))
        i = draw(st.integers(0, n - 1))
        v[i] = nudged(v[i] + (target - math.fsum(v)), draw(st.integers(-4, 4)))
    for _ in range(draw(st.integers(0, 2))):
        if v:
            v[draw(st.integers(0, n - 1))] = draw(st.sampled_from(SPECIAL + [-v[0]]))
    return v


def space_for(draw, n):
    """Mostly the space of the vector's length; one draw in five, any space."""
    return SPACES[n if n and draw(st.integers(0, 4)) else draw(st.integers(1, 20))]


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_categorical_matches_the_numpy_checks(data):
    v = data.draw(vectors())
    space = space_for(data.draw, len(v))
    for value in (v, np.array(v, dtype=float)):
        assert outcome(Categorical, space, value) == outcome(reference_categorical, space, value)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_normalize_matches_the_numpy_checks(data):
    v = data.draw(vectors())
    space = space_for(data.draw, len(v))
    shape = data.draw(st.sampled_from(["1-d", "strided", "0-d", "row", "column", "2-d"]))
    value = np.array(v, dtype=float)
    if shape == "strided":
        value = np.repeat(value, 2)[::2]
    elif shape == "0-d":
        value = np.array(v[0] if v else 0.0)
    elif shape == "row":
        value = value.reshape(1, -1)
    elif shape == "column":
        value = value.reshape(-1, 1)
    elif shape == "2-d" and len(v) % 2 == 0:
        value = value.reshape(2, -1)
    assert outcome(normalize, space, value) == outcome(reference_normalize, space, value)


def test_checked_total_is_numpys_sum_bit_for_bit():
    """Below 8 entries the total is added in order by hand, which is only numpy's
    total while numpy sums that short a vector in order too: a numpy release that
    reorders it fails here.  From 8 entries on the total is numpy's own."""
    rng = np.random.default_rng(16)
    for n in range(1, 21):
        for _ in range(500):
            p = rng.random(n) * 10.0 ** rng.integers(-8, 9, size=n)
            total = _checked_total(p.tolist(), "weights", nan_passes=False)
            assert type(total) is float
            assert np.float64(total).tobytes() == np.add.reduce(p).tobytes(), (n, p.tolist())


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
