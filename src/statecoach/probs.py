"""Labelled categorical distributions and the information-theoretic helpers
built on them.

All distributions are finite and labelled, their entries in the order fixed
by their LabelSpace.  Logs are natural throughout, and the 0 * log 0 = 0
convention applies to entropy terms.

A distribution that depends only on its space is built and checked once and
then shared: ``uniform(space)`` returns the same read-only instance for the
life of ``space``.

The vectors are short (3 to 17 entries in the bundled vocabularies), and a
numpy call costs more than the arithmetic on a vector that short.  So a
``Categorical`` keeps its checked entries as a tuple of Python floats,
``values``, and builds its read-only ndarray ``probs`` only when a numpy
consumer first asks for it.  A list of exact Python floats, which is what
every float path makes, is checked in one loop over its entries; any other
input is converted by numpy first and checked on the Python floats of one
``tolist()``, so every error type and message is the one numpy's conversion
and the checks below give; ``check_rows`` raises them through Categorical.
A total taken on Python floats anywhere in the package follows one of two
rules, and builtin ``sum`` takes none, since its rounding depends on the
interpreter.  A vector's total is ``_total``'s: fewer than 8 entries are added
in order from 0.0, as numpy adds them, and a longer vector, which numpy adds
pairwise, is summed by ``np.add.reduce``.  A reduction over axis 0 of an array,
which numpy adds in order at any length, is added in order from 0.0 at any
length: a model's ``predict`` sums ``_predict``'s that way.  ``mix``,
``normalize``'s division and ``kl_divergence``'s arithmetic likewise run entry
by entry on Python floats, with the logs taken by one ``np.log`` call.
Every value, error type and message is the one the numpy expressions give.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (AllZeroError, DimensionMismatchError, SupportViolationError,
                     UnknownLabelError, WeightOutOfRangeError, is_finite, is_json)

# Tolerance for "sums to one" checks on constructed distributions.
PROB_TOL = 1e-9

# numpy sums a float64 vector in order from 0.0 below this length and pairwise
# from it on, so only below it does an in-order Python total equal numpy's.
_PAIRWISE_FROM = 8


def _total(values: list[float]) -> float:
    """``np.add.reduce`` of the float vector ``values``, bit for bit.

    Below _PAIRWISE_FROM entries it is added here in order from 0.0, as numpy adds
    it, and not by ``sum``, which compensates its rounding from Python 3.12 on.
    From _PAIRWISE_FROM entries on numpy adds pairwise, so numpy adds it here too.
    """
    if len(values) >= _PAIRWISE_FROM:
        return float(np.add.reduce(values))
    total = 0.0
    for v in values:
        total += v
    return total


def _checked_total(values: list[float], what: str, nan_passes: bool) -> float:
    """The total of a list of Python floats, checked entry by entry.

    An entry below zero raises ValueError("<what> must be non-negative"), and so
    does a NaN unless ``nan_passes``.
    """
    for v in values:
        if (v < 0) if nan_passes else (not v >= 0):
            raise ValueError(f"{what} must be non-negative")
    return _total(values)


def _plain_total(values, n: int) -> float | None:
    """``_total`` of ``values`` if it is a list of ``n`` exact Python floats with
    none below zero (a NaN passes), in one loop over them; else None."""
    if type(values) is not list or len(values) != n:
        return None
    total = 0.0
    for v in values:
        if type(v) is not float or v < 0:
            return None
        total += v
    return total if n < _PAIRWISE_FROM else _total(values)


@dataclass(frozen=True)
class LabelSpace:
    """An ordered, immutable set of labels; index order fixes vector order."""

    name: str
    labels: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.labels) == 0:
            raise ValueError(f"label space {self.name!r} must not be empty")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"label space {self.name!r} has duplicate labels")
        object.__setattr__(self, "_index", {l: i for i, l in enumerate(self.labels)})

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def __iter__(self):
        return iter(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabelError(f"{label!r} not in space {self.name!r}") from None


@dataclass(frozen=True)
class Categorical:
    """A probability distribution over a LabelSpace.

    ``values`` is given as the probability vector, checked at construction
    time to be non-negative and unit-sum within PROB_TOL, and kept as a tuple
    of its Python floats.  ``probs`` is the same vector as a read-only float64
    ndarray, built on first access and then kept.
    """

    space: LabelSpace
    values: tuple[float, ...]

    def __post_init__(self):
        values, n = self.values, len(self.space)
        total = _plain_total(values, n)
        if total is None:  # numpy's conversion, for its errors and its shape
            p = np.array(values, dtype=float)
            if p.ndim != 1 or p.shape[0] != n:
                raise DimensionMismatchError(
                    f"expected {n} probabilities for space "
                    f"{self.space.name!r}, got shape {p.shape}"
                )
            values = p.tolist()
            total = _checked_total(values, "probabilities", nan_passes=True)
        if not abs(total - 1.0) <= PROB_TOL:  # NaN fails too
            raise ValueError(f"probabilities must sum to 1, got {np.float64(total)!r}")
        object.__setattr__(self, "values", tuple(values))

    @cached_property
    def probs(self) -> np.ndarray:
        p = np.array(self.values)
        p.flags.writeable = False
        return p

    def prob(self, label: str) -> float:
        return self.values[self.space.index(label)]

    def argmax_label(self) -> str:
        """Most probable label; ties break toward the smaller index."""
        return self.space.labels[self.values.index(max(self.values))]

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.space.labels, self.values))


def check_rows(space: LabelSpace, rows: np.ndarray) -> None:
    """Categorical's check on every row of a (k, len(space)) array.

    One accept test runs first (a NaN fails it); only an array that fails it
    is checked row by row, so the first bad row raises its own Categorical error.
    """
    if rows.shape[1:] != (len(space),):
        raise DimensionMismatchError(
            f"expected rows of {len(space)} probabilities for {space.name!r}, got {rows.shape}"
        )
    totals = np.add.reduce(rows, axis=1)
    # initial=0.0 changes neither test and lets an array of no rows pass.
    if rows.min(initial=0.0) >= 0 and np.abs(totals - 1.0).max(initial=0.0) <= PROB_TOL:
        return
    for row in rows.tolist():  # Categorical totals a row as np.add.reduce does
        Categorical(space, row)


def uniform(space: LabelSpace) -> Categorical:
    """The uniform distribution over ``space``, built on first use and then shared."""
    u = getattr(space, "_uniform", None)
    if u is None:
        n = len(space)
        u = Categorical(space, [1.0 / n] * n)
        object.__setattr__(space, "_uniform", u)  # not a field: equality and repr ignore it
    return u


def point_mass(space: LabelSpace, label: str) -> Categorical:
    p = [0.0] * len(space)
    p[space.index(label)] = 1.0
    return Categorical(space, p)


def from_dict(space: LabelSpace, d: dict[str, float]) -> Categorical:
    """Build a distribution from a label->prob mapping (missing labels get 0).

    A value must be a float or an integer a float holds: a bool, a string or an
    integer beyond the float range is a ValueError naming its label.
    """
    p = np.zeros(len(space))
    for label, value in d.items():
        if not (type(value) is float or is_json(value, "integer") and is_finite(value)):
            raise ValueError(f"the probability of {label!r} must be a finite number, got {value!r}")
        p[space.index(label)] = value
    return Categorical(space, p)


def normalize(space: LabelSpace, weights) -> Categorical:
    """Normalize non-negative weights into a distribution.

    Raises ValueError for a negative or NaN weight and AllZeroError when every
    weight is zero; Categorical then raises DimensionMismatchError for a vector
    that does not match the space, so a wrong-length all-zero one is AllZeroError.
    A list of one exact Python float per label, none negative or NaN, is
    totalled in one loop over it (``_plain_total``, as Categorical checks it);
    any other input is converted by numpy first, for its errors and its shape.
    """
    w, total = weights, _plain_total(weights, len(space))
    if total is None or total != total:  # a NaN total has a NaN weight
        w = np.asarray(weights, dtype=float)
        values = w.ravel().tolist()
        total = _checked_total(values, "weights", nan_passes=False)
        if w.ndim == 1:
            w = values
    if total <= 0:
        raise AllZeroError(f"cannot normalize all-zero weights over {space.name!r}")
    # Another shape goes to Categorical as an array, for its shape in the error.
    return Categorical(space, [v / total for v in w] if type(w) is list else w / total)


def entropy(dist: Categorical) -> float:
    """Shannon entropy in nats, with 0 * log 0 = 0."""
    p = dist.probs
    nz = p > 0
    return float(-np.sum(p[nz] * np.log(p[nz])))


def _check_same_space(a: Categorical, b: Categorical, what: str) -> None:
    """A DimensionMismatchError about ``what`` unless ``a`` and ``b`` share a space's labels."""
    if a.space is not b.space and a.space.labels != b.space.labels:
        raise DimensionMismatchError(
            f"{what} different spaces: {a.space.name!r} vs {b.space.name!r}"
        )


def kl_divergence(q: Categorical, p: Categorical) -> float:
    """KL(q || p) in nats.

    Requires both distributions on the same space, and q absolutely
    continuous with respect to p (q puts no mass where p has none).
    """
    _check_same_space(q, p, "KL between")
    qv, pv = q.values, p.values
    nz = [i for i, x in enumerate(qv) if x > 0]
    labels = [q.space.labels[i] for i in nz if pv[i] <= 0]
    if labels:
        raise SupportViolationError(f"q has mass outside p's support at {labels}")
    qs = [qv[i] for i in nz]
    logs = np.log(qs + [pv[i] for i in nz]).tolist()  # log q, then log p
    return _total([x * (lq - lp) for x, lq, lp in zip(qs, logs, logs[len(qs):])])


def mix(a: Categorical, b: Categorical, weight: float) -> Categorical:
    """Convex combination (1 - weight) * a + weight * b.

    weight is the share given to b and must lie in [0, 1].
    """
    if not (0.0 <= weight <= 1.0):
        raise WeightOutOfRangeError(f"mixing weight must be in [0, 1], got {weight}")
    _check_same_space(a, b, "mixing")
    keep = 1.0 - weight
    return Categorical(a.space, [keep * x + weight * y for x, y in zip(a.values, b.values)])
